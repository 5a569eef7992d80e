"""Test oracles for the cones of qcubic.cones, and a sample slicer.

The program decides cone membership only through the certified pairwise
gauge test cones.breaking_pairs.  The closed-form membership tests below
are what the tests check that test, and the gauge kernel, against:

* K(lam): positive definite with eigenvalue ratio at most lam^2;
* K*(lam): p >= lam^2 q, with p the sum of the positive eigenvalues and q
  the absolute sum of the negative ones;
* L(lam): neither the matrix nor its negative lies in K*(lam).
"""

import numpy as np

from qcubic import symspace
from qcubic.cones import _gauge
from qcubic.eigen import eigvalsh_asc
from qcubic.elliptic import SigmaSample


def in_dual(vals, cone):
    """Row-wise K*(lam) membership from eigenvalue rows (boundary included)."""
    p = np.sum(np.where(vals > 0, vals, 0.0), axis=-1)
    q = np.sum(np.where(vals < 0, -vals, 0.0), axis=-1)
    return p >= cone.lam**2 * q


def in_L(vals, cone):
    """Row-wise L(lam) membership from eigenvalue rows."""
    return ~(in_dual(vals, cone) | in_dual(-vals, cone))


def in_K(mat, cone):
    """Positive definite with eigenvalue ratio at most lam^2."""
    vals = np.linalg.eigvalsh(mat)
    return bool(vals[0] > 0 and vals[-1] <= cone.lam**2 * vals[0])


def support_x(z, cone):
    """The support gauge x(z) of traceless coordinates z, single or stack:
    the least c with embed(z) + c I/sqrt(12) in K*(lam), read by the
    program's kernel from one eigensolve per row."""
    return _gauge(eigvalsh_asc(symspace.embed_traceless(z)), cone)


def prefix(sigma, count):
    """The first count points of a graph sample, at its seed and cone."""
    return SigmaSample(sigma.sources[:count], sigma.z[:count],
                       sigma.s[:count], sigma.seed, sigma.cone)
