"""Test oracles for the cones of qcubic.cones and for the pruned
monotonicity sweep and viscosity probe, and a sample slicer.

The program decides cone membership only through the certified pairwise
gauge test cones.breaking_pairs.  The closed-form membership tests below
are what the tests check that test, and the gauge kernel, against:

* K(lam): positive definite with eigenvalue ratio at most lam^2;
* K*(lam): p >= lam^2 q, with p the sum of the positive eigenvalues and q
  the absolute sum of the negative ones;
* L(lam): neither the matrix nor its negative lies in K*(lam).

full_monotonicity_sweep evaluates F on every trial of the sweep's draws,
which elliptic.monotonicity_sweep prunes to the trials its floor leaves
open; full_viscosity_probe evaluates F on every minorant and majorant,
which elliptic.viscosity_probe finishes only on the rows its brackets
leave open.
"""

import numpy as np

from qcubic import elliptic, symspace
from qcubic.cones import _gauge
from qcubic.eigen import eigvalsh_asc
from qcubic.elliptic import SigmaSample
from qcubic.sampling import (rng_for, unit_sphere, STREAM_MONOTONE,
                             STREAM_VISCOSITY)


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


def full_monotonicity_sweep(sigma, trials, seed):
    """min F(A + E) - F(A) over every trial of monotonicity_sweep's draws,
    each block's [A + E; A] evaluated in one F call.  The draw helpers are
    read from elliptic when called, so a test that patches them patches
    both sweeps."""
    rng = rng_for(seed, STREAM_MONOTONE)
    worst = np.inf
    block = 500
    done = 0
    while done < trials:
        b = min(block, trials - done)
        A = elliptic._random_sym(rng, b, scale=1.0)
        third = max(1, b // 3)
        pts = unit_sphere(rng, third)
        A[:third] = elliptic.hess_w(pts)
        E = elliptic._random_psd(rng, b) * rng.uniform(0.0, 3.0, (b, 1, 1))
        FAE, FA = np.split(sigma.F(np.concatenate([A + E, A])), 2)
        worst = min(worst, float(np.min(FAE - FA)))
        done += b
    return worst


def full_viscosity_probe(sigma, trials, seed):
    """viscosity_probe's report from F on every minorant and majorant of its
    draws, the whole stack in one F call.  _lift_sizes is read from
    elliptic when called, so a test that patches it patches both probes."""
    rng = rng_for(seed, STREAM_VISCOSITY)
    verif = np.concatenate([unit_sphere(rng, elliptic.VERIFICATION_COUNT),
                            sigma.sources], axis=0)
    n_half = trials // 2
    bases = unit_sphere(rng, trials)
    bases[:n_half] = sigma.sources[rng.integers(0, sigma.count, n_half)]
    tilts = (elliptic._random_psd(rng, trials)
             * rng.uniform(0.0, 0.5, (trials, 1, 1)))
    tilts[~(rng.uniform(size=trials) < 0.5)] = 0.0
    hb = elliptic.hess_w(bases)
    down, up = elliptic._lift_sizes(verif, elliptic.eval_w(verif), bases, hb)
    F_min, F_maj = np.split(sigma.F(np.concatenate(
        [hb - 2.0 * down[:, None, None] * np.eye(12) - tilts,
         hb + 2.0 * up[:, None, None] * np.eye(12) + tilts])), 2)
    tol = elliptic.VISCOSITY_TOL
    return elliptic.ViscosityReport(
        minorant_max_F=float(np.max(F_min)),
        majorant_min_F=float(np.min(F_maj)),
        minorant_violations=int(np.sum(F_min > tol)),
        majorant_violations=int(np.sum(F_maj < -tol)))
