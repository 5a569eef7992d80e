"""Test oracles for the cones of qcubic.cones, for the pruned
monotonicity sweep and viscosity probe, and for the quaternion sign
table, and a sample slicer.

The program decides cone membership only through the certified pairwise
gauge test cones.breaking_pairs.  The closed-form membership tests below
are what the tests check that test, and the gauge kernel, against:

* K(lam): positive definite with eigenvalue ratio at most lam^2;
* K*(lam): p >= lam^2 q, with p the sum of the positive eigenvalues and q
  the absolute sum of the negative ones;
* L(lam): neither the matrix nor its negative lies in K*(lam).

full_breaking_pairs is cones.breaking_pairs in one pinch table over all
pairs, which breaking_pairs forms tile by tile; full_lift_sizes is
elliptic._lift_sizes in one GEMM over every verification point, which
_lift_sizes takes block by block.

full_monotonicity_sweep evaluates F on every trial of the sweep's draws,
which elliptic.monotonicity_sweep prunes to the trials its floor leaves
open; full_viscosity_probe evaluates F on every minorant and majorant,
which elliptic.viscosity_probe finishes only on the rows its brackets
leave open.

cayley_dickson builds the sign tables of R, C, H and O by doubling from
the reals, with no table written out: cd_product is the product of the
doubling, and algebra_q_matrix the Hessian of P(X, Y, Z) = Re(XYZ) over
any of the four algebras, read from a sign table.  At k = 4 they are the
independent oracle for quaternions.SIGNS and cubic.q_matrix.
"""

import numpy as np

from qcubic import elliptic, symspace
from qcubic.cones import _gauge, _pair_spectra
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


def full_breaking_pairs(bounds, z, s, cone, breaks):
    """cones.breaking_pairs with one pinch table of every pair, read through
    its transpose for the other order."""
    floor = bounds.pinch(cone, bounds)
    ii, jj = np.nonzero(np.triu(
        breaks(s[:, None] - s[None, :], floor.T, floor), 1))
    mu = _pair_spectra(z, z, ii, jj)
    bad = breaks(s[ii] - s[jj], _gauge(mu, cone), _gauge(-mu[:, ::-1], cone))
    return ii[bad], jj[bad]


def full_lift_sizes(verif, wv, bases, hb):
    """elliptic._lift_sizes with one (points, trials) GEMM over every
    verification point."""
    n = verif.shape[0]
    excess = (verif[:, :, None] * verif[:, None, :]).reshape(n, 144) \
        @ hb.reshape(-1, 144).T
    excess *= 0.5
    excess -= wv[:, None]
    at_base = (0.5 * np.einsum("ni,nij,nj->n", bases, hb, bases)
               - elliptic.eval_w(bases))
    margin = elliptic.MINORANT_MARGIN
    return (np.maximum(excess.max(axis=0), at_base) + margin,
            np.maximum(-excess.min(axis=0), -at_base) + margin)


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


def cd_conj(x):
    """Conjugate of a Cayley-Dickson coordinate vector: the real part
    kept, every other coordinate negated."""
    out = -x
    out[0] = x[0]
    return out


def cd_product(x, y):
    """Product of two coordinate vectors of length k = 2^j (any dtype) in
    the k-dimensional Cayley-Dickson algebra, doubling from R by
    (a, b)(c, d) = (ac - conj(d) b, da + b conj(c))."""
    if len(x) == 1:
        return x * y
    h = len(x) // 2
    a, b, c, d = x[:h], x[h:], y[:h], y[h:]
    return np.concatenate([cd_product(a, c) - cd_product(cd_conj(d), b),
                           cd_product(d, a) + cd_product(b, cd_conj(c))])


def cayley_dickson(k):
    """The k x k sign table of the Cayley-Dickson algebra of dimension k
    (1, 2, 4 or 8): entry (i, j) is coordinate i XOR j of e_i e_j, which
    is all of e_i e_j (the tests check that XOR rule)."""
    eye = np.eye(k, dtype=np.int64)
    return np.array([[cd_product(eye[i], eye[j])[i ^ j] for j in range(k)]
                     for i in range(k)])


def algebra_q_matrix(sigma, d):
    """The Hessian of P(X, Y, Z) = Re(XYZ) at rows d (..., 3k), over the
    algebra with k x k sign table sigma, in d's dtype.

    With C_ijl = Re(e_i e_j e_l) = sigma[i, j] sigma[l, l] at l = i XOR j
    and 0 elsewhere, P = sum C_ijl X_i Y_j Z_l, so each off-diagonal block
    is one einsum of C with the third block of d = (a, b, c).
    """
    k = len(sigma)
    i, j = np.indices((k, k))
    tensor = np.zeros((k, k, k), dtype=np.int64)
    tensor[i, j, i ^ j] = sigma * sigma[i ^ j, i ^ j]
    d = np.asarray(d)
    a, b, c = d[..., :k], d[..., k:2 * k], d[..., 2 * k:]
    xy = np.einsum("ijl,...l->...ij", tensor, c)
    xz = np.einsum("ijl,...j->...il", tensor, b)
    yz = np.einsum("ijl,...i->...jl", tensor, a)
    out = np.zeros(d.shape[:-1] + (3 * k, 3 * k), dtype=xy.dtype)
    for (r, s), block in (((0, 1), xy), ((0, 2), xz), ((1, 2), yz)):
        out[..., r * k:(r + 1) * k, s * k:(s + 1) * k] = block
        out[..., s * k:(s + 1) * k, r * k:(r + 1) * k] = np.swapaxes(
            block, -1, -2)
    return out
