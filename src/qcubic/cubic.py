"""The cubic form on R^12 and the spectra of its direction matrices.

Points of R^12 are split into three quaternion blocks X, Y, Z.  The cubic
form is the real part of the quaternion product,

    P(X, Y, Z) = Re(qX * qY * qZ),

and every direction d carries a symmetric 12x12 matrix (the polarized
second derivative of P along d) whose spectrum has a closed form.  This
module builds those matrices, computes the closed-form spectra, and
verifies the bounds that the rest of the package relies on.

The closed form rests on one identity: for d = (a, b, c), m^2 =
|a|^2 |b|^2 |c|^2 and n = P(d),

    det(xI - q_matrix(d)) = ((x^3 - |d|^2 x)^2 - 4 m^2) (x^3 - |d|^2 x + 2n)^2.

closed_spectrum evaluates its roots, the one closed form of the spectrum.
spectrum_sweep compares it against LAPACK as it stands.  charpoly_identity
checks the identity exactly at random integer points, which proves it for
every d but with probability at most (12/2^32)^2 (its docstring);
q_extremes reads q_matrix's extreme eigenvalues from closed_spectrum only
while that certificate holds for the live matrix_M, and from LAPACK
otherwise.
"""

from __future__ import annotations

import numpy as np

from .eigen import _row_blocked, eigvalsh_asc
from .quaternions import matrix_M, qconj, qmul
from .sampling import STREAM_CHARPOLY, rng_for, unit_sphere

SLACK_TOL = 1e-9  # allowance on each band bound and growth bound
CHARPOLY_POINTS = 2  # integer points of the charpoly_identity certificate


def eval_P(v) -> np.ndarray:
    """The cubic form Re(qX qY qZ); v has shape (..., 12)."""
    v = np.asarray(v, dtype=float)
    return qmul(qmul(v[..., 0:4], v[..., 4:8]), v[..., 8:12])[..., 0]


def q_matrix(d) -> np.ndarray:
    """Symmetric matrix of the quadratic form 2*Q_d, for any d in R^12.

    Q_d(v) is the derivative of P at v in the direction d, so this matrix
    is linear in d and equals the Hessian of P at the point d, for any norm.

    Blocks (a, b, c = quaternion blocks of d):

        [ 0      M_c    M_b^T ]
        [ M_c^T  0      M_a   ]
        [ M_b    M_a^T  0     ]
    """
    d = np.asarray(d, dtype=float)
    ma = matrix_M(d[..., 0:4])
    mb = matrix_M(d[..., 4:8])
    mc = matrix_M(d[..., 8:12])
    mat = np.zeros(d.shape[:-1] + (12, 12))
    mbt = np.swapaxes(mb, -1, -2)
    mat[..., 0:4, 4:8] = mc
    mat[..., 4:8, 0:4] = np.swapaxes(mc, -1, -2)
    mat[..., 0:4, 8:12] = mbt
    mat[..., 8:12, 0:4] = mb
    mat[..., 4:8, 8:12] = ma
    mat[..., 8:12, 4:8] = np.swapaxes(ma, -1, -2)
    return mat


def grad_P(v) -> np.ndarray:
    """Gradient of the cubic form: one half of q_matrix(v) @ v."""
    v = np.ascontiguousarray(v, dtype=float)  # C order: sums round by layout
    return 0.5 * np.einsum("...ij,...j->...i", q_matrix(v), v)


def invariants_mn(dirs: np.ndarray):
    """(t, m, m_perp, n, n_perp) for nonzero direction rows d = (a, b, c)
    of any norm, shape (count, 12), in float64.

    With t^2 = |d|^2/3: m = |a||b||c| = t^3 cos(alpha) and n = P(d) = t^3
    cos(beta), and m_perp = t^3 sin(alpha), n_perp = t^3 sin(beta) their
    legs; m/t^3 and n/t^3 are the invariants of d/t on the norm-sqrt(3)
    sphere.  Near the strata the angles are ill-conditioned in m and n, so
    the legs come from quantities formed without cancellation: t^3 - m from
    the deviations of |a|^2, |b|^2, |c|^2 from their mean, and t^3 -+ n
    from it and |q| - |Re q| = |Im q|^2/(|q| + |Re q|), q = abc.
    """
    blocks = np.asarray(dirs, dtype=float).reshape(-1, 3, 4)
    sq = np.sum(blocks * blocks, axis=2)
    mean = sq.mean(axis=1)
    t = np.sqrt(mean)
    t3, m = mean * t, np.sqrt(sq[:, 0] * sq[:, 1] * sq[:, 2])
    dev = sq - mean[:, None]
    gap = np.maximum(0.5 * mean * np.sum(dev * dev, axis=1)  # t^3 - m
                     - dev[:, 0] * dev[:, 1] * dev[:, 2], 0.0) / (t3 + m)
    q = qmul(qmul(blocks[:, 0], blocks[:, 1]), blocks[:, 2])
    far = m + np.abs(q[:, 0])
    near = np.sum(q[:, 1:] ** 2, axis=1) / np.maximum(far, np.finfo(float).tiny)
    below = gap + np.where(q[:, 0] > 0, near, far)  # t^3 - n
    above = gap + np.where(q[:, 0] > 0, far, near)  # t^3 + n
    return t, m, np.sqrt(gap * (t3 + m)), q[:, 0], np.sqrt(below * above)


def closed_spectrum(dirs: np.ndarray) -> np.ndarray:
    """The twelve closed-form eigenvalues of q_matrix(d), descending, for
    nonzero direction rows d of any norm, shape (count, 12).

    From charpoly_identity's factors, with t, alpha, beta from invariants_mn:
    six simple values +-2t cos(alpha/3) and +-2t cos(alpha/3 -+ pi/3), and
    three double values 2t cos(beta/3 - pi/3), 2t cos(beta/3 + pi/3) and
    -2t cos(beta/3).  alpha is in [0, pi/2] and |n| <= m puts beta in
    [alpha, pi - alpha], so each double lies between two simple values and
    the rows come out in order, unsorted: two arctan2 and six cos a row.

    Both angles are within a few eps, so each value is within 1e-13 |d| of
    q_matrix(d)'s; measured below 4e-15 |d| on random rows and on strata
    rows jittered by 0 to 1e-2, at scales 1e-6 to 1e8.  It reads no
    matrix_M and is never gated: spectrum_sweep's oracle.
    """
    t, m, m_perp, n, n_perp = invariants_mn(dirs)
    t = t[:, None]
    alpha3 = np.arctan2(m_perp, m)[:, None] / 3.0
    beta3 = np.arctan2(n_perp, n)[:, None] / 3.0
    l1 = 2.0 * t * np.cos(alpha3)
    l4 = 2.0 * t * np.cos(alpha3 - np.pi / 3.0)
    l5 = 2.0 * t * np.cos(alpha3 + np.pi / 3.0)
    l2 = 2.0 * t * np.cos(beta3 - np.pi / 3.0)
    l6 = 2.0 * t * np.cos(beta3 + np.pi / 3.0)
    l10 = -2.0 * t * np.cos(beta3)
    return np.concatenate([l1, l2, l2, l4, l5, l6, l6, -l5, -l4, l10, l10,
                           -l1], axis=1)


def charpoly_ints(mat) -> list:
    """Coefficients of det(xI - mat) from the top degree down, for a square
    matrix of Python ints, by Faddeev-LeVerrier: every division is exact."""
    eye = np.eye(len(mat), dtype=np.int64).astype(object)
    am, coef = 0 * eye, [1]  # mat M_k, and the coefficients so far
    for k in range(1, len(mat) + 1):
        am = mat @ (am + coef[-1] * eye)
        coef.append(-np.trace(am) // k)
    return coef


def charpoly_identity() -> np.ndarray:
    """The characteristic-polynomial identity of the module docstring,
    checked exactly at CHARPOLY_POINTS points drawn uniformly from
    [-2^31, 2^31)^12 (seed 0, stream STREAM_CHARPOLY): one flag per point.

    At integer d every entry of q_matrix(d) is +-d_i, exact in float64, so
    charpoly_ints runs over Python ints and divides exactly; n comes
    from qmul in ints.  Each coefficient of x^k on either side is a
    polynomial of degree 12 - k in d, so by Schwartz-Zippel (Schwartz, JACM
    27, 1980) a false identity holds at one uniform point with probability
    at most 12/2^32, and at k independent points with at most (12/2^32)^k:
    about 7.8e-18 for k = 2.
    """
    pts = rng_for(0, STREAM_CHARPOLY).integers(-2**31, 2**31,
                                              (CHARPOLY_POINTS, 12))
    out = []
    for d in pts:
        coef = charpoly_ints(q_matrix(d).astype(np.int64).astype(object))
        blocks = d.astype(object).reshape(3, 1, 4)
        na, nb, nc = (np.sum(x * x) for x in blocks)
        n = qmul(qmul(blocks[0], blocks[1]), blocks[2])[0, 0]
        cube = np.array([1, 0, -(na + nb + nc), 0], dtype=object)
        singles = np.convolve(cube, cube)
        singles[-1] -= 4 * na * nb * nc
        doubles = cube.copy()
        doubles[-1] += 2 * n
        out.append(list(np.convolve(singles, np.convolve(doubles, doubles)))
                   == coef)
    return np.array(out)


def closed_form_certified() -> bool:
    """Whether charpoly_identity holds at every point, memoized on the live
    matrix_M (a build that replaces matrix_M is certified afresh)."""
    fn = matrix_M
    if not hasattr(fn, "charpoly_certified"):
        fn.charpoly_certified = bool(np.all(charpoly_identity()))
    return fn.charpoly_certified


@_row_blocked
def q_extremes(dirs: np.ndarray) -> np.ndarray:
    """Rows (l1, l3, l10, l12) of the descending spectrum of q_matrix(d),
    for nonzero direction rows d of any norm: closed_spectrum's while
    closed_form_certified(), LAPACK's otherwise."""
    if not closed_form_certified():
        return eigvalsh_asc(q_matrix(dirs))[:, [11, 9, 2, 0]]
    return closed_spectrum(dirs)[:, [0, 2, 9, 11]]


@_row_blocked
def spectrum_sweep(dirs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """LAPACK's descending eigenvalues and closed_spectrum's for a stack of
    nonzero direction rows of any norm, shape (count, 12)."""
    dirs = np.asarray(dirs, dtype=float)
    return eigvalsh_asc(q_matrix(dirs))[:, ::-1], closed_spectrum(dirs)


def band_slack(vals) -> np.ndarray:
    """Worst slack of the band bounds per descending spectrum row:
    2 >= l1, l4 >= 1, -1 >= l9, l12 >= -2, l1 >= sqrt(3), l12 <= -sqrt(3),
    each allowed SLACK_TOL.  Nonnegative iff every bound holds."""
    lam = np.asarray(vals, dtype=float)
    tol = SLACK_TOL
    return np.min(np.stack([
        2.0 + tol - lam[..., 0], lam[..., 3] - 1.0 + tol,
        -1.0 + tol - lam[..., 8], lam[..., 11] + 2.0 + tol,
        lam[..., 0] - np.sqrt(3.0) + tol,
        -np.sqrt(3.0) + tol - lam[..., 11]]), axis=0)


def perp_basis(d) -> np.ndarray:
    """Orthonormal bases of the complements of direction rows d (..., 12),
    as columns (..., 12, 11).

    Householder construction: reflect d/|d| onto -+e1 and keep the other
    eleven columns of the reflector.
    """
    d = np.asarray(d, dtype=float)
    u = d / np.linalg.norm(d, axis=-1, keepdims=True)
    v = u.copy()
    v[..., 0] += np.where(u[..., 0] >= 0, 1.0, -1.0)
    vv = (np.einsum("...i,...j->...ij", v, v)
          / np.einsum("...i,...i->...", v, v)[..., None, None])
    # First column of the reflector is -+u; the rest span the complement.
    return (np.eye(12) - 2.0 * vv)[..., 1:]


@_row_blocked
def perp_sweep(dirs: np.ndarray) -> np.ndarray:
    """Ratio data for the compression bound over direction rows.

    For each row returns (l3, l10, lperp_plus, lperp_minus): l3 and l10
    from q_extremes, the last two the extreme eigenvalues of the direction
    matrix compressed to the complement of the direction (perp_basis).
    """
    mats = q_matrix(dirs)
    ext = q_extremes(dirs)
    p = perp_basis(dirs)
    cvals = eigvalsh_asc(np.swapaxes(p, -1, -2) @ mats @ p)
    return np.stack([ext[:, 1], ext[:, 2], cvals[:, -1], cvals[:, 0]],
                    axis=1)


def cubic_roots_check(m) -> np.ndarray:
    """Roots of x^3 - 3x - 2m for |m| <= 1, descending along a new last
    axis; m is a scalar or an array.

    Trigonometric form 2 cos(arccos(m)/3 + 2 pi k/3).  Raises outside the
    domain.
    """
    m = np.asarray(m, dtype=float)
    if np.any(np.abs(m) > 1.0 + 1e-12):
        raise ValueError("cubic_roots_check: need |m| <= 1")
    m = np.clip(m, -1.0, 1.0)[..., None]
    roots = 2.0 * np.cos(np.arccos(m) / 3.0 + 2.0 * np.pi * np.arange(3) / 3.0)
    return np.sort(roots, axis=-1)[..., ::-1]


def cor4_check(u, v):
    """Two-sided growth bound for the cubic form between sphere points.

    For point rows u, v (..., 12) on the sphere of radius sqrt(3), with
    d = sqrt(3)(u-v)/|u-v|:

        3 sqrt(3) l10(d) |u-v| / 4  <=  P(u) - P(v)  <=  3 sqrt(3) l3(d) |u-v| / 4

    Returns (lower_slack, upper_slack), one entry per pair: P(u) - P(v)
    less the lower bound and the upper bound less P(u) - P(v).  Each bound
    holds iff its slack is >= -SLACK_TOL.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    for w in (u, v):
        if np.any(np.abs(np.einsum("...i,...i->...", w, w) - 3.0) > 1e-9):
            raise ValueError("cor4_check: points must lie on the sphere of radius sqrt(3)")
    gap = np.linalg.norm(u - v, axis=-1)
    if np.any(gap < 1e-9):
        raise ValueError("cor4_check: points too close")
    d = (u - v) * (np.sqrt(3.0) / gap)[..., None]
    ext = q_extremes(d.reshape(-1, 12)).reshape(gap.shape + (4,))
    diff = eval_P(u) - eval_P(v)
    scale = 3.0 * np.sqrt(3.0) * gap / 4.0
    return diff - scale * ext[..., 2], scale * ext[..., 1] - diff


def strata_directions(rng: np.random.Generator, count_each: int) -> np.ndarray:
    """Targeted direction samples on the degenerate strata.

    * m = 0: one block zero, the others filling the norm budget;
    * m = 1: all three blocks unit norm;
    * n = +1 and n = -1: unit blocks with c = +-conj(qa qb).

    Returns a stack of norm-sqrt(3) vectors including the corner cases.
    """
    out = []
    sq = np.sqrt(3.0)
    # m = 0 stratum: zero out one block per sample, cycle which one.
    for i in range(count_each):
        w = rng.standard_normal(12)
        w[4 * (i % 3): 4 * (i % 3) + 4] = 0.0
        out.append(w * (sq / np.linalg.norm(w)))
    # m = 1 torus: three independent unit blocks.
    out.extend(np.concatenate(
        [unit_sphere(rng, count_each, 4) for _ in range(3)], axis=1))
    # n = +-1 corners.
    for sgn in (+1.0, -1.0):
        a, b = unit_sphere(rng, count_each, 4), unit_sphere(rng, count_each, 4)
        out.extend(np.concatenate([a, b, qconj(sgn * qmul(a, b))], axis=1))
    return np.asarray(out)
