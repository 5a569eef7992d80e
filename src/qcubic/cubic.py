"""The cubic form on R^12 and the spectra of its direction matrices.

Points of R^12 are split into three quaternion blocks X, Y, Z.  The cubic
form is the real part of the quaternion product,

    P(X, Y, Z) = Re(qX * qY * qZ),

and every direction d of norm sqrt(3) carries a symmetric 12x12 matrix
(the polarized second derivative of P along d) whose spectrum has a
closed form.  This module builds those matrices, computes the closed-form
spectra, and verifies the bounds that the rest of the package relies on.
"""

from __future__ import annotations

import numpy as np

from .eigen import _row_blocked, eigvalsh_desc
from .quaternions import matrix_M, qmul

SLACK_TOL = 1e-9  # allowance on each band bound and growth bound


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


def _closed_rows(m, n) -> np.ndarray:
    """The twelve closed-form roots at invariants (m, n), descending, in
    longdouble; m and n share any leading shape, which gains a last axis.

    With m = cos(alpha), n = cos(beta): six simple values
    2 cos(alpha/3 + pi k/3), k = 0..5, and three double values
    2 cos(beta/3 + pi (2l+1)/3), l = 0, 1, 2.  The trig runs in longdouble
    because arccos near +-1 amplifies rounding in m by 1/sqrt(1-m^2); pass
    longdouble m, n (see invariants_mn) to get the full benefit.
    """
    ld = np.longdouble
    m = np.clip(np.asarray(m, dtype=ld), ld(-1), ld(1))[..., None]
    n = np.clip(np.asarray(n, dtype=ld), ld(-1), ld(1))[..., None]
    pi = ld(np.pi)
    singles = 2.0 * np.cos(np.arccos(m) / 3.0
                           + pi * np.arange(6, dtype=ld) / 3.0)
    doubles = 2.0 * np.cos(np.arccos(n) / 3.0
                           + pi * (2 * np.arange(3, dtype=ld) + 1) / 3.0)
    vals = np.concatenate([singles, np.repeat(doubles, 2, axis=-1)], axis=-1)
    return np.sort(vals, axis=-1)[..., ::-1]


def invariants_mn(dirs: np.ndarray):
    """(m, n, t) for direction rows, computed in longdouble.

    The stored floats never sit exactly on the norm-sqrt(3) sphere, and the
    closed-form spectrum amplifies that defect like a square root near the
    degenerate strata (double roots split).  Since the direction matrix is
    linear in d and m, n are cubic, the exact fix is to rescale onto the
    sphere: with t = (|d|^2/3)^(1/2), the eigenvalues of the matrix of d
    are exactly t times the closed-form roots at (m/t^3, n/t^3).  Returns
    the rescaled m, n and the factor t.
    """
    v = np.asarray(dirs, dtype=np.longdouble)
    a, b, c = v[..., 0:4], v[..., 4:8], v[..., 8:12]
    na2, nb2, nc2 = (a * a).sum(-1), (b * b).sum(-1), (c * c).sum(-1)
    t = np.sqrt((na2 + nb2 + nc2) / 3.0)
    m = np.sqrt(na2 * nb2 * nc2)
    n = qmul(qmul(a, b), c)[..., 0]
    t3 = t ** 3
    return m / t3, n / t3, t


@_row_blocked
def spectrum_sweep(dirs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (numerical, descending) and closed-form spectra for a
    stack of norm-sqrt(3) direction vectors, shape (count, 12)."""
    dirs = np.asarray(dirs, dtype=float)
    vals = eigvalsh_desc(q_matrix(dirs))
    m, n, t = invariants_mn(dirs)
    return vals, (t[:, None] * _closed_rows(m, n)).astype(float)


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

    For each row returns (l3, l10, lperp_plus, lperp_minus), the last two
    the extreme eigenvalues of the direction matrix compressed to the
    complement of the direction (perp_basis).
    """
    mats = q_matrix(dirs)
    vals = eigvalsh_desc(mats)
    p = perp_basis(dirs)
    cvals = np.linalg.eigvalsh(np.swapaxes(p, -1, -2) @ mats @ p)
    return np.stack([vals[:, 2], vals[:, 9], cvals[:, -1], cvals[:, 0]],
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


def cor4_check(u, v) -> dict:
    """Two-sided growth bound for the cubic form between sphere points.

    For point rows u, v (..., 12) on the sphere of radius sqrt(3), with
    d = sqrt(3)(u-v)/|u-v|:

        3 sqrt(3) l10(d) |u-v| / 4  <=  P(u) - P(v)  <=  3 sqrt(3) l3(d) |u-v| / 4

    Returns arrays of the two slacks, l3, l10 and a pass flag per pair
    (each bound allowed SLACK_TOL).
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    for w in (u, v):
        if np.any(np.abs(np.einsum("...i,...i->...", w, w) - 3.0) > 1e-9):
            raise ValueError("cor4_check: points must lie on the sphere of radius sqrt(3)")
    gap = np.linalg.norm(u - v, axis=-1)
    if np.any(gap < 1e-9):
        raise ValueError("cor4_check: points too close")
    lam = eigvalsh_desc(q_matrix((u - v) * (np.sqrt(3.0) / gap)[..., None]))
    l3, l10 = lam[..., 2], lam[..., 9]
    diff = eval_P(u) - eval_P(v)
    scale = 3.0 * np.sqrt(3.0) * gap / 4.0
    lower, upper = scale * l10, scale * l3
    return {
        "passed": (lower - SLACK_TOL <= diff) & (diff <= upper + SLACK_TOL),
        "lower_slack": diff - lower,
        "upper_slack": upper - diff,
        "l3": l3,
        "l10": l10,
    }


def strata_directions(rng: np.random.Generator, count_each: int = 50) -> np.ndarray:
    """Targeted direction samples on the degenerate strata.

    * m = 0: one block zero, the others filling the norm budget;
    * m = 1: all three blocks unit norm;
    * n = +1 and n = -1: unit blocks with c = +-conj(qa qb).

    Returns a stack of norm-sqrt(3) vectors including the corner cases.
    """
    out = []
    sq = np.sqrt(3.0)

    def unit4(k):
        w = rng.standard_normal((k, 4))
        return w / np.linalg.norm(w, axis=1, keepdims=True)

    # m = 0 stratum: zero out one block per sample, cycle which one.
    for i in range(count_each):
        w = rng.standard_normal(12)
        w[4 * (i % 3): 4 * (i % 3) + 4] = 0.0
        out.append(w * (sq / np.linalg.norm(w)))
    # m = 1 torus: three independent unit blocks.
    abc = np.concatenate([unit4(count_each), unit4(count_each), unit4(count_each)], axis=1)
    out.extend(abc)
    # n = +-1 corners.
    for sgn in (+1.0, -1.0):
        a, b = unit4(count_each), unit4(count_each)
        c = sgn * qmul(a, b)
        c[:, 1:] = -c[:, 1:]
        out.extend(np.concatenate([a, b, c], axis=1))
    return np.asarray(out)
