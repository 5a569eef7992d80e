"""The order-2 homogeneous potential w = P(x)/|x| and its Hessian field.

The Hessian of w is homogeneous of order zero, so restricting it to the
unit sphere loses nothing.  The key facts verified downstream:

* between any two unit points the Hessian difference has slopes of both
  signs, bounded away from zero (witnesses; witness_worst builds them only
  where a floor does not clear the pair, through cones._pruned_min);
* the ratio of its extreme eigenvalues is pinched inside
  [1/(1536 sqrt 3), 1536 sqrt 3];
* all third directional derivatives on the unit sphere are bounded by 32.
"""

from __future__ import annotations

import numpy as np

from .cones import _pruned_min
from .cubic import eval_P, grad_P, q_matrix
from .eigen import _row_blocked, eigh_desc, eigvalsh_desc
from .sampling import unit_pairs, unit_sphere

# Pinch constant for the extreme-eigenvalue ratio of Hessian differences.
RATIO_BOUND = 1536.0 * np.sqrt(3.0)
# Quantitative witness slope: unit second-derivative gap per unit distance.
WITNESS_SLOPE = 1.0 / (4.0 * np.sqrt(3.0))
THIRD_DERIVATIVE_BOUND = 32.0

MIN_RADIUS = 1e-12
MIN_SEPARATION = 1e-9
THIRD_FD_STEP = 1e-5    # central-difference step of third_derivative_sweep
WITNESS_GUARD = 1e-2    # witness_worst's pruning margin (bound in its docstring)


def eval_w(x) -> np.ndarray:
    """w(x) = P(x)/|x|, the order-2 homogeneous potential."""
    x = np.asarray(x, dtype=float)
    r = np.linalg.norm(x, axis=-1)
    if np.any(r < MIN_RADIUS):
        raise ValueError("eval_w: undefined at the origin")
    return eval_P(x) / r


def grad_w(x) -> np.ndarray:
    """Closed-form gradient: grad(P)/r - P x / r^3."""
    x = np.ascontiguousarray(x, dtype=float)  # C order: sums round by layout
    r = np.linalg.norm(x, axis=-1)
    if np.any(r < MIN_RADIUS):
        raise ValueError("grad_w: undefined at the origin")
    p = eval_P(x)
    return grad_P(x) / r[..., None] - (p / r**3)[..., None] * x


def hess_w(x) -> np.ndarray:
    """Closed-form Hessian of w.

    D2w = D2P/r - (gP ox x + x ox gP)/r^3 - P I/r^3 + 3 P (x ox x)/r^5,
    with D2P(x) the direction matrix of x itself (q_matrix is linear).
    One q_matrix gives D2P and gP = D2P x / 2 (as grad_P does); the terms
    are summed in place left to right, so every element rounds as above.
    """
    x = np.ascontiguousarray(x, dtype=float)  # C order: sums round by layout
    r = np.linalg.norm(x, axis=-1)[..., None, None]
    if np.any(r < MIN_RADIUS):
        raise ValueError("hess_w: undefined at the origin")
    p = eval_P(x)[..., None, None]
    out = q_matrix(x)
    gp = 0.5 * np.einsum("...ij,...j->...i", out, x)
    out /= r
    r3 = r**3
    term = gp[..., :, None] * x[..., None, :]
    term = term + np.swapaxes(term, -1, -2)
    term /= r3
    out -= term
    # (P/r^3) I equals (P I)/r^3 elementwise, signed zeros included (r > 0)
    np.multiply(p / r3, np.eye(12), out=term)
    out -= term
    np.multiply(x[..., :, None], x[..., None, :], out=term)
    term *= 3.0 * p
    term /= r**5
    out += term
    return out


@_row_blocked
def pair_ratio_sweep(a_pts: np.ndarray, b_pts: np.ndarray) -> np.ndarray:
    """Extreme-eigenvalue data for stacks of unit-point pairs.

    Returns rows (mu1, mu12, ratio) with ratio = -mu1/mu12.
    """
    vals = eigvalsh_desc(hess_w(a_pts) - hess_w(b_pts))
    mu1, mu12 = vals[:, 0], vals[:, -1]
    return np.stack([mu1, mu12, -mu1 / mu12], axis=1)


def witness_directions(a, b):
    """Witness directions (e, f) for stacks of unit-point pairs (..., 12).

    With d = sqrt(3)(a-b)/|a-b| and the direction matrix of d:

    * e: unit vector in the span of the top three eigenvectors, orthogonal
      to both a and b.  Guarantees w_ee(a) - w_ee(b) >= |a-b|/(4 sqrt 3).
    * f: same from the bottom three, flipping the inequality.

    The kernel vector inside each 3-dim eigenspace solves a 2x3 homogeneous
    system (inner products against a and b); its null space is the cross
    product of the two rows.  Where the rows are parallel (cross product
    below 1e-10, as on exact n = +-1 stratum pairs) it is e_k less its
    projection on the longer row p, k the least |p_k|.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    gap = np.linalg.norm(a - b, axis=-1)
    if np.any(gap < MIN_SEPARATION):
        raise ValueError("witness_directions: pairs closer than 1e-9")
    _, vecs = eigh_desc(q_matrix((a - b) * (np.sqrt(3.0) / gap)[..., None]))
    out = []
    for cols in (vecs[..., 0:3], vecs[..., 9:12]):
        pa = np.einsum("...i,...ik->...k", a, cols)
        pb = np.einsum("...i,...ik->...k", b, cols)
        y = np.cross(pa, pb)
        p = np.where((np.linalg.norm(pa, axis=-1)
                      < np.linalg.norm(pb, axis=-1))[..., None], pb, pa)
        k = np.argmin(np.abs(p), axis=-1)[..., None]
        pp = np.maximum(np.sum(p * p, axis=-1, keepdims=True), 1e-300)
        perp = (np.arange(3) == k) - p * (np.take_along_axis(p, k, -1) / pp)
        y = np.where((np.linalg.norm(y, axis=-1) < 1e-10)[..., None], perp, y)
        nrm = np.linalg.norm(y, axis=-1)
        e = np.einsum("...ik,...k->...i", cols, y / nrm[..., None])
        out.append(e / np.linalg.norm(e, axis=-1, keepdims=True))
    return out[0], out[1]


@_row_blocked
def witness_sweep(a_pts: np.ndarray, b_pts: np.ndarray):
    """Quantitative two-sided Hessian separation along the witness
    directions (witness_directions) of stacks of unit-point pairs.

    Returns the two slack arrays (each should be >= 0 up to tolerance):
        top:    w_ee(a) - w_ee(b) - |a-b|/(4 sqrt 3)
        bottom: -|a-b|/(4 sqrt 3) - (w_ff(a) - w_ff(b))
    """
    a_pts = np.asarray(a_pts, dtype=float)
    b_pts = np.asarray(b_pts, dtype=float)
    e, f = witness_directions(a_pts, b_pts)
    hd = hess_w(a_pts) - hess_w(b_pts)
    thresh = np.linalg.norm(a_pts - b_pts, axis=-1) * WITNESS_SLOPE
    return (np.einsum("...i,...ij,...j->...", e, hd, e) - thresh,
            -thresh - np.einsum("...i,...ij,...j->...", f, hd, f))


@_row_blocked
def witness_floor(a_pts: np.ndarray, b_pts: np.ndarray):
    """Lower bounds s l3 - dP - thresh and dP - thresh - s l10 on
    witness_sweep's two slacks (witness_worst), dP = P(a) - P(b), with s l3,
    s l10 from LAPACK on q_matrix(a - b) = s q_matrix(d), s = |a-b|/sqrt 3."""
    gap = np.linalg.norm(a_pts - b_pts, axis=-1)
    vals = eigvalsh_desc(q_matrix(a_pts - b_pts))
    dp, thresh = eval_P(a_pts) - eval_P(b_pts), gap * WITNESS_SLOPE
    return vals[:, 2] - dp - thresh, dp - thresh - vals[:, 9]


def witness_worst(rng: np.random.Generator, pairs: int) -> float:
    """Least witness_sweep slack, both sides, over `pairs` unit_pairs pairs
    (closer than 1e-6 dropped): bitwise a full pass's, few pairs solved,
    one cones._pruned_min per block on witness_floor's lesser floor.

    On unit e orthogonal to unit a, b, hess_w's rank-one terms vanish and
    q_matrix is linear: e^T (hess_w(a) - hess_w(b)) e = s e^T Q(d) e - dP,
    >= s l3 - dP on Q(d)'s top eigenspace (f: <= s l10 - dP on the bottom).
    Rounding: e is orthogonal to a, b within (4/nrm + 32) eps < 9e-6 where
    the cross product's nrm >= 1e-10, else within min(|p|, 1e-10/|p|) +
    32 eps < 1.0001e-5 (the other row is no longer than p and within
    1e-10/|p| of its line).  |grad P| <= |Q(x)|_F / 2 = sqrt 2 on the unit
    sphere for any signs in q_matrix (1/sqrt 3 in the true build), so the
    vanished terms add < 5.7e-5 a pair, the rest < 1e-12: WITNESS_GUARD
    covers that over 170 times.
    """
    def block_min(a, b):
        return _pruned_min(
            np.minimum(*witness_floor(a, b))[None], WITNESS_GUARD,
            lambda e, i: np.minimum(*witness_sweep(a[i], b[i])))[0]
    return min((block_min(a, b) for a, b in unit_pairs(rng, pairs, 1e-6)),
               default=np.inf)


def third_derivative_sweep(rng: np.random.Generator,
                           samples: int) -> np.ndarray:
    """|w_efg| at random unit points along random unit directions.

    Central difference of the closed-form Hessian, h = THIRD_FD_STEP:
        w_efg(x) ~ e^T (hess_w(x + h g) - hess_w(x - h g)) e_f / 2h.
    Returns the sampled absolute values (all should be <= 32).
    """
    @_row_blocked
    def rows(x, e, f, g):
        diff = hess_w(x + THIRD_FD_STEP * g) - hess_w(x - THIRD_FD_STEP * g)
        return np.abs(np.einsum("ni,nij,nj->n", e, diff, f)
                      / (2.0 * THIRD_FD_STEP))
    return rows(*(unit_sphere(rng, samples) for _ in range(4)))


def ratio_bound_estimate(rng: np.random.Generator, pairs: int):
    """Empirical pinch of the Hessian-difference eigenvalue ratio.

    Draws random unit pairs with unit_pairs (pairs closer than 1e-9 are
    dropped; none in practice) and returns (M_hat, r_min, r_max) where
    r = -mu1/mu12 and M_hat = max(r_max, 1/r_min).
    """
    r_min, r_max = np.inf, 0.0
    for a, b in unit_pairs(rng, pairs, MIN_SEPARATION):
        data = pair_ratio_sweep(a, b)
        r_min = min(r_min, float(data[:, 2].min()))
        r_max = max(r_max, float(data[:, 2].max()))
    return max(r_max, 1.0 / r_min), r_min, r_max
