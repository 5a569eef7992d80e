"""The order-2 homogeneous potential w = P(x)/|x| and its Hessian field.

The Hessian of w is homogeneous of order zero, so restricting it to the
unit sphere loses nothing.  The key facts verified downstream:

* between any two unit points the Hessian difference has slopes of both
  signs, bounded away from zero (witnesses; witness_worst builds them only
  where a floor does not clear the pair, through cones._pruned_min);
* the ratio of its extreme eigenvalues is pinched inside
  [1/(1536 sqrt 3), 1536 sqrt 3] (ratio_bound_estimate eigensolves only
  the pairs that pinch_bounds cannot keep off the sampled extremes);
* all third directional derivatives on the unit sphere are bounded by 32.

Both pruned checks bound a pair from the extremes of q_matrix(a - b),
which cubic.q_extremes reads from the closed form while the
characteristic-polynomial certificate (cubic.charpoly_identity) holds.
"""

from __future__ import annotations

import numpy as np

from .cones import _pruned_min
from .cubic import eval_P, grad_P, q_extremes, q_matrix
from .eigen import _row_blocked, eigh_asc, eigvalsh_asc
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
RATIO_GUARD = 1e-9      # pinch_bounds' rounding allowance (bound in its docstring)


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
    """Eigenvalue ratios -mu1/mu12 for stacks of unit-point pairs, mu1 and
    mu12 the largest and least eigenvalues of D2w(a) - D2w(b)."""
    vals = eigvalsh_asc(hess_w(a_pts) - hess_w(b_pts))
    return -vals[:, -1] / vals[:, 0]


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
    _, vecs = eigh_asc(q_matrix((a - b) * (np.sqrt(3.0) / gap)[..., None]))
    out = []
    # top three columns, then bottom three, each from the outer one in: as
    # views, not copies, since einsum rounds by memory layout
    for cols in (vecs[..., :8:-1], vecs[..., 2::-1]):
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
    s l10 from q_extremes(a - b): q_matrix(a - b) = s q_matrix(d), s =
    |a-b|/sqrt 3."""
    gap = np.linalg.norm(a_pts - b_pts, axis=-1)
    ext = q_extremes(a_pts - b_pts)
    dp, thresh = eval_P(a_pts) - eval_P(b_pts), gap * WITNESS_SLOPE
    return ext[:, 1] - dp - thresh, dp - thresh - ext[:, 2]


def witness_worst(rng: np.random.Generator, pairs: int) -> float:
    """Least witness_sweep slack, both sides, over `pairs` unit_pairs pairs
    (closer than 1e-6 dropped): bitwise a full pass's, few pairs solved,
    one cones._pruned_min per block on witness_floor's lesser floor less
    WITNESS_GUARD.

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
            np.minimum(*witness_floor(a, b))[None] - WITNESS_GUARD,
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


@_row_blocked
def pinch_bounds(a_pts: np.ndarray, b_pts: np.ndarray):
    """Bounds r_lo <= r <= r_hi on pair_ratio_sweep's ratio r = -mu1/mu12
    for stacks of unit-point pairs, and a relative allowance rel: with
    rounding, every pair has r >= r_lo - rel (1 + r_lo) and r <= r_hi +
    rel (1 + r_hi); rel = inf leaves a pair unbounded.

    For unit x, hess_w(x) = q_matrix(x) - P(x) I + R_x with R_x = -(g x^T
    + x g^T) + 3 P x x^T, g = grad_P(x) (the einsum hess_w uses), so with
    q_matrix linear, D = hess_w(a) - hess_w(b) = q_matrix(a - b) - dP I + R,
    R = R_a - R_b and dP = P(a) - P(b).  With l1, l3, l10, l12 from
    q_extremes(a - b):

    * mu1 >= lo1 = l3 - dP and -mu12 >= lo2 = dP - l10: the top (bottom)
      three eigenvectors span a unit e orthogonal to a and b, where R's
      terms vanish (the witness Rayleigh bounds of witness_worst);
    * mu1 <= l1 - dP + top(R_a) - bot(R_b) and -mu12 <= dP - l12 - bot(R_a)
      + top(R_b), by Weyl's inequality, where top and bot are the two
      nonzero eigenvalues of R_x: in the basis (x, u), g = alpha x + gamma
      u, R_x is [[3P - 2 alpha, -gamma], [-gamma, 0]] for any signs in
      q_matrix.

    Rounding: |hess_w(x)|_F < 7 on the unit sphere (|q_matrix(x)|_F =
    sqrt 8, |g| <= sqrt 2, |P| < 0.2), so forming D and its eigenvalues
    stay within 1e3 eps |D|_F < 3.2e-12 of the exact mu (as in
    cones._PairBounds).  Each bound stays within 1.4e-12 of its exact value:
    q_extremes within 1e-13 |a-b| (LAPACK's within 1e3 eps
    |q_matrix(a-b)|_F < 1.3e-12), dP, alpha, gamma and the 2x2 roots within
    1e-14.  So each comparison is off by E < 5e-12.  Where lo = min(lo1,
    lo2) > RATIO_GUARD = 200 E, rel = RATIO_GUARD / lo, and then r >= (lo1
    - E)/(hi2 + E) >= r_lo - 2 E r_lo / lo1 and r <= (hi1 + E)/(lo2 - E) <=
    r_hi + 1.01 E (1 + r_hi) / lo2: rel (1 + r) covers each at least 100
    times.  True-build pairs have lo >= |a-b|/(4 sqrt 3) (the witness
    slope), so only pairs closer than 7e-9 are left unbounded.
    """
    ext = q_extremes(a_pts - b_pts)
    sides = []
    for x in (a_pts, b_pts):
        p, g = eval_P(x), grad_P(x)
        alpha = np.einsum("ni,ni->n", x, g)
        gamma2 = np.maximum(np.einsum("ni,ni->n", g, g) - alpha**2, 0.0)
        c = 3.0 * p - 2.0 * alpha
        root = np.sqrt(c * c + 4.0 * gamma2)
        sides.append((p, 0.5 * (c + root), 0.5 * (c - root)))
    (pa, top_a, bot_a), (pb, top_b, bot_b) = sides
    dp = pa - pb
    lo1, lo2 = ext[:, 1] - dp, dp - ext[:, 2]
    hi1 = ext[:, 0] - dp + top_a - bot_b
    hi2 = dp - ext[:, 3] - bot_a + top_b
    lo = np.minimum(lo1, lo2)
    rel = np.where(lo > RATIO_GUARD,
                   RATIO_GUARD / np.maximum(lo, RATIO_GUARD), np.inf)
    return (lo1 / np.maximum(hi2, RATIO_GUARD),
            hi1 / np.maximum(lo2, RATIO_GUARD), rel)


def ratio_bound_estimate(rng: np.random.Generator, pairs: int):
    """Empirical pinch of the Hessian-difference eigenvalue ratio.

    Draws random unit pairs with unit_pairs (pairs closer than 1e-9 are
    dropped; none in practice) and returns (M_hat, r_min, r_max) where
    r = -mu1/mu12 and M_hat = max(r_max, 1/r_min).  Per block, one
    cones._pruned_min over two rows, pinch_bounds' r_lo and -r_hi less
    rel (1 + |bound|), solves pair_ratio_sweep only on the pairs that could
    be r_min or r_max, one call a round: its rows do not depend on the
    stack they come in, so both extremes are bitwise a full pass's.
    """
    r_min, r_max = np.inf, 0.0
    for a, b in unit_pairs(rng, pairs, MIN_SEPARATION):
        r_lo, r_hi, rel = pinch_bounds(a, b)
        floor = np.stack([r_lo, -r_hi])  # row 0 bounds r, row 1 bounds -r
        floor -= rel * (1.0 + np.abs(floor))
        del r_lo, r_hi, rel  # round 2 sets the peak memory: keep the floors

        def signed_ratios(e, i):  # r on row 0, -r on row 1
            return pair_ratio_sweep(a[i], b[i]) * (1 - 2 * e)

        lo, neg_hi = _pruned_min(floor, signed_ratios)
        r_min, r_max = min(r_min, float(lo)), max(r_max, -float(neg_hi))
    return max(r_max, 1.0 / r_min), r_min, r_max
