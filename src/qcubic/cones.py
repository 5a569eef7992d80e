"""Eigenvalue-pinch cones on symmetric 12x12 matrices and their duals.

For an aperture lam >= 1:

* K(lam): positive definite matrices whose eigenvalue ratio is at most
  lam^2 (equivalently, eigenvalues fit in some band [C/lam, C lam]).
* K*(lam): the dual cone under the trace inner product.  Membership has a
  closed-form test: p >= lam^2 q, where p is the sum of the positive
  eigenvalues and q the absolute sum of the negative ones (the minimizing
  test matrix aligns eigenvectors and puts the extreme band values against
  the opposite-sign eigenvalues).
* L(lam): matrices orthogonal to some member of K(lam); equivalently the
  complement of K* and -K*.  Differences of Hessians of w land here.

The support function x(z) measures, for a traceless matrix with
coordinates z, the least multiple of the normalized identity
I/sqrt(12) whose addition reaches K*.  Its graph is the boundary of K*
in the (z, s) coordinates of symspace.  The membership margin is piecewise
linear and increasing in that multiple, so x has a closed form in the
sorted spectrum of the traceless part: no iteration and no tolerance.

Every gauge value comes from the one kernel _gauge.  As M_i - M_j lies in
K* iff s_i - s_j >= x(z_i - z_j), the graph invariant and the cone
condition are one certified pairwise test, breaking_pairs.

Pinch lemma.  For traceless Z with nu = lambda_max(-Z) and
kappa = (lam^2 - 1)/(lam^2 + 11),

    kappa sqrt(12) nu  <=  x(Z)  <=  sqrt(12) nu.

Proof: the shift c = sqrt(12) nu makes the spectrum psd (q = 0, inside K*),
so x <= sqrt(12) nu.  At c = x the shifted spectrum nu_i = mu_i + c/sqrt(12)
lies on the boundary p = lam^2 q, and p - q = sum nu_i = sqrt(12) c, so
(lam^2 - 1) q = sqrt(12) c.  As q >= (nu - c/sqrt(12))_+, this gives
sqrt(12) c >= (lam^2 - 1)(nu - c/sqrt(12)), which is c >= kappa sqrt(12) nu.

With Rayleigh quotients this bounds a pair's gauge or dual test from below
without solving it: for unit u, v, lambda_max(A - B) >= u.(A - B).u and
>= v.(A - B).v, and with u the top eigenvector of A and v the bottom one of
B these read lambda_max(A) - u.B.u and v.A.v - lambda_min(B).  _PairBounds
caches each matrix's extreme eigenvectors, bounds every pair of two stacks
with two GEMMs, and floors every pair's gauge by the pinch lemma with its
rounding allowance folded in (pinch).  Only the pairs no floor settles are
eigensolved, all by _pair_spectra, which forms a pair's difference of
coordinates and solves it.  Every pruned check forms one floor that
arrives certified, floor <= entry with rounding included, so _pruned_min
and breaking_pairs compare floors and nothing else.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import symspace
from .eigen import _row_blocked, eigh_asc, eigvalsh_asc

_SQRT_N = np.sqrt(12.0)
_GUARD = 1e-9  # relative rounding allowance folded into each pinch floor
_PRUNE_CANDIDATES = 8  # entries per row solved in _pruned_min's first round


@dataclass(frozen=True)
class ConeParams:
    """Aperture parameter for the cone family (n = 12 throughout)."""

    lam: float

    def __post_init__(self):
        if not np.isfinite(self.lam) or self.lam < 1.0:
            raise ValueError("ConeParams: aperture must be >= 1, got %r" % self.lam)


def _gauge(mu: np.ndarray, cone: ConeParams) -> np.ndarray:
    """Exact support gauge per eigenvalue row (rows ascending, as eigvalsh
    returns them; any trace), vectorized over leading axes.

    With u = c/sqrt(12), a = lam^2 - 1 and S = sum(mu), the membership
    margin (1+lam^2)(S + 12u) - a sum|mu_i + u| is piecewise linear and
    strictly increasing in u, with kinks at u = -mu_j.  On the segment
    where exactly the m smallest mu_i lie below -u its root is

        u_m = -(S + a P_m) / (12 + a m),   P_m = mu_0 + ... + mu_{m-1}.

    The margin at the kink u = -mu_j is 2 (12 + a j)(-mu_j - u_j), positive
    iff S + a P_j > mu_j (12 + a j), and the kinks with a positive margin
    are those right of the root, so m counts them.  m = 0 and m = 12 (root
    outside the kinks) both give u = -S/12, which covers zero and
    off-traceless rows.  Near a kink a rounding slip of m by one lands on
    the adjacent segment, whose line meets this one at the kink.
    """
    a = cone.lam * cone.lam - 1.0
    n = mu.shape[-1]
    prefix = np.concatenate(
        [np.zeros(mu.shape[:-1] + (1,)), np.cumsum(mu, axis=-1)], axis=-1)
    total = prefix[..., -1:]
    m = np.sum(total + a * prefix[..., :n] > mu * (12.0 + a * np.arange(n)),
               axis=-1)
    p_m = np.take_along_axis(prefix, m[..., None], axis=-1)[..., 0]
    return -_SQRT_N * (total[..., 0] + a * p_m) / (12.0 + a * m)


def _kappa(cone: ConeParams) -> float:
    """Lower pinch factor: x(Z) >= kappa sqrt(12) lambda_max(-Z), Z traceless."""
    lam2 = cone.lam * cone.lam
    return (lam2 - 1.0) / (lam2 + 11.0)


class _PairBounds:
    """Certified pruning of pairwise eigensolves over stacks of symmetric
    12x12 matrices.

    One eigh of the stack caches each matrix's top and bottom eigenpair.
    lower(b) is the table of Rayleigh lower bounds on lambda_max(a_i - b_j)
    over every pair of this stack (a) and the stack b (this one again for
    the pairs within a stack), from two (n, 144) @ (144, m) GEMMs; the
    bound on lambda_max(b_j - a_i) = -lambda_min(a_i - b_j) is b.lower(a)
    transposed.  pinch() turns it into certified floors of the gauges, less
    sqrt(12) _GUARD (|a_i|_F + |b_j|_F).  Every rounding error on either
    side of a floor -- the cached eigenpairs, the GEMMs, the matrix a
    pair's difference is formed as, its eigenvalues (backward stable) and
    the gauge's closed form -- is below 1e3 eps (|a_i|_F + |b_j|_F), eps =
    2.2e-16, so the allowance covers it more than four thousand times over
    and a pair its floor settles is one whose full computation returns the
    same verdict.  The pairs left open are solved by _pair_spectra.
    """

    def __init__(self, mats: np.ndarray):
        mats = np.asarray(mats, dtype=float)
        n = mats.shape[0]
        vals, vecs = eigh_asc(mats)
        top, bottom = vecs[..., -1], vecs[..., 0]
        self.flat = mats.reshape(n, 144)
        self.norm = np.linalg.norm(self.flat, axis=1)
        self.top, self.bottom = vals[:, -1], vals[:, 0]
        self.top_outer = (top[:, :, None] * top[:, None, :]).reshape(n, 144)
        self.bottom_outer = (bottom[:, :, None]
                             * bottom[:, None, :]).reshape(n, 144)

    def lower(self, b: "_PairBounds") -> np.ndarray:
        return np.maximum(self.top[:, None] - self.top_outer @ b.flat.T,
                          self.flat @ b.bottom_outer.T - b.bottom[None, :])

    def pinch(self, cone: ConeParams, b: "_PairBounds") -> np.ndarray:
        """Certified floors of the gauges x(b_j - a_i) at the cone: the
        pinch-lemma bound kappa sqrt(12) lower(b) less its rounding
        allowance sqrt(12) _GUARD (|a_i|_F + |b_j|_F)."""
        floor = self.lower(b)
        floor *= _kappa(cone) * _SQRT_N
        floor -= _SQRT_N * _GUARD * (self.norm[:, None] + b.norm[None, :])
        return floor


def _pair_spectra(za: np.ndarray, zb: np.ndarray, ii: np.ndarray,
                  jj: np.ndarray) -> np.ndarray:
    """Ascending eigenvalue rows of embed(za[ii] - zb[jj]), aligned with
    the index pairs: the one place a pair's difference is formed and
    solved.

    Only the index arrays are cut into eigen._row_blocked blocks, and each
    row does not depend on its block (tests/test_cones.py), so each solved
    row, and every verdict, minimum and violation list built from the rows,
    is bitwise that of a pass over all pairs.
    """
    return _row_blocked(lambda i, j: eigvalsh_asc(
        symspace.embed_traceless(za[i] - zb[j])))(ii, jj)


def _pruned_min(floor: np.ndarray, solve) -> np.ndarray:
    """Row minima of a table known only through a certified floor, floor <=
    entry with rounding included; solve(e, i) returns the entries at rows e,
    columns i.

    Two batched rounds: the _PRUNE_CANDIDATES lowest floors of each row,
    then every entry whose floor is at most its row's best so far (no call
    when there is none); a third could only open entries the second
    solved.  An unsolved entry cannot be a minimum and min is exact, so
    when solve returns each entry bitwise as a full pass does
    (_pair_spectra), the minima are bitwise the full table's.
    """
    n_eval, n = floor.shape
    k = min(_PRUNE_CANDIDATES, n)
    e1 = np.repeat(np.arange(n_eval), k)
    i1 = np.argpartition(floor, k - 1, axis=1)[:, :k].ravel()
    best = solve(e1, i1).reshape(n_eval, k).min(axis=1)
    open_ = floor <= best[:, None]
    open_[e1, i1] = False
    e2, i2 = np.nonzero(open_)
    if e2.size:
        np.minimum.at(best, e2, solve(e2, i2))
    return best


def breaking_pairs(bounds: _PairBounds, z: np.ndarray, s: np.ndarray,
                   cone: ConeParams, breaks):
    """Index arrays (i, j), i < j in row-major order, of the pairs of points
    (z, s) with breaks(ds, xf, xr), where ds = s_i - s_j, xf = x(z_i - z_j)
    and xr = x(z_j - z_i) at the cone; bounds is _PairBounds(embed(z)).

    breaks must be monotone: a pair it flags stays flagged as xf and xr
    fall.  So a pair it passes at the certified pinch floors (floor[j, i]
    under xf, floor[i, j] under xr) passes, and only the others are
    eigensolved, in pair order and on bitwise the spectra a full pass
    computes; x(-dz) is read from the negated, reversed spectrum of dz.
    """
    floor = bounds.pinch(cone, bounds)
    ii, jj = np.nonzero(np.triu(
        breaks(s[:, None] - s[None, :], floor.T, floor), 1))
    del floor
    mu = _pair_spectra(z, z, ii, jj)
    bad = breaks(s[ii] - s[jj], _gauge(mu, cone), _gauge(-mu[:, ::-1], cone))
    return ii[bad], jj[bad]


@dataclass
class ConeConditionReport:
    pairs_checked: int
    violations: list

    @property
    def passed(self) -> bool:
        return not self.violations


def cone_condition(mats: np.ndarray, cone: ConeParams) -> ConeConditionReport:
    """All pairwise differences of a matrix family must lie in L(lam).

    mats: (count, 12, 12) symmetric.  Reports every violating index pair,
    in row-major pair order.

    With (z, s) the coordinates of mats, D = M_i - M_j lies in K* iff
    ds >= x(z_i - z_j) and in -K* iff -ds >= x(z_j - z_i), boundary
    included as in the p/q test; breaking_pairs finds those pairs.  The
    traceless parts have the matrices' eigenvectors, so its bounds cost
    the one eigh of the stack.
    """
    z, s = symspace.to_coords(np.asarray(mats, dtype=float))
    ii, jj = breaking_pairs(_PairBounds(symspace.embed_traceless(z)), z, s,
                            cone, lambda ds, xf, xr: (ds >= xf) | (-ds >= xr))
    return ConeConditionReport(pairs_checked=len(s) * (len(s) - 1) // 2,
                               violations=list(zip(ii.tolist(), jj.tolist())))
