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

Every dual-cone test (K*, L, the shifted spectra of the graph invariant)
goes through the one p/q function _in_dual, and every gauge value through
the one kernel _gauge, both on precomputed eigenvalue rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import symspace
from .eigen import eigvalsh_desc

_SQRT_N = np.sqrt(12.0)
EIG_CHUNK = 200_000  # rows per batched 12x12 eigensolve (~230 MB of matrices)


@dataclass(frozen=True)
class ConeParams:
    """Aperture parameter for the cone family (n = 12 throughout)."""

    lam: float

    def __post_init__(self):
        if not np.isfinite(self.lam) or self.lam < 1.0:
            raise ValueError("ConeParams: aperture must be >= 1, got %r" % self.lam)


def _in_dual(vals: np.ndarray, cone: ConeParams) -> np.ndarray:
    """Row-wise K*(lam) membership from eigenvalue rows: p >= lam^2 q."""
    p = np.sum(np.where(vals > 0, vals, 0.0), axis=-1)
    q = np.sum(np.where(vals < 0, -vals, 0.0), axis=-1)
    return p >= cone.lam**2 * q


def in_K(mat: np.ndarray, cone: ConeParams) -> bool:
    """Positive definite with eigenvalue ratio at most lam^2."""
    vals = eigvalsh_desc(np.asarray(mat, dtype=float))
    lo = vals[..., -1]
    hi = vals[..., 0]
    return bool(np.all((lo > 0) & (hi <= cone.lam**2 * lo)))


def in_K_star(mat: np.ndarray, cone: ConeParams) -> bool:
    """Dual-cone membership by the p/q eigenvalue test (boundary included)."""
    return bool(np.all(_in_dual(eigvalsh_desc(np.asarray(mat, dtype=float)),
                                cone)))


def in_L(mat: np.ndarray, cone: ConeParams) -> bool:
    """Membership in L(lam): neither mat nor -mat lies in the dual cone."""
    return bool(np.all(in_L_ratio_batch(
        eigvalsh_desc(np.asarray(mat, dtype=float)), cone)))


def in_L_ratio_batch(vals: np.ndarray, cone: ConeParams) -> np.ndarray:
    """Vectorized in_L from precomputed eigenvalue rows."""
    return ~(_in_dual(vals, cone) | _in_dual(-vals, cone))


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


def support_x(z: np.ndarray, cone: ConeParams):
    """Support function x(z) for traceless coordinates z (single or stack).

    x(z) = inf{ c : embed(z) + c I/sqrt(12) lies in K*(lam) }.  Convex,
    positively homogeneous, x(0) = 0.  Shifting by c only shifts the
    spectrum, so one eigensolve of embed(z) per row settles it, and the
    threshold is solved in closed form from the sorted spectrum (_gauge).
    """
    z = np.asarray(z, dtype=float)
    out = _gauge(np.linalg.eigvalsh(symspace.embed_traceless(z)), cone)
    return float(out) if z.ndim == 1 else out


@dataclass
class ConeConditionReport:
    lam: float
    pairs_checked: int
    violations: list

    @property
    def passed(self) -> bool:
        return not self.violations


def cone_condition(mats: np.ndarray, cone: ConeParams) -> ConeConditionReport:
    """All pairwise differences of a matrix family must lie in L(lam).

    mats: (count, 12, 12) symmetric.  Reports every violating index pair.
    """
    mats = np.asarray(mats, dtype=float)
    count = mats.shape[0]
    ii, jj = np.triu_indices(count, k=1)
    violations = []
    for start in range(0, ii.size, EIG_CHUNK):
        sl = slice(start, min(start + EIG_CHUNK, ii.size))
        diffs = mats[ii[sl]] - mats[jj[sl]]
        ok = in_L_ratio_batch(np.linalg.eigvalsh(diffs), cone)
        if not np.all(ok):
            for k in np.nonzero(~ok)[0]:
                violations.append((int(ii[sl][k]), int(jj[sl][k])))
    return ConeConditionReport(lam=cone.lam, pairs_checked=int(ii.size),
                               violations=violations)
