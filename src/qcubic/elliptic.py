"""Inf-convolution construction of a degenerate-elliptic operator vanishing
on the Hessian image of the homogeneous potential.

The Hessian of w is homogeneous of order zero, so its full image is the
compact set Sigma = {D2w(a) : |a| = 1}.  In the (z, s) coordinates of
symspace, Sigma is the graph of a function s = g(z) that is Lipschitz with
modulus x (the cone support function): that is the graph invariant below.
The operator is

    F(A) = s(A) - g_tilde(z(A)),   g_tilde(z) = min_i (s_i + x(z - z_i)),

the minimal cone-Lipschitz extension of g off the sampled graph.  F is
monotone under positive-semidefinite increments because s(E) >= x(z(E))
for every psd E, and it vanishes on Sigma up to the sampling density.

Desk-scale caveat, relevant to the probes: the finite min makes g_tilde an
over-estimate of the true extension, so F here is a *lower* bound for the
ideal operator.  Quadratic minorants of w therefore test as F <= 0 soundly
at any sampling density, while majorants inherit the density gap at their
touching point; the majorant probe controls this with identity lifts whose
size the spectral band of the Hessians keeps bounded away from zero.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import symspace
from .cones import (_GUARD, ConeParams, _PairBounds, _gauge, _pruned_min,
                    breaking_pairs, cone_condition)
from .hessian import RATIO_BOUND, eval_w, hess_w
from .sampling import (rng_for, unit_sphere, STREAM_SIGMA, STREAM_HELDOUT,
                       STREAM_ELLIPTIC, STREAM_VISCOSITY)

GRAPH_TOL = 1e-8
UNIT_TOL = 1e-9  # allowed | |a_i| - 1 | of a sample's source vectors
MINORANT_MARGIN = 1e-6
VISCOSITY_TOL = 1e-6  # minorants pass at F <= tol, majorants at F >= -tol
CACHE_MAGIC = "qcubic-sigma-cache"
CACHE_VERSION = 2
PAPER_LAM = 11.0 * RATIO_BOUND  # the paper's operator aperture


class CacheError(RuntimeError):
    """Sigma cache file missing, malformed, or inconsistent."""


class GraphError(ValueError):
    """A sampled pair violates the cone-Lipschitz graph invariant."""


@dataclass(frozen=True)
class SigmaSample:
    """Sampled graph points: source unit vectors a_i, the coordinates
    (z_i, s_i) of their Hessians, and the cone whose graph invariant they
    were validated against; g_tilde and every probe work at that cone.
    Built by sigma_from_sources, or as a prefix of a sample it built."""

    sources: np.ndarray
    z: np.ndarray
    s: np.ndarray
    seed: int
    cone: ConeParams

    @property
    def count(self) -> int:
        return int(self.sources.shape[0])

    @cached_property
    def bounds(self) -> _PairBounds:
        """Extreme eigenpairs of the sample's traceless parts, built once
        and shared by validate_graph and every g_tilde call."""
        return _PairBounds(symspace.embed_traceless(self.z))

    def prefix(self, count: int) -> "SigmaSample":
        if not 1 <= count <= self.count:
            raise ValueError("prefix count out of range")
        return SigmaSample(self.sources[:count], self.z[:count],
                           self.s[:count], self.seed, self.cone)


def _coords_of_sources(sources: np.ndarray):
    return symspace.to_coords(hess_w(sources))


def sigma_from_sources(sources: np.ndarray, cone: ConeParams,
                       seed: int = -1) -> SigmaSample:
    """The sample of explicit unit vectors: checks they are unit length,
    computes their Hessian coordinates and validates the graph invariant at
    the cone.  Raises ValueError, or GraphError with the offending pair."""
    sources = np.asarray(sources, dtype=float)
    if np.max(np.abs(np.linalg.norm(sources, axis=1) - 1.0)) > UNIT_TOL:
        raise ValueError("source vectors are not unit length")
    sig = SigmaSample(sources, *_coords_of_sources(sources), seed, cone)
    validate_graph(sig)
    return sig


def build_sigma(count: int, seed: int, cone: ConeParams,
                cache_path: str | None = None) -> SigmaSample:
    """Uniform sphere sample of the graph, pairwise-validated, optionally
    persisted.  Raises GraphError with the offending pair on violation
    (which would mean the sampled set fails the cone condition)."""
    if count < 2:
        raise ValueError("build_sigma: count must be >= 2")
    sources = unit_sphere(rng_for(seed, STREAM_SIGMA), count)
    sig = sigma_from_sources(sources, cone, seed)
    if cache_path is not None:
        save_cache(sig, cache_path)
    return sig


def _breaks_graph(ds, xf, xr):
    """|ds| - GRAPH_TOL >= min(xf, xr); coincident points never break."""
    ds = np.abs(ds)
    return (ds > GRAPH_TOL) & (ds - GRAPH_TOL >= np.minimum(xf, xr))


def validate_graph(sigma: SigmaSample) -> None:
    """Check |s_i - s_j| <= x(z_i - z_j) + GRAPH_TOL over all ordered pairs,
    with x the support gauge of the sample's cone.

    cones.breaking_pairs settles most pairs by the pinch lemma and
    eigensolves the rest once for both orders; the first violating pair in
    row-major order is raised.
    """
    ii, jj = breaking_pairs(sigma.bounds, sigma.z, sigma.s, sigma.cone,
                            _breaks_graph)
    if ii.size:
        i, j = ii[0], jj[0]
        raise GraphError(
            "graph invariant violated by pair (%d, %d): |ds|=%.6g "
            "exceeds the cone modulus at aperture %.6g"
            % (i, j, abs(sigma.s[i] - sigma.s[j]), sigma.cone.lam))


# ---------------------------------------------------------------------------
# cache file


def save_cache(sigma: SigmaSample, path: str) -> None:
    """Write the sample's inputs as versioned CSV, atomically (temp + rename):
    a header with seed, count and aperture lam, then the 12 coordinates of
    each source vector.  The Hessian coordinates are not stored."""
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        fh.write("# %s v%d\n" % (CACHE_MAGIC, CACHE_VERSION))
        fh.write("# seed=%d count=%d lam=%s\n"
                 % (sigma.seed, sigma.count, repr(float(sigma.cone.lam))))
        fh.write("# columns: a[12]\n")
        for row in sigma.sources:
            fh.write(",".join(repr(float(v)) for v in row))
            fh.write("\n")
    os.replace(tmp, path)


def load_cache(path: str) -> SigmaSample:
    """Read a cached sample and rebuild it through sigma_from_sources.

    Integrity: header magic/version, an aperture lam that is finite and
    > 1, row count/width, finite entries; then sigma_from_sources checks
    the sources are unit length, recomputes their Hessian coordinates and
    validates the graph invariant at lam.
    Any failure raises CacheError; no partial sample is ever returned.
    """
    if not os.path.exists(path):
        raise CacheError("no cache file at %r" % path)
    try:
        with open(path) as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise CacheError("unreadable cache file: %s" % exc) from exc
    if len(lines) < 4 or not lines[0].startswith("# %s v" % CACHE_MAGIC):
        raise CacheError("not a sigma cache file")
    try:
        version = int(lines[0].rsplit("v", 1)[1])
    except ValueError as exc:
        raise CacheError("bad version line") from exc
    if version != CACHE_VERSION:
        raise CacheError("unsupported cache version %d" % version)
    meta = {}
    for tok in lines[1].lstrip("# ").split():
        key, _, val = tok.partition("=")
        meta[key] = val
    try:
        seed = int(meta["seed"])
        count = int(meta["count"])
        lam = float(meta["lam"])
    except (KeyError, ValueError) as exc:
        raise CacheError("bad metadata line: %r" % lines[1]) from exc
    if not 1.0 < lam < np.inf:
        raise CacheError("cached sample has no usable aperture: lam=%r" % lam)
    data = [ln for ln in lines if not ln.startswith("#")]
    if len(data) != count:
        raise CacheError("row count %d does not match header count %d"
                         % (len(data), count))
    try:
        rows = np.array([[float(tok) for tok in ln.split(",")]
                         for ln in data])
    except ValueError as exc:
        raise CacheError("unparseable data row") from exc
    if rows.ndim != 2 or rows.shape[1] != 12:
        raise CacheError("expected 12 source columns")
    if not np.all(np.isfinite(rows)):
        raise CacheError("non-finite entries in cache")
    try:
        return sigma_from_sources(rows, ConeParams(lam), seed)
    except ValueError as exc:  # a non-unit source, or a GraphError
        raise CacheError(str(exc)) from exc


# ---------------------------------------------------------------------------
# the operator


def _extension_parts(z: np.ndarray, sigma: SigmaSample):
    """The evaluation rows' _PairBounds, the ascending spectra of
    embed(z_e - z_i) for index arrays (e, i), and the floor, slack and solve
    (cones._pruned_min) of the table s_i + x(z_e - z_i), x at sigma's cone.

    By the pinch lemma (cones), x(z - z_i) >= kappa sqrt(12)
    lambda_max(Z_i - Z), and _PairBounds.pinch floors that for every pair
    at once.  The slack, sqrt(12) _GUARD (|z_i| + |z|) + _GUARD |s_i|,
    covers the rounding of the bound, of the gauge and of the sum.
    """
    def spectra(e, i):
        return _PairBounds.solve(
            lambda a, b: symspace.embed_traceless(z[a] - sigma.z[b]), e, i)

    pts, cone = sigma.bounds, sigma.cone
    rows = _PairBounds(symspace.embed_traceless(z))
    floor, slack = pts.pinch(cone, rows)
    return (rows, spectra, sigma.s[None, :] + floor.T,
            slack.T + _GUARD * np.abs(sigma.s)[None, :],
            lambda e, i: sigma.s[i] + _gauge(spectra(e, i), cone))


def g_tilde(z: np.ndarray, sigma: SigmaSample):
    """Minimal cone-Lipschitz extension min_i (s_i + x(z - z_i)), with x
    the support gauge of sigma's cone.

    Accepts one 77-vector or a stack; two-sided bound
    -x(z2 - z1) <= g_tilde(z1) - g_tilde(z2) <= x(z1 - z2) holds for any
    point set by subadditivity of x.

    Each pair's gauge is bounded below without an eigensolve
    (_extension_parts), so the minimum is pruned (cones._pruned_min): few pairs
    are solved, and the result is bitwise that of the full gauge table.
    """
    z = np.asarray(z, dtype=float)
    single = z.ndim == 1
    zz = z[None, :] if single else z
    best = _pruned_min(*_extension_parts(zz, sigma)[2:])
    return float(best[0]) if single else best


@dataclass(frozen=True)
class OperatorF:
    """F(A) = s(A) - g_tilde(z(A)) at the sample's cone; zero on the sampled
    graph, monotone under psd increments, Lipschitz in the trace norm."""

    sigma: SigmaSample

    def value(self, mats: np.ndarray) -> np.ndarray:
        z, s = symspace.to_coords(np.asarray(mats, dtype=float))
        return s - g_tilde(z, self.sigma)


def operator_cone(policy: str, ratio_hat: float | None = None) -> ConeParams:
    """Aperture policy: 11x the pair-ratio bound, either the closed-form
    constant or a measured estimate."""
    if policy == "paper":
        return ConeParams(PAPER_LAM)
    if policy == "empirical":
        if ratio_hat is None or not np.isfinite(ratio_hat) or ratio_hat < 1:
            raise ValueError("empirical policy needs a measured ratio >= 1")
        return ConeParams(11.0 * ratio_hat)
    raise ValueError("unknown lambda policy %r" % policy)


# ---------------------------------------------------------------------------
# probes


@dataclass
class ZeroLevelReport:
    counts: list
    max_abs_F: list          # per count, over the held-out set
    nn_bound: np.ndarray     # per held-out point, at the largest count
    F_full: np.ndarray       # per held-out point, at the largest count

    @property
    def worst_ratio(self) -> float:
        return float(np.max(np.abs(self.F_full) / self.nn_bound))

    @property
    def monotone(self) -> bool:
        return all(b <= a * (1 + 1e-12)
                   for a, b in zip(self.max_abs_F, self.max_abs_F[1:]))


def zero_level_curve(sigma: SigmaSample, counts=(250, 500, 1000, 2000),
                     heldout_count: int = 200,
                     heldout_seed: int = 7) -> ZeroLevelReport:
    """Convergence of max |F| on held-out graph points as the sample grows,
    at the sample's cone.

    Prefix-nested sub-samples make the curve monotone by construction:
    adding points can only lower g_tilde toward the true extension, and F
    on the true graph satisfies F <= 0 exactly, so |F| shrinks pointwise.
    The per-point certificate min_i (x(z - z_i) + x(z_i - z)) bounds |F|.

    Every minimum is pruned as g_tilde's (cones._pruned_min), the prefix minima
    on the leading columns of one floor table.  The certificate's floor and
    slack are the sums of both orders' (_PairBounds.pinch), and both gauges
    come from one eigenvalue row: each slack covers its order's Rayleigh
    bound and gauge, as in g_tilde, and the two sums round below 1e3 eps of
    the same scale, far inside either guard.
    """
    counts = sorted(int(c) for c in counts)
    if counts[-1] > sigma.count:
        raise ValueError("curve counts exceed the sample size")
    held = unit_sphere(rng_for(heldout_seed, STREAM_HELDOUT), heldout_count)
    zh, sh = _coords_of_sources(held)
    pts, cone = sigma.bounds, sigma.cone

    rows, spectra, floor, slack, solve = _extension_parts(zh, sigma)
    max_abs = []
    for c in counts:
        g = _pruned_min(floor[:, :c], slack[:, :c], solve)
        max_abs.append(float(np.max(np.abs(sh - g))))
    if counts[-1] < sigma.count:
        g = _pruned_min(floor, slack, solve)

    def both_orders(e, i):
        mu = spectra(e, i)
        return _gauge(mu, cone) + _gauge(-mu[:, ::-1], cone)
    floor, slack = rows.pinch(cone, pts)
    floor_f, slack_f = pts.pinch(cone, rows)
    floor += floor_f.T
    slack += slack_f.T
    del floor_f, slack_f
    nn = _pruned_min(floor, slack, both_orders)
    return ZeroLevelReport(counts=list(counts), max_abs_F=max_abs,
                           nn_bound=nn, F_full=sh - g)


def _random_psd(rng: np.random.Generator, count: int) -> np.ndarray:
    """Unit-Frobenius psd matrices with uniform eigenvalue profiles."""
    g = rng.standard_normal((count, 12, 12))
    q, _ = np.linalg.qr(g)
    mu = rng.uniform(0.0, 1.0, (count, 12))
    mats = np.einsum("nik,nk,njk->nij", q, mu, q)
    return mats / np.linalg.norm(mats, axis=(1, 2), keepdims=True)


def _random_sym(rng: np.random.Generator, count: int,
                scale: float = 1.0) -> np.ndarray:
    g = rng.standard_normal((count, 12, 12)) * scale
    return 0.5 * (g + np.transpose(g, (0, 2, 1)))


@dataclass
class EllipticityReport:
    slope_min: float
    slope_max: float           # the empirical ellipticity estimate
    identity_slope: float
    monotone_worst: float      # min of F(A+E)-F(A) over the slope trials
    level_pairs: int
    level_violations: list
    paper_chain_bound: float   # 4 lam^2 sqrt(12) with the paper aperture


def ellipticity_probe(op: OperatorF, trials: int, seed: int) -> EllipticityReport:
    """Directional slopes along unit-Frobenius psd increments, plus the
    level-set cone condition at doubled aperture.

    Slopes are exact one-sided differences at t = 1e-3 (F is piecewise
    linear along matrix lines, so no extrapolation is needed).  Points are
    moved onto the zero level set by identity shifts -- F(A + tI) =
    F(A) + sqrt(12) t exactly -- and pairwise differences are then tested
    for membership in L at aperture 2 lam, where the two-sided Lipschitz
    bound of g_tilde guarantees strict membership.
    """
    rng = rng_for(seed, STREAM_ELLIPTIC)
    base_pts = unit_sphere(rng, trials)
    A = hess_w(base_pts)
    half = trials // 2
    A[half:] = _random_sym(rng, trials - half, scale=1.5)
    E = _random_psd(rng, trials)
    t = 1e-3
    FA = op.value(A)
    FAE = op.value(A + t * E)
    slopes = (FAE - FA) / t
    idn = float((op.value(A[:1] + t * np.eye(12))[0] - FA[0]) / t)

    # level-set pool: half graph-based, half generic, moved onto {F = 0}
    k = min(20, half, trials - half)
    sel = np.concatenate([np.arange(k), np.arange(half, half + k)])
    shift = -FA[sel] / np.sqrt(12.0)
    level = A[sel] + shift[:, None, None] * np.eye(12)
    level_rep = cone_condition(level, ConeParams(2 * op.sigma.cone.lam))

    return EllipticityReport(
        slope_min=float(np.min(slopes)), slope_max=float(np.max(slopes)),
        identity_slope=idn,
        monotone_worst=float(np.min(FAE - FA)),
        level_pairs=level_rep.pairs_checked,
        level_violations=level_rep.violations,
        paper_chain_bound=float(4 * PAPER_LAM**2 * np.sqrt(12.0)))


def monotonicity_sweep(op: OperatorF, trials: int, seed: int) -> float:
    """Worst value of F(A+E) - F(A) over random A and full-size psd E.

    Nonnegative up to roundoff: the increment's trace part dominates its
    cone modulus for psd E, and g_tilde is 1-Lipschitz in that modulus.
    Returns the worst difference; the caller sets the roundoff allowance
    (the CLI and the acceptance sweep want >= -1e-9).
    """
    rng = rng_for(seed, STREAM_ELLIPTIC)
    worst = np.inf
    block = 500
    done = 0
    while done < trials:
        b = min(block, trials - done)
        A = _random_sym(rng, b, scale=1.0)
        third = max(1, b // 3)
        pts = unit_sphere(rng, third)
        A[:third] = hess_w(pts)
        E = _random_psd(rng, b) * rng.uniform(0.0, 3.0, (b, 1, 1))
        diff = op.value(A + E) - op.value(A)
        worst = min(worst, float(np.min(diff)))
        done += b
    return worst


@dataclass
class ViscosityReport:
    trials: int
    margin: float
    minorant_max_F: float     # acceptance: <= 1e-6
    majorant_min_F: float     # acceptance: >= -1e-6
    minorant_violations: int
    majorant_violations: int

    @property
    def passed(self) -> bool:
        return self.minorant_violations == 0 and self.majorant_violations == 0


def _lift_sizes(verif: np.ndarray, wv: np.ndarray, bases: np.ndarray,
                hb: np.ndarray):
    """Lift sizes (down, up) per trial k: the max of T_k - w and of w - T_k
    over the verification points (w = wv there) and bases[k], plus
    MINORANT_MARGIN, where T_k(x) = x.hb[k].x / 2.  One GEMM evaluates every
    T_k at every point; its (points, trials) table dies with this frame,
    before the caller builds the operator's gauge table."""
    n = verif.shape[0]
    excess = (verif[:, :, None] * verif[:, None, :]).reshape(n, 144) \
        @ hb.reshape(-1, 144).T
    excess *= 0.5
    excess -= wv[:, None]
    at_base = 0.5 * np.einsum("ni,nij,nj->n", bases, hb, bases) - eval_w(bases)
    down = np.maximum(excess.max(axis=0), at_base) + MINORANT_MARGIN
    up = np.maximum(-excess.min(axis=0), -at_base) + MINORANT_MARGIN
    return down, up


def viscosity_probe(op: OperatorF, trials: int, seed: int,
                    verification_count: int = 10_000) -> ViscosityReport:
    """One-sided quadratic comparison at the Hessian level.

    Every trial takes a base point x' and the quadratic form with matrix
    D2w(x') -- the second-order Taylor polynomial of the 2-homogeneous w at
    x' collapses to exactly that form, so one-sidedness against w reduces
    to the unit sphere.  The form is then pushed strictly one-sided by an
    identity shift sized from a dense sphere verification sample (which
    always contains x' and the graph sources), plus MINORANT_MARGIN; half
    the trials add a random psd tilt on the safe side.  All trials are
    lifted at once (_lift_sizes).  Minorants must report F <=
    VISCOSITY_TOL, majorants F >= -VISCOSITY_TOL.

    The majorant lift is never small: the verification max of w - T is at
    least half the top eigenvalue gap of D2w(x'), which the spectral band
    keeps above sqrt(3)/2, so majorant F values sit well above the
    sampling-density gap at the touching point.
    """
    rng = rng_for(seed, STREAM_VISCOSITY)
    sphere = unit_sphere(rng, verification_count)
    verif = np.concatenate([sphere, op.sigma.sources], axis=0)

    n_half = trials // 2
    bases = unit_sphere(rng, trials)
    # half the bases are graph sources: snug majorants whose touching point
    # is stored, where F vanishes exactly
    idx = rng.integers(0, op.sigma.count, n_half)
    bases[:n_half] = op.sigma.sources[idx]

    tilts = _random_psd(rng, trials) * rng.uniform(0.0, 0.5, (trials, 1, 1))
    tilt_on = rng.uniform(size=trials) < 0.5
    tilts[~tilt_on] = 0.0
    hb = hess_w(bases)
    down, up = _lift_sizes(verif, eval_w(verif), bases, hb)
    F_min = op.value(hb - 2.0 * down[:, None, None] * np.eye(12) - tilts)
    F_maj = op.value(hb + 2.0 * up[:, None, None] * np.eye(12) + tilts)
    return ViscosityReport(
        trials=trials, margin=MINORANT_MARGIN,
        minorant_max_F=float(np.max(F_min)),
        majorant_min_F=float(np.min(F_maj)),
        minorant_violations=int(np.sum(F_min > VISCOSITY_TOL)),
        majorant_violations=int(np.sum(F_maj < -VISCOSITY_TOL)))
