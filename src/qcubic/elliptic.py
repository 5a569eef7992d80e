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
over-estimate of g_Sigma, the extension over all of Sigma, so F <= F_Sigma,
the paper's operator.  A majorant pass (F >= -tol) and a minorant failure
(F > tol) therefore hold for F_Sigma too, at any sampling density; a
minorant pass and a majorant failure do not, since F_Sigma - F = g_tilde -
g_Sigma >= 0 shrinks only with the density of the sample.  Majorants meet
that density gap at their touching point.  Their identity lifts are
bounded away from zero by the spectral band of the Hessians, but on a
small sample the gap can exceed them: majorants on random bases fail at
77 sample points.  The sampled lifts err on the strict side
(viscosity_probe).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import symspace
from .cones import (_GUARD, ConeParams, _PairBounds, _first_round, _gauge,
                    _pair_spectra, _pruned_min, breaking_pairs,
                    cone_condition)
from .eigen import _row_blocked, eigvalsh_asc
from .hessian import RATIO_BOUND, eval_w, hess_w
from .sampling import (rng_for, unit_sphere, STREAM_SIGMA, STREAM_HELDOUT,
                       STREAM_ELLIPTIC, STREAM_VISCOSITY, STREAM_MONOTONE)

GRAPH_TOL = 1e-8
UNIT_TOL = 1e-9  # allowed | |a_i| - 1 | of a sample's source vectors
MINORANT_MARGIN = 1e-6
VISCOSITY_TOL = 1e-6  # minorants pass at F <= tol, majorants at F >= -tol
VERIFICATION_COUNT = 10_000  # sphere points viscosity_probe sizes lifts on
CACHE_MAGIC = "qcubic-sigma-cache"
# the file stores build_sigma's inputs, not its draw: change the version
# whenever build_sigma draws another sample from the same seed and count
CACHE_VERSION = 3
PAPER_LAM = 11.0 * RATIO_BOUND  # the paper's operator aperture
# the paper's ellipticity chain 4 lam^2 sqrt(12) at that aperture
PAPER_CHAIN_BOUND = float(4 * PAPER_LAM**2 * np.sqrt(12.0))
LAMBDA_POLICIES = ("paper", "empirical")  # operator_cone's policy names


class CacheError(RuntimeError):
    """Sigma cache file missing, malformed, or inconsistent."""


class GraphError(ValueError):
    """A sampled pair violates the cone-Lipschitz graph invariant."""


@dataclass(frozen=True)
class SigmaSample:
    """Sampled graph points: source unit vectors a_i, the coordinates
    (z_i, s_i) of their Hessians, and the cone whose graph invariant they
    were validated against; F, g_tilde and every probe work at that cone.
    Built by sigma_from_sources."""

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
        and shared by validate_graph and every floor table formed against
        the sample (_extension_parts, and zero_level_curve's certificate)."""
        return _PairBounds(symspace.embed_traceless(self.z))

    def F(self, mats: np.ndarray) -> np.ndarray:
        """F(A) = s(A) - g_tilde(z(A)) at the sample's cone, row by row;
        zero on the sampled graph, monotone under psd increments, Lipschitz
        in the trace norm.  A row's value does not depend on the stack it
        comes in: symspace pads a stack of fewer than 16 rows, where
        OpenBLAS rounds another way, and g_tilde works row by row
        (tests/test_elliptic.py's
        test_operator_rows_do_not_depend_on_a_long_call), so a probe may
        evaluate any part of a stack it draws: the monotonicity sweep
        evaluates only the rows its floors leave open."""
        z, s = symspace.to_coords(np.asarray(mats, dtype=float))
        return s - g_tilde(z, self)


def _coords_of_sources(sources: np.ndarray):
    return symspace.to_coords(hess_w(sources))


def sigma_from_sources(sources: np.ndarray, cone: ConeParams,
                       seed: int) -> SigmaSample:
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
    """Write the recipe of a sample build_sigma drew, atomically (temp +
    rename): a versioned header line, then its seed, count and aperture
    lam.  load_cache redraws the sample from them.  A failed rename
    removes the temp file and raises the OSError on path."""
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        fh.write("# %s v%d\n" % (CACHE_MAGIC, CACHE_VERSION))
        fh.write("# seed=%d count=%d lam=%s\n"
                 % (sigma.seed, sigma.count, repr(float(sigma.cone.lam))))
    try:
        os.replace(tmp, path)
    except OSError as exc:
        os.remove(tmp)
        raise OSError(exc.errno, exc.strerror, path) from None


def load_cache(path: str, seed: int, count: int, policy: str) -> SigmaSample:
    """The cached sample of a run with this seed, sample count and lambda
    policy, redrawn by build_sigma at the cached aperture lam.

    Before anything is drawn: the header magic, version and fields, an
    aperture lam that is finite and > 1, and the cache key (seed, count,
    whether lam is the paper aperture) against the run's -- a cache serves
    only the run it was built for.  build_sigma then validates the graph
    invariant at lam.  Any failure raises CacheError; no partial sample is
    ever returned.
    """
    try:
        with open(path) as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise CacheError("unreadable cache file: %s" % exc) from exc
    if not lines or not lines[0].startswith("# %s v" % CACHE_MAGIC):
        raise CacheError("not a sigma cache file")
    try:
        version = int(lines[0].rsplit("v", 1)[1])
    except ValueError as exc:
        raise CacheError("bad version line") from exc
    if version != CACHE_VERSION:
        raise CacheError("unsupported cache version %d" % version)
    try:
        (line,) = lines[1:]
        meta = dict(tok.partition("=")[::2]
                    for tok in line.lstrip("# ").split())
        built = (int(meta["seed"]), int(meta["count"]))
        lam = float(meta["lam"])
    except (KeyError, ValueError) as exc:
        raise CacheError("bad metadata line: %r" % lines[1:]) from exc
    if not 1.0 < lam < np.inf:
        raise CacheError("cached sample has no usable aperture: lam=%r" % lam)
    built += (bool(lam == PAPER_LAM),)
    if built != (seed, count, policy == "paper"):
        raise CacheError("%s was built for (seed, sigma_count, paper "
                         "aperture) %r, not for this run's" % (path, built))
    try:
        return build_sigma(count, seed, ConeParams(lam))
    except GraphError as exc:
        raise CacheError(str(exc)) from exc


# ---------------------------------------------------------------------------
# the operator


def _extension_parts(z: np.ndarray, sigma: SigmaSample):
    """The evaluation rows' _PairBounds, and the certified floor and the
    solve (cones._pruned_min) of the table s_i + x(z_e - z_i), x at
    sigma's cone.

    By the pinch lemma (cones), x(z - z_i) >= kappa sqrt(12)
    lambda_max(Z_i - Z), and _PairBounds.pinch floors that for every pair
    at once, its rounding allowance sqrt(12) _GUARD (|z_i| + |z|)
    included.  The s-term's own allowance _GUARD |s_i| covers the rounding
    of the sum on the s side, below 1e3 eps |s_i| as in _PairBounds, more
    than four thousand times over.
    """
    pts, cone = sigma.bounds, sigma.cone
    rows = _PairBounds(symspace.embed_traceless(z))
    floor = sigma.s[None, :] + pts.pinch(cone, rows).T
    floor -= _GUARD * np.abs(sigma.s)[None, :]
    return rows, floor, lambda e, i: sigma.s[i] + _gauge(
        _pair_spectra(z, sigma.z, e, i), cone)


def g_tilde(z: np.ndarray, sigma: SigmaSample):
    """Minimal cone-Lipschitz extension min_i (s_i + x(z - z_i)) at each
    row of the stack z, with x the support gauge of sigma's cone.

    Two-sided bound
    -x(z2 - z1) <= g_tilde(z1) - g_tilde(z2) <= x(z1 - z2) holds for any
    point set by subadditivity of x.

    Each pair's gauge is bounded below without an eigensolve
    (_extension_parts), so the minimum is pruned (cones._pruned_min): few pairs
    are solved, and the result is bitwise that of the full gauge table.
    """
    return _pruned_min(*_extension_parts(np.asarray(z, dtype=float),
                                         sigma)[1:])


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
    # per held-out point, over the whole sample (the largest count)
    nn_bound: np.ndarray
    F_full: np.ndarray

    @property
    def worst_ratio(self) -> float:
        return float(np.max(np.abs(self.F_full) / self.nn_bound))

    @property
    def monotone(self) -> bool:
        return all(b <= a * (1 + 1e-12)
                   for a, b in zip(self.max_abs_F, self.max_abs_F[1:]))


def zero_level_curve(sigma: SigmaSample, heldout_count: int,
                     heldout_seed: int) -> ZeroLevelReport:
    """Convergence of max |F| on held-out graph points as the sample grows,
    at the sample's cone.

    An n-point sample is read at the prefix counts n // 8, n // 4, n // 2
    and n, each raised to 2 but not past n, duplicates dropped: (250, 500,
    1000, 2000) at n = 2000.  The last count is the whole sample.

    Prefix-nested sub-samples make the curve monotone by construction:
    adding points can only lower g_tilde toward the true extension, and F
    on the true graph satisfies F <= 0 exactly, so |F| shrinks pointwise.
    The per-point certificate min_i (x(z - z_i) + x(z_i - z)) bounds |F|.

    Every minimum is pruned as g_tilde's (cones._pruned_min).  The g_tilde
    minima are taken over the column blocks [0, c_1), [c_1, c_2), ... of
    one floor table, c_1 < c_2 < ... the counts, and each prefix's minimum
    is the running minimum of the block minima (np.minimum.accumulate):
    min is exact, so it is bitwise the prefix's own minimum, and no pair
    is solved for two counts.  The certificate's floor is the sum of both
    orders' certified floors (_PairBounds.pinch), and both gauges come from
    one eigenvalue row: each floor's allowance covers its order's Rayleigh
    bound and gauge, as in g_tilde, and the two sums round below 1e3 eps of
    the same scale, far inside either allowance.
    """
    n = sigma.count
    counts = sorted({min(n, max(2, n // k)) for k in (8, 4, 2, 1)})
    held = unit_sphere(rng_for(heldout_seed, STREAM_HELDOUT), heldout_count)
    zh, sh = _coords_of_sources(held)
    pts, cone = sigma.bounds, sigma.cone

    rows, floor, solve = _extension_parts(zh, sigma)
    F = sh - np.minimum.accumulate([
        _pruned_min(floor[:, a:b], lambda e, i: solve(e, i + a))
        for a, b in zip([0] + counts, counts)])

    def both_orders(e, i):
        mu = _pair_spectra(zh, sigma.z, e, i)
        return _gauge(mu, cone) + _gauge(-mu[:, ::-1], cone)
    floor = rows.pinch(cone, pts)
    floor += pts.pinch(cone, rows).T
    nn = _pruned_min(floor, both_orders)
    return ZeroLevelReport(counts=counts, max_abs_F=np.abs(F).max(1).tolist(),
                           nn_bound=nn, F_full=F[-1])


def _random_psd(rng: np.random.Generator, count: int) -> np.ndarray:
    """Unit-Frobenius psd matrices with uniform eigenvalue profiles."""
    g = rng.standard_normal((count, 12, 12))
    q, _ = np.linalg.qr(g)
    mu = rng.uniform(0.0, 1.0, (count, 12))
    mats = np.einsum("nik,nk,njk->nij", q, mu, q)
    return mats / np.linalg.norm(mats, axis=(1, 2), keepdims=True)


def _random_sym(rng: np.random.Generator, count: int,
                scale: float) -> np.ndarray:
    g = rng.standard_normal((count, 12, 12)) * scale
    return 0.5 * (g + np.transpose(g, (0, 2, 1)))


@dataclass
class EllipticityReport:
    slope_min: float
    slope_max: float           # the empirical ellipticity estimate
    identity_slope: float
    level_pairs: int
    level_violations: list


def ellipticity_probe(sigma: SigmaSample, trials: int, seed: int) -> EllipticityReport:
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
    FA, FAE, FI = np.split(sigma.F(np.concatenate(
        [A, A + t * E, A[:1] + t * np.eye(12)])), [trials, 2 * trials])
    slopes = (FAE - FA) / t
    idn = float((FI[0] - FA[0]) / t)

    # level-set pool: half graph-based, half generic, moved onto {F = 0}
    k = min(20, half, trials - half)
    sel = np.concatenate([np.arange(k), np.arange(half, half + k)])
    shift = -FA[sel] / np.sqrt(12.0)
    level = A[sel] + shift[:, None, None] * np.eye(12)
    level_rep = cone_condition(level, ConeParams(2 * sigma.cone.lam))

    return EllipticityReport(
        slope_min=float(np.min(slopes)), slope_max=float(np.max(slopes)),
        identity_slope=idn,
        level_pairs=level_rep.pairs_checked,
        level_violations=level_rep.violations)


def monotonicity_sweep(sigma: SigmaSample, trials: int, seed: int) -> float:
    """Worst value of F(A+E) - F(A) over random A and full-size psd E.

    Nonnegative up to roundoff: the increment's trace part dominates its
    cone modulus for psd E, and g_tilde is 1-Lipschitz in that modulus.
    Returns the worst difference; the caller sets the roundoff allowance
    (the CLI and the acceptance sweep want >= -1e-9).

    Each block of trials is one row of cones._pruned_min.  s is linear and
    g_tilde's two-sided bound holds for any sample, so in exact arithmetic

        F(A + E) - F(A) = s(E) - [g_tilde(z(A+E)) - g_tilde(z(A))]
                        >= s(E) - x(z(E)),

    a floor that costs one eigensolve of embed(z(E)) per trial and no
    g_tilde.  Its allowance is sqrt(12) _GUARD (|A+E|_F + |A|_F + |E|_F
    + 2 max_i(|s_i| + |z_i|)).  Every rounding on either side -- the
    coordinates of A + E, A and E, the floor's eigenvalues and gauge, and
    each g_tilde entry s_i + x(z - z_i) of both F values, as in
    _PairBounds -- is below sqrt(12) 1e3 eps of that scale (eps = 2.2e-16;
    an error in coordinates moves a gauge by at most sqrt(12) times its
    Frobenius size), so the allowance covers it more than four thousand
    times over.  Only the trials whose certified floor can reach the
    block's least difference are evaluated, on [A + E; A] at those rows;
    F rows do not depend on their stack (SigmaSample.F) and min is exact,
    so the worst is bitwise that of evaluating every trial
    (tests/test_elliptic.py).
    """
    rng = rng_for(seed, STREAM_MONOTONE)
    sample_scale = 2.0 * np.max(np.abs(sigma.s)
                                + np.linalg.norm(sigma.z, axis=1))
    worst = np.inf
    for start in range(0, trials, 500):
        b = min(500, trials - start)
        A = _random_sym(rng, b, scale=1.0)
        third = max(1, b // 3)
        pts = unit_sphere(rng, third)
        A[:third] = hess_w(pts)
        E = _random_psd(rng, b) * rng.uniform(0.0, 3.0, (b, 1, 1))
        AE = A + E
        ze, se = symspace.to_coords(E)
        floor = se - _gauge(eigvalsh_asc(symspace.embed_traceless(ze)),
                            sigma.cone)
        floor -= np.sqrt(12.0) * _GUARD * (
            np.linalg.norm(AE, axis=(1, 2)) + np.linalg.norm(A, axis=(1, 2))
            + np.linalg.norm(E, axis=(1, 2)) + sample_scale)

        def differences(e, i):
            FAE, FA = np.split(sigma.F(np.concatenate([AE[i], A[i]])), 2)
            return FAE - FA
        worst = min(worst, float(_pruned_min(floor[None], differences)[0]))
    return worst


@dataclass
class ViscosityReport:
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
    MINORANT_MARGIN, where T_k(x) = x.hb[k].x / 2.

    The verification points are taken in eigen._row_blocked blocks: one
    GEMM per block evaluates every T_k at its points, and the block
    returns its column max and min, so the working set is one block's
    (points x 144) outer products and (points x trials) table, not the
    whole sample's.  max and min are exact, so the lifts are the one-GEMM
    lifts whenever each block's GEMM rounds its entries as one GEMM over
    every point does.  OpenBLAS's edge kernels need not: on a block's edge
    rows and the last (trials mod 4) columns an entry may differ from the
    one-GEMM entry, by at most 2 * 144 eps |hb[k]|_F (eps = 2.2e-16; each
    is a 144-term dot product of unit-norm x x^T with hb[k]).
    tests/test_row_blocks.py holds every lift to the one-GEMM body
    (tests/oracles.py's full_lift_sizes) within that bound.  With OpenBLAS
    0.3.31 every lift measured, five seeds at 2 to 1,001 trials, was
    bitwise the one-GEMM lift.
    """
    hb_flat = hb.reshape(-1, 144)

    def extremes(v, w):
        excess = (v[:, :, None] * v[:, None, :]).reshape(-1, 144) @ hb_flat.T
        excess *= 0.5
        excess -= w[:, None]
        return excess.max(axis=0)[None], excess.min(axis=0)[None]
    high, low = _row_blocked(extremes)(verif, wv)
    at_base = 0.5 * np.einsum("ni,nij,nj->n", bases, hb, bases) - eval_w(bases)
    down = np.maximum(high.max(axis=0), at_base) + MINORANT_MARGIN
    up = np.maximum(-low.min(axis=0), -at_base) + MINORANT_MARGIN
    return down, up


def viscosity_probe(sigma: SigmaSample, trials: int, seed: int) -> ViscosityReport:
    """One-sided quadratic comparison at the Hessian level.

    Every trial takes a base point x' and the quadratic form with matrix
    D2w(x') -- the second-order Taylor polynomial of the 2-homogeneous w at
    x' collapses to exactly that form, so one-sidedness against w reduces
    to the unit sphere.  The form is then pushed strictly one-sided by an
    identity shift sized from a dense verification sample
    (VERIFICATION_COUNT sphere points, x' and the graph sources), plus
    MINORANT_MARGIN; half the trials add a random psd tilt on the safe
    side.  All trials are lifted at once (_lift_sizes).  Minorants must
    report F <= VISCOSITY_TOL, majorants F >= -VISCOSITY_TOL.

    The majorant lift is never small: the verification max of w - T is at
    least half the top eigenvalue gap of D2w(x'), which the spectral band
    keeps above sqrt(3)/2.  That does not put majorant F values above the
    sampling-density gap at the touching point: on a 77-point sample with
    77 trials (seed 42), 6 majorants, all on random bases, report
    F < -VISCOSITY_TOL (min F = -0.35); at each, the gap
    min_i (x(z' - z_i) + x(z_i - z')), 6.8 to 7.6, exceeds the lift
    2 sqrt(12) up, 2.5 to 3.4.  The gap shrinks only like n^(-1/11).

    The lifts are sampled, so a lift can only fall short of the supremum
    over the sphere.  F is monotone, so a short majorant lift lowers F(B)
    and a short minorant lift raises it: both checks get stricter, never
    laxer.  Against the paper's operator F_Sigma the verdicts are one-sided:
    g_tilde >= g_Sigma, the extension over all of Sigma, so F <= F_Sigma,
    and a majorant pass and a minorant failure hold for F_Sigma, while a
    minorant pass and a majorant failure do not.

    The report needs g_tilde on few rows.  A row's computed F = fl(s - g),
    g the least computed entry T_i = s_i + x(z - z_i), is bracketed by

        fl(s - T_i)  <=  F  <=  fl(s - min_i floor_i)

    for any solved entry T_i, with the certified floors of
    _extension_parts: each floor is at most its computed entry, min is
    exact and fl(s - .) is monotone, so both ends hold for the computed F
    with no further allowance.  The upper end costs no eigensolve, and the
    minorant max and the F > tol count need only it.  The lower end is
    _first_round's (_pruned_min's first round), on the majorant rows only.
    The minorant with the highest upper end and the majorant with the
    lowest lower end are finished first, then every row whose bracket
    could still pass that extreme or straddle +-VISCOSITY_TOL.  A row is
    finished by the pruned minimum (cones._pruned_min) of its row of the
    same floor table with the same solve, which is its computed g, min
    being exact; a finished row's bracket ends are its F.  An unfinished
    minorant's upper end is at most the first minorant's F and at most
    tol; an unfinished majorant's lower end is at least the first
    majorant's F, and its bracket lies on one side of -tol.  So the max of
    the minorants' upper ends, the min of the majorants' lower ends and
    the counts of upper ends past +-tol are bitwise the report of F on the
    whole stack (tests/test_elliptic.py).
    """
    rng = rng_for(seed, STREAM_VISCOSITY)
    sphere = unit_sphere(rng, VERIFICATION_COUNT)
    verif = np.concatenate([sphere, sigma.sources], axis=0)

    n_half = trials // 2
    bases = unit_sphere(rng, trials)
    # half the bases are graph sources: snug majorants whose touching point
    # is stored, where F vanishes exactly
    idx = rng.integers(0, sigma.count, n_half)
    bases[:n_half] = sigma.sources[idx]

    tilts = _random_psd(rng, trials) * rng.uniform(0.0, 0.5, (trials, 1, 1))
    tilt_on = rng.uniform(size=trials) < 0.5
    tilts[~tilt_on] = 0.0
    hb = hess_w(bases)
    down, up = _lift_sizes(verif, eval_w(verif), bases, hb)
    z, s = symspace.to_coords(np.concatenate(
        [hb - 2.0 * down[:, None, None] * np.eye(12) - tilts,
         hb + 2.0 * up[:, None, None] * np.eye(12) + tilts]))
    _, floor, solve = _extension_parts(z, sigma)
    minor, major = slice(trials), slice(trials, None)
    hi = s - floor.min(axis=1)
    lo = np.full_like(hi, -np.inf)
    lo[major] = s[major] - _first_round(
        floor[major], lambda e, i: solve(e + trials, i))[2]

    def finish(rows):
        lo[rows] = hi[rows] = s[rows] - _pruned_min(
            floor[rows], lambda e, i: solve(rows[e], i))
    top, bottom = np.argmax(hi[minor]), trials + np.argmin(lo[major])
    finish(np.array([top, bottom]))
    tol = VISCOSITY_TOL
    rows = np.flatnonzero(np.concatenate([
        (hi[minor] > hi[top]) | ((lo[minor] <= tol) & (hi[minor] > tol)),
        (lo[major] < lo[bottom]) | ((lo[major] < -tol) & (hi[major] >= -tol))
    ]))
    finish(rows)
    return ViscosityReport(
        minorant_max_F=float(np.max(hi[minor])),
        majorant_min_F=float(np.min(lo[major])),
        minorant_violations=int(np.sum(hi[minor] > tol)),
        majorant_violations=int(np.sum(hi[major] < -tol)))
