"""Acceptance sweep.

One test per acceptance item, each at its stated tolerance and sample
count, so ``pytest -v`` prints exactly one pass/fail line per item.  Items
1-6 and 12 assert on the named checks of the CLI's own suites: one
spectral and one Hessian suite report at the default RunConfig (seed 42),
whose default counts, streams and tolerances are exactly those items'
(each item also asserts the counts it relies on).  The module-scoped
fixtures hold those two reports and the 2000-point graph sample, built at
the aperture from the Hessian suite's M_hat, so the whole file runs in a
few minutes.

Item 13 (the deliberately corrupted build) is asserted exactly as
promised: the corruption must trip BOTH the closed-form spectrum check
and the pair-ratio pinch.  The second leg does not hold — see the
assertion message — and is intentionally left failing rather than
weakened.
"""

import time

import numpy as np
import pytest

import qcubic.cubic as cubic_mod
from qcubic.cli import RunConfig, hessian_suite, spectral_suite
from qcubic.cones import ConeParams, cone_condition, support_x
from qcubic.cubic import spectrum_sweep
from qcubic.elliptic import (build_sigma, OperatorF, zero_level_curve,
                             monotonicity_sweep, viscosity_probe,
                             operator_cone)
from qcubic.hessian import hess_w, ratio_bound_estimate, RATIO_BOUND
from qcubic.quaternions import matrix_M as _true_matrix_M
from qcubic.sampling import (rng_for, directions, STREAM_SPECTRAL,
                             STREAM_HESSIAN, STREAM_CONE)

SEED = 42
SQ12 = np.sqrt(12.0)


def _check(report, name):
    """The named check of a suite report."""
    return next(c for c in report["checks"] if c["name"] == name)


@pytest.fixture(scope="module")
def spectral():
    """Spectral suite: 10^4 random directions plus all four degenerate
    strata, 10^5 compression samples; returns (report, seconds taken)."""
    t0 = time.perf_counter()
    report = spectral_suite(RunConfig(seed=SEED))
    return report, time.perf_counter() - t0


@pytest.fixture(scope="module")
def hessian():
    """Hessian suite: 10^3 FD points, 10^5 witness pairs, the pinch
    estimate over 10^5 random pairs plus 500 antipodal pairs, 10^4 third
    derivative samples."""
    return hessian_suite(RunConfig(seed=SEED))


@pytest.fixture(scope="module")
def sigma2000(hessian):
    cone = operator_cone("empirical", hessian["constants"]["M_hat"])
    return build_sigma(2000, SEED, cone), cone


def test_a01_closed_form_spectrum_oracle(spectral):
    report, elapsed = spectral
    assert report["counts"]["directions"] == 10_000
    assert report["counts"]["strata"] == 200
    assert report["constants"]["spectrum_tolerance"] == 1e-8
    check = _check(report, "closed_form_spectrum")
    assert check["passed"], \
        "max eigenvalue mismatch %.3e over 1e-8" % check["worst"]
    assert elapsed < 30.0, "spectral suite took %.1fs (budget 30s)" % elapsed


def test_a02_eigenvalue_band_bounds(spectral):
    check = _check(spectral[0], "eigenvalue_bands")
    assert check["passed"], \
        "band violation, worst slack %.3e at sample %d" % (
            check["worst"], check["witness"]["index"])


def test_a03_complement_compression_ratio(spectral):
    assert spectral[0]["counts"]["perp"] == 100_000
    check = _check(spectral[0], "compression_ratio")
    assert check["passed"], "delta_hat = %.4f" % check["worst"]
    print("a03 delta_hat = %.4f" % check["worst"])


def test_a04_witness_slopes(hessian):
    assert hessian["counts"]["witness"] == 100_000
    check = _check(hessian, "witness_slopes")
    assert check["passed"], "worst witness slack %.3e" % check["worst"]


def test_a05_pair_ratio_pinch(hessian):
    assert hessian["counts"]["ratio"] == 100_000
    check = _check(hessian, "pair_ratio_pinch")
    r_min, r_max = check["worst"]["r_min"], check["worst"]["r_max"]
    print("a05 ratio extremes: [%.6f, %.6f]" % (r_min, r_max))
    assert check["passed"], \
        "ratio extremes [%.4e, %.4f] leave [1/B, B], B = %.4f" % (
            r_min, r_max, RATIO_BOUND)


def test_a06_third_derivative_bound(hessian):
    assert hessian["counts"]["third"] == 10_000
    check = _check(hessian, "third_derivative")
    assert check["passed"], \
        "third derivative sample %.4f over 32" % check["worst"]


def test_a07_pairwise_cone_condition(sigma2000, hessian):
    sigma, _ = sigma2000
    mats = hess_w(sigma.sources[:500])
    for lam in (11.0 * hessian["constants"]["M_hat"], 11.0 * RATIO_BOUND):
        rep = cone_condition(mats, ConeParams(lam))
        assert rep.passed, \
            "lam=%.3f: %d violating pairs, first %s" % (
                lam, len(rep.violations), rep.violations[:3])


def test_a08_support_gauge_properties():
    cone = ConeParams(33.0)
    rng = rng_for(SEED, STREAM_CONE)

    assert float(support_x(np.zeros(77), cone)) == 0.0

    z = rng.standard_normal((200, 77))
    x1 = support_x(z, cone)
    for t in (0.1, 3.0, 10.0):
        xt = support_x(t * z, cone)
        assert np.max(np.abs(xt - t * x1)) <= 1e-9, "homogeneity at t=%r" % t

    z2 = rng.standard_normal((1000, 77))
    z3 = rng.standard_normal((1000, 77))
    gap = support_x(z2 + z3, cone) - support_x(z2, cone) - support_x(z3, cone)
    assert np.max(gap) <= 1e-9, "subadditivity slack %.3e" % np.max(gap)

    pts = rng.standard_normal((1000, 77))
    h = 1e-6
    grad_sq = np.zeros(1000)
    for j in range(77):
        shift = np.zeros(77)
        shift[j] = h
        xp = support_x(pts + shift, cone)
        xm = support_x(pts - shift, cone)
        grad_sq += ((xp - xm) / (2.0 * h)) ** 2
    worst = float(np.sqrt(grad_sq.max()))
    assert worst < SQ12, "|grad x| = %.4f not below sqrt(12)" % worst


def test_a09_zero_level_convergence(sigma2000):
    sigma, cone = sigma2000
    rep = zero_level_curve(sigma, cone, counts=(250, 500, 1000, 2000),
                           heldout_count=200, heldout_seed=7)
    assert rep.worst_ratio <= 5.0, \
        "held-out |F| reaches %.3f x the pair certificate" % rep.worst_ratio
    assert rep.monotone, "curve not decreasing: %r" % (rep.max_abs_F,)
    print("a09 maxF curve:", ["%.4f" % v for v in rep.max_abs_F])


def test_a10_degenerate_ellipticity(sigma2000):
    sigma, cone = sigma2000
    op = OperatorF(sigma.prefix(500), cone)
    worst = monotonicity_sweep(op, 10_000, SEED)
    assert worst >= -1e-9, \
        "psd increment decreased F by %.3e" % max(0.0, -worst)


def test_a11_viscosity_quadratics(sigma2000):
    sigma, cone = sigma2000
    rep = viscosity_probe(OperatorF(sigma, cone), 1000, SEED)
    assert rep.minorant_violations == 0 and rep.minorant_max_F <= 1e-6, \
        "touching minorant with F = %.3e > 1e-6" % rep.minorant_max_F
    assert rep.majorant_violations == 0 and rep.majorant_min_F >= -1e-6, \
        "touching majorant with F = %.3e < -1e-6" % rep.majorant_min_F


def test_a12_finite_difference_oracles(hessian):
    assert hessian["counts"]["fd"] == 1000
    assert hessian["constants"]["fd_tolerance"] == 1e-6
    for name, what in (("fd_gradient", "gradient"), ("fd_hessian", "hessian")):
        check = _check(hessian, name)
        assert check["passed"], \
            "%s FD relative error %.3e" % (what, check["worst"])


def test_a13_negative_control(monkeypatch):
    def flipped(q):
        m = _true_matrix_M(q).copy()
        m[..., 0, 1] = -m[..., 0, 1]
        return m

    monkeypatch.setattr(cubic_mod, "matrix_M", flipped)

    dirs = directions(rng_for(SEED, STREAM_SPECTRAL), 2000)
    vals, closed = spectrum_sweep(dirs)
    mismatch = float(np.max(np.abs(vals - closed)))
    assert mismatch > 1e-8, \
        "corrupted build slipped past the spectrum oracle (%.3e)" % mismatch

    _, r_min, r_max = ratio_bound_estimate(
        rng_for(SEED, STREAM_HESSIAN), 20_000)
    assert r_max > RATIO_BOUND or r_min < 1.0 / RATIO_BOUND, (
        "corrupted build slipped past the ratio pinch: extremes "
        "[%.4f, %.4f] stay inside [1/B, B] with B = 1536 sqrt(3) ~ 2660. "
        "No sign-flip of a structure-matrix entry can widen the ratio "
        "three orders of magnitude (measured across all 16 entries and "
        "all 3 whole-block flips, on random / near / strata pairs), so "
        "this leg of the negative control cannot pass and is left red "
        "deliberately instead of being weakened." % (r_min, r_max))
