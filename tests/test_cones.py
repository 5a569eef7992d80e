"""Eigenvalue-ratio cones, duality, and the support gauge.

The support gauge is the root of the membership margin

    phi(c) = (1 + lam^2)(sum mu + sqrt(12) c) - (lam^2 - 1) sum |mu_i + c/sqrt(12)|

which is piecewise linear and strictly increasing in c (slope between
2 sqrt(12) and 2 lam^2 sqrt(12)).  The library solves it in closed form,
vectorized over rows, from prefix sums of the sorted spectrum.  The oracle
here is independent of that derivation: a scalar scan over the sign
breakpoints c_i = -sqrt(12) mu_i that fits the line on each segment in
turn, so the two agree to rounding at every input scale.
"""

import numpy as np
import pytest

from qcubic import symspace
from qcubic.cones import (ConeParams, _PairBounds, _PRUNE_CANDIDATES,
                          _kappa, _pruned_min, in_K, in_K_star, in_L,
                          in_L_ratio_batch, support_x, cone_condition)
from qcubic.hessian import RATIO_BOUND, hess_w
from qcubic.sampling import rng_for, unit_sphere, STREAM_CONE

SQ = np.sqrt(12.0)


def exact_support(mu, lam):
    """Breakpoint-scan root of the membership margin.  Test oracle."""
    mu = np.sort(np.asarray(mu, dtype=float))
    lam2 = lam * lam
    s0 = float(mu.sum())
    bps = np.sort(-SQ * mu)
    edges = np.concatenate([[bps[0] - 1.0], bps, [bps[-1] + 1.0]])
    for k in range(len(edges) - 1):
        lo, hi = edges[k], edges[k + 1]
        sgn = np.where(mu + 0.5 * (lo + hi) / SQ >= 0, 1.0, -1.0)
        slope = (1 + lam2) * SQ - (lam2 - 1) * float(sgn.sum()) / SQ
        const = (1 + lam2) * s0 - (lam2 - 1) * float(sgn @ mu)
        assert slope > 0
        root = -const / slope
        below = (k == 0) or root >= lo - 1e-12
        above = (k == len(edges) - 2) or root <= hi + 1e-12
        if below and above:
            return root
    raise AssertionError("no interval contained the root")


def _traceless(rng, count):
    return symspace.embed_traceless(rng.standard_normal((count, 77)))


def _sym_in_K(rng, lam, count):
    """Random members of the ratio cone: spectra inside [1, lam^2]."""
    q, _ = np.linalg.qr(rng.standard_normal((count, 12, 12)))
    vals = rng.uniform(1.0, lam * lam, (count, 12))
    return np.einsum("nik,nk,njk->nij", q, vals, q)


def test_cone_params_validated():
    assert ConeParams(1.0).lam == 1.0
    with pytest.raises(ValueError):
        ConeParams(0.5)


def test_in_K_basics():
    cone = ConeParams(3.0)
    assert in_K(np.eye(12), cone)
    assert in_K(np.diag([9.0] + [1.0] * 11), cone)       # ratio exactly lam^2
    assert not in_K(np.diag([9.2] + [1.0] * 11), cone)   # ratio too wide
    assert not in_K(np.diag([1.0] * 11 + [0.0]), cone)   # not definite
    assert not in_K(-np.eye(12), cone)


def test_in_K_star_contains_K_and_identity():
    rng = rng_for(81, STREAM_CONE)
    cone = ConeParams(4.0)
    assert in_K_star(np.eye(12), cone)
    for m in _sym_in_K(rng, cone.lam, 10):
        assert in_K_star(m, cone)      # the cone sits inside its dual


def test_in_K_star_duality_sampled():
    # z in K* means trace(z k) >= 0 for every k in K; check on samples.
    rng = rng_for(82, STREAM_CONE)
    cone = ConeParams(2.5)
    probes = _sym_in_K(rng, cone.lam, 400)
    cand = _traceless(rng, 60)
    shifts = rng.uniform(0.0, 3.0, 60)
    for z, c in zip(cand, shifts):
        m = z + c * np.eye(12) / SQ
        inner = np.einsum("nij,ij->n", probes, m)
        if in_K_star(m, cone):
            assert inner.min() >= -1e-9
        else:
            # outside the dual some probe direction must refute it; the
            # sampled probes only certify one way, so just sanity-check
            # that the matrix is not positive semidefinite regardless
            assert np.linalg.eigvalsh(m)[0] < np.linalg.eigvalsh(m)[-1]


def test_in_K_star_refuted_by_explicit_probe():
    # for a matrix failing the p/q test with margin, construct a refuting
    # probe in K: weight (1-eps) lam^2 on the negative eigenspace (the
    # rearrangement minimizer, backed off the cone boundary so eigh
    # rounding cannot evict it)
    rng = rng_for(83, STREAM_CONE)
    cone = ConeParams(2.0)
    lam2 = cone.lam ** 2
    refuted = 0
    for z in _traceless(rng, 20):
        vals, vecs = np.linalg.eigh(z)
        p = vals[vals > 0].sum()
        q = -vals[vals < 0].sum()
        if p - lam2 * q > -1e-6:
            continue
        assert not in_K_star(z, cone)
        w = np.where(vals < 0, lam2 * (1.0 - 1e-9), 1.0)
        k = (vecs * w) @ vecs.T
        assert in_K(k, cone)
        assert float(np.sum(k * z)) < 0.0
        refuted += 1
    assert refuted > 5


def test_in_L_is_two_sided_strict_dual_complement():
    rng = rng_for(84, STREAM_CONE)
    cone = ConeParams(3.0)
    zs = _traceless(rng, 50)
    vals = np.linalg.eigvalsh(zs)
    batch = in_L_ratio_batch(vals, cone)
    for z, expect in zip(zs, batch):
        assert in_L(z, cone) == bool(expect)
        assert in_L(z, cone) == (not in_K_star(z, cone)
                                 and not in_K_star(-z, cone))


def test_in_L_excludes_identity_and_zero():
    cone = ConeParams(3.0)
    assert not in_L(np.eye(12), cone)
    assert not in_L(np.zeros((12, 12)), cone)


# --- support gauge -----------------------------------------------------------

def test_support_exact_oracle_agreement():
    rng = rng_for(85, STREAM_CONE)
    cone = ConeParams(5.0)
    zs = rng.standard_normal((200, 77))
    xs = support_x(zs, cone)
    mats = symspace.embed_traceless(zs)
    for k in range(200):
        mu = np.linalg.eigvalsh(mats[k])
        assert abs(xs[k] - exact_support(mu, cone.lam)) < 1e-9


def test_support_membership_transition():
    # x(z) is the exact threshold: shifted matrix enters K* at c = x
    rng = rng_for(86, STREAM_CONE)
    cone = ConeParams(3.0)
    z = rng.standard_normal(77)
    x = float(support_x(z, cone))
    m = symspace.embed_traceless(z)
    eye = np.eye(12) / SQ
    assert in_K_star(m + (x + 1e-7) * eye, cone)
    assert not in_K_star(m + (x - 1e-7) * eye, cone)


def test_support_zero_and_homogeneity():
    rng = rng_for(87, STREAM_CONE)
    cone = ConeParams(4.0)
    assert support_x(np.zeros(77), cone) == 0.0
    z = rng.standard_normal(77)
    x1 = float(support_x(z, cone))
    for t in (0.05, 2.0, 117.0):
        assert abs(float(support_x(t * z, cone)) - t * x1) < 1e-9 * max(1, t)


def test_support_subadditive():
    rng = rng_for(88, STREAM_CONE)
    cone = ConeParams(3.5)
    z1 = rng.standard_normal((150, 77))
    z2 = rng.standard_normal((150, 77))
    x1 = support_x(z1, cone)
    x2 = support_x(z2, cone)
    x12 = support_x(z1 + z2, cone)
    assert np.max(x12 - x1 - x2) <= 1e-9


def test_support_positive_and_bracketed():
    # traceless z != 0 with lam > 1 has 0 < x(z) <= sqrt(12) |mu_min|
    rng = rng_for(89, STREAM_CONE)
    cone = ConeParams(2.0)
    z = rng.standard_normal((100, 77))
    x = support_x(z, cone)
    mats = symspace.embed_traceless(z)
    mu_min = np.linalg.eigvalsh(mats)[:, 0]
    assert np.all(x > 0)
    assert np.all(x <= SQ * (-mu_min) + 1e-9)


def test_support_lambda_one_vanishes():
    rng = rng_for(90, STREAM_CONE)
    z = rng.standard_normal((20, 77))
    assert np.max(np.abs(support_x(z, ConeParams(1.0)))) < 1e-9


def test_support_monotone_in_lambda():
    rng = rng_for(91, STREAM_CONE)
    z = rng.standard_normal((50, 77))
    prev = support_x(z, ConeParams(1.5))
    for lam in (2.0, 4.0, 30.0):
        cur = support_x(z, ConeParams(lam))
        assert np.min(cur - prev) > -1e-9
        prev = cur


def test_support_matches_oracle_across_scales():
    # the gauge is exact, so it holds relative accuracy far from unit scale
    rng = rng_for(92, STREAM_CONE)
    cone = ConeParams(6.0)
    z = rng.standard_normal((30, 77))
    for scale in (1e-6, 1.0, 1e8):
        xs = support_x(scale * z, cone)
        mu = np.linalg.eigvalsh(symspace.embed_traceless(scale * z))
        expect = np.array([exact_support(m, cone.lam) for m in mu])
        np.testing.assert_allclose(xs, expect, rtol=1e-12, atol=0.0)


def test_support_batch_matches_single():
    rng = rng_for(93, STREAM_CONE)
    cone = ConeParams(3.0)
    z = rng.standard_normal((10, 77))
    batch = support_x(z, cone)
    for k in range(10):
        assert abs(batch[k] - float(support_x(z[k], cone))) < 1e-10


# --- pruning bounds ------------------------------------------------------------

@pytest.mark.parametrize("lam", [1.5, 33.0, 11.0 * RATIO_BOUND])
def test_gauge_pinched_by_top_eigenvalue(lam):
    # kappa sqrt(12) nu <= x(Z) <= sqrt(12) nu with nu = lambda_max(-Z)
    rng = rng_for(96, STREAM_CONE)
    kappa = _kappa(ConeParams(lam))
    assert kappa == pytest.approx((lam**2 - 1) / (lam**2 + 11), rel=1e-15)
    z = rng.standard_normal((40, 77))
    z[:10] *= rng.uniform(0.0, 1.0, (10, 77)) < 0.1   # sparse, low-rank-ish
    for scale in (1e-6, 1.0, 1e8):
        for mu in np.linalg.eigvalsh(symspace.embed_traceless(scale * z)):
            x = exact_support(mu, lam)
            nu = -mu[0]
            assert kappa * SQ * nu <= x * (1 + 1e-12)
            assert x <= SQ * nu * (1 + 1e-12)


def test_rayleigh_bounds_never_exceed_extreme_eigenvalues():
    rng = rng_for(97, STREAM_CONE)
    hess = hess_w(unit_sphere(rng, 30))
    eps = np.finfo(float).eps
    for scale in (1e-6, 1.0, 1e8):
        a = np.concatenate([hess, _traceless(rng, 30)]) * scale
        b = np.concatenate([_traceless(rng, 20), hess[:20] + np.eye(12)]) * scale
        pa, pb = _PairBounds(a), _PairBounds(b)
        # within the rounding allowance of the _PairBounds docstring
        spec = np.linalg.eigvalsh(a[:, None] - b[None, :])
        allow = 1e3 * eps * (pa.norm[:, None] + pb.norm[None, :])
        assert np.all(pa.lower(pb) <= spec[..., -1] + allow)
        own = np.linalg.eigvalsh(a[:, None] - a[None, :])
        allow = 1e3 * eps * (pa.norm[:, None] + pa.norm[None, :])
        assert np.all(pa.lower() <= own[..., -1] + allow)
        # the reversed pair bounds -lambda_min
        assert np.all(pa.lower().T <= -own[..., 0] + allow)


def test_pair_solve_rows_do_not_depend_on_block(monkeypatch):
    # each pair's eigenvalues are bitwise those of one pass over all pairs,
    # whatever block it is solved in: what keeps pruned outputs unchanged
    rng = rng_for(98, STREAM_CONE)
    z = rng.standard_normal((40, 77)) * rng.uniform(1e-3, 1e3, (40, 1))
    ii, jj = np.triu_indices(40, k=1)
    full = np.linalg.eigvalsh(symspace.embed_traceless(z[ii] - z[jj]))

    def diff(i, j):
        return symspace.embed_traceless(z[i] - z[j])

    monkeypatch.setattr("qcubic.eigen.ROW_BLOCK", 4)
    for size in (1, 2, 3, 9):
        pick = np.sort(rng.choice(ii.size, size, replace=False))
        rows = _PairBounds.solve(diff, ii[pick], jj[pick])
        assert rows.shape == (size, 12)
        assert rows.tobytes() == full[pick].tobytes(), size


def test_pruned_min_is_the_full_tables_minimum():
    # floors up to 1 below a synthetic table's entries: the pruned row minima
    # are bitwise the table's, and solve is called on what each round opens
    rng = rng_for(99, STREAM_CONE)
    table = rng.standard_normal((30, 50))
    floor = table - rng.uniform(0.0, 1.0, table.shape)
    calls = []

    def solve(e, i):
        calls.append(list(zip(e.tolist(), i.tolist())))
        return table[e, i]

    # row 0: decoy floors fill round 1, and a planted minimum is left over
    decoys, k = np.arange(_PRUNE_CANDIDATES), _PRUNE_CANDIDATES + 3
    floor[0, decoys] = -1e3
    table[0, k] = table[0].min() - 1.0
    floor[0, k] = table[0, k] - 0.5
    got = _pruned_min(floor, 1e-3, solve)
    assert got.tobytes() == table.min(axis=1).tobytes()
    assert len(calls) == 2 and len(calls[0]) == 30 * _PRUNE_CANDIDATES
    assert (0, k) not in calls[0] and (0, k) in calls[1]
    assert {(0, int(d)) for d in decoys} <= set(calls[0])

    # exact floors, some with fewer columns than _PRUNE_CANDIDATES: round 1
    # holds every row's minimum, so round 2 opens nothing and is not called
    full = table
    for n in (1, 5, 50):
        table = full[:, :n].copy()  # what solve reads
        calls.clear()
        got = _pruned_min(table.copy(), 0.0, solve)
        assert got.tobytes() == table.min(axis=1).tobytes()
        assert len(calls) == 1
        assert len(calls[0]) == 30 * min(n, _PRUNE_CANDIDATES)


# --- pairwise cone condition --------------------------------------------------

def _full_violations(mats, cone):
    """Every pair outside L, eigensolving all pairs: the reference."""
    ii, jj = np.triu_indices(len(mats), k=1)
    ok = in_L_ratio_batch(np.linalg.eigvalsh(mats[ii] - mats[jj]), cone)
    return [(int(i), int(j)) for i, j in zip(ii[~ok], jj[~ok])]


def test_cone_condition_on_hessian_sample():
    pts = unit_sphere(rng_for(94, STREAM_CONE), 60)
    mats = hess_w(pts)
    rep = cone_condition(mats, ConeParams(33.0))
    assert rep.passed
    assert rep.pairs_checked == 60 * 59 // 2
    assert rep.violations == []


def test_cone_condition_detects_planted_violation():
    pts = unit_sphere(rng_for(95, STREAM_CONE), 20)
    mats = hess_w(pts)
    cone = ConeParams(33.0)
    mats[3] = mats[7] + np.eye(12)  # difference is a multiple of identity
    rep = cone_condition(mats, cone)
    assert not rep.passed
    assert (3, 7) in [tuple(sorted(v)) for v in rep.violations]
    assert rep.violations == _full_violations(mats, cone)

    # near the boundary: M_5 - M_11 = Z + c I/sqrt(12) with c just past the
    # gauge x(Z), so the difference sits barely inside K* and no bound can
    # certify it
    mats = hess_w(pts)
    z = symspace.to_coords(mats[5] - mats[11])[0]
    c = float(support_x(z, cone)) * (1 + 1e-9)
    mats[5] = mats[11] + symspace.embed_traceless(z) + c * np.eye(12) / SQ
    rep = cone_condition(mats, cone)
    assert (5, 11) in rep.violations
    assert rep.violations == _full_violations(mats, cone)
    # and just short of it the pair is in L
    mats[5] -= 2e-9 * c * np.eye(12) / SQ
    assert (5, 11) not in cone_condition(mats, cone).violations


@pytest.mark.parametrize("lam", [33.0, 11.0 * RATIO_BOUND])
def test_cone_condition_detects_minus_dual_leg(lam):
    # the mirror of the near-boundary case above: M_9 - M_4 = Z + c I/sqrt(12)
    # with c just past x(Z), so for the pair (4, 9) the difference
    # M_4 - M_9 lies barely inside -K*; a test that dropped or swapped the
    # -K* leg would miss the pair or flag its just-short twin
    pts = unit_sphere(rng_for(95, STREAM_CONE), 20)
    mats = hess_w(pts)
    cone = ConeParams(lam)
    z = symspace.to_coords(mats[9] - mats[4])[0]
    c = float(support_x(z, cone)) * (1 + 1e-9)
    mats[9] = mats[4] + symspace.embed_traceless(z) + c * np.eye(12) / SQ
    rep = cone_condition(mats, cone)
    assert (4, 9) in rep.violations
    assert rep.violations == _full_violations(mats, cone)
    mats[9] -= 2e-9 * c * np.eye(12) / SQ
    rep = cone_condition(mats, cone)
    assert (4, 9) not in rep.violations
    assert rep.violations == _full_violations(mats, cone)


def test_cone_condition_small_stacks():
    # fewer than two matrices have no pairs; two have one
    mats = hess_w(unit_sphere(rng_for(94, STREAM_CONE), 2))
    for count, pairs in ((0, 0), (1, 0), (2, 1)):
        rep = cone_condition(mats[:count], ConeParams(33.0))
        assert rep.pairs_checked == pairs
        assert rep.violations == []
