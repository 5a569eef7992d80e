"""Graph sample, inf-convolution extension, and operator probes."""

import dataclasses
import os
import re

import numpy as np
import pytest

from qcubic import cli, elliptic, symspace
from qcubic.cli import RunConfig
from qcubic.cones import (ConeParams, _PairBounds, _first_round, _gauge,
                          _kappa)
from qcubic.cubic import eval_P
from qcubic.elliptic import (SigmaSample, sigma_from_sources, build_sigma,
                             validate_graph, save_cache, load_cache,
                             CacheError, GraphError,
                             g_tilde, operator_cone, zero_level_curve,
                             ellipticity_probe, monotonicity_sweep,
                             viscosity_probe, GRAPH_TOL, MINORANT_MARGIN,
                             PAPER_CHAIN_BOUND, VERIFICATION_COUNT,
                             VISCOSITY_TOL, PAPER_LAM, _random_psd,
                             _random_sym)
from qcubic.hessian import RATIO_BOUND, eval_w, hess_w
from qcubic.sampling import (rng_for, unit_sphere, STREAM_ELLIPTIC,
                             STREAM_HELDOUT, STREAM_VISCOSITY)

from oracles import (full_monotonicity_sweep, full_viscosity_probe, in_dual,
                     prefix, support_x)

CONE = ConeParams(33.0)
SQ = np.sqrt(12.0)


def full_gauges(z, zs, cone):
    """x(z_e - zs_i) and x(zs_i - z_e) over every pair, from one unchunked
    eigensolve of the whole table.  Test oracle for the pruned minima."""
    dz = (z[:, None, :] - zs[None, :, :]).reshape(-1, 77)
    mu = np.linalg.eigvalsh(symspace.embed_traceless(dz))
    shape = (z.shape[0], zs.shape[0])
    return (_gauge(mu, cone).reshape(shape),
            _gauge(-mu[:, ::-1], cone).reshape(shape))


@pytest.fixture(scope="module")
def sigma():
    return build_sigma(150, 5, CONE)


def _at(sigma, cone):
    """The sample's sources, revalidated at another cone."""
    return sigma_from_sources(sigma.sources, cone, sigma.seed)


def test_build_sigma_deterministic_and_prefix_nested():
    a = build_sigma(80, 5, CONE)
    b = build_sigma(150, 5, CONE)
    assert np.array_equal(a.sources, b.sources[:80])
    assert np.array_equal(a.z, b.z[:80])
    assert np.array_equal(a.s, b.s[:80])
    pre = prefix(b, 80)
    assert np.array_equal(pre.sources, a.sources)
    assert pre.count == 80


def test_sigma_coordinates_consistent(sigma):
    # stored (z, s) are exactly the coordinate split of hess_w(a)
    k = 17
    mat = hess_w(sigma.sources[k])
    z, s = symspace.to_coords(mat)
    assert np.max(np.abs(z - sigma.z[k])) < 1e-12
    assert abs(s - sigma.s[k]) < 1e-12


def test_sigma_s_is_scaled_cubic(sigma):
    # trace D2w = -15 P on the sphere, and s = trace/sqrt(12)
    expect = -15.0 * eval_P(sigma.sources) / SQ
    assert np.max(np.abs(sigma.s - expect)) < 1e-12


def test_sigma_from_sources_validates():
    pts = unit_sphere(rng_for(6, STREAM_ELLIPTIC), 40)
    sig = sigma_from_sources(pts, CONE, -1)
    assert sig.count == 40 and sig.cone == CONE
    with pytest.raises(ValueError):
        sigma_from_sources(2.0 * pts, CONE, -1)


def test_validate_graph_one_point(sigma):
    validate_graph(prefix(sigma, 1))  # no pairs, nothing to raise


def _graph_violations(sig):
    """Every pair breaking the graph invariant at the sample's cone,
    eigensolving all pairs in one pass: the reference for validate_graph."""
    cone = sig.cone
    ii, jj = np.triu_indices(sig.count, k=1)
    ds = np.abs(sig.s[ii] - sig.s[jj])
    mu = np.linalg.eigvalsh(symspace.embed_traceless(sig.z[ii] - sig.z[jj]))
    t = (ds - GRAPH_TOL)[:, None] / SQ
    bad = (in_dual(mu + t, cone) | in_dual(t - mu, cone)) & (ds > GRAPH_TOL)
    return [(int(i), int(j)) for i, j in zip(ii[bad], jj[bad])]


def _raised_pair(sig):
    with pytest.raises(GraphError) as err:
        validate_graph(sig)
    return str(err.value).split("pair ", 1)[1].split(":", 1)[0]


def test_validate_graph_flags_planted_violation(sigma, monkeypatch):
    s_bad = sigma.s.copy()
    s_bad[3] += 50.0      # way past any cone gap
    bad = SigmaSample(sources=sigma.sources, z=sigma.z, s=s_bad,
                      seed=sigma.seed, cone=sigma.cone)
    ref = _graph_violations(bad)
    assert 3 in ref[0]
    assert _raised_pair(bad) == "(%d, %d)" % ref[0]

    # near the boundary: |s_0 - s_1| just past the modulus, which no bound
    # can certify.  With z_1 = -z_0 the Rayleigh bounds of the pair are
    # exact, so a certificate that dropped kappa or took the wrong order's
    # bound would pass it.
    z_bad = sigma.z.copy()
    z_bad[1] = -z_bad[0]
    x = min(float(support_x(2 * z_bad[0], CONE)),
            float(support_x(-2 * z_bad[0], CONE)))
    s_bad = sigma.s.copy()
    s_bad[0] = s_bad[1] + (x + GRAPH_TOL) * (1 + 1e-9)
    bad = SigmaSample(sources=sigma.sources, z=z_bad, s=s_bad,
                      seed=sigma.seed, cone=sigma.cone)
    ref = _graph_violations(bad)
    assert ref[0] == (0, 1)
    assert _raised_pair(bad) == "(0, 1)"

    # the intact sample passes, and the bounds settle almost every pair
    assert _graph_violations(sigma) == []
    rows = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh",
                        lambda a: rows.append(len(a)) or eigvalsh(a))
    validate_graph(sigma)
    assert sum(rows) < 0.01 * sigma.count * (sigma.count - 1) // 2


def _cached(tmp_path, sigma):
    path = os.path.join(tmp_path, "sigma.cache")
    save_cache(sigma, path)
    return path


def test_cache_roundtrip_exact(tmp_path, sigma):
    path = _cached(tmp_path, sigma)
    back = load_cache(path, 5, 150, "empirical")
    # the file holds only the recipe: two header lines, no data row
    with open(path) as fh:
        lines = fh.read().splitlines()
    assert lines == ["# qcubic-sigma-cache v3",
                     "# seed=5 count=150 lam=%r" % CONE.lam]
    # the sample is redrawn, bitwise the built one
    assert np.array_equal(back.sources, sigma.sources)
    assert np.array_equal(back.z, sigma.z)
    assert np.array_equal(back.s, sigma.s)
    assert back.seed == sigma.seed
    assert back.cone == sigma.cone


def test_paper_cache_roundtrip(tmp_path):
    sig = build_sigma(30, 3, operator_cone("paper"))
    back = load_cache(_cached(tmp_path, sig), 3, 30, "paper")
    assert np.array_equal(back.sources, sig.sources)
    assert back.cone == sig.cone


@pytest.mark.parametrize("mangle", [
    lambda t: t.replace("qcubic-sigma-cache", "qcubic-sigma-cashe"),
    lambda t: t.replace("count=150", "count=149"),
    lambda t: t.replace(" v3\n", " v2\n"),  # a cache of the row format
    lambda t: t.split("\n")[0] + "\n",  # no metadata line
    # the header's aperture: missing, non-finite, or not above 1
    lambda t: re.sub(r"lam=\S+", "lam=nan", t),
    lambda t: re.sub(r"lam=\S+", "lam=inf", t),
    lambda t: re.sub(r"lam=\S+", "lam=1.0", t),
    lambda t: re.sub(r" lam=\S+", "", t),
    # an aperture the sample violates (pair (0, 52))
    lambda t: re.sub(r"lam=\S+", "lam=1.5", t),
    lambda t: t + "0.5,0.5\n",  # a data row
])
def test_cache_corruption_detected(tmp_path, sigma, mangle):
    path = _cached(tmp_path, sigma)
    with open(path) as fh:
        text = fh.read()
    with open(path, "w") as fh:
        fh.write(mangle(text))
    with pytest.raises(CacheError):
        load_cache(path, 5, 150, "empirical")


def test_missing_cache_is_a_cache_error(tmp_path):
    with pytest.raises(CacheError, match="unreadable cache file: "):
        load_cache(os.path.join(tmp_path, "sigma.cache"), 5, 150, "empirical")


@pytest.mark.parametrize("header, key", [
    ("seed=5 count=150", (6, 150, "empirical")),
    ("seed=5 count=150", (5, 151, "empirical")),
    ("seed=5 count=150", (5, 150, "paper")),
    ("seed=5 count=%d" % 10**12, (5, 150, "empirical")),
], ids=["seed", "count", "policy", "huge-count"])
def test_foreign_cache_key_refused_before_any_draw(tmp_path, sigma, header,
                                                   key, monkeypatch):
    path = _cached(tmp_path, sigma)
    with open(path) as fh:
        text = fh.read()
    with open(path, "w") as fh:
        fh.write(text.replace("seed=5 count=150", header))
    drawn = []
    for name in ("build_sigma", "validate_graph", "unit_sphere"):
        monkeypatch.setattr(elliptic, name, lambda *args, _name=name, **kw:
                            drawn.append(_name))
    with pytest.raises(CacheError, match="not for this run's"):
        load_cache(path, *key)
    assert drawn == []


def test_cache_unit_tolerance_decides(sigma):
    # no cache holds a source vector any more, so the unit check is
    # sigma_from_sources' alone: a source within its 1e-9 norm tolerance
    # loads (the Hessian coordinates are 0-homogeneous, so the graph is
    # unchanged), one beyond it is rejected
    for scale, loads in ((1.0 + 5e-10, True), (1.0 + 2e-9, False)):
        sources = sigma.sources.copy()
        sources[3] *= scale
        if loads:
            back = sigma_from_sources(sources, sigma.cone, sigma.seed)
            assert np.array_equal(back.sources, sources)
        else:
            with pytest.raises(ValueError, match="unit length"):
                sigma_from_sources(sources, sigma.cone, sigma.seed)


# --- extension and operator ---------------------------------------------------

def test_g_tilde_interpolates_stored_values(sigma):
    g = g_tilde(sigma.z, sigma)
    assert np.max(np.abs(g - sigma.s)) == 0.0


def test_g_tilde_pruned_equals_full_table(sigma, monkeypatch):
    # the pruned min is bitwise the min over the full gauge table
    rng = rng_for(8, STREAM_ELLIPTIC)
    far = symspace.to_coords(_random_sym(rng, 60, scale=1.5))[0]
    near = symspace.to_coords(
        hess_w(unit_sphere(rng, 60)) + 2.0 * rng.uniform(-0.3, 0.3, (60, 1, 1))
        * np.eye(12) + _random_psd(rng, 60) * rng.uniform(0, 0.5, (60, 1, 1)))[0]
    cases = {"far": far, "near": near, "sigma": sigma.z,
             "tiny": 1e-6 * far, "huge": 1e8 * far, "one": far[:1]}
    for cone in (CONE, ConeParams(11.0 * RATIO_BOUND)):
        at = _at(sigma, cone)
        for name, z in cases.items():
            full = np.min(sigma.s[None, :] + full_gauges(z, sigma.z, cone)[0],
                          axis=1)
            assert g_tilde(z, at).tobytes() == full.tobytes(), name
    assert g_tilde(far[0][None], sigma)[0] == float(
        np.min(sigma.s + full_gauges(far[:1], sigma.z, CONE)[0]))

    rows = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh",
                        lambda a: rows.append(len(a)) or eigvalsh(a))
    g_tilde(far, sigma)
    assert sum(rows) < 0.2 * far.shape[0] * sigma.count


def test_sample_bounds_built_once(monkeypatch):
    # validate_graph builds the sample's extreme eigenpairs; every g_tilde
    # call reuses them and eigh-solves only its own evaluation rows
    rows = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh",
                        lambda a: rows.append(len(a)) or eigh(a))
    sig = build_sigma(60, 9, CONE)
    z = sig.z[:7] + 0.05
    first = g_tilde(z, sig)
    second = g_tilde(z, sig)
    assert rows == [60, 7, 7]
    assert first.tobytes() == second.tobytes()
    fresh = SigmaSample(sig.sources, sig.z, sig.s, sig.seed, sig.cone)
    assert g_tilde(z, fresh).tobytes() == first.tobytes()
    assert rows == [60, 7, 7, 60, 7]


def test_operator_zero_on_stored_graph(sigma):
    vals = sigma.F(hess_w(sigma.sources[:20]))
    assert np.max(np.abs(vals)) == 0.0


def test_operator_identity_translation(sigma):
    mat = hess_w(sigma.sources[0])
    base = sigma.F(mat[None])[0]
    for t in (-2.0, 0.3, 10.0):
        shifted = sigma.F((mat + t * np.eye(12))[None])[0]
        assert abs(shifted - base - SQ * t) < 1e-10


def test_operator_nonpositive_on_true_graph(sigma):
    held = unit_sphere(rng_for(7, STREAM_ELLIPTIC), 50)
    vals = sigma.F(hess_w(held))
    assert np.max(vals) <= 1e-12


def test_operator_sign_far_from_graph(sigma):
    far = sigma.F(np.array([-30.0, 30.0])[:, None, None] * np.eye(12))
    assert far[0] < 0.0 < far[1]


def test_operator_cone_policies():
    paper = operator_cone("paper")
    assert paper.lam == pytest.approx(11.0 * RATIO_BOUND)
    emp = operator_cone("empirical", 2.9)
    assert emp.lam == pytest.approx(11.0 * 2.9)
    with pytest.raises(ValueError):
        operator_cone("empirical")
    with pytest.raises(ValueError):
        operator_cone("empirical", 0.5)
    with pytest.raises(ValueError):
        operator_cone("bayesian", 2.9)


def test_zero_level_curve_monotone(sigma):
    rep = zero_level_curve(sigma, heldout_count=40, heldout_seed=7)
    assert rep.counts == [18, 37, 75, 150]  # n // 8, n // 4, n // 2, n
    assert rep.monotone
    assert rep.worst_ratio <= 5.0
    assert np.all(rep.F_full <= 1e-12)
    # each count is at least 2 but never past the sample
    assert [zero_level_curve(prefix(sigma, n), heldout_count=10,
                             heldout_seed=7).counts
            for n in (1, 3)] == [[1], [2, 3]]


def test_zero_level_curve_equals_full_table(sigma, monkeypatch):
    # prefix minima, F_full and the pruned nn_bound are bitwise those of the
    # full gauge table, and most pairs are never eigensolved
    zh, sh = symspace.to_coords(hess_w(unit_sphere(rng_for(7, STREAM_HELDOUT), 40)))
    rows, solved = [], []
    eigvalsh, pruned_min = np.linalg.eigvalsh, elliptic._pruned_min
    monkeypatch.setattr(np.linalg, "eigvalsh",
                        lambda a: rows.append(len(a)) or eigvalsh(a))

    def counted(*args):
        rows.clear()
        out = pruned_min(*args)
        solved.append(sum(rows))
        return out
    monkeypatch.setattr(elliptic, "_pruned_min", counted)
    for cone in (CONE, ConeParams(11.0 * RATIO_BOUND)):
        fwd, rev = full_gauges(zh, sigma.z, cone)
        g = sigma.s[None, :] + fwd
        at = _at(sigma, cone)
        solved.clear()
        rep = zero_level_curve(at, heldout_count=40, heldout_seed=7)
        assert rep.counts == [18, 37, 75, 150]
        assert rep.max_abs_F == [float(np.max(np.abs(sh - g[:, :c].min(1))))
                                 for c in rep.counts]
        assert rep.F_full.tobytes() == (sh - g.min(axis=1)).tobytes()
        assert rep.nn_bound.tobytes() == np.min(fwd + rev, 1).tobytes()
        # one pruned minimum per count (the last one gives F_full), one for
        # nn_bound: together fewer rows than one table
        assert len(solved) == len(rep.counts) + 1
        assert sum(solved) < fwd.size
        assert solved[-1] < 0.3 * fwd.size


@pytest.mark.parametrize("scale", [1e-6, 1.0, 1e8])
def test_summed_pinch_floor_below_both_gauges(sigma, scale, monkeypatch):
    # the floors zero_level_curve prunes with never exceed the entries they
    # bound, without their rounding allowance as with it: s_i + kappa
    # sqrt(12) lambda_max(Z_i - Z) <= s_i + x(z - z_i), and the summed
    # kappa sqrt(12) (lambda_max(Z_i - Z) + lambda_max(Z - Z_i))
    # <= x(z - z_i) + x(z_i - z).  Generic and near-graph evaluation rows
    # (in place of the held-out points) bring the floors within 1% of the
    # gauges, closer than 1 - kappa at lam = 33.
    rng = rng_for(9, STREAM_ELLIPTIC)
    z = scale * np.concatenate([
        symspace.to_coords(_random_sym(rng, 30, scale=1.0))[0],
        sigma.z[:30] + 0.01 * rng.standard_normal((30, 77))])
    held_s = np.zeros(len(z))
    monkeypatch.setattr(elliptic, "_coords_of_sources",
                        lambda _: (z, held_s))
    floors, pruned_min = [], elliptic._pruned_min
    monkeypatch.setattr(elliptic, "_pruned_min",
                        lambda *args: floors.append(args[0]) or pruned_min(*args))
    for cone in (CONE, ConeParams(11.0 * RATIO_BOUND)):
        scaled = SigmaSample(sigma.sources, scale * sigma.z, scale * sigma.s,
                             sigma.seed, cone)
        floors.clear()
        rep = zero_level_curve(scaled, heldout_count=60, heldout_seed=7)
        fwd, rev = full_gauges(z, scaled.z, cone)
        pts, rows = scaled.bounds, _PairBounds(symspace.embed_traceless(z))
        k = _kappa(cone) * SQ
        assert np.all(scaled.s + (pts.lower(rows) * k).T <= scaled.s + fwd)
        assert np.all(rows.lower(pts) * k + (pts.lower(rows) * k).T
                      <= fwd + rev)
        # g_tilde's column blocks' and nn_bound's, certified: allowance
        # folded in.  The blocks tile the sample's columns, one block
        # ending at each count
        *blocks, nn_floor = floors
        assert np.cumsum([b.shape[1] for b in blocks]).tolist() == rep.counts
        for a, block in zip([0] + rep.counts, blocks):
            assert np.all(block <= (scaled.s + fwd)[:, a:a + block.shape[1]])
        assert np.all(nn_floor <= fwd + rev)
        assert rep.nn_bound.tobytes() == np.min(fwd + rev, 1).tobytes()
        g = np.min(scaled.s + fwd, axis=1)
        assert rep.F_full.tobytes() == (held_s - g).tobytes()


def test_zero_level_minima_solve_each_pair_once(tmp_path, monkeypatch):
    # the run's sample at seed 42 and default counts (500 points, empirical
    # aperture, 200 held-out points): the curve's g_tilde minima take
    # disjoint column blocks, so no (held-out, sample) pair is solved
    # twice.  Minima over the leading columns of each count re-solved
    # 29,340 rows, and the whole curve 44,054
    cfg = RunConfig(out=str(tmp_path))
    sample = cli._run_sample(cfg)[1]
    phases, pruned_min = [], elliptic._pruned_min
    pair_spectra = elliptic._pair_spectra
    monkeypatch.setattr(elliptic, "_pruned_min", lambda floor, solve: (
        phases.append([]) or pruned_min(floor, solve)))
    monkeypatch.setattr(elliptic, "_pair_spectra", lambda za, zb, e, i: (
        phases[-1].append(np.stack([e, i], axis=1))
        or pair_spectra(za, zb, e, i)))
    rep = zero_level_curve(sample, cfg.heldout_count, cfg.heldout_seed)
    *minima, nn = [np.concatenate(phase) for phase in phases]
    assert len(minima) == len(rep.counts) == 4
    pairs = np.concatenate(minima)
    assert len(np.unique(pairs, axis=0)) == len(pairs) <= 21_200, len(pairs)
    assert len(pairs) + len(nn) <= 36_000, len(pairs) + len(nn)


def test_g_tilde_rows_do_not_depend_on_the_call(sigma):
    # g_tilde's rows are bitwise the same whatever else is evaluated with
    # them: on any split or permutation of a stack, one-row calls included
    rng = rng_for(11, STREAM_ELLIPTIC)
    z = np.concatenate([symspace.to_coords(_random_sym(rng, 20, scale=1.0))[0],
                        sigma.z[:20] + 0.01 * rng.standard_normal((20, 77))])
    full = g_tilde(z, sigma)
    parts = [g_tilde(z[a:b], sigma) for a, b in ((0, 1), (1, 17), (17, 40))]
    assert np.concatenate(parts).tobytes() == full.tobytes()
    perm = rng.permutation(len(z))
    assert g_tilde(z[perm], sigma).tobytes() == full[perm].tobytes()
    assert [g_tilde(row[None], sigma)[0] for row in z] == full.tolist()


def test_operator_rows_do_not_depend_on_a_long_call(sigma):
    # each row of a coordinate product and of F is bitwise that row of a
    # 300-row call, in a stack of any size (symspace pads a stack of fewer
    # than 16 rows, which OpenBLAS would round another way)
    rng = rng_for(12, STREAM_ELLIPTIC)
    mats = np.concatenate([hess_w(unit_sphere(rng, 150)),
                           _random_sym(rng, 150, scale=1.0)])
    z = symspace.to_coords(mats)[0]
    for name, f, rows in (
            ("to_coords", lambda m: np.column_stack(symspace.to_coords(m)),
             mats),
            ("embed_traceless", symspace.embed_traceless, z),
            ("F", sigma.F, mats)):
        full = f(rows)
        for size in range(1, 41):
            for a in (0, 7, 130, 300 - size):
                assert (f(rows[a:a + size]).tobytes()
                        == full[a:a + size].tobytes()), (name, size, a)


def test_ellipticity_probe_small(sigma):
    rep = ellipticity_probe(sigma, 24, 5)
    # F(A + tI) - F(A) = sqrt(12) t exactly, and the gauge is exact, so the
    # difference quotient at t = 1e-3 is off only by rounding in the F values
    assert rep.identity_slope == pytest.approx(SQ, abs=1e-10)
    assert rep.slope_min >= -1e-9
    assert rep.slope_max <= PAPER_CHAIN_BOUND
    assert rep.level_violations == []


def test_monotonicity_sweep_small(sigma):
    worst = monotonicity_sweep(sigma, 40, 6)
    assert worst >= -1e-9


def _sweep_blocks(monkeypatch):
    """Record each block monotonicity_sweep prunes: its certified floor
    row, every trial's F(A + E) - F(A) (solved on all trials while the
    block's draws are current) and the trials the pruned pass solved."""
    blocks, pruned_min = [], elliptic._pruned_min

    def recording(floor, solve):
        if not solve.__qualname__.startswith("monotonicity_sweep."):
            return pruned_min(floor, solve)  # g_tilde's, inside F
        n = floor.shape[1]
        block = {"floor": floor[0], "solved": [],
                 "d": solve(np.zeros(n, dtype=int), np.arange(n))}
        blocks.append(block)

        def tracked(e, i):
            block["solved"] += i.tolist()
            return solve(e, i)
        return pruned_min(floor, tracked)
    monkeypatch.setattr(elliptic, "_pruned_min", recording)
    return blocks


@pytest.mark.parametrize("seed", [6, 42])
@pytest.mark.parametrize("lam", [33.0, PAPER_LAM], ids=["empirical", "paper"])
def test_monotonicity_sweep_is_the_full_sweep(sigma, lam, seed):
    # the pruned worst is bitwise the worst over every trial: fewer trials
    # than the first round's 8, a 40-trial block, a 1-trial last block
    # (501) and four full blocks (33 is 11 x M_hat's size, as the
    # empirical policy sets it)
    at = _at(sigma, ConeParams(lam))
    for trials in (5, 40, 501, 2000):
        worst = monotonicity_sweep(at, trials, seed)
        assert worst == full_monotonicity_sweep(at, trials, seed), trials
        assert worst >= -1e-9


def test_monotonicity_sweep_solves_a_planted_minimum(sigma, monkeypatch):
    # an increment shrunk to trace ~1e-9 holds the least difference by
    # far; its floor is among the lowest, so it is solved, and the sweep
    # returns its difference
    plant, random_psd = 150, elliptic._random_psd

    def planted(rng, count):
        mats = random_psd(rng, count)
        mats[plant] *= 1e-9
        return mats
    monkeypatch.setattr(elliptic, "_random_psd", planted)
    blocks = _sweep_blocks(monkeypatch)
    worst = monotonicity_sweep(sigma, 200, 6)
    (block,) = blocks
    d = block["d"]
    assert plant in block["solved"]
    assert np.argmin(d) == plant and abs(d[plant]) < 1e-8
    assert worst == d[plant] == full_monotonicity_sweep(sigma, 200, 6)
    assert np.sort(d)[1] > 1e3 * abs(d[plant])


@pytest.mark.parametrize("scale", [1e-6, 1.0, 1e3, 1e8])
def test_monotonicity_floor_below_every_difference(sigma, scale, monkeypatch):
    # the certified floor s(E) - x(z(E)), allowance included, lies at or
    # below every trial's computed difference of a full sweep, with A and
    # E scaled far from the sample's unit scale
    samples = [_at(sigma, cone) for cone in (CONE, ConeParams(PAPER_LAM))]
    for name in ("_random_sym", "_random_psd", "hess_w"):
        draw = getattr(elliptic, name)
        monkeypatch.setattr(elliptic, name, lambda *args, draw=draw, **kw:
                            scale * draw(*args, **kw))
    blocks = _sweep_blocks(monkeypatch)
    for at in samples:
        blocks.clear()
        worst = monotonicity_sweep(at, 600, 42)
        d = np.concatenate([block["d"] for block in blocks])
        floor = np.concatenate([block["floor"] for block in blocks])
        assert len(d) == 600 and np.all(floor <= d), scale
        assert worst == np.min(d)


def test_monotonicity_sweep_evaluates_few_rows(sigma, monkeypatch):
    # at 200 trials the sweep's 400 F rows (A + E and A per trial) shrink
    # to fewer than 10%, counted as the rows that reach g_tilde
    rows, g = [], elliptic.g_tilde
    monkeypatch.setattr(elliptic, "g_tilde",
                        lambda z, at: rows.append(len(z)) or g(z, at))
    for cone in (CONE, ConeParams(PAPER_LAM)):
        at = _at(sigma, cone)
        for seed in (6, 42):
            rows.clear()
            monotonicity_sweep(at, 200, seed)
            assert 0 < sum(rows) < 0.1 * 400, (cone.lam, seed, rows)


def test_viscosity_probe_small(sigma):
    rep = viscosity_probe(sigma, 12, 7)
    assert rep.passed, rep
    assert rep.minorant_violations == 0
    assert rep.majorant_violations == 0
    assert rep.minorant_max_F <= 1e-6
    assert rep.majorant_min_F >= -1e-6


def _probe_stacks(monkeypatch):
    """Record each minorant-then-majorant stack viscosity_probe forms, from
    the one coordinate product it takes, with the real sample."""
    stacks, to_coords = [], symspace.to_coords

    def recording(mats):
        stacks.append(np.array(mats))
        return to_coords(mats)
    monkeypatch.setattr(elliptic.symspace, "to_coords", recording)
    return stacks


def test_viscosity_lifts_match_per_trial_reference(sigma, monkeypatch):
    trials, seed, count = 12, 7, VERIFICATION_COUNT
    stacks = _probe_stacks(monkeypatch)
    viscosity_probe(sigma, trials, seed)
    (stack,) = stacks  # one stack: the minorants, then the majorants
    minorants, majorants = np.split(stack, 2)

    # the same draws as viscosity_probe, in its order
    rng = rng_for(seed, STREAM_VISCOSITY)
    verif = np.concatenate([unit_sphere(rng, count), sigma.sources], axis=0)
    wv = eval_w(verif)
    bases = unit_sphere(rng, trials)
    bases[:trials // 2] = sigma.sources[
        rng.integers(0, sigma.count, trials // 2)]
    tilts = _random_psd(rng, trials) * rng.uniform(0.0, 0.5, (trials, 1, 1))
    tilt_on = rng.uniform(size=trials) < 0.5

    # reference: one quadratic at a time, the base point appended
    for k in range(trials):
        base = hess_w(bases[k])
        pts = np.concatenate([verif, bases[k][None]], axis=0)
        tvals = 0.5 * np.einsum("ni,ij,nj->n", pts, base, pts)
        wvals = np.concatenate([wv, eval_w(bases[k])[None]])
        down = np.max(tvals - wvals) + MINORANT_MARGIN
        up = np.max(wvals - tvals) + MINORANT_MARGIN
        lo = base - 2.0 * down * np.eye(12) - tilt_on[k] * tilts[k]
        hi = base + 2.0 * up * np.eye(12) + tilt_on[k] * tilts[k]
        np.testing.assert_allclose(minorants[k], lo, rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(majorants[k], hi, rtol=0.0, atol=1e-12)

    # one-sided by at least the margin at every verification point and base
    # (all unit vectors, so x.M.x/2 is the quadratic's value there)
    pts = np.concatenate([verif, bases], axis=0)
    w = eval_w(pts)
    q_lo = 0.5 * np.einsum("ni,kij,nj->kn", pts, minorants, pts)
    q_hi = 0.5 * np.einsum("ni,kij,nj->kn", pts, majorants, pts)
    assert np.min(w - q_lo) >= MINORANT_MARGIN - 1e-12
    assert np.min(q_hi - w) >= MINORANT_MARGIN - 1e-12


@pytest.fixture(scope="module")
def sigma500():
    return build_sigma(500, 42, CONE)


def _bitwise(rep):
    """A ViscosityReport's fields, floats by their bits."""
    return [v.hex() if isinstance(v, float) else v
            for v in dataclasses.astuple(rep)]


@pytest.mark.parametrize("seed", [7, 42])
@pytest.mark.parametrize("lam", [33.0, PAPER_LAM], ids=["empirical", "paper"])
def test_viscosity_probe_is_the_full_probe(sigma500, lam, seed):
    # every reported number is bitwise the one F on the whole stack gives,
    # on stacks of 4 and 10 rows (below symspace's 16-row padding), 154
    # and 500
    at = _at(sigma500, ConeParams(lam))
    for trials in (2, 5, 77, 250):
        assert (_bitwise(viscosity_probe(at, trials, seed))
                == _bitwise(full_viscosity_probe(at, trials, seed))), trials


@pytest.mark.parametrize("seed", [1, 42])
def test_viscosity_probe_is_the_full_probe_on_failing_majorants(seed):
    # a 77-point sample leaves majorants below -VISCOSITY_TOL (the elliptic
    # docstring's sampling-density gap): nonzero counts match too
    small = build_sigma(77, seed, CONE)
    rep = viscosity_probe(small, 77, seed)
    assert rep.majorant_violations > 0 and rep.majorant_min_F < -0.1
    assert _bitwise(rep) == _bitwise(full_viscosity_probe(small, 77, seed))


def _brackets(sigma, stack):
    """F on each row of a viscosity_probe stack and the ends of its bracket
    lo <= F <= hi: hi = s - min floor, lo = s - the least first-round
    entry (viscosity_probe's docstring)."""
    z, s = symspace.to_coords(stack)
    _, floor, solve = elliptic._extension_parts(z, sigma)
    return (sigma.F(stack), s - _first_round(floor, solve)[2],
            s - floor.min(axis=1))


@pytest.mark.parametrize("case", ["violations", "passes"])
def test_viscosity_probe_finishes_planted_rows(sigma500, case, monkeypatch):
    # shifted lifts plant F values (F(A + tI) = F(A) + sqrt(12) t) where
    # one bracket end alone decides a reported number: rows straddling
    # +-tol inside the extremes' brackets, and rows whose bracket can hold
    # the extreme on the side of tol that needs no count.  Each planted row
    # is finished, and the report is the full probe's
    trials, seed, tol = 250, 7, VISCOSITY_TOL
    stacks = _probe_stacks(monkeypatch)
    lifts, lift_sizes = [], elliptic._lift_sizes
    monkeypatch.setattr(elliptic, "_lift_sizes",
                        lambda *a: lifts.append(lift_sizes(*a)) or lifts[-1])
    viscosity_probe(sigma500, trials, seed)
    (stack,) = stacks
    F, lo, hi = _brackets(sigma500, stack)
    loose, gap = (hi - F)[:trials], (F - lo)[trials:]
    top = int(np.argmax(loose))  # the minorant seed, planted the largest
    narrow = np.flatnonzero((loose > 1e-6) & (loose < 0.4))[:2]
    tight = np.flatnonzero(loose < 1e-6)[0]
    q, r = trials + np.argsort(gap)[::-1][:2]  # the widest majorant gaps
    if case == "violations":
        plants = {top: 0.5, narrow[0]: tol + 1e-9, narrow[1]: tol - 1e-9,
                  trials + np.flatnonzero(gap == 0)[0]: -0.5,
                  q: -tol - 1e-9, r: -tol + 1e-9}
    else:
        g_q, g_r = F[q] - lo[q], F[r] - lo[r]
        plants = {top: tol - 1e-3, tight: tol - 1e-7,
                  q: g_r + (g_q - g_r) / 2, r: g_r}
    down, up = lifts.pop()
    for row, target in plants.items():
        if row < trials:
            down[row] += (F[row] - target) / (2 * SQ)
        else:
            up[row - trials] += (target - F[row]) / (2 * SQ)
    monkeypatch.setattr(elliptic, "_lift_sizes", lambda *a: (down, up))

    stacks.clear()
    finished, pruned_min = [], elliptic._pruned_min
    pair_spectra = elliptic._pair_spectra

    def finishing(floor, solve):
        # the stack rows a pruned minimum of the probe solves, which are
        # the rows it finishes (each has a first-round entry)
        monkeypatch.setattr(elliptic, "_pair_spectra", lambda za, zb, e, i: (
            finished.extend(e.tolist()) or pair_spectra(za, zb, e, i)))
        best = pruned_min(floor, solve)
        monkeypatch.setattr(elliptic, "_pair_spectra", pair_spectra)
        return best
    monkeypatch.setattr(elliptic, "_pruned_min", finishing)
    rep = viscosity_probe(sigma500, trials, seed)
    monkeypatch.setattr(elliptic, "_pruned_min", pruned_min)
    (stack,) = stacks
    F, lo, hi = _brackets(sigma500, stack)
    if case == "violations":
        # straddling rows inside the extremes: hi alone (minorants) or lo
        # alone (majorants) cannot settle them
        assert F[top] > tol and np.all(tol < hi[narrow])
        assert np.all(hi[narrow] < F[top])
        assert [F[row] > tol for row in narrow] == [True, False]
        assert np.all((lo[[q, r]] < -tol) & (-tol <= hi[[q, r]]))
        assert [F[row] < -tol for row in (q, r)] == [True, False]
        counts = (2, 2)
    else:
        # every F on the passing side; a row below the seed's F whose
        # bracket still reaches past it
        assert F[top] < F[tight] <= hi[tight] <= tol
        assert lo[r] < F[r] < F[q] <= hi[r] and -tol <= lo[r]
        counts = (0, 0)
    assert set(plants) <= set(finished), set(plants) - set(finished)
    assert (rep.minorant_violations, rep.majorant_violations) == counts
    assert _bitwise(rep) == _bitwise(
        full_viscosity_probe(sigma500, trials, seed))


def test_viscosity_probe_finishes_from_its_own_table(sigma500, monkeypatch):
    # one _PairBounds per call, the stack's, whose floor table serves the
    # brackets and the finished rows alike: the probe never calls g_tilde
    built, pair_bounds = [], elliptic._PairBounds
    monkeypatch.setattr(elliptic, "_PairBounds", lambda mats: (
        built.append(len(mats)) or pair_bounds(mats)))
    called, g = [], elliptic.g_tilde
    monkeypatch.setattr(elliptic, "g_tilde",
                        lambda z, at: called.append(len(z)) or g(z, at))
    viscosity_probe(sigma500, 1000, 42)
    assert (built, called) == ([2000], [])


def test_viscosity_probe_solves_few_pairs(sigma500, monkeypatch):
    # at 250 trials the 500 minorant and majorant rows against the
    # 500-point sample are 250,000 pairs; fewer than 2% are eigensolved
    pairs, pair_spectra = [], elliptic._pair_spectra
    monkeypatch.setattr(elliptic, "_pair_spectra", lambda za, zb, e, i: (
        pairs.append(len(e)) or pair_spectra(za, zb, e, i)))
    for lam in (33.0, PAPER_LAM):
        pairs.clear()
        viscosity_probe(_at(sigma500, ConeParams(lam)), 250, 42)
        assert 0 < sum(pairs) < 0.02 * 250_000, (lam, sum(pairs))
