"""Row blocks of the batched 12x12 sweeps: every result is bitwise one
unblocked call, whatever the block size, and a sweep's working memory is
one block's, not the sample's.  The same holds for the pair tiles of
cones.breaking_pairs and the lift blocks of elliptic._lift_sizes, held to
their one-table oracles in tests/oracles.py; a lift block's GEMM may round
an entry another way, within a written bound."""

import tracemalloc

import numpy as np
import pytest

from qcubic import cones, elliptic, symspace
from qcubic.cones import ConeParams, _PairBounds, _pair_spectra, cone_condition
from qcubic.cubic import perp_sweep, q_extremes, spectrum_sweep
from qcubic.elliptic import (GraphError, SigmaSample, VERIFICATION_COUNT,
                             build_sigma, validate_graph)
from qcubic.hessian import (eval_w, hess_w, pair_ratio_sweep, pinch_bounds,
                            third_derivative_sweep, witness_floor,
                            witness_sweep)
from qcubic.sampling import (directions, rng_for, unit_sphere, STREAM_CONE,
                             STREAM_HESSIAN, STREAM_PERP, STREAM_VISCOSITY)

from oracles import full_breaking_pairs, full_lift_sizes, prefix

ROWS = 3001  # 3001 = 3 * 1000 + 1: the last block of three is one row


def _inputs(sweep, strided):
    """The sweep's array arguments, ROWS rows each, C-order or every other
    row of a stack twice as long."""
    take = 2 if strided else 1
    if sweep in (spectrum_sweep, perp_sweep, q_extremes):
        return [directions(rng_for(7, STREAM_PERP), take * ROWS)[::take]]
    rng = rng_for(8, STREAM_HESSIAN)
    return [unit_sphere(rng, take * ROWS)[::take] for _ in range(2)]


def _same(got, ref):
    if isinstance(ref, tuple):
        return len(got) == len(ref) and all(map(_same, got, ref))
    return got.shape == ref.shape and np.array_equal(got, ref)


@pytest.mark.parametrize("block, strided",
                         [(1, False), (3, False), (7, False), (3, True)])
@pytest.mark.parametrize("sweep", [spectrum_sweep, perp_sweep, q_extremes,
                                   pair_ratio_sweep, witness_sweep,
                                   witness_floor, pinch_bounds])
def test_sweep_rows_do_not_depend_on_block(sweep, block, strided,
                                           monkeypatch):
    args = _inputs(sweep, strided)
    ref = sweep.__wrapped__(*args)
    monkeypatch.setattr("qcubic.eigen.ROW_BLOCK", block)
    assert _same(sweep(*args), ref)


@pytest.mark.parametrize("block", [1, 3, 7])
def test_third_derivative_rows_do_not_depend_on_block(block, monkeypatch):
    monkeypatch.setattr("qcubic.eigen.ROW_BLOCK", ROWS)
    ref = third_derivative_sweep(rng_for(9, STREAM_HESSIAN), ROWS)
    monkeypatch.setattr("qcubic.eigen.ROW_BLOCK", block)
    got = third_derivative_sweep(rng_for(9, STREAM_HESSIAN), ROWS)
    assert _same(got, ref)


@pytest.mark.parametrize("block", [1, 3, 7])
def test_pair_solve_rows_match_one_pass(block, monkeypatch):
    rng = rng_for(99, STREAM_CONE)
    z = rng.standard_normal((120, 77)) * rng.uniform(1e-3, 1e3, (120, 1))
    ii, jj = np.triu_indices(120, k=1)
    pick = np.sort(rng.choice(ii.size, 2 * ROWS, replace=False))
    ii, jj = ii[pick], jj[pick]
    monkeypatch.setattr("qcubic.eigen.ROW_BLOCK", block)
    for i, j in ((ii[:ROWS], jj[:ROWS]), (ii[::2], jj[::2])):
        assert _same(_pair_spectra(z, z, i, j), np.linalg.eigvalsh(
            symspace.embed_traceless(z[i] - z[j])))


def _peak(call, *args):
    """The tracemalloc peak, in bytes, of one call."""
    tracemalloc.start()
    try:
        call(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("sweep", [pair_ratio_sweep, witness_sweep,
                                   witness_floor, pinch_bounds, perp_sweep])
def test_sweep_memory_is_one_block(sweep):
    # 20,000 rows: a 12x12 stack of the whole sample is 23 MB per temporary
    rng = rng_for(10, STREAM_HESSIAN)
    args = ([directions(rng, 20_000)] if sweep is perp_sweep
            else [unit_sphere(rng, 20_000) for _ in range(2)])
    peak = _peak(sweep, *args)
    assert peak <= 16 * 2**20, peak / 2**20


# --- pair tiles of breaking_pairs -------------------------------------------

CONE = ConeParams(33.0)


@pytest.fixture(scope="module")
def sigma60():
    return build_sigma(60, 3, CONE)


def _graph_outcome(sigma):
    """validate_graph's GraphError message, or None when it passes."""
    try:
        validate_graph(sigma)
    except GraphError as exc:
        return str(exc)
    return None


def _one_table(monkeypatch):
    """Route both callers of breaking_pairs to the one-table oracle."""
    monkeypatch.setattr(cones, "breaking_pairs", full_breaking_pairs)
    monkeypatch.setattr(elliptic, "breaking_pairs", full_breaking_pairs)


@pytest.mark.parametrize("count", [1, 2, 7, 8, 15, 60])
def test_pair_tiles_match_one_table(sigma60, count, monkeypatch):
    # 7-row tiles: one tile, one tile and a row, and many tiles.  Identity
    # shifts plant cone violations within a tile and across tiles
    sig = prefix(sigma60, count)
    mats = hess_w(sig.sources)
    if count > 2:
        mats[-1] = mats[0] + np.eye(12)
        mats[count // 2] = mats[1] - 0.5 * np.eye(12)
    monkeypatch.setattr("qcubic.eigen.ROW_BLOCK", 7)
    got = (_graph_outcome(sig), cone_condition(mats, CONE).violations)
    assert got[0] is None and bool(got[1]) == (count > 2)
    _one_table(monkeypatch)
    assert got == (_graph_outcome(sig), cone_condition(mats, CONE).violations)


def test_pair_tiles_report_a_violation_in_the_last_tile(sigma60,
                                                        monkeypatch):
    # point 59 is point 58 lifted by 1e-6 > GRAPH_TOL at the same z, which
    # breaks the graph invariant at pair (58, 59) only: both points lie in
    # the last 7-row tile, and the first pair and the message are the
    # one-table oracle's
    z, s = sigma60.z.copy(), sigma60.s.copy()
    z[59], s[59] = z[58], s[58] + 1e-6
    planted = SigmaSample(sigma60.sources, z, s, sigma60.seed, CONE)
    monkeypatch.setattr("qcubic.eigen.ROW_BLOCK", 7)
    got = _graph_outcome(planted)
    assert got.startswith("graph invariant violated by pair (58, 59)")
    _one_table(monkeypatch)
    assert got == _graph_outcome(planted)


def test_pair_table_memory_is_a_few_tiles():
    # 3,000 points: one float table of every pair is 72 MB, and the parent's
    # one-table pass peaked at 292 MB; a 1024 x 1024 tile is 8 MB
    pts = unit_sphere(rng_for(11, STREAM_HESSIAN), 3000)
    z, s = symspace.to_coords(hess_w(pts))
    bounds = _PairBounds(symspace.embed_traceless(z))
    peak = _peak(cones.breaking_pairs, bounds, z, s, CONE,
                 elliptic._breaks_graph)
    assert peak <= 64 * 2**20, peak / 2**20


def test_pinch_memory_is_two_tables():
    # 801 x 2,000 floors, the ellipticity probe's F stack against a
    # 2,000-point sample: the floor table and its allowance, scaled in
    # place, are live at the peak, as lower's two tables are.  An allowance
    # formed as a sum table and then a scaled copy peaks at three
    rng = rng_for(13, STREAM_CONE)
    a, b = (_PairBounds(hess_w(unit_sphere(rng, n))) for n in (801, 2000))
    peak = _peak(a.pinch, CONE, b) / (801 * 2000 * 8)
    assert peak <= 2.1, peak


# --- lift blocks of _lift_sizes ---------------------------------------------

def _lift_inputs(trials):
    """A verification sample of the viscosity probe's size, and trials
    bases with their Hessians."""
    rng = rng_for(12, STREAM_VISCOSITY)
    verif = unit_sphere(rng, VERIFICATION_COUNT + 500)
    bases = unit_sphere(rng, trials)
    return verif, eval_w(verif), bases, hess_w(bases)


@pytest.mark.parametrize("block", [None, 7])
@pytest.mark.parametrize("trials", [2, 250, 1000])
def test_lift_blocks_match_one_gemm(trials, block, monkeypatch):
    # each entry of a block's GEMM and of the one GEMM is a 144-term dot
    # product of unit-norm x x^T with hb[k], so the two differ by at most
    # 2 * 144 eps |hb[k]|_F, and so do the lifts (max and min are exact)
    args = _lift_inputs(trials)
    ref = full_lift_sizes(*args)
    if block:
        monkeypatch.setattr("qcubic.eigen.ROW_BLOCK", block)
    got = elliptic._lift_sizes(*args)
    bound = 2 * 144 * np.finfo(float).eps * np.linalg.norm(args[3],
                                                            axis=(1, 2))
    for lift, one_gemm in zip(got, ref):
        assert lift.shape == (trials,)
        assert np.all(np.abs(lift - one_gemm) <= bound)


def test_lift_memory_is_one_block():
    # 10,500 points x 1,000 trials: the one-GEMM table is 84 MB and the
    # points' outer products 12 MB; a 1024-row block's are 8 and 1.2 MB
    args = _lift_inputs(1000)
    peak = _peak(elliptic._lift_sizes, *args)
    assert peak <= 16 * 2**20, peak / 2**20
