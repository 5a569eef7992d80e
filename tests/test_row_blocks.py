"""Row blocks of the batched 12x12 sweeps: every result is bitwise one
unblocked call, whatever the block size, and a sweep's working memory is
one block's, not the sample's."""

import tracemalloc

import numpy as np
import pytest

from qcubic import symspace
from qcubic.cones import _pair_spectra
from qcubic.cubic import perp_sweep, q_extremes, spectrum_sweep
from qcubic.hessian import (pair_ratio_sweep, pinch_bounds,
                            third_derivative_sweep, witness_floor,
                            witness_sweep)
from qcubic.sampling import (directions, rng_for, unit_sphere, STREAM_CONE,
                             STREAM_HESSIAN, STREAM_PERP)

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


@pytest.mark.parametrize("sweep", [pair_ratio_sweep, witness_sweep,
                                   witness_floor, pinch_bounds, perp_sweep])
def test_sweep_memory_is_one_block(sweep):
    # 20,000 rows: a 12x12 stack of the whole sample is 23 MB per temporary
    rng = rng_for(10, STREAM_HESSIAN)
    args = ([directions(rng, 20_000)] if sweep is perp_sweep
            else [unit_sphere(rng, 20_000) for _ in range(2)])
    tracemalloc.start()
    try:
        sweep(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * 2**20, peak / 2**20
