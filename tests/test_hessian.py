"""The degree-2 potential, its Hessian map, and the pairwise bounds."""

import functools

import numpy as np
import pytest

import qcubic.cubic as cubic_mod
import qcubic.hessian as hessian_mod
from qcubic.cones import _PRUNE_CANDIDATES
from qcubic.cubic import eval_P, grad_P, q_matrix, strata_directions
from qcubic.eigen import eigvalsh_asc, jacobi_eigh
from qcubic.hessian import (eval_w, grad_w, hess_w, pair_ratio_sweep,
                            witness_directions, witness_floor, witness_sweep,
                            witness_worst, third_derivative_sweep,
                            pinch_bounds, ratio_bound_estimate, RATIO_BOUND,
                            THIRD_DERIVATIVE_BOUND, WITNESS_SLOPE)
from qcubic.numdiff import fd_gradient, fd_jacobian
from qcubic.quaternions import matrix_M as _true_matrix_M
from qcubic.sampling import (rng_for, unit_pairs, unit_sphere, PAIR_CHUNK,
                             STREAM_HESSIAN, STREAM_WITNESS)
from test_cubic import SIGN_FLIPS, entry_flip


def _units(seed, count):
    return unit_sphere(rng_for(seed, STREAM_HESSIAN), count)


def test_w_is_cubic_over_radius():
    rng = np.random.default_rng(61)
    x = rng.standard_normal(12) * 2.3
    assert abs(eval_w(x) - eval_P(x) / np.linalg.norm(x)) < 1e-14


def test_w_two_homogeneous():
    rng = np.random.default_rng(62)
    x = rng.standard_normal(12)
    for t in (0.25, 3.0):
        assert abs(eval_w(t * x) - t * t * eval_w(x)) < 1e-12


def test_grad_w_euler_identity():
    # 2-homogeneity: x . grad w = 2 w
    rng = np.random.default_rng(63)
    x = rng.standard_normal(12)
    assert abs(x @ grad_w(x) - 2.0 * eval_w(x)) < 1e-12


def test_grad_w_finite_difference():
    rng = np.random.default_rng(64)
    for _ in range(10):
        x = rng.standard_normal(12)
        assert np.max(np.abs(grad_w(x) - fd_gradient(eval_w, x))) < 1e-8


def test_hess_w_finite_difference():
    rng = np.random.default_rng(65)
    for _ in range(10):
        x = rng.standard_normal(12)
        hm = hess_w(x)
        hf = fd_jacobian(grad_w, x)
        assert np.max(np.abs(hm - 0.5 * (hf + hf.T))) < 1e-7
        # value-based oracle: differences of the FD gradient of w itself
        hv = fd_jacobian(lambda y: fd_gradient(eval_w, y, 1e-4), x, 1e-4)
        assert np.max(np.abs(hm - hv)) < 1e-5


def test_fd_stack_matches_single_points():
    # one stencil over a (3, 4) stack of points equals the one-point calls
    pts = np.random.default_rng(79).standard_normal((3, 4, 12))
    g = fd_gradient(eval_w, pts)
    jac = fd_jacobian(grad_w, pts)
    assert g.shape == (3, 4, 12) and jac.shape == (3, 4, 12, 12)
    for i in range(3):
        for k in range(4):
            assert np.array_equal(g[i, k], fd_gradient(eval_w, pts[i, k]))
            assert np.array_equal(jac[i, k], fd_jacobian(grad_w, pts[i, k]))
    # rows are outputs, columns inputs: the Jacobian of a linear map
    lin = np.random.default_rng(80).standard_normal((5, 12))
    assert np.max(np.abs(fd_jacobian(lambda x: x @ lin.T, pts[0, 0])
                         - lin)) < 1e-9


def _hess_w_unfused(x):
    # the closed form term by term, each term its own array
    x = np.asarray(x, dtype=float)
    r = np.linalg.norm(x, axis=-1)[..., None, None]
    p = eval_P(x)[..., None, None]
    gx = grad_P(x)[..., :, None] * x[..., None, :]
    xx = x[..., :, None] * x[..., None, :]
    return (q_matrix(x) / r
            - (gx + np.swapaxes(gx, -1, -2)) / r**3
            - p * np.eye(12) / r**3
            + 3.0 * p * xx / r**5)


def _bitwise_equal(a, b):
    return (a.shape == b.shape and np.array_equal(a, b)
            and np.array_equal(np.signbit(a), np.signbit(b)))


@pytest.mark.parametrize("scale", [1e-6, 1.0, 1e8])
def test_hess_w_bitwise_matches_unfused(scale):
    rng = np.random.default_rng(84)
    big = rng.standard_normal((64, 12)) * scale
    for x in (big, big.reshape(4, 16, 12)[:, :5], big[7], big[::2]):
        assert _bitwise_equal(hess_w(x), _hess_w_unfused(x))
    # exact zeros, signed zeros and P < 0: every signed zero must survive
    sparse = np.zeros((3, 12))
    sparse[:, [0, 4, 8]] = [[1.0, 1.0, -1.0], [2.0, -0.5, 1.0],
                            [-1.0, 1.0, 1.0]]
    sparse[1, [1, 6]] = -0.0
    assert np.any(eval_P(sparse) < 0)
    assert _bitwise_equal(hess_w(sparse * scale),
                          _hess_w_unfused(sparse * scale))


def test_gradients_and_hessian_ignore_memory_layout():
    # the einsums sum in an order set by the layout, unless x is C-order
    x = np.random.default_rng(85).standard_normal((2000, 12))
    twice = np.repeat(x, 2, axis=0)
    for f in (grad_P, grad_w, hess_w):
        ref = f(x)
        for other in (np.asfortranarray(x), twice[::2], x.T.copy().T):
            assert _bitwise_equal(f(other), ref), f.__name__


def test_hess_w_zero_homogeneous():
    rng = np.random.default_rng(66)
    x = rng.standard_normal(12)
    assert np.max(np.abs(hess_w(3.7 * x) - hess_w(x))) < 1e-12


def test_hess_w_odd():
    rng = np.random.default_rng(67)
    x = rng.standard_normal(12)
    assert np.max(np.abs(hess_w(-x) + hess_w(x))) < 1e-12


def test_laplacian_identity():
    # trace D2w = -15 P on the unit sphere (radial reduction of the cubic)
    a = _units(68, 50)
    traces = np.trace(hess_w(a), axis1=-2, axis2=-1)
    assert np.max(np.abs(traces + 15.0 * eval_P(a))) < 1e-12


def test_hess_w_batch_matches_single():
    pts = _units(70, 5) * 1.7
    batch = hess_w(pts)
    for k in range(5):
        assert np.max(np.abs(batch[k] - hess_w(pts[k]))) < 1e-14


def test_pair_spectrum_matches_ratio_sweep():
    a = _units(71, 3)
    b = _units(81, 3)
    r = pair_ratio_sweep(a, b)
    for k in range(3):
        vals, _ = jacobi_eigh(hess_w(a[k]) - hess_w(b[k]))
        assert abs(-vals[-1] / vals[0] - r[k]) < 1e-10


def test_witness_pair_properties():
    # unit witnesses orthogonal to both sphere points, on a (2, 5) stack
    a = _units(72, 10).reshape(2, 5, 12)
    b = _units(82, 10).reshape(2, 5, 12)
    e, f = witness_directions(a, b)
    assert e.shape == f.shape == (2, 5, 12)
    for v in (e, f):
        assert np.max(np.abs(np.linalg.norm(v, axis=-1) - 1.0)) < 1e-12
        assert np.max(np.abs(np.einsum("...i,...i->...", v, a))) < 1e-9
        assert np.max(np.abs(np.einsum("...i,...i->...", v, b))) < 1e-9
    e1, f1 = witness_directions(a[1, 3], b[1, 3])
    assert np.array_equal(e1, e[1, 3]) and np.array_equal(f1, f[1, 3])
    with pytest.raises(ValueError):
        witness_directions(a, a)


def test_witness_gaps_positive():
    pts = unit_sphere(rng_for(73, STREAM_HESSIAN), 40)
    top, bottom = witness_sweep(pts[0::2], pts[1::2])
    assert top.shape == bottom.shape == (20,)
    assert np.all(top >= -1e-9) and np.all(bottom >= -1e-9)


def test_witness_sweep_matches_pairs():
    a = _units(74, 30)
    b = _units(75, 30)
    top, bottom = witness_sweep(a, b)
    e, f = witness_directions(a, b)
    for k in (0, 11, 29):
        hd = hess_w(a[k]) - hess_w(b[k])
        thresh = np.linalg.norm(a[k] - b[k]) * WITNESS_SLOPE
        assert abs(top[k] - (e[k] @ hd @ e[k] - thresh)) < 1e-10
        assert abs(bottom[k] - (-thresh - f[k] @ hd @ f[k])) < 1e-10
        one = witness_sweep(a[k:k + 1], b[k:k + 1])
        assert one[0][0] == top[k] and one[1][0] == bottom[k]
    with pytest.raises(ValueError):
        witness_sweep(a, a)


def _worst_of(blocks):
    """The unpruned minimum: both witness_sweep slacks of every pair."""
    worst = np.inf
    for a, b in blocks:
        top, bottom = witness_sweep(a, b)
        worst = min(worst, float(top.min()), float(bottom.min()))
    return worst


def _full_worst(seed, pairs):
    return _worst_of(unit_pairs(rng_for(seed, STREAM_WITNESS), pairs, 1e-6))


_cached_full_worst = functools.lru_cache(_full_worst)


# PAIR_CHUNK + 1 pairs end in a one-pair block; one-row blocks of that many
# rows take seconds, and rows do not depend on the block (test_row_blocks)
@pytest.mark.parametrize("pairs, block",
                         [(1000, 1), (1000, 7), (PAIR_CHUNK + 1, 7)])
@pytest.mark.parametrize("seed", [42, 601])
def test_witness_worst_is_the_full_minimum(seed, pairs, block, monkeypatch):
    ref = _cached_full_worst(seed, pairs)
    monkeypatch.setattr("qcubic.eigen.ROW_BLOCK", block)
    assert witness_worst(rng_for(seed, STREAM_WITNESS), pairs) == ref


def test_witness_worst_under_a_flipped_matrix_M(monkeypatch):
    # a13's planted corruption: q_matrix stays linear and symmetric, so the
    # floor stays a bound (no longer tight) and the minimum stays exact
    def flipped(q):
        m = _true_matrix_M(q).copy()
        m[..., 0, 1] = -m[..., 0, 1]
        return m

    monkeypatch.setattr(cubic_mod, "matrix_M", flipped)
    for seed in (42, 601):
        got = witness_worst(rng_for(seed, STREAM_WITNESS), PAIR_CHUNK + 1)
        assert got == _full_worst(seed, PAIR_CHUNK + 1)
    a, b = _units(86, 2000), _units(87, 2000)
    floors, slacks = witness_floor(a, b), witness_sweep(a, b)
    for floor, slack in zip(floors, slacks):
        assert np.all(floor <= slack + 1e-12)
    assert np.max(floors[0] - slacks[0]) < -1e-9


def _tangent(a, rng):
    """Unit vectors orthogonal to the unit rows of a."""
    t = rng.standard_normal(a.shape)
    t -= np.sum(t * a, axis=1, keepdims=True) * a
    return t / np.linalg.norm(t, axis=1, keepdims=True)


def _unit(x):
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def _pair_cases():
    """Unit pairs: random, near-antipodal, close, along a degenerate-stratum
    direction u (m = 0, m = 1, then n = +-1, whose witness projections are
    parallel), and those jittered by 1e-7."""
    rng = rng_for(88, STREAM_HESSIAN)
    a = _units(89, 2000)
    u = _unit(strata_directions(rng, 500))
    v, t = _tangent(u, rng), rng.uniform(0.01, 1.5, (len(u), 1))
    sa, sb = np.cos(t) * v + np.sin(t) * u, np.cos(t) * v - np.sin(t) * u
    jitter = [_unit(x + 1e-7 * rng.standard_normal(x.shape)) for x in (sa, sb)]
    return {
        "random": (a, _units(90, 2000)),
        "near-antipodal": (a, _unit(-a + 1e-6 * _tangent(a, rng))),
        "close": (a, _unit(a + 1e-5 * _tangent(a, rng))),
        "closer": (a, _unit(a + 1e-6 * _tangent(a, rng))),
        "strata": (sa, sb),
        "strata-adjacent": tuple(jitter),
    }


def test_witness_floor_is_below_the_slack():
    for name, (x, y) in _pair_cases().items():
        for floor, slack in zip(witness_floor(x, y), witness_sweep(x, y)):
            assert np.max(floor - slack) <= 1e-12, name


def test_pinch_bounds_hold():
    for name, (x, y) in _pair_cases().items():
        r = pair_ratio_sweep(x, y)
        r_lo, r_hi, rel = pinch_bounds(x, y)
        assert np.all(np.isfinite(rel)), name
        assert np.all(r_lo - rel * (1.0 + r_lo) <= r), name
        assert np.all(r <= r_hi + rel * (1.0 + r_hi)), name
        # the bounds themselves, before any allowance
        assert np.all(r_lo <= r * (1.0 + 1e-9)), name
        assert np.all(r <= r_hi * (1.0 + 1e-9)), name


def test_witness_worst_second_round_reaches_a_planted_minimum(monkeypatch):
    a, b = next(unit_pairs(rng_for(42, STREAM_WITNESS), 1000, 1e-6))
    top, bottom = witness_sweep(a, b)
    slack = np.minimum(top, bottom)
    k = int(np.argmin(slack))
    decoys = np.argsort(slack)[-_PRUNE_CANDIDATES:]

    def planted(x, y):
        # still lower bounds, but round 1 now takes the decoys, not row k
        floors = witness_floor(x, y)
        for floor in floors:
            floor[decoys] = -1.0
        return floors

    solved = []

    def sweep(x, y):
        solved.append(x)
        return witness_sweep(x, y)

    monkeypatch.setattr(hessian_mod, "witness_floor", planted)
    monkeypatch.setattr(hessian_mod, "witness_sweep", sweep)
    assert witness_worst(rng_for(42, STREAM_WITNESS), 1000) == slack[k]
    assert len(solved) == 2 and len(solved[0]) == _PRUNE_CANDIDATES
    assert not (solved[0] == a[k]).all(axis=1).any()
    assert (solved[1] == a[k]).all(axis=1).any()


def _with_decoys(a, b, k, step, value):
    """The block (a, b) and _PRUNE_CANDIDATES near copies of its pair k
    after it, a_k moved by step along random tangents, each the way that
    raises value(a, b) (one entry per pair); and the copies' rows."""
    n = _PRUNE_CANDIDATES
    ak, bk = np.repeat(a[k:k + 1], n, 0), np.repeat(b[k:k + 1], n, 0)
    move = step * _tangent(ak, np.random.default_rng(95))
    up, down = _unit(ak + move), _unit(ak - move)
    near = np.where((value(up, bk) > value(down, bk))[:, None], up, down)
    return (np.concatenate([a, near]), np.concatenate([b, bk]),
            np.arange(len(a), len(a) + n))


# witness_worst's docstring: a floor exceeds its slack by < 5.7e-5 + 1e-12
WITNESS_ERROR = 5.7e-5 + 1e-12


def test_witness_guard_covers_a_worst_case_floor(monkeypatch):
    # every floor raised by its worst-case error, and decoys within that
    # error above the least slack, which round 1 takes in its place:
    # WITNESS_GUARD must still open the least pair (at 0 a decoy's slack
    # is returned)
    def slack(x, y):
        return np.minimum(*witness_sweep(x, y))

    a, b = next(unit_pairs(rng_for(42, STREAM_WITNESS), 1000, 1e-6))
    k = int(np.argmin(slack(a, b)))
    a, b, decoys = _with_decoys(a, b, k, 1e-7, slack)
    s = slack(a, b)
    assert np.argmin(s) == k
    assert np.all((s[k] < s[decoys])
                  & (s[decoys] < s[k] + 0.1 * WITNESS_ERROR))

    def raised(x, y):
        floors = tuple(f + WITNESS_ERROR for f in witness_floor(x, y))
        for floor in floors:
            floor[decoys] = -1.0
        return floors

    monkeypatch.setattr(hessian_mod, "unit_pairs", lambda *args: [(a, b)])
    monkeypatch.setattr(hessian_mod, "witness_floor", raised)
    assert witness_worst(None, len(a)) == _worst_of([(a, b)]) == s[k]


def test_ratio_guard_covers_a_worst_case_floor(monkeypatch):
    # r_lo at each pair's own ratio plus its worst-case error 2 E r / lo1
    # (pinch_bounds' docstring: E < 5e-12, lo1 = s l3 - dP, the witness
    # floor's top side before the slope), and decoys within that error
    # above r_min, which round 1 takes in its place: RATIO_GUARD must
    # still open the least pair (at 1e-300 a decoy's ratio is returned)
    a, b = next(unit_pairs(rng_for(42, STREAM_HESSIAN), 1000, 1e-9))
    k = int(np.argmin(pair_ratio_sweep(a, b)))
    a, b, decoys = _with_decoys(a, b, k, 1e-13, pair_ratio_sweep)
    r = pair_ratio_sweep(a, b)
    lo1 = (witness_floor(a, b)[0]
           + np.linalg.norm(a - b, axis=1) * WITNESS_SLOPE)
    error = 2.0 * 5e-12 * r / lo1
    assert np.argmin(r) == k
    assert np.all((r[k] < r[decoys]) & (r[decoys] < r[k] + 0.5 * error[k]))

    def raised(x, y):
        _, r_hi, rel = pinch_bounds(x, y)
        r_lo = r + error
        r_lo[decoys] = -1.0
        return r_lo, r_hi, rel

    monkeypatch.setattr(hessian_mod, "unit_pairs", lambda *args: [(a, b)])
    monkeypatch.setattr(hessian_mod, "pinch_bounds", raised)
    got = ratio_bound_estimate(None, len(a))
    assert got == _pinch_of([(a, b)]) and got[1] == r[k]


def test_witness_slope_constant():
    assert abs(WITNESS_SLOPE - 1.0 / (4.0 * np.sqrt(3.0))) < 1e-15


def test_antipodal_pair_is_doubled_hessian():
    a = _units(76, 3)
    r = pair_ratio_sweep(a, -a)
    vals = np.linalg.eigvalsh(2.0 * hess_w(a))
    assert np.max(np.abs(r + vals[:, -1] / vals[:, 0])) < 1e-10


def test_third_derivative_sweep_bounded():
    vals = third_derivative_sweep(rng_for(77, STREAM_HESSIAN), 400)
    assert vals.shape == (400,)
    assert np.max(vals) <= THIRD_DERIVATIVE_BOUND + 1e-3


def _pinch_of(blocks):
    """The unpruned extremes: pair_ratio_sweep over every pair."""
    r_min, r_max = np.inf, 0.0
    for a, b in blocks:
        r = pair_ratio_sweep(a, b)
        r_min, r_max = min(r_min, float(r.min())), max(r_max, float(r.max()))
    return max(r_max, 1.0 / r_min), r_min, r_max


def _full_pinch(seed, pairs):
    return _pinch_of(unit_pairs(rng_for(seed, STREAM_HESSIAN), pairs, 1e-9))


_cached_full_pinch = functools.lru_cache(_full_pinch)


@pytest.mark.parametrize("pairs", [1000, PAIR_CHUNK + 1])
@pytest.mark.parametrize("seed", [42, 601])
def test_ratio_bound_estimate_is_the_full_pass(seed, pairs, monkeypatch):
    ref = _cached_full_pinch(seed, pairs)
    monkeypatch.setattr("qcubic.eigen.ROW_BLOCK", 7)
    assert ratio_bound_estimate(rng_for(seed, STREAM_HESSIAN), pairs) == ref


def test_ratio_bound_estimate_second_round_reaches_planted_extremes(
        monkeypatch):
    a, b = next(unit_pairs(rng_for(42, STREAM_HESSIAN), 1000, 1e-9))
    pa, pb = next(unit_pairs(rng_for(43, STREAM_HESSIAN), PAIR_CHUNK, 1e-9))
    pool = pair_ratio_sweep(pa, pb)
    r = pair_ratio_sweep(a, b)
    top, bottom = int(np.argmax(pool)), int(np.argmin(pool))
    assert pool[top] > r.max() and pool[bottom] < r.min()
    a[[100, 200]], b[[100, 200]] = pa[[top, bottom]], pb[[top, bottom]]
    decoys = np.argsort(np.abs(r - np.median(r)))[:_PRUNE_CANDIDATES]

    def planted(x, y):
        # still bounds, but round 1 now takes the decoys on both rows
        r_lo, r_hi, rel = pinch_bounds(x, y)
        r_lo[decoys], r_hi[decoys] = -1.0, 1e9
        return r_lo, r_hi, rel

    solved = []

    def sweep(x, y):
        solved.append(x)
        return pair_ratio_sweep(x, y)

    monkeypatch.setattr(hessian_mod, "unit_pairs", lambda *args: [(a, b)])
    monkeypatch.setattr(hessian_mod, "pinch_bounds", planted)
    monkeypatch.setattr(hessian_mod, "pair_ratio_sweep", sweep)
    _, r_min, r_max = ratio_bound_estimate(None, 1000)
    assert (r_min, r_max) == (pool[bottom], pool[top])
    # one call a round (pair_ratio_sweep blocks its own rows)
    assert len(solved) == 2 and len(solved[0]) == 2 * _PRUNE_CANDIDATES
    for k in (100, 200):
        assert not (solved[0] == a[k]).all(axis=1).any()
        assert (solved[1] == a[k]).all(axis=1).any()


@pytest.mark.parametrize("flip", range(len(SIGN_FLIPS)))
def test_pruned_extremes_under_every_sign_flip(flip, monkeypatch):
    # flipped builds fail the certificate: the extremes of q_matrix come
    # from LAPACK, and both pruned minima stay exact
    monkeypatch.setattr(cubic_mod, "matrix_M", SIGN_FLIPS[flip]())
    lapack = []

    def eigvalsh_spy(mats):
        lapack.append(len(mats))
        return eigvalsh_asc(mats)

    monkeypatch.setattr(cubic_mod, "eigvalsh_asc", eigvalsh_spy)
    got = ratio_bound_estimate(rng_for(42, STREAM_HESSIAN), 2000)
    assert sum(lapack) == 2000
    assert got == _full_pinch(42, 2000)
    assert (witness_worst(rng_for(42, STREAM_WITNESS), 2000)
            == _full_worst(42, 2000))
    assert sum(lapack) == 4000


def test_a13_flip_keeps_its_pinch_extremes(monkeypatch):
    # test_a13_negative_control's ratio leg reads these extremes
    monkeypatch.setattr(cubic_mod, "matrix_M", entry_flip(0, 1))
    _, r_min, r_max = ratio_bound_estimate(rng_for(42, STREAM_HESSIAN),
                                           20_000)
    assert "[%.4f, %.4f]" % (r_min, r_max) == "[0.4314, 2.3199]"


def test_ratio_bound_estimate():
    m_hat, r_min, r_max = ratio_bound_estimate(rng_for(78, STREAM_HESSIAN), 4000)
    assert 0 < r_min <= r_max
    assert m_hat == pytest.approx(max(r_max, 1.0 / r_min))
    assert r_max <= RATIO_BOUND
    assert r_min >= 1.0 / RATIO_BOUND
    # and same-seed determinism
    again = ratio_bound_estimate(rng_for(78, STREAM_HESSIAN), 4000)
    assert again[0] == m_hat


def test_unit_pairs_reproduces_inline_draw():
    # reference draw: per block, a then b, each standard normal divided by
    # its norm, then the separation filter
    count = 2 * PAIR_CHUNK + 7
    blocks = list(unit_pairs(rng_for(83, STREAM_HESSIAN), count, 1.3))
    rng = rng_for(83, STREAM_HESSIAN)
    assert len(blocks) == 3
    for k, (a, b) in zip((PAIR_CHUNK, PAIR_CHUNK, 7), blocks):
        ra = rng.standard_normal((k, 12))
        ra /= np.linalg.norm(ra, axis=1, keepdims=True)
        rb = rng.standard_normal((k, 12))
        rb /= np.linalg.norm(rb, axis=1, keepdims=True)
        keep = np.linalg.norm(ra - rb, axis=1) >= 1.3
        assert 0 < keep.sum() < k
        assert np.array_equal(a, ra[keep]) and np.array_equal(b, rb[keep])
