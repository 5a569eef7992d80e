"""The cubic form, its direction matrices, and the closed-form spectra."""

import functools
import itertools

import numpy as np
import pytest

import qcubic.cubic as cubic_mod
from qcubic.cubic import (closed_spectrum, eval_P, grad_P, q_matrix,
                          invariants_mn, spectrum_sweep, band_slack,
                          perp_basis, perp_sweep, cubic_roots_check,
                          cor4_check, strata_directions, charpoly_identity,
                          closed_form_certified, q_extremes, CHARPOLY_POINTS,
                          SLACK_TOL)
from qcubic.eigen import eigh_asc, eigvalsh_asc, jacobi_eigh
from qcubic.numdiff import fd_gradient
from qcubic.quaternions import matrix_M, qmul
from qcubic.sampling import (rng_for, directions, unit_sphere,
                             STREAM_SPECTRAL)


def entry_flip(i, j):
    """matrix_M with the sign of entry (i, j) flipped (a13's is (0, 1))."""
    def flipped(q):
        m = matrix_M(q).copy()
        m[..., i, j] = -m[..., i, j]
        return m
    return flipped


def block_flip(k):
    """matrix_M negated on block k (a, b, c) of every q_matrix: q_matrix
    calls it once per block, in that order, and nothing else calls it."""
    calls = itertools.count()

    def flipped(q):
        m = matrix_M(q)
        return -m if next(calls) % 3 == k else m
    return flipped


# makers of the 16 single-entry flips, then the 3 whole-block flips
SIGN_FLIPS = ([functools.partial(entry_flip, i, j)
               for i in range(4) for j in range(4)]
              + [functools.partial(block_flip, k) for k in range(3)])


def _on_sphere(v):
    """v rescaled to the direction sphere of radius sqrt(3)."""
    return v * (np.sqrt(3.0) / np.linalg.norm(v))


def test_eval_P_is_triple_product_scalar_part():
    rng = np.random.default_rng(41)
    v = rng.standard_normal(12)
    expect = qmul(qmul(v[0:4], v[4:8]), v[8:12])[0]
    assert abs(eval_P(v) - expect) < 1e-14


def test_eval_P_trilinear():
    rng = np.random.default_rng(42)
    v = rng.standard_normal(12)
    w = v.copy()
    w[4:8] *= 3.0
    assert abs(eval_P(w) - 3.0 * eval_P(v)) < 1e-12


def test_grad_P_finite_difference():
    rng = np.random.default_rng(43)
    for _ in range(10):
        v = rng.standard_normal(12)
        g = grad_P(v)
        gf = fd_gradient(eval_P, v)
        assert np.max(np.abs(g - gf)) < 1e-8


def test_q_matrix_symmetric_linear_traceless():
    rng = np.random.default_rng(44)
    d1, d2 = rng.standard_normal((2, 12))
    m1, m2 = q_matrix(d1), q_matrix(d2)
    assert np.max(np.abs(m1 - m1.T)) == 0.0
    assert abs(np.trace(m1)) == 0.0
    assert np.allclose(q_matrix(d1 - 0.7 * d2), m1 - 0.7 * m2)


def test_q_matrix_euler_identity():
    # P is 3-homogeneous, its Hessian at v is q_matrix(v): 6 P = v^T D2P v
    rng = np.random.default_rng(45)
    v = rng.standard_normal(12)
    assert abs(v @ q_matrix(v) @ v - 6.0 * eval_P(v)) < 1e-12


def test_invariants_range_and_ineq():
    dirs = directions(rng_for(7, STREAM_SPECTRAL), 500)
    t, m, m_perp, n, n_perp = invariants_mn(dirs)
    assert np.max(np.abs(np.hypot(m, m_perp) - t**3)) < 1e-12
    assert np.max(np.abs(np.hypot(n, n_perp) - t**3)) < 1e-12
    m, n = m / t**3, n / t**3
    assert np.max(np.abs(t - 1.0)) < 1e-12
    assert np.all(m >= -1e-15) and np.all(m <= 1.0 + 1e-12)
    assert np.all(np.abs(n) <= m + 1e-12)


def test_closed_form_spectrum_matches_eigensolver():
    dirs = directions(rng_for(8, STREAM_SPECTRAL), 300)
    vals, closed = spectrum_sweep(dirs)
    assert np.max(np.abs(vals - closed)) < 1e-10


def test_direction_spectrum_solvers_agree():
    # the reference (Jacobi) solver against the batched LAPACK path and
    # the closed form
    d = _on_sphere(np.arange(1.0, 13.0))
    vals, _ = jacobi_eigh(q_matrix(d))
    ref, _ = eigh_asc(q_matrix(d))
    assert np.max(np.abs(vals - ref)) < 1e-12
    _, closed = spectrum_sweep(d[None])  # descending: l1 first
    assert np.max(np.abs(vals - closed[0, ::-1])) < 1e-10


def test_direction_spectrum_vector_contract():
    # Jacobi's eigenvectors are orthonormal columns with small residual
    d = _on_sphere(np.arange(1.0, 13.0))
    mat = q_matrix(d)
    vals, vecs = jacobi_eigh(mat)
    assert np.max(np.abs(vecs.T @ vecs - np.eye(12))) < 1e-12
    res = mat @ vecs - vecs * vals[None, :]
    assert np.max(np.abs(res)) < 1e-10


def test_spectrum_traceless_and_extremes_paired():
    # trace 2Q_d = 0, and the top/bottom eigenvalues are exact negatives
    # (the six simple roots come in +- pairs; the doubles only sum to zero)
    dirs = directions(rng_for(9, STREAM_SPECTRAL), 100)
    vals, _ = spectrum_sweep(dirs)
    assert np.max(np.abs(vals.sum(axis=1))) < 1e-10
    assert np.max(np.abs(vals[:, 0] + vals[:, 11])) < 1e-10


def test_verify_cor2_on_random_direction():
    # Corollary 2's band bounds on one Jacobi spectrum, whose ascending
    # values read from the end are the descending l1, ..., l12
    d = _on_sphere(rng_for(10, STREAM_SPECTRAL).standard_normal(12))
    lam, _ = jacobi_eigh(q_matrix(d))
    assert band_slack(lam[::-1]) >= 0.0
    assert np.all(np.diff(lam) >= 0.0)


def test_strata_spectra_hit_band_edges():
    rng = rng_for(11, STREAM_SPECTRAL)
    strata = strata_directions(rng, 30)
    vals, closed = spectrum_sweep(strata)
    assert np.max(np.abs(vals - closed)) < 1e-8
    t, m, _, n, _ = invariants_mn(strata)
    m, n = m / t**3, n / t**3
    # first block: m = 0 (degenerate torus collapse)
    assert np.max(np.abs(m[:30])) < 1e-12
    # second block: m = 1
    assert np.max(np.abs(m[30:60] - 1.0)) < 1e-12
    # third/fourth blocks: n = +-1, where the extremes 2 and -2 are attained
    assert np.max(np.abs(n[60:90] - 1.0)) < 1e-12
    assert np.max(np.abs(n[90:120] + 1.0)) < 1e-12
    assert np.max(np.abs(vals[60:90, 0] - 2.0)) < 1e-9
    assert np.max(np.abs(vals[90:120, 11] + 2.0)) < 1e-9


def test_spectrum_closed_form_degenerate_arccos():
    # exactly on the corners the roots coalesce; no nan allowed, in the
    # kernel spectrum_sweep runs: m = 0 (one zero block, l1 = sqrt 3), then
    # m = 1 with n = 0, n = 1 and n = -1 (l1 = 2)
    e = np.eye(4)
    rows = np.array([np.r_[1.0, 1.0, 1.0, 0.0, np.zeros(8)],
                     np.r_[e[0], e[0], e[1]],
                     np.r_[e[0], e[0], e[0]],
                     np.r_[e[0], e[0], -e[0]]])
    vals = closed_spectrum(rows)
    assert vals.shape == (4, 12) and np.all(np.isfinite(vals))
    assert abs(vals[0, 0] - np.sqrt(3.0)) < 1e-15
    assert np.all(vals[1:, 0] == 2.0)
    assert np.max(np.abs(vals - eigvalsh_asc(q_matrix(rows))[:, ::-1])) < 1e-14


# --- complement compression --------------------------------------------------

def test_perp_basis_orthonormal_complement():
    # a (4, 5) stack of rows, both signs of the leading entry, and one row
    rng = np.random.default_rng(51)
    d = rng.standard_normal((4, 5, 12))
    assert np.any(d[..., 0] < 0) and np.any(d[..., 0] > 0)
    p = perp_basis(d)
    assert p.shape == (4, 5, 12, 11)
    gram = np.swapaxes(p, -1, -2) @ p
    assert np.max(np.abs(gram - np.eye(11))) < 1e-12
    assert np.max(np.abs(np.einsum("...i,...ik->...k", d, p))) < 1e-12
    assert np.array_equal(perp_basis(d[2, 3]), p[2, 3])


def test_lambda_perp_interlaces():
    # Cauchy interlacing for a codimension-1 compression, on every row
    dirs = directions(rng_for(12, STREAM_SPECTRAL), 200)
    rows = perp_sweep(dirs)
    vals = eigvalsh_asc(q_matrix(dirs))[:, ::-1]
    assert np.all(vals[:, 1] - 1e-12 <= rows[:, 2])
    assert np.all(rows[:, 2] <= vals[:, 0] + 1e-12)
    assert np.all(vals[:, 11] - 1e-12 <= rows[:, 3])
    assert np.all(rows[:, 3] <= vals[:, 10] + 1e-12)


def test_perp_sweep_matches_single_route():
    # one row at a time: matmul compression and the Jacobi solver
    dirs = directions(rng_for(13, STREAM_SPECTRAL), 40)
    rows = perp_sweep(dirs)
    for k in (0, 13, 39):
        mat = q_matrix(dirs[k])
        p = perp_basis(dirs[k])
        comp, _ = jacobi_eigh(p.T @ mat @ p)
        vals, _ = jacobi_eigh(mat)  # ascending: l3 is vals[9], l10 vals[2]
        assert abs(rows[k, 0] - vals[9]) < 1e-12
        assert abs(rows[k, 1] - vals[2]) < 1e-12
        assert abs(rows[k, 2] - comp[-1]) < 1e-10
        assert abs(rows[k, 3] - comp[0]) < 1e-10


def test_perp_sweep_matches_einsum_oracle():
    # the compressed extremes against the 3-operand einsum pT M p
    dirs = directions(rng_for(15, STREAM_SPECTRAL), 2000)
    rows = perp_sweep(dirs)
    mats = q_matrix(dirs)
    p = perp_basis(dirs)
    comp = np.linalg.eigvalsh(np.einsum("nji,njk,nkl->nil", p, mats, p))
    assert np.max(np.abs(rows[:, 2] - comp[:, -1])) <= 1e-13
    assert np.max(np.abs(rows[:, 3] - comp[:, 0])) <= 1e-13
    assert np.array_equal(rows[:, :2], q_extremes(dirs)[:, [1, 2]])
    vals = eigvalsh_asc(mats)[:, ::-1]
    scale = 1e-14 * np.linalg.norm(dirs, axis=1)
    assert np.all(np.abs(rows[:, 0] - vals[:, 2]) <= scale)
    assert np.all(np.abs(rows[:, 1] - vals[:, 9]) <= scale)
    # Cauchy interlacing on every row
    assert np.all((vals[:, 1] - 1e-12 <= rows[:, 2])
                  & (rows[:, 2] <= vals[:, 0] + 1e-12))
    assert np.all((vals[:, 11] - 1e-12 <= rows[:, 3])
                  & (rows[:, 3] <= vals[:, 10] + 1e-12))


def test_compression_ratio_below_three_halves():
    rows = perp_sweep(directions(rng_for(14, STREAM_SPECTRAL), 3000))
    ratios = np.maximum(rows[:, 2] / rows[:, 0], rows[:, 3] / rows[:, 1])
    assert np.max(ratios) < 1.5


# --- scalar cubic helpers ----------------------------------------------------

def test_cubic_roots_check():
    for m in (-1.0, -0.4, 0.0, 0.9, 1.0):
        r = cubic_roots_check(m)
        assert np.all(np.diff(r) <= 0)
        assert np.max(np.abs(r ** 3 - 3.0 * r - 2.0 * m)) < 1e-12
    with pytest.raises(ValueError):
        cubic_roots_check(1.2)
    with pytest.raises(ValueError):
        cubic_roots_check(np.array([0.0, -1.2]))
    # an array of m gives bitwise the one-point rows
    grid = np.linspace(-1.0, 1.0, 41).reshape(1, 41)
    rows = cubic_roots_check(grid)
    assert rows.shape == (1, 41, 3)
    for k in range(41):
        assert np.array_equal(rows[0, k], cubic_roots_check(grid[0, k]))


def test_cor4_growth_bound():
    rng = np.random.default_rng(52)
    u, v = rng.standard_normal((2, 5, 5, 12))
    u *= np.sqrt(3.0) / np.linalg.norm(u, axis=-1, keepdims=True)
    v *= np.sqrt(3.0) / np.linalg.norm(v, axis=-1, keepdims=True)
    lower, upper = cor4_check(u, v)
    assert lower.shape == upper.shape == (5, 5)
    assert np.all(lower >= -SLACK_TOL) and np.all(upper >= -SLACK_TOL), \
        (lower, upper)
    d = (u - v) * (np.sqrt(3.0) / np.linalg.norm(u - v, axis=-1))[..., None]
    ext = q_extremes(d.reshape(-1, 12))
    assert np.all(ext[:, 2] <= ext[:, 1])  # l10 <= l3
    # a (5, 5) stack of pairs gives bitwise the one-pair results
    for i, k in ((0, 0), (2, 3), (4, 4)):
        one = cor4_check(u[i, k], v[i, k])
        assert lower[i, k] == one[0] and upper[i, k] == one[1]
    with pytest.raises(ValueError):
        cor4_check(np.ones(12), np.ones(12))  # off-sphere
    with pytest.raises(ValueError):
        cor4_check(u, np.ones((5, 5, 12)))  # off-sphere, in a stack
    w = u.copy()
    w[1, 2] = v[1, 2]
    with pytest.raises(ValueError):
        cor4_check(w, v)  # zero separation in one row


def test_charpoly_identity_certifies_the_true_build():
    assert CHARPOLY_POINTS >= 2
    agreed = charpoly_identity()
    assert agreed.shape == (CHARPOLY_POINTS,) and agreed.all()
    assert closed_form_certified()


@pytest.mark.parametrize("flip", range(len(SIGN_FLIPS)))
def test_charpoly_identity_fails_every_sign_flip(flip, monkeypatch):
    # the 16 single-entry flips of matrix_M and the 3 whole-block flips
    monkeypatch.setattr(cubic_mod, "matrix_M", SIGN_FLIPS[flip]())
    assert not charpoly_identity().any()
    assert not closed_form_certified()


def _extremes_cases(rng):
    """Direction rows: random, close and near-antipodal differences of unit
    points, the m = 0, m = 1 and n = +-1 strata rows, and those jittered
    by 1e-7, where an arccos of m and n loses half its digits."""
    a, b = unit_sphere(rng, 2000), unit_sphere(rng, 2000)
    step = rng.standard_normal(a.shape)
    strata = strata_directions(rng, 200)
    return {"random": a - b, "close": 1e-6 * step / np.linalg.norm(
                step, axis=1, keepdims=True),
            "near-antipodal": 2.0 * a + 1e-6 * step,
            "strata": strata,
            "strata-adjacent": strata + 1e-7 * rng.standard_normal(
                strata.shape)}


@pytest.mark.parametrize("scale", [1e-6, 1.0, 1e8])
def test_q_extremes_match_lapack(scale):
    # closed_spectrum's docstring bounds it by 1e-13 |d|; it and LAPACK
    # agree to 4e-15 |d| on these rows, the extremes and all twelve
    for name, d in _extremes_cases(rng_for(91, STREAM_SPECTRAL)).items():
        d = d * scale
        bound = 1e-14 * np.linalg.norm(d, axis=1)
        vals, closed = spectrum_sweep(d)
        assert np.all(np.max(np.abs(closed - vals), axis=1) <= bound), name
        err = np.max(np.abs(q_extremes(d) - vals[:, [0, 2, 9, 11]]), axis=1)
        assert np.all(err <= bound), name


def test_q_extremes_take_lapack_under_a_flip(monkeypatch):
    monkeypatch.setattr(cubic_mod, "matrix_M", entry_flip(0, 1))
    d = _extremes_cases(rng_for(92, STREAM_SPECTRAL))["random"]
    rows = []

    def eigvalsh_spy(mats):
        rows.append(len(mats))
        return eigvalsh_asc(mats)

    monkeypatch.setattr(cubic_mod, "eigvalsh_asc", eigvalsh_spy)
    got = q_extremes(d)
    assert sum(rows) == len(d)
    # l1, l3, l10 and l12 of the descending spectrum
    assert np.array_equal(
        got, eigvalsh_asc(q_matrix(d))[:, ::-1][:, [0, 2, 9, 11]])


@pytest.mark.parametrize("flip", range(len(SIGN_FLIPS)))
def test_spectrum_oracle_sees_every_sign_flip(flip, monkeypatch):
    # the closed form reads no matrix_M and takes no LAPACK fallback, so
    # under a flip spectrum_sweep's two sides part (by 0.98 to 1.34 here)
    monkeypatch.setattr(cubic_mod, "matrix_M", SIGN_FLIPS[flip]())
    vals, closed = spectrum_sweep(directions(rng_for(93, STREAM_SPECTRAL),
                                             200))
    assert np.max(np.abs(vals - closed)) > 1e-8
