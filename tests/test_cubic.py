"""The cubic form, its direction matrices, and the closed-form spectra."""

import numpy as np
import pytest

from qcubic.cubic import (_closed_rows, eval_P, grad_P, q_matrix,
                          invariants_mn, spectrum_sweep, band_slack,
                          perp_basis, perp_sweep, cubic_roots_check,
                          cor4_check, strata_directions)
from qcubic.eigen import eigh_desc, eigvalsh_desc, jacobi_eigh
from qcubic.numdiff import fd_gradient
from qcubic.quaternions import qmul
from qcubic.sampling import rng_for, directions, STREAM_SPECTRAL


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
    m, n, t = invariants_mn(dirs)
    m, n, t = np.asarray(m, float), np.asarray(n, float), np.asarray(t, float)
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
    ref, _ = eigh_desc(q_matrix(d))
    assert np.max(np.abs(vals - ref)) < 1e-12
    _, closed = spectrum_sweep(d[None])
    assert np.max(np.abs(vals - closed[0])) < 1e-10


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
    # Corollary 2's band bounds and the descending order on one Jacobi
    # spectrum
    d = _on_sphere(rng_for(10, STREAM_SPECTRAL).standard_normal(12))
    lam, _ = jacobi_eigh(q_matrix(d))
    assert band_slack(lam) >= 0.0
    assert np.all(np.diff(lam) <= 0.0)


def test_strata_spectra_hit_band_edges():
    rng = rng_for(11, STREAM_SPECTRAL)
    strata = strata_directions(rng, 30)
    vals, closed = spectrum_sweep(strata)
    assert np.max(np.abs(vals - closed)) < 1e-8
    m, n, _ = invariants_mn(strata)
    m, n = np.asarray(m, float), np.asarray(n, float)
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
    # exactly on the corner the double roots coalesce; no nan allowed, in
    # the kernel spectrum_sweep runs
    vals = _closed_rows(1.0, 1.0)
    assert vals.shape == (12,) and np.all(np.isfinite(vals))
    assert abs(vals[0] - 2.0) < 1e-12
    vals = _closed_rows(np.longdouble(1.0), np.longdouble(-1.0))
    assert np.all(np.isfinite(vals))


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
    vals = eigvalsh_desc(q_matrix(dirs))
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
        vals, _ = jacobi_eigh(mat)
        assert abs(rows[k, 0] - vals[2]) < 1e-12
        assert abs(rows[k, 1] - vals[9]) < 1e-12
        assert abs(rows[k, 2] - comp[0]) < 1e-10
        assert abs(rows[k, 3] - comp[-1]) < 1e-10


def test_perp_sweep_matches_einsum_oracle():
    # the compressed extremes against the 3-operand einsum pT M p
    dirs = directions(rng_for(15, STREAM_SPECTRAL), 2000)
    rows = perp_sweep(dirs)
    mats = q_matrix(dirs)
    p = perp_basis(dirs)
    comp = np.linalg.eigvalsh(np.einsum("nji,njk,nkl->nil", p, mats, p))
    assert np.max(np.abs(rows[:, 2] - comp[:, -1])) <= 1e-13
    assert np.max(np.abs(rows[:, 3] - comp[:, 0])) <= 1e-13
    vals = eigvalsh_desc(mats)
    assert np.array_equal(rows[:, 0], vals[:, 2])
    assert np.array_equal(rows[:, 1], vals[:, 9])
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
    res = cor4_check(u, v)
    assert res["passed"].shape == (5, 5) and np.all(res["passed"]), res
    assert np.all(res["l10"] <= res["l3"])
    # a (5, 5) stack of pairs gives bitwise the one-pair results
    for i, k in ((0, 0), (2, 3), (4, 4)):
        one = cor4_check(u[i, k], v[i, k])
        for key, val in res.items():
            assert val[i, k] == one[key], key
    with pytest.raises(ValueError):
        cor4_check(np.ones(12), np.ones(12))  # off-sphere
    with pytest.raises(ValueError):
        cor4_check(u, np.ones((5, 5, 12)))  # off-sphere, in a stack
    w = u.copy()
    w[1, 2] = v[1, 2]
    with pytest.raises(ValueError):
        cor4_check(w, v)  # zero separation in one row
