"""Reference Jacobi solver against LAPACK, both directions."""

import warnings

import numpy as np
import pytest

import qcubic.eigen as eigen_mod
from qcubic.cubic import q_matrix
from qcubic.eigen import (jacobi_eigh, eigvalsh_desc, eigh_desc,
                          JACOBI_MAX_SWEEPS)
from qcubic.sampling import rng_for, directions, STREAM_SPECTRAL


def _random_sym(rng, n=12):
    m = rng.standard_normal((n, n))
    return m + m.T


def test_jacobi_matches_lapack():
    rng = np.random.default_rng(1)
    for _ in range(50):
        m = _random_sym(rng)
        vals, vecs = jacobi_eigh(m)
        ref = np.sort(np.linalg.eigvalsh(m))[::-1]
        assert np.max(np.abs(vals - ref)) < 1e-12
        # eigenvector residual
        assert np.max(np.abs(m @ vecs - vecs * vals[None, :])) < 1e-10


def test_jacobi_descending_and_orthogonal():
    rng = np.random.default_rng(2)
    m = _random_sym(rng)
    vals, vecs = jacobi_eigh(m)
    assert np.all(np.diff(vals) <= 0)
    assert np.max(np.abs(vecs.T @ vecs - np.eye(12))) < 1e-12


def test_jacobi_small_sizes():
    rng = np.random.default_rng(3)
    for n in (1, 2, 3, 5):
        m = _random_sym(rng, n)
        vals, _ = jacobi_eigh(m)
        ref = np.sort(np.linalg.eigvalsh(m))[::-1]
        assert np.max(np.abs(vals - ref)) < 1e-12


def test_jacobi_already_diagonal():
    vals, vecs = jacobi_eigh(np.diag([3.0, -1.0, 2.0]))
    assert np.allclose(vals, [3.0, 2.0, -1.0])
    assert np.allclose(np.abs(vecs), np.abs(np.eye(3)[:, [0, 2, 1]]))


def test_batched_descending():
    rng = np.random.default_rng(4)
    mats = rng.standard_normal((40, 12, 12))
    mats = mats + np.swapaxes(mats, -1, -2)
    vals = eigvalsh_desc(mats)
    assert vals.shape == (40, 12)
    assert np.all(np.diff(vals, axis=1) <= 0)
    for k in (0, 17, 39):
        ref = np.sort(np.linalg.eigvalsh(mats[k]))[::-1]
        assert np.max(np.abs(vals[k] - ref)) < 1e-12


def test_eigh_desc_vectors_consistent():
    rng = np.random.default_rng(5)
    mats = rng.standard_normal((7, 12, 12))
    mats = mats + np.swapaxes(mats, -1, -2)
    vals, vecs = eigh_desc(mats)
    recon = np.einsum("nik,nk,njk->nij", vecs, vals, vecs)
    assert np.max(np.abs(recon - mats)) < 1e-11


def test_jacobi_rejects_nonsymmetric():
    with pytest.raises(ValueError):
        jacobi_eigh(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        jacobi_eigh(np.array([[0.0, 1e-11], [0.0, 0.0]]))


@pytest.mark.parametrize("scale", [1e-8, 1.0, 1e8])
def test_jacobi_symmetry_guard_is_relative(scale):
    # exactly symmetric input passes and 1e-9 relative asymmetry fails, at
    # every scale
    m = q_matrix(directions(rng_for(18, STREAM_SPECTRAL), 1)[0]) * scale
    jacobi_eigh(m)
    bad = m.copy()
    bad[0, 5] += 1e-9 * np.abs(m).max()
    with pytest.raises(ValueError):
        jacobi_eigh(bad)


@pytest.mark.parametrize("scale", [1e-8, 1.0, 1e8])
def test_jacobi_scale_aware(scale, monkeypatch):
    # the stop follows the input's scale: relative error at rounding level,
    # no overflow warning, and the stop is met before the sweep cap
    sweeps = []
    norm = eigen_mod._offdiag_norm
    monkeypatch.setattr(eigen_mod, "_offdiag_norm",
                        lambda a: sweeps.append(1) or norm(a))
    for d in directions(rng_for(16, STREAM_SPECTRAL), 4):
        m = q_matrix(d) * scale
        sweeps.clear()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            vals, vecs = jacobi_eigh(m)
        ref = np.linalg.eigvalsh(m)[::-1]
        assert np.max(np.abs(vals - ref)) <= 1e-13 * np.max(np.abs(ref))
        assert np.max(np.abs(m @ vecs - vecs * vals)) <= 1e-12 * scale
        assert len(sweeps) < JACOBI_MAX_SWEEPS


def test_jacobi_power_of_two_scaling_is_exact():
    # 2^k mat takes the same rotations as mat and stops at the same sweep
    m = q_matrix(directions(rng_for(17, STREAM_SPECTRAL), 1)[0])
    vals, vecs = jacobi_eigh(m)
    for k in (-40, 30):
        vk, wk = jacobi_eigh(np.ldexp(m, k))
        assert np.array_equal(vk, np.ldexp(vals, k))
        assert np.array_equal(wk, vecs)
