import numpy as np

from qcubic import symspace

SQ = np.sqrt(12.0)


def _basis():
    """The frozen basis as the program applies it: I/sqrt(12), then the
    traceless coordinate matrices embed_traceless forms."""
    return np.concatenate([np.eye(12)[None] / SQ,
                           symspace.embed_traceless(np.eye(77))])


def test_basis_orthonormal_trace_inner_product():
    b = _basis()
    flat = b.reshape(78, 144)
    gram = flat @ flat.T
    assert np.max(np.abs(gram - np.eye(78))) < 1e-12


def test_basis_first_is_scaled_identity_rest_traceless():
    b = _basis()
    assert np.allclose(b[0], np.eye(12) / np.sqrt(12.0))
    assert np.max(np.abs(np.trace(b[1:], axis1=1, axis2=2))) < 1e-13


def test_roundtrip():
    rng = np.random.default_rng(31)
    m = rng.standard_normal((5, 12, 12))
    m = m + np.swapaxes(m, -1, -2)
    z, s = symspace.to_coords(m)
    assert z.shape == (5, 77) and s.shape == (5,)
    back = s[:, None, None] * np.eye(12) / SQ + symspace.embed_traceless(z)
    assert np.max(np.abs(back - m)) < 1e-12


def test_s_coordinate_is_scaled_trace():
    rng = np.random.default_rng(32)
    m = rng.standard_normal((12, 12))
    m = m + m.T
    _, s = symspace.to_coords(m)
    assert abs(s * np.sqrt(12.0) - np.trace(m)) < 1e-12


def test_embed_traceless():
    rng = np.random.default_rng(33)
    z = rng.standard_normal((4, 77))
    mats = symspace.embed_traceless(z)
    assert np.max(np.abs(np.trace(mats, axis1=1, axis2=2))) < 1e-12
    z2, s2 = symspace.to_coords(mats)
    assert np.max(np.abs(z2 - z)) < 1e-12
    assert np.max(np.abs(s2)) < 1e-12


def test_norm_preserved():
    # trace inner product <-> euclidean coords
    rng = np.random.default_rng(34)
    m = rng.standard_normal((12, 12))
    m = m + m.T
    z, s = symspace.to_coords(m)
    assert abs(np.sum(m * m) - (s * s + z @ z)) < 1e-10
