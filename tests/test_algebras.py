"""The Cayley-Dickson family R, C, H, O against the quaternion code.

tests/oracles.py doubles up from the reals with no table written out.
At k = 4 that is the independent oracle for quaternions.SIGNS, qmul and
cubic.q_matrix, and it sees every sign flip of matrix_M.  Across k = 1,
2, 4 and 8 the closed-form characteristic polynomial of the direction
matrix extends, and is checked exactly at integer points.
"""

import numpy as np
import pytest

import qcubic.cubic as cubic_mod
from qcubic.cubic import charpoly_ints
from qcubic.quaternions import SIGNS, qmul
from qcubic.sampling import STREAM_SPECTRAL, rng_for

from oracles import algebra_q_matrix, cayley_dickson, cd_product
from test_cubic import SIGN_FLIPS

KS = (1, 2, 4, 8)


@pytest.mark.parametrize("k", KS)
def test_doubling_products_follow_the_xor_rule(k):
    # e_i e_j = sigma[i, j] e_(i XOR j) with sigma = +-1, for every pair
    sigma = cayley_dickson(k)
    eye = np.eye(k, dtype=np.int64)
    assert set(np.unique(sigma)) <= {-1, 1}
    for i in range(k):
        for j in range(k):
            assert np.array_equal(cd_product(eye[i], eye[j]),
                                  sigma[i, j] * eye[i ^ j]), (i, j)


def test_doubling_gives_the_quaternion_table():
    assert np.array_equal(cayley_dickson(4), SIGNS)
    # and qmul reads it as the doubling multiplies: exactly, in ints
    rng = np.random.default_rng(71)
    p, q = rng.integers(-2**31, 2**31, (2, 50, 4)).astype(object)
    for pk, qk in zip(p, q):
        assert list(qmul(pk, qk)) == list(cd_product(pk, qk))


def _random_rows(seed):
    """Gaussian direction rows at scales 1e-6 to 1e8: no entry is zero."""
    rng = rng_for(seed, STREAM_SPECTRAL)
    return [scale * rng.standard_normal((2000, 12))
            for scale in (1e-6, 1e-3, 1.0, 1e3, 1e8)]


def test_q_matrix_is_the_doubling_hessian():
    # one nonzero term per einsum sum, so on rows with no zero entry the
    # oracle is exact and agrees in raw bits; strata rows have zero blocks,
    # whose +-0.0 entries agree by value
    sigma = cayley_dickson(4)
    for d in _random_rows(72):
        assert (algebra_q_matrix(sigma, d).tobytes()
                == cubic_mod.q_matrix(d).tobytes())
    strata = cubic_mod.strata_directions(rng_for(73, STREAM_SPECTRAL), 200)
    assert np.array_equal(algebra_q_matrix(sigma, strata),
                          cubic_mod.q_matrix(strata))


@pytest.mark.parametrize("flip", range(len(SIGN_FLIPS)))
def test_doubling_hessian_sees_every_sign_flip(flip, monkeypatch):
    # the 16 single-entry flips of matrix_M and the 3 whole-block flips
    d = rng_for(74, STREAM_SPECTRAL).standard_normal((200, 12))
    expect = algebra_q_matrix(cayley_dickson(4), d)
    monkeypatch.setattr(cubic_mod, "matrix_M", SIGN_FLIPS[flip]())
    assert not np.array_equal(cubic_mod.q_matrix(d), expect)


@pytest.mark.parametrize("k", KS)
def test_closed_form_charpoly_across_the_family(k):
    # For d = (a, b, c) in A^3, m^2 = |a|^2 |b|^2 |c|^2 and n = Re(abc):
    #   k = 1:        det(xI - Q(d)) = x^3 - |d|^2 x - 2n
    #   k = 2, 4, 8:  det(xI - Q(d)) = ((x^3 - |d|^2 x)^2 - 4m^2)
    #                                  * (x^3 - |d|^2 x + 2n)^(k - 2)
    # checked exactly, as charpoly_identity does, at 2 points uniform in
    # [-2^31, 2^31)^(3k), where Q(d) is an integer matrix.  Each
    # coefficient of x^(3k - j) on either side is a polynomial of degree
    # j <= 3k in d, so by Schwartz-Zippel a false identity holds at one
    # point with probability at most 3k/2^32 and at both with at most
    # (3k/2^32)^2: below 3.2e-17 at k = 8.
    sigma = cayley_dickson(k)
    for d in np.random.default_rng(75 + k).integers(-2**31, 2**31,
                                                     (2, 3 * k)):
        coef = charpoly_ints(algebra_q_matrix(sigma, d).astype(object))
        a, b, c = d.astype(object).reshape(3, k)
        na, nb, nc = (np.sum(x * x) for x in (a, b, c))
        n = cd_product(cd_product(a, b), c)[0]
        cube = np.array([1, 0, -(na + nb + nc), 0], dtype=object)
        if k == 1:
            cube[-1] -= 2 * n
            assert list(cube) == coef
            continue
        expect = np.convolve(cube, cube)
        expect[-1] -= 4 * na * nb * nc
        double = cube.copy()
        double[-1] += 2 * n
        for _ in range(k - 2):
            expect = np.convolve(expect, double)
        assert list(expect) == coef
