import itertools
import re

import numpy as np
from numpy.linalg import norm

from qcubic.eigen import jacobi_eigh
from qcubic.quaternions import qmul, qconj, matrix_M

E0 = np.array([1.0, 0.0, 0.0, 0.0])
EI = np.array([0.0, 1.0, 0.0, 0.0])
EJ = np.array([0.0, 0.0, 1.0, 0.0])
EK = np.array([0.0, 0.0, 0.0, 1.0])


def test_hamilton_table():
    assert np.allclose(qmul(EI, EJ), EK)
    assert np.allclose(qmul(EJ, EK), EI)
    assert np.allclose(qmul(EK, EI), EJ)
    assert np.allclose(qmul(EI, EI), -E0)
    assert np.allclose(qmul(EJ, EJ), -E0)
    assert np.allclose(qmul(EK, EK), -E0)
    assert np.allclose(qmul(EJ, EI), -EK)


def test_qmul_associative_and_norm_multiplicative():
    rng = np.random.default_rng(11)
    p, q, r = rng.standard_normal((3, 4))
    assert np.allclose(qmul(qmul(p, q), r), qmul(p, qmul(q, r)), atol=1e-12)
    assert abs(norm(qmul(p, q)) - norm(p) * norm(q)) < 1e-12


def test_qconj_antihomomorphism():
    rng = np.random.default_rng(12)
    p, q = rng.standard_normal((2, 4))
    assert np.allclose(qconj(qmul(p, q)), qmul(qconj(q), qconj(p)), atol=1e-12)


def test_qmul_broadcasts():
    rng = np.random.default_rng(13)
    ps = rng.standard_normal((6, 4))
    qs = rng.standard_normal((6, 4))
    batch = qmul(ps, qs)
    for k in range(6):
        assert np.allclose(batch[k], qmul(ps[k], qs[k]))


# --- structure matrix -------------------------------------------------------

def test_matrix_M_is_its_docstring_rows():
    # every entry is +-s_j as displayed, sign bit included: signed zeros
    # and NaNs take the displayed sign, so the signs are negations, never
    # products with -1 (which leave a NaN's sign bit alone)
    rows = re.findall(r"^\s*\((.*)\)\s*$", matrix_M.__doc__, re.M)
    shown = [[e.strip() for e in r.split(",")] for r in rows]
    assert len(shown) == 4 and all(len(r) == 4 for r in shown)
    s = np.array(list(itertools.product([0.0, -0.0, 1.5, np.nan, -np.nan],
                                        repeat=4)))
    expect = np.stack([np.stack([-s[:, int(e[-1])] if e[0] == "-"
                                 else s[:, int(e[-1])] for e in r], axis=-1)
                       for r in shown], axis=-2)
    got = matrix_M(s)
    assert np.array_equal(got, expect, equal_nan=True)
    assert np.array_equal(np.signbit(got), np.signbit(expect))
    assert np.array_equal(matrix_M(s[7]), got[7])


def test_matrix_M_orthogonality_property():
    # M_s M_s^t = M_s^t M_s = |s|^2 I, for any s
    rng = np.random.default_rng(14)
    for _ in range(20):
        s = rng.standard_normal(4)
        m = matrix_M(s)
        n2 = float(s @ s)
        assert np.max(np.abs(m @ m.T - n2 * np.eye(4))) < 1e-12
        assert np.max(np.abs(m.T @ m - n2 * np.eye(4))) < 1e-12


def test_matrix_M_determinant():
    rng = np.random.default_rng(15)
    for _ in range(20):
        s = rng.standard_normal(4)
        assert abs(np.linalg.det(matrix_M(s)) + norm(s) ** 4) < 1e-10


def test_matrix_M_linear_in_s():
    rng = np.random.default_rng(16)
    s, t = rng.standard_normal((2, 4))
    assert np.allclose(matrix_M(s + 2.0 * t), matrix_M(s) + 2.0 * matrix_M(t))


def test_matrix_M_symmetric_part_structure():
    # the unit-scalar quaternion gives the involution diag pattern
    m = matrix_M(E0)
    assert np.allclose(m, np.diag([1.0, -1.0, -1.0, -1.0]))


def test_endomorphism_identity():
    # M_s on column vectors is q -> conj(q q_s); on row vectors it is
    # q -> conj(q) conj(q_s), the transposed reading
    rng = np.random.default_rng(17)
    for _ in range(50):
        s = rng.standard_normal(4)
        q = rng.standard_normal(4)
        m = matrix_M(s)
        tol = 1e-12 * max(1.0, float(norm(s) * norm(q)))
        assert np.allclose(m @ q, qconj(qmul(q, s)), atol=tol)
        assert np.allclose(q @ m, qmul(qconj(q), qconj(s)), atol=tol)


# --- closed-form characteristic polynomials against the eigensolver ---------
# Coefficients run from the highest degree down.

def _poly_M(s):
    """det(xI - M_s) = (x^2 - |s|^2)(x^2 + 2 s0 x + |s|^2)."""
    n2, s0 = float(s @ s), float(s[0])
    return np.array([1.0, 2.0 * s0, 0.0, -2.0 * s0 * n2, -n2 ** 2])


def _poly_Mrs(r, s):
    """det(xI - M_r^T M_s) = (x^2 - 2(r,s)x + |r|^2|s|^2)^2.

    The transpose matters: the plain product M_r M_s is the two-sided
    multiplication q -> conj(r) q s, whose real parts are r0 s0 +- |rv||sv|,
    not (r, s); M_r^T M_s is one-sided and gives the squared quadratic.
    """
    u, w = float(r @ s), float((r @ r) * (s @ s))
    return np.array([1.0, -4.0 * u, 4.0 * u * u + 2.0 * w, -4.0 * u * w,
                     w * w])


def _poly_Mrst(r, s, t):
    """det(xI - M_r M_s M_t) = (x^2 - m^2)(x^2 + 2 p x + m^2), with
    m = |r||s||t| and p the scalar part of q_r q_s q_t."""
    m = float(norm(r) * norm(s) * norm(t))
    p = float(qmul(qmul(r, s), t)[0])
    return np.array([1.0, 2.0 * p, 0.0, -2.0 * p * m * m, -m ** 4])


def test_char_poly_M_matches_eigensolver():
    rng = np.random.default_rng(19)
    for _ in range(20):
        s = rng.standard_normal(4)
        roots = np.sort(np.roots(_poly_M(s)).real)
        vals = np.sort(np.linalg.eigvals(matrix_M(s)).real)
        assert np.max(np.abs(roots - vals)) < 1e-10


def test_char_poly_M_example_unit_scalar():
    # s = e0: (x^2-1)(x^2+2x+1) = (x-1)(x+1)^3
    assert np.allclose(_poly_M(E0), [1.0, 2.0, 0.0, -2.0, -1.0])
    assert np.allclose(np.poly(np.linalg.eigvals(matrix_M(E0))).real,
                       [1.0, 2.0, 0.0, -2.0, -1.0])


def test_char_poly_Mrs_transposed_product():
    # eigenvalues are complex pairs, so compare polynomial coefficients
    # (np.poly of the spectrum) instead of sorted roots
    rng = np.random.default_rng(20)
    for _ in range(20):
        r, s = rng.standard_normal((2, 4))
        coeffs = _poly_Mrs(r, s)
        ref = np.poly(np.linalg.eigvals(matrix_M(r).T @ matrix_M(s)))
        assert np.max(np.abs(ref.imag)) < 1e-9
        scale = np.maximum(np.abs(coeffs), 1.0)
        assert np.max(np.abs(ref.real - coeffs) / scale) < 1e-9


def test_char_poly_Mrs_square_at_rs_equal():
    # (x^2 - 2x + 1)^2 = (x-1)^4
    assert np.allclose(_poly_Mrs(E0, E0), [1.0, -4.0, 6.0, -4.0, 1.0])
    assert np.allclose(np.poly(np.linalg.eigvals(
        matrix_M(E0).T @ matrix_M(E0))).real, [1.0, -4.0, 6.0, -4.0, 1.0])


def test_char_poly_Mrst_matches_eigensolver():
    rng = np.random.default_rng(21)
    for _ in range(20):
        r, s, t = rng.standard_normal((3, 4))
        coeffs = _poly_Mrst(r, s, t)
        prod = matrix_M(r) @ matrix_M(s) @ matrix_M(t)
        ref = np.poly(np.linalg.eigvals(prod))
        assert np.max(np.abs(ref.imag)) < 1e-9
        scale = np.maximum(np.abs(coeffs), 1.0)
        assert np.max(np.abs(ref.real - coeffs) / scale) < 1e-9


def test_spectrum_N_closed_form():
    # N = O + O^T with O = M_r M_s M_t / (|r||s||t|) orthogonal has the
    # spectrum {2, -2, -2p, -2p}, p the scalar part of the unit product
    rng = np.random.default_rng(22)
    for _ in range(20):
        r, s, t = rng.standard_normal((3, 4))
        m = float(norm(r) * norm(s) * norm(t))
        o = matrix_M(r) @ matrix_M(s) @ matrix_M(t) / m
        vals, _ = jacobi_eigh(o + o.T)
        p = float(qmul(qmul(r, s), t)[0]) / m
        closed = np.sort([2.0, -2.0, -2.0 * p, -2.0 * p])
        assert np.max(np.abs(vals - closed)) < 1e-12
