"""Quaternion arithmetic and the 4x4 structure matrices built from it.

Quaternions are plain float arrays ``[t0, t1, t2, t3]`` with the scalar
part first.  All operations broadcast over leading axes, so a stack of
shape ``(n, 4)`` works the same as a single quaternion.
"""

from __future__ import annotations

import numpy as np

DEGENERATE_NORM = 1e-12


def qmul(p, q) -> np.ndarray:
    """Hamilton product of two quaternions (broadcasting on leading axes),
    in the wider of float64 and the inputs' float type (longdouble stays)."""
    p, q = np.asarray(p), np.asarray(q)
    dtype = np.result_type(p, q, float)
    p, q = p.astype(dtype, copy=False), q.astype(dtype, copy=False)
    p0, p1, p2, p3 = p[..., 0], p[..., 1], p[..., 2], p[..., 3]
    q0, q1, q2, q3 = q[..., 0], q[..., 1], q[..., 2], q[..., 3]
    return np.stack(
        [
            p0 * q0 - p1 * q1 - p2 * q2 - p3 * q3,
            p0 * q1 + p1 * q0 + p2 * q3 - p3 * q2,
            p0 * q2 - p1 * q3 + p2 * q0 + p3 * q1,
            p0 * q3 + p1 * q2 - p2 * q1 + p3 * q0,
        ],
        axis=-1,
    )


def qconj(q) -> np.ndarray:
    """Quaternion conjugate: flip the sign of the vector part."""
    q = np.asarray(q, dtype=float)
    out = q.copy()
    out[..., 1:] = -out[..., 1:]
    return out


def qnorm(q) -> np.ndarray:
    """Euclidean norm."""
    return np.linalg.norm(np.asarray(q, dtype=float), axis=-1)


def matrix_M(s) -> np.ndarray:
    """The 4x4 structure matrix of a quaternion ``s``.

    Its rows, in terms of the components of ``s``:

        ( s0, -s1, -s2, -s3)
        (-s1, -s0, -s3,  s2)
        (-s2,  s3, -s0, -s1)
        (-s3, -s2,  s1, -s0)

    Acting on column vectors it represents the map q -> conj(q * q_s);
    equivalently, acting on row vectors, q -> conj(q) * conj(q_s).
    Broadcasts: input of shape (..., 4) gives output (..., 4, 4).
    """
    s = np.asarray(s, dtype=float)
    s0, s1, s2, s3 = s[..., 0], s[..., 1], s[..., 2], s[..., 3]
    rows = [
        [s0, -s1, -s2, -s3],
        [-s1, -s0, -s3, s2],
        [-s2, s3, -s0, -s1],
        [-s3, -s2, s1, -s0],
    ]
    return np.stack([np.stack(r, axis=-1) for r in rows], axis=-2)


def matrix_O(s) -> np.ndarray:
    """Orthogonal normalization M_s / |s|.  Degenerate input raises."""
    s = np.asarray(s, dtype=float)
    n = qnorm(s)
    if np.any(n < DEGENERATE_NORM):
        raise ValueError("matrix_O: degenerate input quaternion (norm < 1e-12)")
    return matrix_M(s) / n[..., None, None]


def verify_endomorphism(s, q, tol: float = 1e-12) -> bool:
    """Check that matrix_M(s) applied to q's coordinates gives conj(q * q_s).

    Under the row-vector convention this is the map q -> conj(q)*conj(q_s).
    Both readings are exercised; they are transposes of one another.
    """
    s = np.asarray(s, dtype=float)
    q = np.asarray(q, dtype=float)
    m = matrix_M(s)
    col = m @ q
    row = q @ m
    scale = max(1.0, float(qnorm(s) * qnorm(q)))
    ok_col = np.allclose(col, qconj(qmul(q, s)), atol=tol * scale)
    ok_row = np.allclose(row, qmul(qconj(q), qconj(s)), atol=tol * scale)
    return bool(ok_col and ok_row)


def char_poly_M(s) -> np.ndarray:
    """Coefficients (highest degree first) of det(xI - M_s).

    Closed form: (x^2 - |s|^2) (x^2 + 2 s0 x + |s|^2).
    """
    s = np.asarray(s, dtype=float)
    n2 = float(np.dot(s, s))
    s0 = float(s[0])
    # (x^2 - n2)(x^2 + 2 s0 x + n2)
    return np.array([1.0, 2.0 * s0, 0.0, -2.0 * s0 * n2, -(n2 ** 2)])


def char_poly_Mrs(r, s) -> np.ndarray:
    """Coefficients of det(xI - M_r^T M_s) = (x^2 - 2(r,s)x + |r|^2|s|^2)^2.

    A two-factor product does NOT follow the single-matrix or triple-product
    pattern; its characteristic polynomial is a perfect square.  Note the
    transpose on the first factor: the plain product M_r M_s is the two-sided
    multiplication q -> conj(r) q s, whose real parts are r0 s0 +- |rv||sv|,
    not the scalar product (r,s).  M_r^T M_s (equivalently M_r M_s^T) is a
    one-sided multiplication and does give the squared quadratic.  Quartic,
    so five coefficients.
    """
    r = np.asarray(r, dtype=float)
    s = np.asarray(s, dtype=float)
    u = float(np.dot(r, s))
    w = float(np.dot(r, r) * np.dot(s, s))
    # (x^2 - 2u x + w)^2
    return np.array(
        [1.0, -4.0 * u, 4.0 * u * u + 2.0 * w, -4.0 * u * w, w * w]
    )


def char_poly_Mrst(r, s, t) -> np.ndarray:
    """Coefficients of det(xI - M_r M_s M_t).

    Closed form: (x^2 - m^2)(x^2 + 2 p x + m^2) with m = |r||s||t| and
    p the scalar part of q_r * q_s * q_t.
    """
    r = np.asarray(r, dtype=float)
    s = np.asarray(s, dtype=float)
    t = np.asarray(t, dtype=float)
    m = float(qnorm(r) * qnorm(s) * qnorm(t))
    p = float(qmul(qmul(r, s), t)[..., 0])
    return np.array([1.0, 2.0 * p, 0.0, -2.0 * p * m * m, -(m ** 4)])


def spectrum_N(r, s, t) -> np.ndarray:
    """Closed-form spectrum of N = O + O^T, O = M_r M_s M_t / (|r||s||t|).

    Returns the four values {2, -2, -2p, -2p} (descending), where p is the
    scalar part of the unit quaternion product.  Degenerate input raises.
    """
    r = np.asarray(r, dtype=float)
    s = np.asarray(s, dtype=float)
    t = np.asarray(t, dtype=float)
    norms = qnorm(r) * qnorm(s) * qnorm(t)
    if np.any(qnorm(r) < DEGENERATE_NORM) or np.any(qnorm(s) < DEGENERATE_NORM) \
            or np.any(qnorm(t) < DEGENERATE_NORM):
        raise ValueError("spectrum_N: degenerate input quaternion (norm < 1e-12)")
    p = float(qmul(qmul(r, s), t)[..., 0]) / float(norms)
    vals = np.array([2.0, -2.0, -2.0 * p, -2.0 * p])
    return np.sort(vals)[::-1]


def matrix_N(r, s, t) -> np.ndarray:
    """N = O_rst + O_rst^T, the symmetrized normalized triple product."""
    o = matrix_O(r) @ matrix_O(s) @ matrix_O(t)
    return o + np.swapaxes(o, -1, -2)
