"""Quaternion arithmetic and the 4x4 structure matrices built from it.

Quaternions are plain float arrays ``[t0, t1, t2, t3]`` with the scalar
part first.  All operations broadcast over leading axes, so a stack of
shape ``(n, 4)`` works the same as a single quaternion.

Hamilton's convention is written once, as the sign table SIGNS of the
basis products: e_i e_j = SIGNS[i, j] e_(i XOR j), with e_0 = 1 and
e_1 e_2 = e_3.  qmul and matrix_M both read it; tests/oracles.py derives
the same table by Cayley-Dickson doubling from the reals.
"""

from __future__ import annotations

import numpy as np

SIGNS = np.array([[1, 1, 1, 1], [1, -1, 1, -1], [1, -1, -1, 1],
                  [1, 1, -1, -1]])
_ROW, _COL = np.indices((4, 4))


def qmul(p, q) -> np.ndarray:
    """Hamilton product of two quaternions (broadcasting on leading axes),
    in the wider of float64 and the inputs' type (object ints stay).

    Component k is the signed sum of p_i q_(i XOR k) over i = 0..3, in that
    order, each sign applied by adding or subtracting the product.
    """
    p, q = np.asarray(p), np.asarray(q)
    dtype = np.result_type(p, q, float)
    p, q = p.astype(dtype, copy=False), q.astype(dtype, copy=False)
    out = []
    for k in range(4):
        acc = p[..., 0] * q[..., k]  # e_0 is the unit: SIGNS[0, k] = 1
        for i in range(1, 4):
            t = p[..., i] * q[..., i ^ k]
            acc = acc + t if SIGNS[i, i ^ k] > 0 else acc - t
        out.append(acc)
    return np.stack(out, axis=-1)


def qconj(q) -> np.ndarray:
    """Quaternion conjugate: flip the sign of the vector part."""
    q = np.asarray(q, dtype=float)
    out = q.copy()
    out[..., 1:] = -out[..., 1:]
    return out


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

    So entry (r, c) is s_(r XOR c), the coefficient of q_c in component r
    of q * q_s, with sign SIGNS[c, r XOR c], negated in rows r > 0 by the
    conjugate.  The signs are applied by negation, never by multiplying
    by -1, so every bit of each entry is that of +-s_j.
    """
    m = np.asarray(s, dtype=float)[..., _ROW ^ _COL]
    return np.where((_ROW > 0) == (SIGNS[_COL, _ROW ^ _COL] > 0), -m, m)
