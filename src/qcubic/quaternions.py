"""Quaternion arithmetic and the 4x4 structure matrices built from it.

Quaternions are plain float arrays ``[t0, t1, t2, t3]`` with the scalar
part first.  All operations broadcast over leading axes, so a stack of
shape ``(n, 4)`` works the same as a single quaternion.
"""

from __future__ import annotations

import numpy as np


def qmul(p, q) -> np.ndarray:
    """Hamilton product of two quaternions (broadcasting on leading axes),
    in the wider of float64 and the inputs' type (object ints stay)."""
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

