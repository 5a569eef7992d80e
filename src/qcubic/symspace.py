"""Coordinates on the 78-dimensional space of symmetric 12x12 matrices.

The inner product throughout is trace(a b).  The basis is frozen:

* index 0: the normalized identity I/sqrt(12) (the "s" axis),
* indices 1..11: traceless diagonal matrices, Helmert pattern
  diag(1,...,1,-k,0,...,0)/sqrt(k(k+1)) with k ones,
* indices 12..77: off-diagonal pairs (E_ij + E_ji)/sqrt(2) in
  lexicographic (i, j) order, i < j.

A symmetric matrix splits as ``mat = s * I/sqrt(12) + embed(z)`` where
``s = trace(mat)/sqrt(12)`` and z holds the 77 traceless coordinates.
Conversions are explicit; nothing here normalizes silently.
"""

from __future__ import annotations

import numpy as np

N = 12
DIM_Z = 77  # traceless coordinates: 11 diagonal + 66 off-diagonal


def _build_basis() -> np.ndarray:
    basis = np.zeros((DIM_Z + 1, N, N))
    basis[0] = np.eye(N) / np.sqrt(N)
    for k in range(1, N):
        d = np.zeros(N)
        d[:k] = 1.0
        d[k] = -float(k)
        basis[k] = np.diag(d / np.sqrt(k * (k + 1)))
    idx = N
    for i in range(N):
        for j in range(i + 1, N):
            basis[idx, i, j] = basis[idx, j, i] = 1.0 / np.sqrt(2.0)
            idx += 1
    return basis


_BASIS = _build_basis()
_BASIS_FLAT = _BASIS.reshape(DIM_Z + 1, N * N)


def _rowwise(rows: np.ndarray, mat: np.ndarray) -> np.ndarray:
    """rows @ mat for rows of shape (..., k), each row rounded as in a
    stack of 16 rows or more, so bitwise the same in any stack: OpenBLAS
    (0.3.31) takes another GEMM kernel below 16 rows, and a shorter stack
    is padded with zero rows."""
    flat = rows.reshape(-1, rows.shape[-1])
    n = len(flat)
    if n < 16:
        flat = np.concatenate([flat, np.zeros((16 - n, flat.shape[1]))])
    return (flat @ mat)[:n].reshape(rows.shape[:-1] + mat.shape[-1:])


def to_coords(mat: np.ndarray):
    """Split symmetric matrices into (z, s) coordinates.

    mat: (..., 12, 12) symmetric.  Returns z of shape (..., 77) and s of
    shape (...,); s * sqrt(12) is the trace.
    """
    mat = np.asarray(mat, dtype=float)
    coords = _rowwise(mat.reshape(mat.shape[:-2] + (N * N,)), _BASIS_FLAT.T)
    return coords[..., 1:], coords[..., 0]


def embed_traceless(z: np.ndarray) -> np.ndarray:
    """Traceless symmetric matrix with coordinates z (zero s component)."""
    z = np.asarray(z, dtype=float)
    return _rowwise(z, _BASIS_FLAT[1:]).reshape(z.shape[:-1] + (N, N))
