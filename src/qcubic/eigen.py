"""Symmetric eigensolvers.

Two routes are kept on purpose:

* ``jacobi_eigh`` is a self-contained cyclic Jacobi rotation solver.  It is
  the reference implementation: deterministic, dependency-free, and easy to
  audit.  verify-spectral's ``band_report_path`` check and the tests run it.
* ``eigvalsh_desc`` / ``eigh_desc`` are thin wrappers over LAPACK (via
  numpy) used on large batches, where a pure-python sweep loop would blow
  the runtime budget.  The test suite pins the two routes against each
  other, so the fast path never drifts from the reference.
"""

from __future__ import annotations

import functools

import numpy as np

# Jacobi's off-diagonal stop at |mat|_F in (4, 8], where sqrt(24) lies.
JACOBI_TOL = 1e-13
JACOBI_MAX_SWEEPS = 40
ROW_BLOCK = 1024  # rows per block of a batched 12x12 sweep (_row_blocked)


def _row_blocked(kernel):
    """Run a row-wise batched kernel on ROW_BLOCK-row blocks of its array
    arguments and concatenate its results (a tuple's elementwise).  A block
    of 12x12 stacks stays in cache, and no result depends on the block:
    LAPACK solves each matrix alone, and a matrix product rounds every row
    alike once a block has two rows, so a one-row block is padded to two."""
    @functools.wraps(kernel)
    def blocked(*arrays):
        n = len(arrays[0])
        parts = []
        for start in range(0, max(n, 1), ROW_BLOCK):
            block = [a[start:start + ROW_BLOCK] for a in arrays]
            rows = len(block[0])
            out = kernel(*(np.repeat(a, 2, axis=0) if rows == 1 else a
                           for a in block))
            parts.append([o[:rows] for o in out] if isinstance(out, tuple)
                         else out[:rows])
        if isinstance(parts[0], list):
            return tuple(map(np.concatenate, zip(*parts)))
        return np.concatenate(parts)
    return blocked


def _offdiag_norm(a: np.ndarray) -> float:
    mask = ~np.eye(a.shape[0], dtype=bool)
    return float(np.sqrt(np.sum(a[mask] ** 2)))


def jacobi_eigh(mat, tol: float = JACOBI_TOL, max_sweeps: int = JACOBI_MAX_SWEEPS):
    """Eigendecomposition of a symmetric matrix by cyclic Jacobi rotations.

    Returns ``(values, vectors)`` with eigenvalues sorted in descending
    order and eigenvectors as the matching columns of an orthogonal matrix.
    Sweeps stop at off-diagonal Frobenius norm <= ``tol * 2**(e - 3)``, with
    ``2**(e-1) <= |mat|_F < 2**e``, so ``2**k * mat`` rotates as ``mat``.

    Raises ValueError unless square with max|mat - mat^T| <= 1e-10 max|mat|.
    """
    a = np.array(mat, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("jacobi_eigh expects a square matrix")
    if not np.max(np.abs(a - a.T)) <= 1e-10 * np.max(np.abs(a)):
        raise ValueError("jacobi_eigh expects a symmetric matrix")
    a = (a + a.T) / 2.0
    n = a.shape[0]
    v = np.eye(n)
    stop = np.ldexp(tol, int(np.frexp(np.linalg.norm(a))[1]) - 3)

    for _ in range(max_sweeps):
        if _offdiag_norm(a) <= stop:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if abs(apq) < 1e-300:
                    continue
                # Smaller-angle root t = sign(tau) / (|tau| + sqrt(1 + tau^2));
                # past |tau| = 1e150 the root is |tau| and tau^2 would overflow.
                tau = (a[q, q] - a[p, p]) / (2.0 * apq)
                at = abs(tau)
                t = 1.0 / (at + (np.sqrt(1.0 + at * at) if at < 1e150 else at))
                t = -t if tau < 0 else t
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = t * c

                rp = a[p, :].copy()
                rq = a[q, :].copy()
                a[p, :] = c * rp - s * rq
                a[q, :] = s * rp + c * rq
                cp = a[:, p].copy()
                cq = a[:, q].copy()
                a[:, p] = c * cp - s * cq
                a[:, q] = s * cp + c * cq

                vp = v[:, p].copy()
                vq = v[:, q].copy()
                v[:, p] = c * vp - s * vq
                v[:, q] = s * vp + c * vq

    vals = np.diag(a).copy()
    order = np.argsort(-vals, kind="stable")
    return vals[order], v[:, order]


def eigvalsh_desc(mats: np.ndarray) -> np.ndarray:
    """Descending eigenvalues of a symmetric matrix or a stack of them.

    LAPACK-backed fast path; agreement with :func:`jacobi_eigh` is enforced
    by the test suite.
    """
    return np.linalg.eigvalsh(mats)[..., ::-1]


def eigh_desc(mats: np.ndarray):
    """Descending eigendecomposition (values, column vectors) via LAPACK."""
    vals, vecs = np.linalg.eigh(mats)
    return vals[..., ::-1], vecs[..., ::-1]
