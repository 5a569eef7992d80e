"""Symmetric eigensolvers.

Two routes are kept on purpose, and both return eigenvalues in ascending
order, with the matching eigenvector columns:

* ``jacobi_eigh`` is a self-contained cyclic Jacobi rotation solver.  It is
  the reference implementation: deterministic, dependency-free, and easy to
  audit.  verify-spectral's ``band_report_path`` check and the tests run it.
* ``eigvalsh_asc`` / ``eigh_asc`` wrap LAPACK (via numpy) for large
  batches; no other module calls numpy's eigensolvers.  A caller that
  wants the paper's descending labels l1 >= ... >= l12 reads the rows from
  the end.  The test suite pins the two routes against each other.

numpy's solvers are looked up at call time, so a wrapper on them (perfbench's
tracer, a test spy) counts every row.
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
    of 12x12 stacks stays in cache, and no result depends on the block
    (tests/test_row_blocks.py holds each blocked kernel to one unblocked
    call): LAPACK solves each matrix alone, the kernels' other products act
    on one 12x12 matrix or row at a time, and symspace rounds every row of
    a coordinate product alike in any stack."""
    @functools.wraps(kernel)
    def blocked(*arrays):
        parts = [kernel(*(a[start:start + ROW_BLOCK] for a in arrays))
                 for start in range(0, max(len(arrays[0]), 1), ROW_BLOCK)]
        if isinstance(parts[0], tuple):
            return tuple(map(np.concatenate, zip(*parts)))
        return np.concatenate(parts)
    return blocked


def _offdiag_norm(a: np.ndarray) -> float:
    mask = ~np.eye(a.shape[0], dtype=bool)
    return float(np.sqrt(np.sum(a[mask] ** 2)))


def jacobi_eigh(mat):
    """Eigendecomposition of a symmetric matrix by cyclic Jacobi rotations.

    Returns ``(values, vectors)`` with eigenvalues sorted in ascending
    order, as LAPACK returns them, and eigenvectors as the matching columns
    of an orthogonal matrix (a stable sort: tied eigenvalues keep their
    diagonal order).
    At most JACOBI_MAX_SWEEPS sweeps, stopping at off-diagonal Frobenius
    norm <= ``JACOBI_TOL * 2**(e - 3)``, with ``2**(e-1) <= |mat|_F < 2**e``,
    so ``2**k * mat`` rotates as ``mat``.

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
    stop = np.ldexp(JACOBI_TOL, int(np.frexp(np.linalg.norm(a))[1]) - 3)

    for _ in range(JACOBI_MAX_SWEEPS):
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
    order = np.argsort(vals, kind="stable")
    return vals[order], v[:, order]


def eigvalsh_asc(mats: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a symmetric matrix or a stack of them."""
    return np.linalg.eigvalsh(mats)


def eigh_asc(mats: np.ndarray):
    """Ascending eigendecomposition (values, column vectors) via LAPACK."""
    return np.linalg.eigh(mats)

