"""Symmetric eigensolvers.

Two routes are kept on purpose:

* ``jacobi_eigh`` is a self-contained cyclic Jacobi rotation solver.  It is
  the reference implementation: deterministic, dependency-free, and easy to
  audit.  verify-spectral's ``band_report_path`` check and the tests run it.
* ``eigvalsh_desc`` / ``eigh_desc`` and the ascending ``*_asc`` wrap LAPACK
  (via numpy) for large batches; no other module calls numpy's eigensolvers.
  The test suite pins the two routes against each other.

``_fanned`` splits a stack over the process's CPUs.  Its worker threads run
only ``np.linalg.eigvalsh``/``eigh``, looked up at call time, so a profiler
wrapping those two still counts every row: overlapping spans of one name sum
exactly, while other spans interleaved across threads would not nest.
"""

from __future__ import annotations

import functools
import os

import numpy as np

# Jacobi's off-diagonal stop at |mat|_F in (4, 8], where sqrt(24) lies.
JACOBI_TOL = 1e-13
JACOBI_MAX_SWEEPS = 40
ROW_BLOCK = 1024  # rows per block of a batched 12x12 sweep (_row_blocked)
_CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
_pool = []  # ThreadPoolExecutor(_CPUS - 1) of _fanned, made on first split
if hasattr(os, "register_at_fork"):  # a forked child has none of its threads
    os.register_at_fork(after_in_child=_pool.clear)


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


def jacobi_eigh(mat):
    """Eigendecomposition of a symmetric matrix by cyclic Jacobi rotations.

    Returns ``(values, vectors)`` with eigenvalues sorted in descending
    order and eigenvectors as the matching columns of an orthogonal matrix.
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
    order = np.argsort(-vals, kind="stable")
    return vals[order], v[:, order]


def _fanned(name: str, mats):
    """np.linalg.<name> of mats; a stack of 128 rows or more in one contiguous
    chunk of >= 64 rows per CPU, joined in order (LAPACK solves each alone)."""
    solve, mats = getattr(np.linalg, name), np.asarray(mats)
    chunks = min(_CPUS, len(mats) // 64) if mats.ndim > 2 else 1
    if chunks < 2:
        return solve(mats)
    if not _pool:
        from concurrent.futures import ThreadPoolExecutor
        _pool.append(ThreadPoolExecutor(_CPUS - 1))
    cut = [len(mats) * k // chunks for k in range(chunks + 1)]
    todo = [_pool[0].submit(solve, mats[a:b]) for a, b in zip(cut[1:], cut[2:])]
    parts = [solve(mats[:cut[1]])] + [t.result() for t in todo]
    return (tuple(map(np.concatenate, zip(*parts))) if name == "eigh"
            else np.concatenate(parts))


eigvalsh_asc = functools.partial(_fanned, "eigvalsh")  # ascending values
eigh_asc = functools.partial(_fanned, "eigh")  # ascending (values, vectors)


def eigvalsh_desc(mats: np.ndarray) -> np.ndarray:
    """Descending eigenvalues of a symmetric matrix or a stack of them."""
    return eigvalsh_asc(mats)[..., ::-1]


def eigh_desc(mats: np.ndarray):
    """Descending eigendecomposition (values, column vectors) via LAPACK."""
    return tuple(part[..., ::-1] for part in eigh_asc(mats))
