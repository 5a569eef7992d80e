"""Seeded random sampling helpers.

All sweeps draw from numpy Generators seeded through SeedSequence spawn
keys, one stream per suite, so every run of a given configuration sees
the same numbers regardless of how the suites are interleaved.
"""

from __future__ import annotations

import numpy as np

# Fixed stream ids, one per consumer.  Appending is fine; reordering is not.
STREAM_SPECTRAL = 1
STREAM_PERP = 2
STREAM_HESSIAN = 3
STREAM_WITNESS = 4
STREAM_THIRD = 5
STREAM_SIGMA = 6
STREAM_HELDOUT = 7
STREAM_ELLIPTIC = 8
STREAM_VISCOSITY = 9
STREAM_CONE = 10
STREAM_FDCHECK = 11

PAIR_CHUNK = 20_000  # pairs drawn per block by unit_pairs


def rng_for(seed: int, stream: int) -> np.random.Generator:
    """Deterministic per-stream generator derived from the master seed."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(stream,)))


def unit_sphere(rng: np.random.Generator, count: int, dim: int = 12) -> np.ndarray:
    """Uniform points on the unit sphere: normalized Gaussian vectors."""
    v = rng.standard_normal((count, dim))
    norms = np.linalg.norm(v, axis=-1, keepdims=True)
    # A zero draw has probability 0; tiny norms get resampled by rejection.
    bad = norms[:, 0] < 1e-8
    while np.any(bad):
        v[bad] = rng.standard_normal((int(bad.sum()), dim))
        norms = np.linalg.norm(v, axis=-1, keepdims=True)
        bad = norms[:, 0] < 1e-8
    return v / norms


def directions(rng: np.random.Generator, count: int) -> np.ndarray:
    """Random direction vectors in R^12 of norm sqrt(3)."""
    return unit_sphere(rng, count, 12) * np.sqrt(3.0)


def unit_pairs(rng: np.random.Generator, count: int, min_sep: float):
    """Yield blocks (a, b) of uniform unit-point pairs, count pairs in all,
    PAIR_CHUNK at a time (a block's a, then its b), less the pairs closer
    than min_sep."""
    for start in range(0, count, PAIR_CHUNK):
        a = unit_sphere(rng, min(PAIR_CHUNK, count - start))
        b = unit_sphere(rng, a.shape[0])
        keep = np.linalg.norm(a - b, axis=1) >= min_sep
        yield a[keep], b[keep]
