"""Central finite differences on unit-scale inputs."""

from __future__ import annotations

import numpy as np

FD_STEP = 1e-5


def fd_gradient(f, x, h: float = FD_STEP) -> np.ndarray:
    """Central-difference gradient of a scalar function."""
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (f(x + e) - f(x - e)) / (2.0 * h)
    return g


def fd_jacobian(f, x, h: float = FD_STEP) -> np.ndarray:
    """Central-difference Jacobian of a vector function (rows = outputs)."""
    x = np.asarray(x, dtype=float)
    cols = []
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        cols.append((np.asarray(f(x + e)) - np.asarray(f(x - e))) / (2.0 * h))
    return np.stack(cols, axis=-1)


def fd_hessian_from_values(f, x, h: float = 1e-4) -> np.ndarray:
    """Second differences of function values.  Coarse (roundoff ~ eps/h^2)."""
    x = np.asarray(x, dtype=float)
    n = x.size
    out = np.zeros((n, n))
    f0 = f(x)
    for i in range(n):
        ei = np.zeros(n)
        ei[i] = h
        out[i, i] = (f(x + ei) - 2.0 * f0 + f(x - ei)) / (h * h)
        for j in range(i + 1, n):
            ej = np.zeros(n)
            ej[j] = h
            v = (f(x + ei + ej) - f(x + ei - ej) - f(x - ei + ej) + f(x - ei - ej)) / (4.0 * h * h)
            out[i, j] = out[j, i] = v
    return out

