"""Central finite differences on unit-scale inputs, over stacks of points."""

from __future__ import annotations

import numpy as np

FD_STEP = 1e-5


def _central(f, x, h: float) -> np.ndarray:
    """(f(x + h e_i) - f(x - h e_i)) / 2h at points x of shape (..., n),
    indexed (..., i) for scalar f and (..., i, out) for vector f.  f is
    called once per sign, on all n shifted copies of every point."""
    x = np.asarray(x, dtype=float)
    step = h * np.eye(x.shape[-1])
    plus = np.asarray(f(x[..., None, :] + step))
    minus = np.asarray(f(x[..., None, :] - step))
    return (plus - minus) / (2.0 * h)


def fd_gradient(f, x, h: float = FD_STEP) -> np.ndarray:
    """Central-difference gradient of a scalar function at points (..., n)."""
    return _central(f, x, h)


def fd_jacobian(f, x, h: float = FD_STEP) -> np.ndarray:
    """Central-difference Jacobian of a vector function at points (..., n);
    rows are outputs, columns inputs."""
    return np.swapaxes(_central(f, x, h), -1, -2)


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
