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

