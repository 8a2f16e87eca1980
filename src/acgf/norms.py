"""Smoothed Euclidean norm.

The smoothing family is f_delta(w) = sqrt(|w|^2 + delta^2) - delta, a C^infty
convex regularization of |.| with f_delta(0) = 0, gradient norm strictly
below 1, and the uniform band |f_delta(w) - |w|| <= delta. ``smoothed`` is the
one copy of the formula: every ``energy.Evaluation`` and ``SmoothedNorm`` read it.
"""

import numpy as np

from .errors import ConfigError
from .meshes import rowdot


def smoothed(w, delta):
    """(|w|^2, s^2, s, w / s) per row of an (n, dim) array w, s = sqrt(|w|^2 + delta^2)."""
    w2 = rowdot(w, w)
    s2 = w2 + delta**2
    s = np.sqrt(s2)
    return w2, s2, s, w / s[:, None]


class SmoothedNorm:
    """sqrt(|w|^2 + delta^2) - delta on R^dim, components on the last axis, and its gradient."""

    def __init__(self, delta, dim):
        delta = float(delta)
        if not (0.0 < delta <= 1.0):
            raise ConfigError(f"delta must lie in (0, 1], got {delta}")
        if dim not in (1, 2):
            raise ConfigError(f"dim must be 1 or 2, got {dim}")
        self.delta = delta
        self.dim = int(dim)

    def _rows(self, omega):
        omega = np.asarray(omega, dtype=float)
        if omega.shape[-1] != self.dim:
            raise ValueError(f"expected last axis {self.dim}, got shape {omega.shape}")
        return omega.shape[:-1], smoothed(omega.reshape(-1, self.dim), self.delta)

    def eval(self, omega):
        shape, (_, _, s, _) = self._rows(omega)
        return (s - self.delta).reshape(shape)

    def grad(self, omega):
        shape, (_, _, _, flux) = self._rows(omega)
        return flux.reshape(shape + (self.dim,))
