"""Smoothed Euclidean norm.

The smoothing family is f_delta(w) = sqrt(|w|^2 + delta^2) - delta, a C^infty
convex regularization of |.| with f_delta(0) = 0, gradient norm strictly
below 1, and the uniform band |f_delta(w) - |w|| <= delta. Inputs carry the
vector components on the last axis.
"""

import numpy as np

from .errors import ConfigError


class SmoothedNorm:
    """sqrt(|w|^2 + delta^2) - delta on R^dim, with gradient and Hessian."""

    def __init__(self, delta, dim):
        delta = float(delta)
        if not (0.0 < delta <= 1.0):
            raise ConfigError(f"delta must lie in (0, 1], got {delta}")
        if dim not in (1, 2):
            raise ConfigError(f"dim must be 1 or 2, got {dim}")
        self.delta = delta
        self.dim = int(dim)

    def _scale(self, omega):
        omega = np.asarray(omega, dtype=float)
        if omega.shape[-1] != self.dim:
            raise ValueError(f"expected last axis {self.dim}, got shape {omega.shape}")
        return omega, np.sqrt(np.sum(omega * omega, axis=-1) + self.delta**2)

    def eval(self, omega):
        omega, s = self._scale(omega)
        return s - self.delta

    def grad(self, omega):
        omega, s = self._scale(omega)
        return omega / s[..., None]

    def hess(self, omega, dual=None):
        """(I - (w omega^T + omega w^T) / (2 s)) / s; shape (..., dim, dim).

        ``dual`` is a flux w of the same shape as ``omega``; the default
        w = omega / s gives the exact Hessian I/s - omega omega^T / s^3. For
        |w| < 1 the matrix is symmetric positive definite with eigenvalues
        at least (1 - |w| |omega| / s) / s. ``energy.hessian`` assembles the
        same blocks from their packed coefficients; this full form is the
        reference its tests compare against.
        """
        omega, s = self._scale(omega)
        w = omega / s[..., None] if dual is None else np.asarray(dual, dtype=float)
        sym = 0.5 * (w[..., :, None] * omega[..., None, :] + omega[..., :, None] * w[..., None, :])
        return (np.eye(self.dim) - sym / s[..., None, None]) / s[..., None, None]

