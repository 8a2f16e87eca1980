"""Discrete energies on a coupled bulk/boundary field and their gradients.

The regularized convex energy of a nodal field u is

    sum_cells [ f_delta(grad u) + (kappa^2/2) |grad u|^2 ] * cell_weight
  + sum_nodes   env_B(u)        * w_bulk
  + (1/2) sum_segments |d/ds (eps * u)|^2 * seg_weight        (eps > 0 only)
  + sum_bnodes  env_BG(u)       * w_bdry,

where env_* are Moreau envelopes at the shared parameter lam. Its exact
counterpart replaces f_delta by the Euclidean norm and the envelopes by
the exact wells (so it may be +inf), and the full free energy adds the
smooth non-convex perturbation.

Gradients are returned against the discrete product inner product: the
nodal partial derivatives are divided by the quadrature mass so that
h_inner(grad, v) equals the directional derivative along v. Without this
reweighting the time stepping would silently run a mass-lumped variant
with mesh-dependent speed.

The eps = 0 path skips the surface term entirely instead of multiplying
by zero, so an interval mesh and a disc at eps = 0 assemble identically
apart from the boundary wells.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import dsbmv

from .errors import ConfigError
from .meshes import PACKED, bulk_gradient, h_norm, surface_gradient
from .norms import SmoothedNorm
from .potentials import ScalarConvexPotential


# ---------------------------------------------------------------------------
# smooth perturbation (the non-convex part of the double well)

class _PerturbationPart:
    lipschitz = 0.0

    def g(self, r):
        raise NotImplementedError

    def G(self, r):
        raise NotImplementedError


class NonePart(_PerturbationPart):
    kind = "none"

    def g(self, r):
        return np.zeros_like(np.asarray(r, dtype=float))

    G = g


class NegQuadraticPart(_PerturbationPart):
    """G(s) = -s^2/2 on the well domain, extended C^1 with clamped slope."""

    kind = "neg_quadratic"
    lipschitz = 1.0

    def __init__(self, lo, hi):
        self.lo, self.hi = lo, hi

    def g(self, r):
        return -np.clip(np.asarray(r, dtype=float), self.lo, self.hi)

    def G(self, r):
        r = np.asarray(r, dtype=float)
        p = np.clip(r, self.lo, self.hi)
        return -0.5 * p * p - p * (r - p)


class TabulatedPart(_PerturbationPart):
    """Piecewise-linear derivative g through (t, g(t)) samples, flat outside."""

    kind = "tabulated"

    def __init__(self, points):
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 2:
            raise ConfigError("tabulated perturbation needs >= 2 (t, g) pairs")
        order = np.argsort(pts[:, 0])
        self.ts = pts[order, 0]
        self.gs = pts[order, 1]
        if np.any(np.diff(self.ts) <= 0.0):
            raise ConfigError("tabulated perturbation breakpoints must increase")
        self.slopes = np.diff(self.gs) / np.diff(self.ts)
        self.lipschitz = float(np.max(np.abs(self.slopes))) if len(self.slopes) else 0.0
        # antiderivative at the breakpoints (trapezoid is exact for linear g)
        seg = 0.5 * (self.gs[1:] + self.gs[:-1]) * np.diff(self.ts)
        self.As = np.concatenate([[0.0], np.cumsum(seg)])
        self.A0 = float(self._antideriv(np.asarray(0.0)))

    def _flat_tail(self, r):
        below = np.minimum(r - self.ts[0], 0.0) * self.gs[0]
        above = np.maximum(r - self.ts[-1], 0.0) * self.gs[-1]
        return below + above

    def _antideriv(self, r):
        # piecewise quadratic inside the table, linear continuation outside
        rc = np.clip(r, self.ts[0], self.ts[-1])
        idx = np.clip(np.searchsorted(self.ts, rc, side="right") - 1, 0, len(self.slopes) - 1)
        dt = rc - self.ts[idx]
        inner = self.As[idx] + self.gs[idx] * dt + 0.5 * self.slopes[idx] * dt * dt
        return inner + self._flat_tail(r)

    def g(self, r):
        return np.interp(np.asarray(r, dtype=float), self.ts, self.gs)

    def G(self, r):
        return self._antideriv(np.asarray(r, dtype=float)) - self.A0


class SmoothPerturbation:
    """Bulk and boundary perturbation pair with a recorded Lipschitz constant."""

    def __init__(self, bulk_part, bdry_part=None):
        self.bulk = bulk_part
        self.bdry = bdry_part if bdry_part is not None else bulk_part
        self.lipschitz = max(self.bulk.lipschitz, self.bdry.lipschitz)

    @staticmethod
    def none():
        return SmoothPerturbation(NonePart())

    @staticmethod
    def neg_quadratic(lo=-1.0, hi=1.0):
        return SmoothPerturbation(NegQuadraticPart(lo, hi))


# ---------------------------------------------------------------------------
# parameters and forcing

@dataclass(frozen=True)
class EnergyParams:
    kappa: float
    eps: float
    delta: float
    lam: float
    bulk_potential: ScalarConvexPotential
    bdry_potential: ScalarConvexPotential
    perturbation: SmoothPerturbation

    def __post_init__(self):
        # the energy weighs gradients by kappa**2 and eps**2, which must not overflow
        if not (math.isfinite(self.kappa * self.kappa) and self.kappa > 0.0):
            raise ConfigError(f"kappa must be positive with a finite square, got {self.kappa}")
        if not (math.isfinite(self.eps * self.eps) and self.eps >= 0.0):
            raise ConfigError(f"eps must be nonnegative with a finite square, got {self.eps}")
        if not (0.0 < self.delta <= 1.0):
            raise ConfigError(f"delta must lie in (0, 1], got {self.delta}")
        if not (0.0 < self.lam <= 1.0):
            raise ConfigError(f"lambda must lie in (0, 1], got {self.lam}")
        if not self.bulk_potential.same_domain(self.bdry_potential):
            raise ConfigError("bulk and boundary potentials must share one domain interval")

    def norm(self, mesh):
        return SmoothedNorm(self.delta, mesh.dim)

    def replace(self, **kw):
        from dataclasses import replace as _replace

        return _replace(self, **kw)


class ForcingField:
    """Nodal forcing, piecewise constant in time; None encodes zero."""

    def __init__(self, times, fields, offset=None):
        self.times = np.asarray(times, dtype=float)
        self.fields = fields
        self.offset = offset
        if len(self.times) != len(self.fields) or len(self.times) == 0:
            raise ConfigError("forcing needs matching, nonempty times and fields")
        if self.times[0] > 0.0 or np.any(np.diff(self.times) <= 0.0):
            raise ConfigError("forcing times must start at 0 and strictly increase")

    @classmethod
    def zero(cls):
        return cls([0.0], [None])

    @classmethod
    def constant(cls, mesh, bulk_value, bdry_value):
        field = np.full(mesh.num_nodes, float(bulk_value))
        field[mesh.boundary_nodes] = float(bdry_value)
        return cls([0.0], [field])

    @classmethod
    def tabulated(cls, mesh, times, bulk_values, bdry_values):
        if not (len(times) == len(bulk_values) == len(bdry_values)):
            raise ConfigError("forcing series lengths must match")
        fields = []
        for cb, cg in zip(bulk_values, bdry_values):
            f = np.full(mesh.num_nodes, float(cb))
            f[mesh.boundary_nodes] = float(cg)
            fields.append(f)
        return cls(times, fields)

    def at_time(self, t):
        k = int(np.searchsorted(self.times, t + 1e-12, side="right")) - 1
        f = self.fields[max(k, 0)]
        if self.offset is None:
            return f
        return self.offset if f is None else f + self.offset

    def with_offset(self, field):
        off = field if self.offset is None else self.offset + field
        return ForcingField(self.times, self.fields, off)

    def l2h_norm_sq(self, mesh, tau, steps):
        """sum over steps of tau * |forcing at that step|_H^2."""
        total = 0.0
        for n in range(steps):
            f = self.at_time(n * tau)
            if f is not None:
                total += tau * h_norm(mesh, f) ** 2
        return total


# ---------------------------------------------------------------------------
# assembly

def _convex_terms(mesh, p, u):
    """Regularized convex energy split: (tv, quad, bulk_pot, surface, bdry_pot)."""
    g = bulk_gradient(mesh, u)
    f = p.norm(mesh)
    tv = float(np.dot(f.eval(g), mesh.cell_weights))
    quad = 0.5 * p.kappa**2 * float(np.dot(np.einsum("nd,nd->n", g, g), mesh.cell_weights))
    bulk_pot = float(np.dot(np.asarray(p.bulk_potential.envelope(p.lam, u)), mesh.w_bulk))
    surf = 0.0
    if p.eps > 0.0 and mesh.seg_nodes.shape[0]:
        sg = surface_gradient(mesh, u)
        surf = 0.5 * p.eps**2 * float(np.dot(sg * sg, mesh.seg_weights))
    ub = u[mesh.boundary_nodes]
    bdry_pot = float(np.dot(np.asarray(p.bdry_potential.envelope(p.lam, ub)), mesh.w_bdry))
    return tv, quad, bulk_pot, surf, bdry_pot


def energy_terms(mesh, p, u):
    """Regularized energy split: (tv, quad, bulk_pot, surface, bdry_pot, perturbation)."""
    return _convex_terms(mesh, p, u) + (perturbation_energy(mesh, p, u),)


def phi_regularized(mesh, p, u):
    """Value of the smoothed convex energy; always finite."""
    t = _convex_terms(mesh, p, u)
    return t[0] + t[1] + t[2] + t[3] + t[4]


def phi_exact(mesh, p, u):
    """Exact convex energy; +inf iff some node leaves the well domain."""
    u = np.asarray(u, dtype=float)
    ub = u[mesh.boundary_nodes]
    vb = np.asarray(p.bulk_potential.value(u))
    vg = np.asarray(p.bdry_potential.value(ub))
    if np.any(np.isinf(vb)) or np.any(np.isinf(vg)):
        return np.inf
    g = bulk_gradient(mesh, u)
    gn = np.sqrt(np.einsum("nd,nd->n", g, g))
    total = float(np.dot(gn, mesh.cell_weights))
    total += 0.5 * p.kappa**2 * float(np.dot(gn * gn, mesh.cell_weights))
    total += float(np.dot(vb, mesh.w_bulk)) + float(np.dot(vg, mesh.w_bdry))
    if p.eps > 0.0 and mesh.seg_nodes.shape[0]:
        sg = surface_gradient(mesh, u)
        total += 0.5 * p.eps**2 * float(np.dot(sg * sg, mesh.seg_weights))
    return total


def perturbation_energy(mesh, p, u):
    u = np.asarray(u, dtype=float)
    pe = float(np.dot(p.perturbation.bulk.G(u), mesh.w_bulk))
    pe += float(np.dot(p.perturbation.bdry.G(u[mesh.boundary_nodes]), mesh.w_bdry))
    return pe


def free_energy(mesh, p, u):
    """Exact convex energy plus the smooth perturbation; may be +inf."""
    base = phi_exact(mesh, p, u)
    if np.isinf(base):
        return np.inf
    return base + perturbation_energy(mesh, p, u)


def _grad_partial(mesh, p, u):
    """Euclidean nodal partial derivatives of the regularized energy."""
    u = np.asarray(u, dtype=float)
    g = bulk_gradient(mesh, u)
    f = p.norm(mesh)
    flux = (f.grad(g) + p.kappa**2 * g) * mesh.cell_weights[:, None]
    n = mesh.num_nodes
    out = np.bincount(mesh.cell_nodes.ravel(),
                      np.einsum("ndk,nd->nk", mesh.cell_ops, flux).ravel(), n)
    out += np.asarray(p.bulk_potential.yosida(p.lam, u)) * mesh.w_bulk
    if p.eps > 0.0 and mesh.seg_nodes.shape[0]:
        sg = surface_gradient(mesh, u)
        c = p.eps**2 * sg * mesh.seg_weights / mesh.seg_len
        out += np.bincount(mesh.seg_nodes[:, 1], c, n) - np.bincount(mesh.seg_nodes[:, 0], c, n)
    bn = mesh.boundary_nodes
    out[bn] += np.asarray(p.bdry_potential.yosida(p.lam, u[bn])) * mesh.w_bdry
    return out


def grad_phi_regularized(mesh, p, u):
    """Gradient of the regularized energy w.r.t. the product inner product."""
    return _grad_partial(mesh, p, u) / mesh.mass


def hessian(mesh, p, u, shift, dual=None):
    """Euclidean Hessian of the regularized energy at u plus diag(shift), as a band.

    Rows and columns follow ``mesh.band_order``, and entry (i, j) with
    0 <= i - j <= ``mesh.bandwidth`` sits at ``[i - j, j]`` (LAPACK lower band
    storage) of a Fortran-ordered array, so LAPACK factors it in place.
    ``shift`` is a scalar or a nodal vector. ``dual`` is an optional per-cell
    flux w that replaces grad u / s in the total-variation blocks; None gives
    the exact Hessian. Each cell's block is cell_weight * ops^T A ops with

        A = (I - (w grad u^T + grad u w^T) / (2 s)) / s + kappa^2 I,

    s = sqrt(|grad u|^2 + delta^2) (``SmoothedNorm.hess`` plus kappa^2 I). Its
    packed upper-triangle coefficients weight ``mesh.cell_products``, and one
    scatter-add into ``mesh.band_slots`` stores each symmetric pair once.
    """
    u = np.asarray(u, dtype=float)
    g = bulk_gradient(mesh, u)
    s2 = np.einsum("nd,nd->n", g, g) + p.delta**2
    s = np.sqrt(s2)
    gt = g.T
    wt = gt / s if dual is None else np.asarray(dual, dtype=float).T
    a, b = PACKED[mesh.dim]
    coef = (wt[a] * gt[b] + wt[b] * gt[a]) * (-0.5 / s2)  # (coefficient, cell)
    coef += (a == b)[:, None] * (1.0 / s + p.kappa**2)
    diag = np.asarray(p.bulk_potential.yosida_derivative(p.lam, u)) * mesh.w_bulk
    bn = mesh.boundary_nodes
    diag[bn] += np.asarray(p.bdry_potential.yosida_derivative(p.lam, u[bn])) * mesh.w_bdry
    seg = np.zeros((3, mesh.seg_nodes.shape[0]))
    if p.eps > 0.0 and mesh.seg_nodes.shape[0]:  # pairs (0, 0), (1, 0), (1, 1)
        seg = np.outer([1.0, -1.0, 1.0], p.eps**2 * mesh.seg_weights / mesh.seg_len**2)
    contrib = np.concatenate([np.einsum("rn,rcn->cn", coef, mesh.cell_products).ravel(),
                              diag + shift, seg.ravel()])
    n, rows = mesh.num_nodes, mesh.bandwidth + 1
    return np.bincount(mesh.band_slots, contrib, n * rows).reshape(n, rows).T


def hess_phi_vec(mesh, p, u, v):
    """Euclidean Hessian-vector product of the regularized energy at u."""
    order = mesh.band_order
    out = np.empty(mesh.num_nodes)
    out[order] = dsbmv(mesh.bandwidth, 1.0, hessian(mesh, p, u, 0.0), np.asarray(v, float)[order],
                       lower=1)
    return out


def euler_lagrange_residual(mesh, p, u, ustar):
    """Defect |ustar - grad(u)|_H of the pair (u, ustar) from the stationarity graph."""
    ustar = np.asarray(ustar, dtype=float)
    if ustar.shape != (mesh.num_nodes,):
        raise ValueError(f"ustar has shape {ustar.shape}, mesh has {mesh.num_nodes} nodes")
    return h_norm(mesh, ustar - grad_phi_regularized(mesh, p, u))


def gcal(mesh, p, u):
    """Riesz representative of the perturbation derivative pair [g(u), g_bdry(u)]."""
    return _perturbation_partial(mesh, p, u) / mesh.mass


def _perturbation_partial(mesh, p, u):
    u = np.asarray(u, dtype=float)
    out = p.perturbation.bulk.g(u) * mesh.w_bulk
    bn = mesh.boundary_nodes
    out[bn] += p.perturbation.bdry.g(u[bn]) * mesh.w_bdry
    return out


def is_feasible(mesh, p, u):
    """Membership of the field in the admissible class (well domain a.e.)."""
    u = np.asarray(u, dtype=float)
    return bool(p.bulk_potential.contains(u) and p.bdry_potential.contains(u[mesh.boundary_nodes]))
