"""Discrete energies on a coupled bulk/boundary field and their gradients.

The regularized convex energy of a nodal field u is

    sum_cells [ f_delta(grad u) + (kappa^2/2) |grad u|^2 ] * cell_weight
  + sum_nodes   env_B(u)        * w_bulk
  + (1/2) sum_segments |d/ds (eps * u)|^2 * seg_weight
  + sum_bnodes  env_BG(u)       * w_bdry,

where env_* are Moreau envelopes at the shared parameter lam. Its exact
counterpart replaces f_delta by the Euclidean norm and the envelopes by
the exact wells (so it may be +inf), and the full free energy adds the
smooth non-convex perturbation.

Gradients are taken against the discrete product inner product: the
nodal partial derivatives (``_grad_partial``) divided by the quadrature
mass, so that h_inner(grad, v) equals the directional derivative along v.
The inner solver weighs its terms by the same mass. Without this
reweighting the time stepping would silently run a mass-lumped variant
with mesh-dependent speed.

The surface term is always assembled; at eps = 0, or on an interval,
whose boundary has no segments, it contributes exact zeros.

The value, the gradient and the Hessian band read one ``Evaluation`` of
the field, which computes once the cell gradients, s = sqrt(|grad u|^2 +
delta^2) (so f_delta = s - delta, with gradient grad u / s) by
``norms.smoothed``, the surface slopes and, per side, the well's envelope,
Yosida slope and slope derivative from one prox. Each of the three takes a
field, which it evaluates, or an Evaluation, so the inner solver evaluates
every trial point once and reuses the accepted one.
"""

import math
from dataclasses import dataclass, replace as _replace

import numpy as np
from scipy.linalg.blas import dsbmv

from .errors import ConfigError
from .meshes import PACKED, bulk_gradient, rowdot, surface_gradient
from .norms import smoothed
from .potentials import ScalarConvexPotential, breakpoints


# ---------------------------------------------------------------------------
# smooth perturbation (the non-convex part of the double well)

class NonePart:
    lipschitz = 0.0

    def g(self, r):
        return np.zeros_like(np.asarray(r, dtype=float))

    G = g


class NegQuadraticPart:
    """G(s) = -s^2/2 on the well domain, extended C^1 with clamped slope."""

    lipschitz = 1.0

    def __init__(self, lo, hi):
        self.lo, self.hi = lo, hi

    def g(self, r):
        return -np.minimum(np.maximum(np.asarray(r, dtype=float), self.lo), self.hi)

    def G(self, r):
        r = np.asarray(r, dtype=float)
        p = np.minimum(np.maximum(r, self.lo), self.hi)
        return -0.5 * p * p - p * (r - p)


class TabulatedPart:
    """Piecewise-linear derivative g through (t, g(t)) samples, flat outside."""

    def __init__(self, points):
        with np.errstate(over="ignore", invalid="ignore"):  # the table may overflow; see below
            self.ts, self.gs = breakpoints(points, "tabulated perturbation")
            self.slopes = np.diff(self.gs) / np.diff(self.ts)
            # antiderivative at the breakpoints (trapezoid is exact for linear g)
            seg = 0.5 * (self.gs[1:] + self.gs[:-1]) * np.diff(self.ts)
            self.As = np.concatenate([[0.0], np.cumsum(seg)])
            self.A0 = float(self._antideriv(np.asarray(0.0)))
        if not np.isfinite(self.slopes).all():
            raise ConfigError("tabulated perturbation slopes must be finite, got "
                              f"{self.slopes.tolist()}")
        if not (np.isfinite(self.As).all() and math.isfinite(self.A0)):
            raise ConfigError("tabulated perturbation antiderivative must be finite at the "
                              f"breakpoints and at 0, got {self.As.tolist()} and {self.A0}")
        self.lipschitz = float(np.max(np.abs(self.slopes)))

    def _antideriv(self, r):
        # piecewise quadratic inside the table, linear continuation outside
        rc = np.clip(r, self.ts[0], self.ts[-1])
        idx = np.clip(np.searchsorted(self.ts, rc, side="right") - 1, 0, len(self.slopes) - 1)
        dt = rc - self.ts[idx]
        inner = self.As[idx] + self.gs[idx] * dt + 0.5 * self.slopes[idx] * dt * dt
        return inner + (np.minimum(r - self.ts[0], 0.0) * self.gs[0]
                        + np.maximum(r - self.ts[-1], 0.0) * self.gs[-1])

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
        # every message starts with the field's name, which the config prefixes by its section
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
            raise ConfigError("bdry_potential must share the domain interval of bulk_potential")

    def replace(self, **kw):
        return _replace(self, **kw)


class ForcingField:
    """Nodal forcing, piecewise constant in time: row k of ``fields``, a float64 (times, nodes)
    array of its own, holds from times[k] on. Zero forcing is a row of zeros. A (bulk, bdry) pair
    is stored as its Riesz representative in ``h_inner``: bulk on interior nodes, and on boundary
    nodes bdry + (bulk - bdry) w_bulk / mass, which is bulk bit for bit where the two agree."""

    def __init__(self, times, fields):
        self.times = np.asarray(times, dtype=float)
        try:
            self.fields = np.array(fields, dtype=float)
        except (TypeError, ValueError):  # ragged rows, or values that are not numbers
            self.fields = np.empty(0)
        if self.fields.ndim != 2 or len(self.times) != len(self.fields) or len(self.times) == 0:
            raise ConfigError("forcing needs nonempty times and one row of node values per time")
        if not (np.isfinite(self.times).all() and np.isfinite(self.fields).all()):
            raise ConfigError("forcing times and field values must be finite")
        if self.times[0] > 0.0 or np.any(np.diff(self.times) <= 0.0):
            raise ConfigError("forcing times must start at 0 and strictly increase")

    @classmethod
    def zero(cls, mesh):
        return cls.constant(mesh, 0.0, 0.0)

    @classmethod
    def constant(cls, mesh, bulk_value, bdry_value):
        return cls.tabulated(mesh, [0.0], [bulk_value], [bdry_value])

    @classmethod
    def tabulated(cls, mesh, times, bulk_values, bdry_values):
        if not (len(times) == len(bulk_values) == len(bdry_values)):
            raise ConfigError("forcing series lengths must match")
        bulk, bdry = (np.asarray(v, dtype=float)[:, None] for v in (bulk_values, bdry_values))
        bn = mesh.boundary_nodes
        fields = np.repeat(bulk, mesh.num_nodes, axis=1)
        fields[:, bn] = bdry + (bulk - bdry) * (mesh.w_bulk[bn] / mesh.mass[bn])
        return cls(times, fields)

    def at_time(self, t):
        k = int(np.searchsorted(self.times, t + 1e-12, side="right")) - 1
        return self.fields[max(k, 0)]

    def with_offset(self, field):
        """This forcing plus the nodal ``field`` at every time."""
        return ForcingField(self.times, self.fields + field)


# ---------------------------------------------------------------------------
# assembly

class Evaluation:
    """A nodal field u of (mesh, p) and every quantity the regularized energy reads of it.

    Each is computed once, when the evaluation is built: the cell gradients
    g, |g|^2, s^2 and s = sqrt(|g|^2 + delta^2), the total-variation flux
    g / s, the surface slopes, and for each side the well's (envelope, Yosida
    slope, slope derivative) from one prox. The value, the gradient and the
    Newton band at u all read them, and so does the inner solver's dual
    update. A field holding NaN or inf gives non-finite quantities and a
    non-finite value, never an error.
    """

    def __init__(self, mesh, p, u):
        self.mesh, self.p = mesh, p
        self.u = u = np.asarray(u, dtype=float)
        self.g = bulk_gradient(mesh, u)
        self.g2, self.s2, self.s, self.flux = smoothed(self.g, p.delta)
        self.slopes = surface_gradient(mesh, u)
        self.bulk = p.bulk_potential.moreau(p.lam, u)
        self.bdry = p.bdry_potential.moreau(p.lam, u[mesh.boundary_nodes])

    def terms(self):
        """Regularized convex energy split: (tv, quad, bulk_pot, surface, bdry_pot)."""
        mesh, p = self.mesh, self.p
        tv = float(np.dot(self.s - p.delta, mesh.cell_weights))
        quad = 0.5 * p.kappa**2 * float(np.dot(self.g2, mesh.cell_weights))
        bulk_pot = float(np.dot(self.bulk[0], mesh.w_bulk))
        surf = 0.5 * p.eps**2 * float(np.dot(self.slopes * self.slopes, mesh.seg_weights))
        bdry_pot = float(np.dot(self.bdry[0], mesh.w_bdry))
        return tv, quad, bulk_pot, surf, bdry_pot


def _evaluate(mesh, p, u):
    """u itself when it is an Evaluation already, else the Evaluation of the field u."""
    return u if isinstance(u, Evaluation) else Evaluation(mesh, p, u)


def energy_terms(mesh, p, u):
    """Regularized energy split: (tv, quad, bulk_pot, surface, bdry_pot, perturbation)."""
    at = _evaluate(mesh, p, u)
    return at.terms() + (perturbation_energy(mesh, p, at.u),)


def phi_regularized(mesh, p, u):
    """Value of the smoothed convex energy at a field or its Evaluation; non-finite where u is."""
    t = _evaluate(mesh, p, u).terms()
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
    gn = np.sqrt(rowdot(g, g))
    total = float(np.dot(gn, mesh.cell_weights))
    total += 0.5 * p.kappa**2 * float(np.dot(gn * gn, mesh.cell_weights))
    total += float(np.dot(vb, mesh.w_bulk)) + float(np.dot(vg, mesh.w_bdry))
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
    """Euclidean nodal partial derivatives of the regularized energy at a field or its Evaluation."""
    at = _evaluate(mesh, p, u)
    flux = (at.flux + p.kappa**2 * at.g) * mesh.cell_weights[:, None]
    n = mesh.num_nodes
    out = np.bincount(mesh.cell_nodes.ravel(),
                      np.einsum("ndk,nd->nk", mesh.cell_ops, flux).ravel(), n)
    out += at.bulk[1] * mesh.w_bulk
    c = p.eps**2 * at.slopes * mesh.seg_weights / mesh.seg_len
    out += np.bincount(mesh.seg_nodes[:, 1], c, n) - np.bincount(mesh.seg_nodes[:, 0], c, n)
    out[mesh.boundary_nodes] += at.bdry[1] * mesh.w_bdry
    return out


def hessian(mesh, p, u, shift, dual=None):
    """Euclidean Hessian of the regularized energy at u plus diag(shift), as a band.

    ``u`` is a field or its Evaluation. Rows and columns follow
    ``mesh.band_order``, and entry (i, j) with 0 <= i - j <= ``mesh.bandwidth``
    sits at ``[i - j, j]`` (LAPACK lower band storage) of a Fortran-ordered
    array, so LAPACK factors it in place. ``shift`` is a scalar or a nodal
    vector. ``dual`` is an optional per-cell flux w that replaces grad u / s in
    the total-variation blocks; None gives the exact Hessian. Each cell's block
    is cell_weight * ops^T A ops with

        A = (I - (w grad u^T + grad u w^T) / (2 s)) / s + kappa^2 I,

    s = sqrt(|grad u|^2 + delta^2): the primal-dual Hessian of f_delta, exact
    at w = grad u / s, plus kappa^2 I. Its packed upper-triangle coefficients
    weight ``mesh.cell_products``, and one scatter-add into
    ``mesh.band_slots`` stores each symmetric pair once.
    """
    at = _evaluate(mesh, p, u)
    gt = at.g.T
    wt = at.flux.T if dual is None else np.asarray(dual, dtype=float).T
    a, b = PACKED[mesh.dim]
    coef = (wt[a] * gt[b] + wt[b] * gt[a]) * (-0.5 / at.s2)  # (coefficient, cell)
    coef += (a == b)[:, None] * (1.0 / at.s + p.kappa**2)
    diag = at.bulk[2] * mesh.w_bulk
    diag[mesh.boundary_nodes] += at.bdry[2] * mesh.w_bdry
    c = p.eps**2 * mesh.seg_weights / mesh.seg_len**2  # segment pairs (0, 0), (1, 0), (1, 1)
    contrib = np.concatenate([np.einsum("rn,rcn->cn", coef, mesh.cell_products).ravel(),
                              diag + shift, c, -c, c])
    n, rows = mesh.num_nodes, mesh.bandwidth + 1
    return np.bincount(mesh.band_slots, contrib, n * rows).reshape(n, rows).T


def hess_phi_vec(mesh, p, u, v):
    """Euclidean Hessian-vector product of the regularized energy at u."""
    order = mesh.band_order
    out = np.empty(mesh.num_nodes)
    out[order] = dsbmv(mesh.bandwidth, 1.0, hessian(mesh, p, u, 0.0), np.asarray(v, float)[order],
                       lower=1)
    return out


def gcal(mesh, p, u):
    """Riesz representative of the perturbation derivative pair [g(u), g_bdry(u)]."""
    u = np.asarray(u, dtype=float)
    out = p.perturbation.bulk.g(u) * mesh.w_bulk
    bn = mesh.boundary_nodes
    out[bn] += p.perturbation.bdry.g(u[bn]) * mesh.w_bdry
    return out / mesh.mass


def is_feasible(mesh, p, u):
    """Membership of the field in the admissible class (well domain a.e.)."""
    u = np.asarray(u, dtype=float)
    return bool(p.bulk_potential.contains(u) and p.bdry_potential.contains(u[mesh.boundary_nodes]))
