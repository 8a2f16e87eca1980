"""Proximal implicit-Euler time stepping for the coupled gradient flow.

Each step minimizes the strongly convex functional

    J(v) = |v - u_prev|_H^2 / (2 tau) + Phi(v) + h_inner(G(u_prev) - theta_n, v)

over nodal fields v, where Phi is the regularized convex energy. The
non-convex perturbation G is treated semi-implicitly (frozen at u_prev),
so every subproblem stays strongly convex whatever the concavity of the
wells' smooth parts. The one stability guard is tau <= 1/(2 L_g), L_g the
Lipschitz constant of the perturbation's derivative.

The inner solver is the primal-dual Newton method of Chan, Golub and
Mulet (SIAM J. Sci. Comput. 20(6), 1999) with an Armijo backtracking line
search on J. Each iterate assembles the Newton matrix of J as a band in the
mesh's ``band_order`` and solves for the step d with one banded Cholesky
factorization, which overwrites the band in place. J is strongly convex, so
that matrix is symmetric positive definite; a factorization that fails means
the subproblem has lost strong convexity and raises SolverError. Neither
LAPACK call scans its input for NaN or inf. A non-finite entry either stops
the factorization or leaves a NaN or an infinite pivot on the factor's
diagonal, which is checked; a non-finite d fails the slope check. All three
raise SolverError. The total-variation block of every cell uses a dual flux
w in place of grad v / s (s = sqrt(|grad v|^2 + delta^2)):

    (I - (w grad v^T + grad v w^T) / (2 s)) / s,

which is symmetric positive definite while |w| < 1. The exact block
(w = grad v / s) has curvature only delta^2 / s^3 along grad v, so where
|grad v| >> delta the exact Newton step overshoots and the line search
has to damp it; the primal-dual block avoids that. w starts at zero in every
solve (so the first step is the lagged-diffusivity one) and follows the
Newton step of w s = grad v linearized along d,

    dw = (grad d - w (grad v . grad d) / s) / s + grad v / s - w,

with the step length beta = min(1, 0.99 b*), where b* is the largest b
keeping |w + b dw| <= 1 in every cell. Only the matrix changes: the
objective, the line search and the stopping test are those of J itself,
and optimality is certified by the gradient norm in the product inner
product, which does not depend on w.

Importing this module sets scipy's OpenBLAS, which acgf uses for nothing
but the band factorization and solve, to one thread: LAPACK factors a band
wider than 64 in blocks, and their small BLAS calls run slower split over
two threads than on one, while the waiting worker spins and slows the
assembly that follows.
"""

import ctypes
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg.cython_blas
from scipy.linalg import LinAlgError, cho_solve_banded, cholesky_banded

from . import energy as en
from .errors import ConfigError, NonconvergenceError, SolverError
from .meshes import bulk_gradient, h_norm


def _scipy_blas_on_one_thread():
    """Set the OpenBLAS that scipy.linalg links to one thread, once for the process.

    numpy links an OpenBLAS of its own, which keeps its thread count. A scipy
    built on another BLAS exports neither symbol and is left as it is.
    """
    lib = ctypes.CDLL(scipy.linalg.cython_blas.__file__)
    for name in ("scipy_openblas_set_num_threads", "openblas_set_num_threads"):
        set_num_threads = getattr(lib, name, None)
        if set_num_threads is not None:
            set_num_threads.argtypes, set_num_threads.restype = [ctypes.c_int], None
            set_num_threads(1)
            return


_scipy_blas_on_one_thread()


MAX_STEPS = 2**20  # the most time steps T / tau may ask for


def default_inner_tol(mesh):
    """Gradient-norm stopping tolerance scaled with the DOF count."""
    return 1e-9 * math.sqrt(mesh.num_nodes)


@dataclass
class FlowParams:
    tau: float
    T: float
    inner_tol: float | None = None
    inner_max_iters: int = 200

    def __post_init__(self):
        for name in ("tau", "T"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise ConfigError(f"{name} must be finite and positive, got {value}")
        if self.inner_tol is not None and not (math.isfinite(self.inner_tol) and self.inner_tol > 0.0):
            raise ConfigError(f"inner_tol must be finite and positive, got {self.inner_tol}")
        if self.inner_max_iters < 1:
            raise ConfigError("inner_max_iters must be >= 1")
        if not self.T / self.tau <= MAX_STEPS:  # an infinite ratio included
            raise ConfigError(f"T / tau = {self.T / self.tau:g} asks for more than the "
                              f"{MAX_STEPS} time steps allowed")

    @property
    def num_steps(self):
        return int(math.ceil(self.T / self.tau - 1e-12))

    def check_stability(self, lipschitz):
        if lipschitz > 0.0 and self.tau > 0.5 / lipschitz:
            raise ConfigError(
                f"tau={self.tau} violates the semi-implicit stability guard "
                f"tau <= 1/(2*L_g) = {0.5 / lipschitz}; reduce tau"
            )


@dataclass
class StepRecord:
    step: int
    time: float
    phi_reg: float
    free_energy: float
    rate_norm: float
    inner_iters: int
    inner_residual: float
    terms: tuple = field(default=())
    inner_backtracks: int = 0


def _solve_strongly_convex(mesh, p, tau, anchor, linear, tol, max_iters):
    """Minimize |v - anchor|_H^2/(2 tau) + Phi(v) + (linear, v)_H, starting at anchor.

    Returns (minimizer, iterations, certified gradient norm, line-search
    halvings). Raises on NaN objectives, a non-finite Newton direction or an
    exhausted budget.
    """
    m = mesh.mass
    ml = m * linear

    def value(v):
        dv = v - anchor
        return (0.5 / tau * float(np.dot(m, dv * dv)) + en.phi_regularized(mesh, p, v)
                + float(np.dot(ml, v)))

    def partial(v):
        return m * (v - anchor) / tau + en._grad_partial(mesh, p, v) + ml

    v = anchor.copy()
    w = np.zeros((mesh.cell_ops.shape[0], mesh.dim))  # dual flux, |w| < 1 per cell
    backtracks = 0
    with np.errstate(over="ignore", invalid="ignore"):  # overflow is caught just below
        fv = value(v)
    if not np.isfinite(fv):
        raise SolverError("non-finite objective at the inner solver start")
    gnorm = np.inf
    # near the optimum the true decrease drops below float resolution of
    # the objective; the sufficient-decrease test gets that much slack
    slack = 1e-14 * (1.0 + abs(fv))
    for it in range(max_iters):
        with np.errstate(over="ignore", invalid="ignore"):
            pg = partial(v)
            gnorm = math.sqrt(float(np.dot(pg * pg, 1.0 / m)))
        if not np.isfinite(gnorm):
            raise SolverError("non-finite gradient in the inner solver")
        if gnorm <= tol:
            return v, it, gnorm, backtracks
        try:
            factor = cholesky_banded(en.hessian(mesh, p, v, m / tau, w), overwrite_ab=True,
                                     lower=True, check_finite=False)
        except LinAlgError as e:  # the subproblem has lost strong convexity
            raise SolverError(
                f"Newton matrix is not positive definite at gradient norm {gnorm:.3e}") from e
        if not np.isfinite(factor[0]).all():  # a NaN, or an infinite pivot, which zeroes d there
            raise SolverError(f"non-finite Newton matrix at gradient norm {gnorm:.3e}")
        d = np.empty_like(pg)
        d[mesh.band_order] = cho_solve_banded((factor, True), -pg[mesh.band_order],
                                              check_finite=False)
        slope = float(np.dot(pg, d))
        if not math.isfinite(slope):  # a NaN or inf anywhere in d makes pg . d so
            raise SolverError(f"non-finite Newton direction at gradient norm {gnorm:.3e}")
        g, bd = bulk_gradient(mesh, v), bulk_gradient(mesh, d)
        s = np.sqrt(np.einsum("nd,nd->n", g, g) + p.delta**2)[:, None]
        dw = (bd - w * np.einsum("nd,nd->n", g, bd)[:, None] / s) / s + g / s - w
        w += _dual_step(w, dw) * dw
        alpha = 1.0
        for _ in range(40):
            vn = v + alpha * d
            fn = value(vn)
            if np.isfinite(fn) and fn <= fv + 1e-4 * alpha * slope + slack:
                break
            alpha *= 0.5
            backtracks += 1
        else:
            raise SolverError(f"inner line search stalled at gradient norm {gnorm:.3e}")
        v, fv = vn, fn
    raise NonconvergenceError(
        f"inner solver hit {max_iters} iterations with residual {gnorm:.3e}",
        residual=gnorm,
    )


def _dual_step(w, dw):
    """min(1, 0.99 b*), b* the largest b keeping |w + b dw| <= 1 in every cell."""
    a = np.einsum("nd,nd->n", w, dw)
    c = np.einsum("nd,nd->n", dw, dw)
    r = 1.0 - np.einsum("nd,nd->n", w, w)
    q = np.sqrt(a * a + c * r)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # positive root of c b^2 + 2 a b - r, in the form free of cancellation
        roots = np.where(a >= 0.0, r / (a + q), (q - a) / c)
    return min(1.0, 0.99 * float(roots.min()))


def proximal_step(mesh, p, fp, uprev, theta_n=None):
    """One implicit-Euler step from uprev under the forcing value theta_n.

    Returns (new state, StepRecord without step/time filled in).
    """
    uprev = np.asarray(uprev, dtype=float)
    if uprev.shape != (mesh.num_nodes,):
        raise ValueError(f"state has shape {uprev.shape}, mesh has {mesh.num_nodes} nodes")
    if not np.all(np.isfinite(uprev)):
        raise SolverError("previous state contains non-finite values")
    tol = fp.inner_tol if fp.inner_tol is not None else default_inner_tol(mesh)
    linear = en.gcal(mesh, p, uprev)
    if theta_n is not None:
        linear = linear - theta_n
    v, iters, residual, backtracks = _solve_strongly_convex(
        mesh, p, fp.tau, uprev, linear, tol, fp.inner_max_iters)
    terms = en.energy_terms(mesh, p, v)
    phi = terms[0] + terms[1] + terms[2] + terms[3] + terms[4]
    rec = StepRecord(
        step=-1,
        time=np.nan,
        phi_reg=phi,
        free_energy=phi + terms[5],
        rate_norm=h_norm(mesh, v - uprev) / fp.tau,
        inner_iters=iters,
        inner_residual=residual,
        terms=terms,
        inner_backtracks=backtracks,
    )
    return v, rec


def run_flow(mesh, p, fp, u0, forcing=None, snapshot_every=0):
    """March ceil(T/tau) proximal steps; returns (final, trace, snapshots).

    The trace holds one record per completed step. Snapshots are
    (step, state copy) pairs taken at step 0, every ``snapshot_every``-th
    step, and the final step (cadence 0 disables them). The initial state
    must lie in the admissible class of the wells.
    """
    u = np.asarray(u0, dtype=float).copy()
    if not en.is_feasible(mesh, p, u):
        raise ConfigError("initial state leaves the well domain (not admissible)")
    fp.check_stability(p.perturbation.lipschitz)
    if forcing is None:
        forcing = en.ForcingField.zero()
    steps = fp.num_steps
    trace = []
    snapshots = []
    if snapshot_every > 0:
        snapshots.append((0, u.copy()))
    for n in range(steps):
        theta = forcing.at_time(n * fp.tau)
        try:
            u, rec = proximal_step(mesh, p, fp, u, theta)
        except NonconvergenceError as e:
            raise NonconvergenceError(
                f"step {n + 1}: {e}", residual=e.residual, step=n + 1
            ) from e
        except SolverError as e:
            raise SolverError(f"step {n + 1}: {e}") from e
        rec.step = n + 1
        rec.time = (n + 1) * fp.tau
        trace.append(rec)
        if snapshot_every > 0 and ((n + 1) % snapshot_every == 0 or n + 1 == steps):
            snapshots.append((n + 1, u.copy()))
    return u, trace, snapshots


def resolvent(mesh, p, w, inner_tol=None, inner_max_iters=200):
    """Solution v of v + grad Phi(v) = w, i.e. the proximal point of Phi at w."""
    w = np.asarray(w, dtype=float)
    if w.shape != (mesh.num_nodes,):
        raise ValueError(f"field has shape {w.shape}, mesh has {mesh.num_nodes} nodes")
    tol = inner_tol if inner_tol is not None else default_inner_tol(mesh)
    v, _, _, _ = _solve_strongly_convex(mesh, p, 1.0, w, np.zeros_like(w), tol, inner_max_iters)
    return v
