"""Proximal implicit-Euler time stepping for the coupled gradient flow.

Each step minimizes the strongly convex functional

    J(v) = |v - u_prev|_H^2 / (2 tau) + Phi(v) + h_inner(G(u_prev) - theta_n, v)

over nodal fields v, where Phi is the regularized convex energy. The
non-convex perturbation G is treated semi-implicitly (frozen at u_prev),
so every subproblem stays strongly convex whatever the concavity of the
wells' smooth parts. The one stability guard is tau <= 1/(2 L_g), L_g the
Lipschitz constant of the perturbation's derivative.

``proximal_step`` is one step, and its Newton loop is the inner solver:
the primal-dual Newton method of Chan, Golub and Mulet (SIAM J. Sci.
Comput. 20(6), 1999) with an Armijo backtracking line search on J. Each
iterate assembles the Newton matrix of J as a band in the mesh's
``band_order``, factors it in place with LAPACK's ``dpbtrf`` and solves for
the step d with ``dpbtrs``. J is strongly convex, so that matrix is symmetric
positive definite: info > 0 from ``dpbtrf`` (a minor not positive) means the
subproblem has lost strong convexity and raises SolverError; info < 0 from
either call (an argument refused) is a fault of this code, a RuntimeError.
Neither call scans its input for NaN or inf. A non-finite entry either stops
the factorization or leaves a NaN or an infinite pivot on the factor's
diagonal, which is checked; a non-finite d fails the slope check. All three
raise SolverError. The total-variation block of every cell uses a dual flux
w in place of grad v / s (s = sqrt(|grad v|^2 + delta^2)):

    (I - (w grad v^T + grad v w^T) / (2 s)) / s,

which is symmetric positive definite while |w| < 1. The exact block
(w = grad v / s) has curvature only delta^2 / s^3 along grad v, so where
|grad v| >> delta the exact Newton step overshoots and the line search
has to damp it; the primal-dual block avoids that. w follows the Newton
step of w s = grad v linearized along d,

    dw = (grad d - w (grad v . grad d) / s) / s + grad v / s - w,

each cell c with its own step length beta_c = min(1, f b*_c), where b*_c is
the largest b keeping |w_c + b dw_c| <= 1 and f = DUAL_FRACTION, so a cell
near the unit-ball boundary holds back only its own flux. ``run_flow``
carries w from each step to the next, since the previous step ended at a
nearly converged flux; w starts at zero only at a run's first step and in a
``proximal_step`` called without ``dual``, where the first Newton matrix
is the lagged-diffusivity one. Only the matrix changes: the objective, the
line search and the stopping test are those of J itself, and optimality is
certified by the gradient norm in the product inner product, which does not
depend on w.

The anchor u_prev and the first Newton iterate are two things. The anchor
defines J; the first iterate is only where the search for J's minimizer
begins, u_prev unless told otherwise. ``proximal_step(..., start=v)`` begins
at v, and ``run_flow(..., guide=states)`` begins step n at
u_{n-1} + (states[n] - states[n-1]), adding the step's increment in a
nearby run, such as an eps sweep's reference. Either way the step converges
to the minimizer of the same J under the same stopping test; a good start
only needs fewer iterates to get there.

Each trial point of the line search is evaluated once, as an
``energy.Evaluation``: its cell gradients, s and one prox per well side.
The objective reads it, and once the point is accepted the next iterate's
gradient, Newton matrix and dual update read it too, so none of them
recomputes those quantities. A trial point whose value is not finite fails
the Armijo test and halves the step.

Importing this module sets scipy's OpenBLAS, which acgf uses for nothing
but the band factorization and solve, to one thread: LAPACK factors a band
wider than 64 in blocks, and their small BLAS calls run slower split over
two threads than on one, while the waiting worker spins and slows the
assembly that follows.
"""

import ctypes
import math
import numbers
from dataclasses import dataclass

import numpy as np
import scipy.linalg.cython_blas
from scipy.linalg.lapack import dpbtrf, dpbtrs

from . import energy as en
from .errors import ConfigError, NonconvergenceError, SolverError
from .meshes import _check_field, bulk_gradient, h_norm, rowdot


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
DUAL_FRACTION = 0.98  # share of the way to the unit-ball boundary a dual step may go


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
        n = self.inner_max_iters
        if isinstance(n, bool) or not isinstance(n, numbers.Integral) or n < 1:
            raise ConfigError(f"inner_max_iters must be an integer >= 1, got {n!r}")
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
    terms: tuple
    inner_backtracks: int


def _zero_dual(mesh):
    return np.zeros((len(mesh.cell_ops), mesh.dim))


def _dual_step(w, dw):
    """Per cell, min(1, DUAL_FRACTION b*), b* the largest b keeping |w + b dw| <= 1 there.

    The lengths come as an (ncells, 1) column, ready to scale dw; a cell with
    dw = 0 gets 1.
    """
    a = rowdot(w, dw)
    c = rowdot(dw, dw)
    r = 1.0 - rowdot(w, w)
    q = np.sqrt(a * a + c * r)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # positive root of c b^2 + 2 a b - r, in the form free of cancellation
        roots = np.where(a >= 0.0, r / (a + q), (q - a) / c)
    return np.minimum(1.0, DUAL_FRACTION * roots)[:, None]


def _checked_state(mesh, state, what):
    """state as a float array of one finite value per node; ValueError otherwise."""
    state = _check_field(mesh, state, what)
    if not np.all(np.isfinite(state)):
        raise ValueError(f"{what} contains non-finite values")
    return state


def proximal_step(mesh, p, fp, uprev, theta_n=None, *, dual=None, start=None):
    """One implicit-Euler step from uprev under the forcing value theta_n.

    The step's Newton loop runs here: it minimizes J anchored at uprev, whose
    linear term is G(uprev) - theta_n (see the module docstring). ``dual``, a
    writeable float64 (ncells, dim) array, |w| < 1 in every cell, is the flux
    the loop starts from; the loop leaves its final flux there. Without it
    the flux starts at zero. ``start``, one finite value per node, is the
    first iterate in place of uprev; J stays anchored at uprev.

    Returns (new state, StepRecord without step/time filled in). Raises
    SolverError when the loop breaks down and NonconvergenceError when its
    ``fp.inner_max_iters`` iterates run out.
    """
    uprev = _check_field(mesh, uprev, what="state")
    if dual is not None:
        cells = (len(mesh.cell_ops), mesh.dim)
        if not (isinstance(dual, np.ndarray) and dual.dtype == np.float64 and dual.shape == cells
                and dual.flags.writeable):
            raise ValueError(f"dual flux must be a writeable float64 array of shape {cells}, one "
                             f"row per cell; got {np.shape(dual)} of {getattr(dual, 'dtype', None)}")
        if not np.all(rowdot(dual, dual) < 1.0):
            raise ValueError("dual flux must lie inside the unit ball in every cell")
    if start is not None:
        start = _checked_state(mesh, start, "start iterate")
    if not np.all(np.isfinite(uprev)):
        raise SolverError("previous state contains non-finite values")
    tau = fp.tau
    tol = fp.inner_tol if fp.inner_tol is not None else default_inner_tol(mesh)
    linear = en.gcal(mesh, p, uprev)
    if theta_n is not None:
        linear = linear - theta_n
    m = mesh.mass
    ml = m * linear

    def value(at):
        dv = at.u - uprev
        return (0.5 / tau * float(np.dot(m, dv * dv)) + en.phi_regularized(mesh, p, at)
                + float(np.dot(ml, at.u)))

    w = _zero_dual(mesh) if dual is None else dual  # dual flux, |w| < 1 per cell
    backtracks = 0
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # caught by a check below
        shift, inv_m = m / tau, 1.0 / m  # the Newton matrix's shift, the gradient norm's weight
        first = uprev if start is None else start
        at = en.Evaluation(mesh, p, first.copy())  # the iterate v and all the energy reads of it
        fv = value(at)
    if not np.isfinite(fv):
        raise SolverError("non-finite objective at the inner solver start")
    gnorm = np.inf
    for it in range(fp.inner_max_iters):
        with np.errstate(over="ignore", invalid="ignore"):
            pg = m * (at.u - uprev) / tau + en._grad_partial(mesh, p, at) + ml
            gnorm = math.sqrt(float(np.dot(pg * pg, inv_m)))
        if not math.isfinite(gnorm):
            raise SolverError("non-finite gradient in the inner solver")
        if gnorm <= tol:
            break
        factor, info = dpbtrf(en.hessian(mesh, p, at, shift, w), lower=1, overwrite_ab=1)
        if info > 0:  # the subproblem has lost strong convexity
            raise SolverError(f"Newton matrix is not positive definite at gradient norm {gnorm:.3e}")
        if not np.isfinite(factor[0]).all():  # a NaN, or an infinite pivot, which zeroes d there
            raise SolverError(f"non-finite Newton matrix at gradient norm {gnorm:.3e}")
        d = np.empty_like(pg)
        d[mesh.band_order], solved = dpbtrs(factor, -pg[mesh.band_order], lower=1, overwrite_b=1)
        if min(info, solved) < 0:  # an argument LAPACK refused: a fault of this code, not the input
            raise RuntimeError(f"dpbtrf or dpbtrs refused argument {-min(info, solved)}")
        slope = float(np.dot(pg, d))
        if not math.isfinite(slope):  # a NaN or inf anywhere in d makes pg . d so
            raise SolverError(f"non-finite Newton direction at gradient norm {gnorm:.3e}")
        g, s, bd = at.g, at.s[:, None], bulk_gradient(mesh, d)
        dw = (bd - w * rowdot(g, bd)[:, None] / s) / s + at.flux - w
        w += _dual_step(w, dw) * dw
        # near the optimum the true decrease drops below float resolution of
        # the objective; the sufficient-decrease test gets that much slack, taken
        # from the current objective, which may lie orders below the start's
        slack = 1e-14 * (1.0 + abs(fv))
        alpha = 1.0
        for _ in range(40):
            trial = en.Evaluation(mesh, p, at.u + alpha * d)
            fn = value(trial)
            if math.isfinite(fn) and fn <= fv + 1e-4 * alpha * slope + slack:
                break
            alpha *= 0.5
            backtracks += 1
        else:
            raise SolverError(f"inner line search stalled at gradient norm {gnorm:.3e}")
        at, fv = trial, fn
    else:
        raise NonconvergenceError(
            f"inner solver hit {fp.inner_max_iters} iterations with residual {gnorm:.3e}",
            residual=gnorm,
        )
    v = at.u
    terms = en.energy_terms(mesh, p, at)
    phi = terms[0] + terms[1] + terms[2] + terms[3] + terms[4]
    rec = StepRecord(
        step=-1,
        time=np.nan,
        phi_reg=phi,
        free_energy=phi + terms[5],
        rate_norm=h_norm(mesh, v - uprev) / tau,
        inner_iters=it,
        inner_residual=gnorm,
        terms=terms,
        inner_backtracks=backtracks,
    )
    return v, rec


def run_flow(mesh, p, fp, u0, forcing=None, snapshot_every=0, guide=None):
    """March ceil(T/tau) proximal steps; returns (final, trace, snapshots).

    The dual flux starts at zero and each step starts from the flux the
    previous one ended with.

    ``guide``, a sequence of num_steps + 1 states (another run's state at
    every step, say), moves each step's first iterate: step n starts its
    inner solve at u_{n-1} + (guide[n] - guide[n-1]) instead of at u_{n-1}.
    The anchor, the objective and the stopping test stay those of the step,
    so a guide changes the iterates a step takes, not what it solves for.

    The trace holds one record per completed step. Snapshots are
    (step, state copy) pairs taken at step 0, every ``snapshot_every``-th
    step, and the final step (cadence 0 disables them). The initial state
    must lie in the admissible class of the wells, and each forcing field,
    like each guide state, must hold one finite value per node.
    """
    u = np.asarray(u0, dtype=float).copy()
    if not en.is_feasible(mesh, p, u):
        raise ConfigError("initial state leaves the well domain (not admissible)")
    fp.check_stability(p.perturbation.lipschitz)
    if forcing is None:
        forcing = en.ForcingField.zero()
    steps = fp.num_steps
    if guide is not None:
        guide = list(guide)
        if len(guide) != steps + 1:
            raise ValueError(f"guide holds {len(guide)} states, the run takes "
                             f"num_steps + 1 = {steps + 1}")
        guide = [_checked_state(mesh, g, "guide state") for g in guide]
    for f in forcing.fields:
        if f is not None:
            _checked_state(mesh, f, "forcing field")
    trace = []
    snapshots = []
    dual = _zero_dual(mesh)
    if snapshot_every > 0:
        snapshots.append((0, u.copy()))
    for n in range(steps):
        theta = forcing.at_time(n * fp.tau)
        start = None if guide is None else u + (guide[n + 1] - guide[n])
        try:
            u, rec = proximal_step(mesh, p, fp, u, theta, dual=dual, start=start)
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
