"""Time stepping: proximal steps, dissipation, resolvents, stability."""

import ctypes
import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
import scipy.linalg.cython_blas
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import acgf
from acgf.config import config_from_dict
from acgf.energy import EnergyParams, ForcingField, NonePart, SmoothPerturbation, phi_regularized
from acgf.errors import ConfigError, NonconvergenceError, SolverError
from acgf.flow import FlowParams, _dual_step, default_inner_tol, proximal_step, run_flow
from acgf.meshes import DiscMesh, IntervalMesh, h_inner, h_norm
from acgf.potentials import indicator, quadratic, tabulated
from conftest import grad_phi_regularized

IND = indicator(-1.0, 1.0)


def make_params(**kw):
    base = dict(kappa=0.2, eps=0.0, delta=0.1, lam=0.1,
                bulk_potential=IND, bdry_potential=IND,
                perturbation=SmoothPerturbation(NonePart()))
    base.update(kw)
    return EnergyParams(**base)


def resolvent(mesh, p, w, tol=None):
    """The proximal point v + grad Phi(v) = w: one unforced step of tau = 1 from w."""
    assert p.perturbation.lipschitz == 0  # no perturbation, so the step's linear term is 0
    return proximal_step(mesh, p, FlowParams(tau=1.0, T=1.0, inner_tol=tol), w)[0]


def benchmark_params():
    """The energy of the disc benchmarks: indicator wells, eps = 0.5, delta = lambda = 0.1."""
    return make_params(eps=0.5, perturbation=SmoothPerturbation.neg_quadratic(-1, 1))


def noisy_two_phase(m, seed):
    """+-0.9 split at x = 0 plus seeded uniform +-0.05 noise, clipped to [-1, 1]."""
    noise = np.random.default_rng(seed).uniform(-0.05, 0.05, m.num_nodes)
    return np.clip(np.where(m.coords[:, 0] < 0.0, 0.9, -0.9) + noise, -1.0, 1.0)


class TestProximalStep:
    def test_interior_constant_is_stationary(self):
        m = IntervalMesh(1.0, 8)
        fp = FlowParams(tau=0.1, T=1.0)
        u0 = np.full(m.num_nodes, 0.3)
        v, rec = proximal_step(m, make_params(), fp, u0)
        assert np.array_equal(v, u0)
        assert rec.inner_iters <= 1

    def test_energy_inequality_by_minimality(self):
        # Phi(V) + |V - U|^2/(2 tau) <= Phi(U) + (theta - G(U), V - U)_H
        m = IntervalMesh(1.0, 16)
        p = make_params(perturbation=SmoothPerturbation.neg_quadratic(-1, 1))
        fp = FlowParams(tau=0.1, T=1.0)
        rng = np.random.default_rng(3)
        u = rng.uniform(-0.9, 0.9, m.num_nodes)
        theta = ForcingField.constant(m, 0.4, -0.2).at_time(0.0)
        v, _ = proximal_step(m, p, fp, u, theta)
        from acgf.energy import gcal
        lhs = phi_regularized(m, p, v) + h_norm(m, v - u) ** 2 / (2 * fp.tau)
        rhs = phi_regularized(m, p, u) + h_inner(m, theta - gcal(m, p, u), v - u)
        assert lhs <= rhs + 1e-10 * (1.0 + abs(rhs))

    def test_agrees_with_coordinate_descent_oracle(self):
        # compact version; the acceptance suite runs the full 20-state sweep
        from conftest import coordinate_descent_prox_oracle
        m = IntervalMesh(1.0, 8)
        p = make_params(perturbation=SmoothPerturbation.neg_quadratic(-1, 1))
        fp = FlowParams(tau=0.05, T=1.0)
        rng = np.random.default_rng(11)
        for _ in range(3):
            u = rng.uniform(-1.0, 1.0, m.num_nodes)
            theta = rng.uniform(-0.5, 0.5, m.num_nodes)
            v, _ = proximal_step(m, p, fp, u, theta)
            v_oracle = coordinate_descent_prox_oracle(m, p, fp.tau, u, theta)
            assert np.abs(v - v_oracle).max() <= 1e-6

    def test_nonconvergence_carries_residual(self):
        m = IntervalMesh(1.0, 16)
        p = make_params()
        fp = FlowParams(tau=0.1, T=1.0, inner_tol=1e-15, inner_max_iters=1)
        rng = np.random.default_rng(5)
        u = rng.uniform(-0.9, 0.9, m.num_nodes)
        with pytest.raises(NonconvergenceError) as exc:
            proximal_step(m, p, fp, u)
        assert exc.value.residual is not None and exc.value.residual > 0

    def test_previous_state_of_another_shape_or_non_finite_is_refused(self):
        m = DiscMesh(1.0, 8, 16)
        p, fp = benchmark_params(), FlowParams(tau=1 / 128, T=1.0)
        with pytest.raises(ValueError, match=r"state has shape \(3,\), mesh has 128 nodes"):
            proximal_step(m, p, fp, np.zeros(3))
        uprev = np.zeros(m.num_nodes)
        uprev[5] = np.nan
        with pytest.raises(SolverError, match="previous state contains non-finite values"):
            proximal_step(m, p, fp, uprev)

    @pytest.mark.parametrize("delta", [0.01, 0.001])
    @pytest.mark.parametrize("eps", [0.0, 0.5])
    def test_sharp_interface_takes_full_newton_steps(self, delta, eps):
        # where |grad u| >> delta the exact TV Hessian lets full steps overshoot
        # (22-48 damped iterates here); the primal-dual block takes full steps
        m = DiscMesh(1.0, 16, 32)
        p = make_params(eps=eps, delta=delta,
                        perturbation=SmoothPerturbation.neg_quadratic(-1, 1))
        u = np.where(m.coords[:, 0] < 0.0, 0.9, -0.9)
        _, rec = proximal_step(m, p, FlowParams(tau=1 / 128, T=1.0), u)
        assert rec.inner_iters <= 16
        assert rec.inner_backtracks == 0

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_per_cell_dual_steps_cut_the_newton_iterates(self, seed):
        # one global dual step length, set by the cell nearest the unit-ball
        # boundary, took 10-11 iterates here
        m = DiscMesh(1.0, 32, 64)
        _, rec = proximal_step(m, benchmark_params(), FlowParams(tau=1 / 128, T=1.0),
                               noisy_two_phase(m, seed))
        assert rec.inner_iters <= 9
        assert rec.inner_backtracks == 0

    def test_dual_flux_is_carried_in_place_inside_the_unit_ball(self):
        m = DiscMesh(1.0, 8, 16)
        dual = np.zeros((len(m.cell_ops), m.dim))
        proximal_step(m, benchmark_params(), FlowParams(tau=1 / 128, T=1.0), noisy_two_phase(m, 0),
                      dual=dual)
        norms = np.linalg.norm(dual, axis=1)
        assert norms.max() > 0.0 and np.all(norms < 1.0)

    def test_dual_flux_of_another_shape_or_outside_the_unit_ball_is_refused(self, monkeypatch):
        # an integer flux would fail after the first factorization and a float32 one
        # would be carried in float32, so every bad flux is refused before any work
        m = DiscMesh(1.0, 8, 16)
        cells = (len(m.cell_ops), m.dim)
        read_only = np.zeros(cells)
        read_only.flags.writeable = False
        monkeypatch.setattr(acgf.energy, "gcal", None)  # the first work a step does
        for dual in (np.zeros((3, 2)), np.full(cells, 0.8), np.zeros(cells, dtype=int),
                     np.zeros(cells, dtype=np.float32), read_only, np.zeros(cells).tolist()):
            with pytest.raises(ValueError, match="dual flux"):
                proximal_step(m, benchmark_params(), FlowParams(tau=1 / 128, T=1.0),
                              np.zeros(m.num_nodes), dual=dual)

    def test_start_iterate_moves_where_the_solve_begins_not_what_it_solves(self):
        m = DiscMesh(1.0, 8, 16)
        p, fp = benchmark_params(), FlowParams(tau=1 / 128, T=1.0)
        u = noisy_two_phase(m, 0)
        v, _ = proximal_step(m, p, fp, u)
        again, at_v = proximal_step(m, p, fp, u, start=v)
        assert at_v.inner_iters == 0 and np.array_equal(again, v)
        w, near = proximal_step(m, p, fp, u, start=0.5 * (u + v))
        assert near.inner_iters > 0 and near.inner_residual <= default_inner_tol(m)
        assert h_norm(m, w - v) <= 1e-9 * h_norm(m, v)

    def test_start_iterate_of_another_shape_is_refused(self):
        m = DiscMesh(1.0, 8, 16)
        with pytest.raises(ValueError, match=r"start iterate has shape \(3,\)"):
            proximal_step(m, benchmark_params(), FlowParams(tau=1 / 128, T=1.0),
                          np.zeros(m.num_nodes), start=np.zeros(3))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_start_iterate_is_refused(self, bad):
        m = DiscMesh(1.0, 8, 16)
        start = np.zeros(m.num_nodes)
        start[5] = bad
        with pytest.raises(ValueError, match="start iterate contains non-finite values"):
            proximal_step(m, benchmark_params(), FlowParams(tau=1 / 128, T=1.0),
                          np.zeros(m.num_nodes), start=start)

    @pytest.mark.parametrize("wells", [IND, quadratic(1.0), tabulated([[-1, 0.5], [0, 0], [1, 0.5]])],
                             ids=["indicator", "quadratic", "tabulated"])
    def test_non_finite_newton_direction_is_a_solver_error(self, monkeypatch, wells):
        # a non-finite d is refused before the line search, whatever the wells
        dpbtrs = acgf.flow.dpbtrs

        def one_nan(*args, **kwargs):
            x, info = dpbtrs(*args, **kwargs)
            x[3] = np.nan
            return x, info

        monkeypatch.setattr(acgf.flow, "dpbtrs", one_nan)
        m = IntervalMesh(1.0, 16)
        u = np.random.default_rng(5).uniform(-0.9, 0.9, m.num_nodes)
        p = make_params(bulk_potential=wells, bdry_potential=wells)
        with pytest.raises(SolverError, match="non-finite Newton direction"):
            proximal_step(m, p, FlowParams(tau=0.1, T=1.0), u)

    @pytest.mark.parametrize("wells", [IND, quadratic(1.0), tabulated([[-1, 0.5], [0, 0], [1, 0.5]])],
                             ids=["indicator", "quadratic", "tabulated"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_line_search_backtracks_past_a_non_finite_trial_point(self, monkeypatch, wells, bad):
        m = IntervalMesh(1.0, 16)
        u = np.random.default_rng(5).uniform(-0.9, 0.9, m.num_nodes)
        p = make_params(bulk_potential=wells, bdry_potential=wells)
        fp = FlowParams(tau=0.1, T=1.0)
        clean, _ = proximal_step(m, p, fp, u)
        made = []

        class Spoiled(acgf.energy.Evaluation):
            def __init__(self, mesh, p, u):
                made.append(u)
                if len(made) == 2:  # the first trial point of the line search
                    u = np.array(u)
                    u[3] = bad
                super().__init__(mesh, p, u)

        monkeypatch.setattr(acgf.energy, "Evaluation", Spoiled)
        with np.errstate(invalid="ignore", over="ignore"):
            v, rec = proximal_step(m, p, fp, u)
        assert rec.inner_backtracks >= 1
        assert rec.inner_residual <= default_inner_tol(m)
        assert np.abs(v - clean).max() <= 1e-8

    def test_armijo_slack_follows_the_current_objective(self, monkeypatch):
        # the objective starts at 1e6, whose slack 1e-14 * (1 + 1e6) would pass a rise
        # of 1e-10, and then sits at 1, where that rise is far above float resolution;
        # the start is 1e-9 from the minimizer, so the Armijo decrease term is negligible
        m = IntervalMesh(1.0, 16)
        p = make_params()
        tau = 0.1
        anchor = np.random.default_rng(7).uniform(-0.5, 0.5, m.num_nodes)
        linear = 1e-9 - grad_phi_regularized(m, p, anchor)
        script = iter([1e6, 1.0, 1.0 + 1e-10])
        seen = []

        def scripted(mesh, p, at):
            # phi such that the objective takes the next scripted value, then 0.5
            seen.append(at)
            dv = at.u - anchor
            rest = 0.5 / tau * float(np.dot(m.mass, dv * dv)) + float(np.dot(m.mass * linear, at.u))
            return next(script, 0.5) - rest

        monkeypatch.setattr(acgf.energy, "phi_regularized", scripted)
        # no perturbation, so the step's linear term is -theta_n = linear itself
        fp = FlowParams(tau=tau, T=tau, inner_tol=5e-324, inner_max_iters=2)
        with pytest.raises(NonconvergenceError):
            proximal_step(m, p, fp, anchor, -linear)
        # the start, the first trial, then the second trial refused and its halving accepted
        assert len(seen) == 4


@pytest.mark.parametrize("iters", [2.5, 2.0, True, "3", 0])
def test_inner_max_iters_must_be_an_integer_of_at_least_one(iters):
    with pytest.raises(ConfigError, match=f"^inner_max_iters must be an integer >= 1, got {iters!r}$"):
        FlowParams(tau=0.1, T=0.2, inner_max_iters=iters)


def test_inner_max_iters_takes_a_numpy_integer():
    assert FlowParams(tau=0.1, T=0.2, inner_max_iters=np.int64(3)).inner_max_iters == 3


class TestRunFlow:
    def test_carried_dual_flux_saves_iterates_and_keeps_the_result(self):
        m = DiscMesh(1.0, 16, 32)
        p, fp = benchmark_params(), FlowParams(tau=1 / 128, T=16 / 128)
        u = u0 = noisy_two_phase(m, 0)
        restarted = 0
        for _ in range(fp.num_steps):  # each step's flux starts at zero
            u, rec = proximal_step(m, p, fp, u)
            restarted += rec.inner_iters
        uf, trace, _ = run_flow(m, p, fp, u0)
        assert sum(r.inner_iters for r in trace) < restarted
        assert h_norm(m, uf) == pytest.approx(h_norm(m, u), rel=1e-9)

    def test_nonconvergence_names_the_step_and_carries_it(self):
        m = IntervalMesh(1.0, 16)
        u = np.random.default_rng(5).uniform(-0.9, 0.9, m.num_nodes)
        fp = FlowParams(tau=0.1, T=1.0, inner_tol=1e-15, inner_max_iters=1)
        with pytest.raises(NonconvergenceError, match="^step 1: inner solver hit 1 iterations") as exc:
            run_flow(m, make_params(), fp, u)
        assert exc.value.step == 1 and exc.value.residual > 0

    def test_indefinite_newton_matrix_is_a_solver_error(self, monkeypatch):
        hessian = acgf.energy.hessian
        monkeypatch.setattr(acgf.energy, "hessian", lambda *a: -hessian(*a))
        m = DiscMesh(1.0, 4, 8)
        u = np.random.default_rng(5).uniform(-0.9, 0.9, m.num_nodes)
        with pytest.raises(SolverError, match="step 1: Newton matrix is not positive definite"):
            run_flow(m, make_params(), FlowParams(tau=0.1, T=1.0), u)

    def test_newton_band_is_factored_in_place(self, monkeypatch):
        # a band copy per iterate (1.1 MB on a 32 x 64 disc) would go unseen otherwise
        dpbtrf, seen = acgf.flow.dpbtrf, []

        def checked(band, **kwargs):
            factor, info = dpbtrf(band, **kwargs)
            seen.append(band.flags.f_contiguous and np.shares_memory(factor, band))
            return factor, info

        monkeypatch.setattr(acgf.flow, "dpbtrf", checked)
        m = DiscMesh(1.0, 4, 8)
        run_flow(m, benchmark_params(), FlowParams(tau=1 / 128, T=1 / 128), noisy_two_phase(m, 0))
        assert seen and all(seen)

    @pytest.mark.parametrize("routine", ["dpbtrf", "dpbtrs"])
    def test_an_argument_lapack_refuses_is_a_runtime_error(self, monkeypatch, routine):
        # info < 0 is a fault of the calling code, not a solver failure on the input
        call = getattr(acgf.flow, routine)
        monkeypatch.setattr(acgf.flow, routine, lambda *a, **kw: (call(*a, **kw)[0], -2))
        m = DiscMesh(1.0, 4, 8)
        with pytest.raises(RuntimeError, match="refused argument 2"):
            proximal_step(m, benchmark_params(), FlowParams(tau=1 / 128, T=1.0),
                          noisy_two_phase(m, 0))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("entry", [(0, 5), (2, 3), (0, 31)],
                             ids=["diagonal", "subdiagonal", "last-pivot"])
    def test_non_finite_newton_matrix_is_a_solver_error(self, monkeypatch, value, entry):
        # the band is factored unchecked; an infinite pivot would zero d there silently
        hessian = acgf.energy.hessian

        def spoiled(*a):
            band = hessian(*a)
            band[entry] = value
            return band

        monkeypatch.setattr(acgf.energy, "hessian", spoiled)
        m = DiscMesh(1.0, 4, 8)
        u = np.random.default_rng(5).uniform(-0.9, 0.9, m.num_nodes)
        with pytest.raises(SolverError, match="step 1: ") as exc:
            run_flow(m, make_params(), FlowParams(tau=0.1, T=1.0), u)
        assert not isinstance(exc.value, NonconvergenceError)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("mesh,params,message", [
        (IntervalMesh(1.0, 16), dict(kappa=1e100), "non-finite gradient"),
        (IntervalMesh(1.0, 16), dict(kappa=1e154), "non-finite objective"),
        (DiscMesh(1.0, 4, 8), dict(eps=1e154), "non-finite gradient"),
    ], ids=["gradient-norm", "objective", "surface-gradient"])
    def test_overflow_is_a_solver_error_without_warnings(self, mesh, params, message):
        u = np.random.default_rng(0).uniform(-0.9, 0.9, mesh.num_nodes)
        with pytest.raises(SolverError, match=f"step 1: {message}"):
            run_flow(mesh, make_params(**params), FlowParams(tau=0.05, T=0.1), u)

    def test_pure_convex_dissipation_any_tau(self):
        for mesh in (IntervalMesh(1.0, 32), DiscMesh(1.0, 6, 12)):
            for tau in (0.05, 0.5, 2.0):
                p = make_params(eps=0.5)
                fp = FlowParams(tau=tau, T=tau * 30)
                rng = np.random.default_rng(7)
                u0 = rng.uniform(-1.0, 1.0, mesh.num_nodes)
                _, trace, _ = run_flow(mesh, p, fp, u0)
                phis = [phi_regularized(mesh, p, u0)] + [r.phi_reg for r in trace]
                for a, b in zip(phis, phis[1:]):
                    assert b <= a + 1e-10 * (1.0 + abs(a))

    def test_semi_implicit_free_energy_dissipation(self):
        p = make_params(perturbation=SmoothPerturbation.neg_quadratic(-1, 1))
        fp = FlowParams(tau=0.25, T=10.0)  # tau = 1/(4 L_g)
        m = IntervalMesh(1.0, 32)
        u0 = np.where(m.coords[:, 0] < 0.5, 0.9, -0.9)
        _, trace, _ = run_flow(m, p, fp, u0)
        fes = [r.free_energy for r in trace]
        for a, b in zip(fes, fes[1:]):
            assert b <= a + 1e-10 * (1.0 + abs(a))

    def test_zero_state_is_fixed_without_forcing(self):
        # the origin sits at the unstable equilibrium of the double well:
        # the well slope, the clamped perturbation, and every stencil
        # vanish there, so the flow holds it exactly
        m = IntervalMesh(1.0, 16)
        p = make_params(perturbation=SmoothPerturbation.neg_quadratic(-1, 1))
        fp = FlowParams(tau=0.1, T=0.5)
        uf, trace, _ = run_flow(m, p, fp, np.zeros(m.num_nodes))
        assert np.all(uf == 0.0)
        assert all(r.phi_reg == 0.0 for r in trace)

    def test_interface_persists_on_two_phase_data(self):
        m = IntervalMesh(1.0, 32)
        p = make_params(perturbation=SmoothPerturbation.neg_quadratic(-1, 1))
        fp = FlowParams(tau=0.1, T=2.0)
        u0 = np.where(m.coords[:, 0] < 0.5, 0.9, -0.9)
        uf, trace, _ = run_flow(m, p, fp, u0)
        assert uf[0] > 0.5 and uf[-1] < -0.5
        assert np.sign(uf[2]) > 0 > np.sign(uf[-3])
        # regression pin from the first validated run of this configuration
        assert h_norm(m, uf) == pytest.approx(1.653802501953774, rel=1e-9)

    def test_zero_increment_guide_reproduces_the_unguided_run(self):
        m = DiscMesh(1.0, 8, 16)
        p, fp = benchmark_params(), FlowParams(tau=1 / 128, T=4 / 128)
        u0 = noisy_two_phase(m, 1)
        f = ForcingField.constant(m, 3.0, 3.0)
        cold = run_flow(m, p, fp, u0, f, snapshot_every=1)
        guided = run_flow(m, p, fp, u0, f, snapshot_every=1, guide=[u0] * (fp.num_steps + 1))
        assert np.array_equal(guided[0], cold[0])
        assert guided[1] == cold[1]
        assert all(a == b and np.array_equal(x, y)
                   for (a, x), (b, y) in zip(guided[2], cold[2], strict=True))

    @pytest.mark.parametrize("case", ["short", "long", "shape", "nan", "inf"])
    def test_malformed_guide_is_refused_before_any_step(self, monkeypatch, case):
        m = DiscMesh(1.0, 4, 8)
        fp = FlowParams(tau=1 / 128, T=3 / 128)
        u0 = noisy_two_phase(m, 0)
        guide = [u0.copy() for _ in range(fp.num_steps + 1)]
        if case == "short":
            guide.pop()
        elif case == "long":
            guide.append(u0)
        elif case == "shape":
            guide[2] = u0[:-1]
        else:
            guide[2][7] = np.nan if case == "nan" else -np.inf
        message = {"short": r"guide holds 3 states, the run takes num_steps \+ 1 = 4",
                   "long": r"guide holds 5 states, the run takes num_steps \+ 1 = 4",
                   "shape": r"guide state has shape \(31,\), mesh has 32 nodes",
                   "nan": "guide state contains non-finite values",
                   "inf": "guide state contains non-finite values"}[case]

        def no_step(*args, **kwargs):
            raise AssertionError("a step ran before the guide was checked")

        monkeypatch.setattr(acgf.flow, "proximal_step", no_step)
        with pytest.raises(ValueError, match=message):
            run_flow(m, benchmark_params(), fp, u0, guide=guide)

    @pytest.mark.parametrize("case", ["short", "long", "nan"])
    def test_malformed_forcing_field_is_refused_before_any_step(self, monkeypatch, case):
        m = DiscMesh(1.0, 4, 8)
        fields = [None, np.zeros(m.num_nodes + {"short": -1, "long": 1, "nan": 0}[case])]
        forcing = ForcingField([0.0, 1 / 128], fields)
        if case == "nan":  # set after the ForcingField checked its fields
            fields[1][3] = np.nan
        message = {"short": r"forcing field has shape \(31,\), mesh has 32 nodes",
                   "long": r"forcing field has shape \(33,\), mesh has 32 nodes",
                   "nan": "forcing field contains non-finite values"}[case]

        def no_step(*args, **kwargs):
            raise AssertionError("a step ran before the forcing was checked")

        monkeypatch.setattr(acgf.flow, "proximal_step", no_step)
        with pytest.raises(ValueError, match=message):
            run_flow(m, benchmark_params(), FlowParams(tau=1 / 128, T=3 / 128),
                     noisy_two_phase(m, 0), forcing)

    def test_trace_contract(self):
        m = IntervalMesh(1.0, 16)
        p = make_params()
        fp = FlowParams(tau=0.05, T=0.5)
        rng = np.random.default_rng(13)
        u0 = rng.uniform(-0.9, 0.9, m.num_nodes)
        _, trace, snaps = run_flow(m, p, fp, u0, snapshot_every=3)
        assert [r.step for r in trace] == list(range(1, 11))
        times = [r.time for r in trace]
        assert all(b > a for a, b in zip(times, times[1:]))
        tol = default_inner_tol(m)
        assert all(r.inner_residual <= tol for r in trace)
        assert [s for s, _ in snaps] == [0, 3, 6, 9, 10]

    def test_infeasible_initial_state_rejected(self):
        m = IntervalMesh(1.0, 8)
        fp = FlowParams(tau=0.1, T=0.5)
        with pytest.raises(ConfigError):
            run_flow(m, make_params(), fp, np.full(m.num_nodes, 1.5))

    def test_feasibility_overshoot_bounded_by_moreau_slack(self):
        # iterates may leave the well domain only by lam * |slope|
        m = IntervalMesh(1.0, 24)
        p = make_params(lam=0.05, perturbation=SmoothPerturbation.neg_quadratic(-1, 1))
        fp = FlowParams(tau=0.1, T=3.0)
        u0 = np.where(m.coords[:, 0] < 0.5, 0.9, -0.9)
        _, _, snaps = run_flow(m, p, fp, u0, snapshot_every=1)
        for _, u in snaps:
            over = np.maximum(u - 1.0, 0.0) + np.maximum(-1.0 - u, 0.0)
            slack = p.lam * np.abs(np.asarray(p.bulk_potential.yosida(p.lam, u)))
            assert np.all(over <= slack + 1e-12)

    def test_rate_and_energy_bound_regression(self):
        # discrete shadow of the a-priori estimate; constant frozen with
        # 2x headroom over the measured maximum ratio 0.96
        C = 2.0
        for mesh, eps in ((IntervalMesh(1.0, 32), 0.0), (DiscMesh(1.0, 8, 16), 0.7)):
            p = make_params(eps=eps, perturbation=SmoothPerturbation.neg_quadratic(-1, 1))
            fp = FlowParams(tau=0.05, T=1.0)
            rng = np.random.default_rng(11)
            u0 = rng.uniform(-0.9, 0.9, mesh.num_nodes)
            f = ForcingField.constant(mesh, 0.5, -0.5)
            _, trace, _ = run_flow(mesh, p, fp, u0, f)
            num = sum(fp.tau * r.rate_norm**2 for r in trace) + max(r.phi_reg for r in trace)
            den = 1.0 + h_norm(mesh, u0) ** 2 \
                + sum(fp.tau * h_norm(mesh, f.at_time(n * fp.tau)) ** 2
                      for n in range(fp.num_steps)) \
                + phi_regularized(mesh, p, u0)
            assert num <= C * den

    def test_stability_guards(self):
        pert = SmoothPerturbation.neg_quadratic(-1, 1)
        with pytest.raises(ConfigError):
            FlowParams(tau=0.6, T=1.0).check_stability(pert.lipschitz)
        FlowParams(tau=0.5, T=1.0).check_stability(pert.lipschitz)  # boundary ok


class TestScalarReference:
    def test_constant_run_tracks_the_scalar_dynamics(self):
        # independent fixed-step RK4 on u' = theta - slope(u) - g(u)
        m = IntervalMesh(1.0, 8)
        p = make_params(kappa=1.0, perturbation=SmoothPerturbation.neg_quadratic(-1, 1))
        theta, T = 0.8, 1.0

        def rhs(u):
            return theta - p.bulk_potential.yosida(p.lam, u) - p.perturbation.bulk.g(u)

        u_ref = 0.0
        n_ref = 100_000
        dt = T / n_ref
        for _ in range(n_ref):
            k1 = rhs(u_ref)
            k2 = rhs(u_ref + 0.5 * dt * k1)
            k3 = rhs(u_ref + 0.5 * dt * k2)
            k4 = rhs(u_ref + dt * k3)
            u_ref += dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)

        f = ForcingField.constant(m, theta, theta)
        errs = []
        for tau in (0.05, 0.025):
            uf, _, _ = run_flow(m, p, FlowParams(tau=tau, T=T), np.zeros(m.num_nodes), f)
            assert uf.max() - uf.min() <= 1e-10  # stays spatially constant
            errs.append(abs(uf[0] - u_ref))
        assert errs[1] <= 0.5 * errs[0]


class TestResolvent:
    def test_zero_maps_to_zero(self):
        m = IntervalMesh(1.0, 8)
        v = resolvent(m, make_params(), np.zeros(m.num_nodes))
        assert np.abs(v).max() == 0.0

    def test_optimality_residual_within_tolerance(self):
        m = DiscMesh(1.0, 6, 12)
        p = make_params(eps=0.5)
        rng = np.random.default_rng(17)
        w = rng.standard_normal(m.num_nodes)
        v = resolvent(m, p, w)
        assert h_norm(m, (w - v) - grad_phi_regularized(m, p, v)) <= default_inner_tol(m)

    def test_nonexpansive(self):
        m = IntervalMesh(1.0, 16)
        p = make_params()
        rng = np.random.default_rng(19)
        for _ in range(5):
            w1 = rng.standard_normal(m.num_nodes)
            w2 = rng.standard_normal(m.num_nodes)
            v1, v2 = resolvent(m, p, w1), resolvent(m, p, w2)
            assert h_norm(m, v1 - v2) <= h_norm(m, w1 - w2) + 1e-9

    def test_converges_under_the_smoothing_sweep(self):
        # resolvents at shrinking (delta, lam) form a Cauchy-like sequence:
        # the finite-dimensional shadow of energy convergence implying
        # resolvent convergence
        for mesh in (IntervalMesh(1.0, 32), DiscMesh(1.0, 6, 12)):
            rng = np.random.default_rng(3)
            w = rng.uniform(-2.0, 2.0, mesh.num_nodes)
            prev, dists = None, []
            for k in range(1, 8):
                p = make_params(eps=0.5, delta=2.0 ** -k, lam=2.0 ** -k)
                v = resolvent(mesh, p, w, tol=1e-11)
                if prev is not None:
                    dists.append(h_norm(mesh, v - prev))
                prev = v
            assert all(b < a for a, b in zip(dists, dists[1:])), dists


def test_flow_params_validation():
    with pytest.raises(ConfigError):
        FlowParams(tau=0.0, T=1.0)
    with pytest.raises(ConfigError):
        FlowParams(tau=0.1, T=-1.0)
    with pytest.raises(ConfigError):
        FlowParams(tau=0.1, T=1.0, inner_max_iters=0)
    assert FlowParams(tau=0.3, T=1.0).num_steps == 4
    assert FlowParams(tau=0.25, T=1.0).num_steps == 4


@st.composite
def dual_and_step(draw):
    """Per-cell flux w with |w| <= 0.999 and an arbitrary update dw, zero in some cells."""
    n = draw(st.integers(1, 6))
    dim = draw(st.sampled_from([1, 2]))
    w = draw(arrays(float, (n, dim), elements=st.floats(-1.0, 1.0)))
    norms = np.linalg.norm(w, axis=1, keepdims=True)
    w = np.where(norms > 0.999, 0.999 * w / np.maximum(norms, 1e-300), w)
    dw = draw(arrays(float, (n, dim), elements=st.floats(-5.0, 5.0)))
    dw[draw(arrays(bool, n))] = 0.0
    return w, dw


@settings(max_examples=300, deadline=None)
@given(dual_and_step())
def test_dual_step_stops_short_of_the_unit_ball_boundary(case):
    w, dw = case
    f = acgf.flow.DUAL_FRACTION
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        beta = _dual_step(w, dw)
    assert beta.shape == (len(w), 1)
    assert np.all((0.0 < beta) & (beta <= 1.0))
    # by convexity, the fraction f of the way to the boundary leaves 1 - f of each cell's slack
    wn = np.linalg.norm(w, axis=1)
    assert np.all(np.linalg.norm(w + beta * dw, axis=1) <= 1.0 - (1.0 - f) * (1.0 - wn) + 1e-12)
    # the closed-form root puts every cell whose step is cut exactly on the boundary
    short = beta[:, 0] < 1.0
    reach = np.linalg.norm(w + beta / f * dw, axis=1)[short]
    assert np.all(np.abs(reach - 1.0) <= 1e-9)
    assert np.all(beta[~dw.any(axis=1)] == 1.0)


def _openblas_threads(module, symbol):
    """Thread count reported by the OpenBLAS linked to an extension module, or None."""
    get = getattr(ctypes.CDLL(module.__file__), symbol, None)
    if get is None:
        return None
    get.argtypes, get.restype = [], ctypes.c_int
    return get()


def _python(code, *args):
    """Run code in a fresh interpreter on this acgf with OPENBLAS_NUM_THREADS=2; its stdout."""
    src = os.path.dirname(os.path.dirname(acgf.__file__))
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "2", "PYTHONPATH": src}
    return subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True,
                          check=True, timeout=120).stdout


# 2048 nodes with bandwidth ntheta + 2 = 66, above the 64 where LAPACK factors blocked
BLOCKED_BAND_RUN = {
    "mesh": {"kind": "disc", "R": 1.0, "nr": 32, "ntheta": 64},
    "energy": {"kappa": 0.2, "eps": 0.5, "perturbation": {"kind": "neg_quadratic"}},
    "flow": {"tau": 1.0 / 128.0, "T": 4.0 / 128.0},
    "initial": {"kind": "random"},
    "seed": 3,
}
FINAL_STATE = """
import json, sys
from acgf.config import config_from_dict
from acgf.flow import run_flow
final = run_flow(*config_from_dict(json.loads(sys.argv[1])).build_all())[0]
sys.stdout.buffer.write(final.tobytes())
"""


class TestScipyBlasThreads:
    def test_scipy_openblas_runs_on_one_thread(self):
        threads = _openblas_threads(scipy.linalg.cython_blas, "scipy_openblas_get_num_threads")
        if threads is None:
            pytest.skip("scipy is not linked to scipy-openblas")
        assert threads == 1

    def test_numpy_openblas_keeps_its_thread_count(self):
        import numpy.linalg._umath_linalg as numpy_blas

        if _openblas_threads(numpy_blas, "scipy_openblas_get_num_threads64_") is None:
            pytest.skip("numpy is not linked to scipy-openblas64")
        code = ("import ctypes, numpy.linalg._umath_linalg as m\n"
                "get = ctypes.CDLL(m.__file__).scipy_openblas_get_num_threads64_\n"
                "before = get()\n"
                "import acgf.flow\n"
                "print(before, get())")
        before, after = _python(code).split()
        assert before == after

    def test_blocked_factorization_is_independent_of_the_thread_setting(self):
        mesh, p, fp, u0, forcing = config_from_dict(BLOCKED_BAND_RUN).build_all()
        assert fp.num_steps == 4 and mesh.bandwidth > 64
        here = run_flow(mesh, p, fp, u0, forcing)[0]
        assert _python(FINAL_STATE, json.dumps(BLOCKED_BAND_RUN)) == here.tobytes()
