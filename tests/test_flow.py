"""Time stepping: proximal steps, dissipation, resolvents, stability."""

import ctypes
import json
import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.linalg.cython_blas
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import acgf
from acgf.config import config_from_dict
from acgf.energy import EnergyParams, ForcingField, SmoothPerturbation, phi_regularized
from acgf.errors import ConfigError, NonconvergenceError, SolverError
from acgf.flow import (FlowParams, _dual_step, default_inner_tol, proximal_step, resolvent,
                       run_flow)
from acgf.meshes import DiscMesh, IntervalMesh, h_inner, h_norm
from acgf.potentials import indicator, quadratic, tabulated

IND = indicator(-1.0, 1.0)


def make_params(**kw):
    base = dict(kappa=0.2, eps=0.0, delta=0.1, lam=0.1,
                bulk_potential=IND, bdry_potential=IND,
                perturbation=SmoothPerturbation.none())
    base.update(kw)
    return EnergyParams(**base)


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

    @pytest.mark.parametrize("wells", [IND, quadratic(1.0), tabulated([[-1, 0.5], [0, 0], [1, 0.5]])],
                             ids=["indicator", "quadratic", "tabulated"])
    def test_non_finite_newton_direction_is_a_solver_error(self, monkeypatch, wells):
        # the line search's envelopes fail differently per well kind, so d is checked first
        cho_solve_banded = acgf.flow.cho_solve_banded

        def one_nan(cb, b, **kwargs):
            x = cho_solve_banded(cb, b, **kwargs)
            x[3] = np.nan
            return x

        monkeypatch.setattr(acgf.flow, "cho_solve_banded", one_nan)
        m = IntervalMesh(1.0, 16)
        u = np.random.default_rng(5).uniform(-0.9, 0.9, m.num_nodes)
        p = make_params(bulk_potential=wells, bdry_potential=wells)
        with pytest.raises(SolverError, match="non-finite Newton direction"):
            proximal_step(m, p, FlowParams(tau=0.1, T=1.0), u)


class TestRunFlow:
    def test_indefinite_newton_matrix_is_a_solver_error(self, monkeypatch):
        hessian = acgf.energy.hessian
        monkeypatch.setattr(acgf.energy, "hessian", lambda *a: -hessian(*a))
        m = DiscMesh(1.0, 4, 8)
        u = np.random.default_rng(5).uniform(-0.9, 0.9, m.num_nodes)
        with pytest.raises(SolverError, match="step 1: Newton matrix is not positive definite"):
            run_flow(m, make_params(), FlowParams(tau=0.1, T=1.0), u)

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
                + f.l2h_norm_sq(mesh, fp.tau, fp.num_steps) \
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
        from acgf.energy import euler_lagrange_residual
        m = DiscMesh(1.0, 6, 12)
        p = make_params(eps=0.5)
        rng = np.random.default_rng(17)
        w = rng.standard_normal(m.num_nodes)
        v = resolvent(m, p, w)
        assert euler_lagrange_residual(m, p, v, w - v) <= default_inner_tol(m)

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
                v = resolvent(mesh, p, w, inner_tol=1e-11)
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
    """Per-cell flux w with |w| <= 0.999 and an arbitrary update dw."""
    n = draw(st.integers(1, 6))
    dim = draw(st.sampled_from([1, 2]))
    w = draw(arrays(float, (n, dim), elements=st.floats(-1.0, 1.0)))
    norms = np.linalg.norm(w, axis=1, keepdims=True)
    w = np.where(norms > 0.999, 0.999 * w / np.maximum(norms, 1e-300), w)
    dw = draw(arrays(float, (n, dim), elements=st.floats(-5.0, 5.0)))
    return w, dw


@settings(max_examples=300, deadline=None)
@given(dual_and_step())
def test_dual_step_stops_short_of_the_unit_ball_boundary(case):
    w, dw = case
    beta = _dual_step(w, dw)
    assert 0.0 < beta <= 1.0
    # by convexity, 0.99 of the way to the boundary leaves 1% of each cell's slack
    wn = np.linalg.norm(w, axis=1)
    assert np.all(np.linalg.norm(w + beta * dw, axis=1) <= 1.0 - 0.01 * (1.0 - wn) + 1e-12)
    if beta < 1.0:  # the closed-form root puts some cell exactly on the boundary
        reach = np.linalg.norm(w + beta / 0.99 * dw, axis=1).max()
        assert reach == pytest.approx(1.0, abs=1e-9)


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
