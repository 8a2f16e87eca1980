"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one PASS line on success; a pytest failure is the FAIL
signal for that criterion. Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import math

import numpy as np
import pytest

from conftest import coordinate_descent_prox_oracle, grad_phi_regularized, laplace_beltrami

from acgf.config import config_from_dict
from acgf.energy import (
    EnergyParams,
    ForcingField,
    NonePart,
    SmoothPerturbation,
    phi_regularized,
)
from acgf.experiments import continuous_dependence_probe, sweep_epsilon, sweep_regularization
from acgf.flow import FlowParams, proximal_step, run_flow
from acgf.meshes import DiscMesh, IntervalMesh, h_inner, surface_gradient
from acgf.norms import SmoothedNorm
from acgf.potentials import indicator, quadratic, tabulated

IND = indicator(-1.0, 1.0)


def params(**kw):
    base = dict(kappa=0.2, eps=0.0, delta=0.1, lam=0.1,
                bulk_potential=IND, bdry_potential=IND,
                perturbation=SmoothPerturbation(NonePart()))
    base.update(kw)
    return EnergyParams(**base)


def test_criterion_1_prox_oracle_equivalence():
    """Proximal step vs independent coordinate-descent minimizer, 20 states."""
    mesh = IntervalMesh(1.0, 8)  # 9 DOF <= 32
    p = params(kappa=0.5, perturbation=SmoothPerturbation.neg_quadratic(-1, 1))
    fp = FlowParams(tau=0.05, T=1.0)
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(20):
        u = rng.uniform(-1.0, 1.0, mesh.num_nodes)
        theta = rng.uniform(-0.5, 0.5, mesh.num_nodes)
        v, _ = proximal_step(mesh, p, fp, u, theta)
        v_oracle = coordinate_descent_prox_oracle(mesh, p, fp.tau, u, theta,
                                                  grad_tol=1e-10)
        worst = max(worst, float(np.abs(v - v_oracle).max()))
    assert worst <= 1e-6, f"sup-norm disagreement {worst:.3e}"
    print(f"ACCEPTANCE 1 prox/oracle equivalence (sup dev {worst:.2e}): PASS")


def test_criterion_2_gradient_consistency():
    """Assembled gradient matches central differences to 1e-6 relative."""
    rng = np.random.default_rng(7)
    h = 1e-6
    worst = 0.0
    for mesh, eps in ((IntervalMesh(1.0, 16), 0.0), (DiscMesh(1.0, 6, 12), 0.7)):
        p = params(eps=eps, delta=0.3, lam=0.25, kappa=0.8)
        for _ in range(10):
            u = rng.uniform(-0.9, 0.9, mesh.num_nodes)
            g = grad_phi_regularized(mesh, p, u)
            v = rng.standard_normal(mesh.num_nodes)
            fd = (phi_regularized(mesh, p, u + h * v)
                  - phi_regularized(mesh, p, u - h * v)) / (2 * h)
            rel = abs(h_inner(mesh, g, v) - fd) / max(1.0, abs(fd))
            worst = max(worst, rel)
    assert worst <= 1e-6, f"gradient mismatch {worst:.3e}"
    print(f"ACCEPTANCE 2 gradient consistency (worst rel {worst:.2e}): PASS")


def test_criterion_3_dissipation_over_200_steps():
    """Monotone energy without forcing; monotone free energy semi-implicitly."""
    rng = np.random.default_rng(11)
    for mesh in (IntervalMesh(1.0, 32), DiscMesh(1.0, 8, 16)):
        u0 = rng.uniform(-1.0, 1.0, mesh.num_nodes)
        # pure convex flow, perturbation off, any tau
        p = params(eps=0.5 if mesh.kind == "disc" else 0.0)
        fp = FlowParams(tau=0.1, T=20.0)
        assert fp.num_steps == 200
        _, trace, _ = run_flow(mesh, p, fp, u0)
        phis = [phi_regularized(mesh, p, u0)] + [r.phi_reg for r in trace]
        for a, b in zip(phis, phis[1:]):
            assert b <= a + 1e-10 * (1.0 + abs(a))
        # semi-implicit with the concave well part, tau = 1/(4 L_g)
        p = params(eps=0.5 if mesh.kind == "disc" else 0.0,
                   perturbation=SmoothPerturbation.neg_quadratic(-1, 1))
        fp = FlowParams(tau=0.25, T=50.0)
        assert fp.num_steps == 200
        _, trace, _ = run_flow(mesh, p, fp, u0)
        fes = [r.free_energy for r in trace]
        for a, b in zip(fes, fes[1:]):
            assert b <= a + 1e-10 * (1.0 + abs(a))
    print("ACCEPTANCE 3 dissipation over 200 steps, both mesh kinds: PASS")


def test_criterion_4_moreau_yosida_laws():
    """Envelope ordering and limit, non-expansive prox, slope consistency."""
    rng = np.random.default_rng(13)
    pots = [IND, quadratic(1.5),
            tabulated([[-2.0, 1.0], [-0.5, 0.1], [0.0, 0.0], [2.0, 3.0]])]
    lams = [2.0 ** (-k) for k in range(1, 11)]
    for pot in pots:
        rs = rng.uniform(-4, 4, 50)
        prev = np.zeros_like(rs)
        for lam in lams:  # lam decreasing: envelopes increase toward B
            cur = np.asarray(pot.envelope(lam, rs))
            assert np.all(cur >= -1e-15) and np.all(cur >= prev - 1e-13)
            prev = cur
        exact = np.asarray(pot.value(rs))
        assert np.all(prev <= exact + 1e-12)
        # pointwise limit on the domain interior
        interior = rs[(rs > pot.lo + 0.05) & (rs < pot.hi - 0.05)] \
            if np.isfinite(pot.lo) else rs
        gaps = np.asarray(pot.value(interior)) - np.asarray(pot.envelope(lams[-1], interior))
        assert np.all(gaps <= 2e-2 * (1.0 + np.abs(np.asarray(pot.value(interior)))))
        # non-expansiveness on 1000 sampled pairs
        a = rng.uniform(-6, 6, 1000)
        b = rng.uniform(-6, 6, 1000)
        pa, pb = np.asarray(pot.prox(0.3, a)), np.asarray(pot.prox(0.3, b))
        assert np.all(np.abs(pa - pb) <= np.abs(a - b) + 1e-9)
        # slope equals the envelope derivative
        h = 1e-5
        for r in rng.uniform(-3, 3, 20):
            fd = (pot.envelope(0.5, r + h) - pot.envelope(0.5, r - h)) / (2 * h)
            ys = pot.yosida(0.5, r)
            assert abs(fd - ys) <= 1e-6 * max(1.0, abs(ys))
    print("ACCEPTANCE 4 Moreau-Yosida laws: PASS")


def test_criterion_5_smoothed_norm_conformance():
    """f(0) = 0, convexity, gradient bound, delta band; 1e4 points per delta and dim.

    ``SmoothedNorm`` reads ``norms.smoothed``, the formula every solver
    evaluation runs on the disc's (dim 2) and the interval's (dim 1) cell gradients.
    """
    rng = np.random.default_rng(17)
    for dim in (2, 1):
        for delta in (1.0, 0.1, 0.01):
            f = SmoothedNorm(delta, dim)
            assert f.eval(np.zeros(dim)) == 0.0
            w = rng.uniform(-8, 8, size=(10_000, dim))
            norms = np.linalg.norm(w, axis=1)
            vals = f.eval(w)
            assert np.all(vals >= 0.0)
            assert np.all(np.abs(vals - norms) <= delta + 1e-14)
            gn = np.linalg.norm(f.grad(w), axis=1)
            assert np.all(gn <= norms + 1.0)
            other = rng.uniform(-8, 8, size=(10_000, dim))
            mid = f.eval(0.5 * (w + other))
            assert np.all(mid <= 0.5 * vals + 0.5 * f.eval(other) + 1e-12)
    print("ACCEPTANCE 5 smoothed-norm family conformance: PASS")


def _sweep_config():
    return config_from_dict({
        "mesh": {"kind": "disc", "R": 1.0, "nr": 16, "ntheta": 32},
        "energy": {"kappa": 0.2, "eps": 0.0, "delta": 0.1, "lambda": 0.1,
                   "perturbation": {"kind": "neg_quadratic"}},
        "flow": {"tau": 1.0 / 128.0, "T": 0.5},
        "initial": {"kind": "two_phase", "amplitude": 0.9},
        "forcing": {"kind": "zero"},
        "seed": 7,
    })


def test_criterion_6_eps_continuity_sweeps():
    """Sup distances shrink as the boundary-diffusion strength approaches
    the reference, toward both a zero and a positive reference value."""
    cfg = _sweep_config()
    rep0 = sweep_epsilon(cfg, [0.8, 0.4, 0.2, 0.1], 0.0)
    assert rep0.verdicts["e_h_strictly_decreasing"], rep0.e_h
    rep5 = sweep_epsilon(cfg, [1.0, 0.75, 0.6], 0.5)
    assert rep5.verdicts["e_h_strictly_decreasing"], rep5.e_h
    assert rep5.verdicts["boundary_h1_decreasing"], rep5.extra["boundary_h1"]
    print(f"ACCEPTANCE 6 eps-continuity (e: {[round(x, 4) for x in rep0.e_h]} -> 0, "
          f"{[round(x, 4) for x in rep5.e_h]} -> 0.5): PASS")


def test_criterion_7_regularization_limit_sweep():
    """Cauchy trend along (2^-k, 2^-k) and monotone energy recovery."""
    cfg = config_from_dict({
        "mesh": {"kind": "interval", "L": 1.0, "n": 64},
        "energy": {"kappa": 0.2, "eps": 0.0, "delta": 0.1, "lambda": 0.1,
                   "perturbation": {"kind": "neg_quadratic"}},
        "flow": {"tau": 1.0 / 64.0, "T": 0.5},
        "initial": {"kind": "two_phase", "amplitude": 0.9},
        "seed": 7,
    })
    pairs = [(2.0 ** -k, 2.0 ** -k) for k in range(1, 7)]
    rep = sweep_regularization(cfg, pairs)
    assert rep.verdicts["successive_distances_decreasing"], rep.e_h
    assert rep.verdicts["phi_recovery_monotone"]
    phis = rep.extra["phi_values"]
    assert all(b >= a for a, b in zip(phis, phis[1:]))
    assert phis[-1] <= rep.extra["phi_exact"]
    print(f"ACCEPTANCE 7 regularization limit (distances {[round(x, 5) for x in rep.e_h]}): PASS")


def test_criterion_8_continuous_dependence_envelope():
    """Response ratios under the Gronwall envelope; zero perturbation bitwise."""
    cfg = config_from_dict({
        "mesh": {"kind": "interval", "L": 1.0, "n": 64},
        "energy": {"kappa": 0.2, "eps": 0.0, "delta": 0.1, "lambda": 0.1,
                   "perturbation": {"kind": "neg_quadratic"}},
        "flow": {"tau": 1.0 / 64.0, "T": 0.5},
        "initial": {"kind": "two_phase", "amplitude": 0.9},
        "seed": 7,
    })
    rep = continuous_dependence_probe(cfg, [1e-1, 1e-2, 1e-3])
    envelope = 2.0 * math.exp(2.0 * 1.0 * 0.5) * (1.0 + 0.5)
    assert rep.extra["envelope"] == pytest.approx(envelope)
    assert rep.verdicts["bounded_by_envelope"], rep.e_h
    assert rep.verdicts["deterministic_baseline"]
    print(f"ACCEPTANCE 8 continuous dependence (ratios {[round(r, 3) for r in rep.e_h]} "
          f"<= {envelope:.3f}): PASS")


def test_criterion_9_scalar_ode_cross_check():
    """Constant-in-space runs converge at first order to an independent
    high-resolution integrator; three successive halvings each at least
    halve the final-time error."""
    mesh = IntervalMesh(1.0, 8)
    p = params(kappa=1.0, perturbation=SmoothPerturbation.neg_quadratic(-1, 1))
    theta, T = 0.8, 1.0
    lo, hi, lam = -1.0, 1.0, p.lam

    def rhs(u):  # independent closed forms
        clamp = lo if u < lo else (hi if u > hi else u)
        return theta - (u - clamp) / lam + clamp

    u_ref, nref = 0.0, 200_000
    dt = T / nref
    for _ in range(nref):
        k1 = rhs(u_ref)
        k2 = rhs(u_ref + 0.5 * dt * k1)
        k3 = rhs(u_ref + 0.5 * dt * k2)
        k4 = rhs(u_ref + dt * k3)
        u_ref += dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)

    f = ForcingField.constant(mesh, theta, theta)
    errs = []
    for tau in (0.05, 0.025, 0.0125, 0.00625):
        uf, _, _ = run_flow(mesh, p, FlowParams(tau=tau, T=T), np.zeros(mesh.num_nodes), f)
        assert uf.max() - uf.min() <= 1e-10
        errs.append(abs(uf[0] - u_ref))
    for a, b in zip(errs, errs[1:]):
        assert b <= 0.5 * a, f"halving tau did not halve the error: {errs}"
    print(f"ACCEPTANCE 9 scalar-ODE cross-check (errors {[f'{e:.2e}' for e in errs]}): PASS")


def test_criterion_10_surface_calculus():
    """Second-order circle eigenrelation and exact summation by parts."""
    errs = []
    for nth in (64, 128, 256):
        m = DiscMesh(1.0, 4, nth)
        th = np.arctan2(m.coords[:, 1], m.coords[:, 0])
        lb = laplace_beltrami(m, np.cos(th))
        errs.append(np.abs(lb + np.cos(th[m.boundary_nodes])).max())
    assert errs[-1] <= 1e-3
    assert errs[0] / errs[1] >= 3.5 and errs[1] / errs[2] >= 3.5
    m = DiscMesh(1.0, 4, 64)
    rng = np.random.default_rng(23)
    u = rng.standard_normal(m.num_nodes)
    v = rng.standard_normal(m.num_nodes)
    lhs = float(np.dot(laplace_beltrami(m, u) * v[m.boundary_nodes], m.w_bdry))
    rhs = -float(np.dot(surface_gradient(m, u) * surface_gradient(m, v), m.seg_weights))
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))
    print(f"ACCEPTANCE 10 surface calculus (orders {errs[0]/errs[1]:.2f}, "
          f"{errs[1]/errs[2]:.2f}; SBP defect {abs(lhs-rhs):.1e}): PASS")
