"""Sweep and probe studies on small configurations."""

import json

import numpy as np
import pytest

import acgf.experiments
from acgf.config import RunConfig, config_from_dict
from acgf.errors import ConfigError
from acgf.experiments import (
    continuous_dependence_probe,
    sweep_epsilon,
    sweep_regularization,
    v0_distance_sq,
)
from acgf.flow import run_flow
from acgf.runio import write_sweep_report


def disc_cfg(**over):
    base = {
        "mesh": {"kind": "disc", "R": 1.0, "nr": 6, "ntheta": 12},
        "energy": {"kappa": 0.2, "eps": 0.0, "delta": 0.1, "lambda": 0.1,
                   "perturbation": {"kind": "neg_quadratic"}},
        "flow": {"tau": 0.05, "T": 0.25},
        "initial": {"kind": "two_phase", "amplitude": 0.9},
        "seed": 5,
    }
    base.update(over)
    return config_from_dict(base)


def interval_cfg(**over):
    base = {
        "mesh": {"kind": "interval", "L": 1.0, "n": 24},
        "energy": {"kappa": 0.2, "eps": 0.0, "delta": 0.1, "lambda": 0.1,
                   "perturbation": {"kind": "neg_quadratic"}},
        "flow": {"tau": 0.05, "T": 0.25},
        "initial": {"kind": "two_phase", "amplitude": 0.9},
        "seed": 5,
    }
    base.update(over)
    return config_from_dict(base)


BENCHMARK_EPS = [0.8, 0.4, 0.2, 0.1]


def benchmark_disc_cfg(steps, **over):
    """The 512-node disc with the benchmark's energy, from a +-0.9 two-phase start."""
    return disc_cfg(mesh={"kind": "disc", "R": 1.0, "nr": 16, "ntheta": 32},
                    energy={"kappa": 0.2, "eps": 0.5, "delta": 0.1, "lambda": 0.1,
                            "perturbation": {"kind": "neg_quadratic"}},
                    flow={"tau": 1 / 128, "T": steps / 128}, **over)


def unguided_sweep(monkeypatch, cfg):
    """The eps sweep of BENCHMARK_EPS with every member cold-started, as it ran unguided."""
    with monkeypatch.context() as mp:
        mp.setattr(acgf.experiments, "run_flow",
                   lambda *args, guide=None, **kwargs: run_flow(*args, **kwargs))
        return sweep_epsilon(cfg, BENCHMARK_EPS, 0.0)


def newton_iters(report):
    return sum(rec.inner_iters for trace in report.traces.values() for rec in trace)


class TestSweepEpsilon:
    def test_single_entry_self_comparison_is_zero(self):
        rep = sweep_epsilon(disc_cfg(), [0.5], 0.5)
        assert rep.e_h == [0.0]
        assert rep.passed

    def test_two_values_decrease_toward_reference(self):
        rep = sweep_epsilon(disc_cfg(), [0.8, 0.3], 0.0)
        assert rep.e_h[1] < rep.e_h[0]
        assert rep.passed

    def test_positive_reference_reports_boundary_metric(self):
        rep = sweep_epsilon(disc_cfg(), [1.0, 0.7], 0.5)
        assert "boundary_h1" in rep.extra
        assert rep.verdicts["boundary_h1_decreasing"]

    def test_interval_mesh_rejected(self):
        with pytest.raises(ConfigError):
            sweep_epsilon(interval_cfg(), [0.5, 0.2], 0.0)

    def test_list_must_approach_reference(self):
        with pytest.raises(ConfigError):
            sweep_epsilon(disc_cfg(), [0.2, 0.8], 0.0)
        with pytest.raises(ConfigError):
            sweep_epsilon(disc_cfg(), [], 0.0)

    def test_guided_members_cut_the_newton_iterates_of_a_one_step_sweep(self, monkeypatch):
        # cold-started members take 45 iterates here; guided ones 26
        cfg = benchmark_disc_cfg(steps=1)
        guided = sweep_epsilon(cfg, BENCHMARK_EPS, 0.0)
        cold = unguided_sweep(monkeypatch, cfg)
        assert newton_iters(guided) <= 0.8 * newton_iters(cold)
        assert guided.e_h == pytest.approx(cold.e_h, rel=1e-9)
        assert guided.e_v0 == pytest.approx(cold.e_v0, rel=1e-9)

    def test_guided_members_take_no_more_iterates_over_forced_steps(self, monkeypatch):
        # 8 steps under constant forcing 3: 179 cold iterates, 142 guided
        cfg = benchmark_disc_cfg(steps=8,
                                 forcing={"kind": "constant", "bulk": 3.0, "boundary": 3.0})
        guided = sweep_epsilon(cfg, BENCHMARK_EPS, 0.0)
        cold = unguided_sweep(monkeypatch, cfg)
        assert newton_iters(guided) <= newton_iters(cold)
        assert guided.e_h == pytest.approx(cold.e_h, rel=1e-9)
        assert guided.e_v0 == pytest.approx(cold.e_v0, rel=1e-9)


class TestSweepRegularization:
    def test_single_pair_trivially_cauchy(self):
        rep = sweep_regularization(interval_cfg(), [(0.5, 0.5)])
        assert rep.e_h == [] and rep.passed

    def test_successive_distances_shrink(self):
        pairs = [(2.0 ** -k, 2.0 ** -k) for k in range(1, 5)]
        rep = sweep_regularization(interval_cfg(), pairs)
        assert all(b < a for a, b in zip(rep.e_h, rep.e_h[1:]))
        assert rep.passed

    def test_energy_recovery_monotone(self):
        pairs = [(2.0 ** -k, 2.0 ** -k) for k in range(1, 5)]
        rep = sweep_regularization(interval_cfg(), pairs)
        phis = rep.extra["phi_values"]
        assert all(b >= a for a, b in zip(phis, phis[1:]))
        assert phis[-1] <= rep.extra["phi_exact"]

    def test_lambda_only_descent_allowed(self):
        rep = sweep_regularization(interval_cfg(), [(0.25, 0.5), (0.25, 0.25), (0.25, 0.125)])
        assert rep.verdicts["phi_recovery_monotone"]

    def test_non_descending_pairs_rejected(self):
        with pytest.raises(ConfigError):
            sweep_regularization(interval_cfg(), [(0.25, 0.25), (0.5, 0.5)])


SWEEPS = [
    (lambda cfg: sweep_epsilon(cfg, [0.6, 0.3], 0.0), 3),
    (lambda cfg: sweep_regularization(cfg, [(0.5, 0.5), (0.25, 0.25)]), 2),
    (lambda cfg: continuous_dependence_probe(cfg, [0.1, 0.01]), 4),  # baseline, its rerun, 2
]
SWEEP_IDS = ["eps", "regularization", "dependence"]


@pytest.mark.parametrize("sweep,members", SWEEPS, ids=SWEEP_IDS)
def test_every_sweep_member_runs_on_the_one_mesh_of_its_config(monkeypatch, sweep, members):
    # the mesh's lazy band_slots and cell_products tables are then built once per sweep
    meshes = []

    def recording_run_flow(mesh, *args, **kwargs):
        meshes.append(mesh)
        return run_flow(mesh, *args, **kwargs)

    monkeypatch.setattr(acgf.experiments, "run_flow", recording_run_flow)
    cfg = disc_cfg()
    sweep(cfg)
    assert len(meshes) == members
    assert all(mesh is cfg.build_all()[0] for mesh in meshes)


@pytest.mark.parametrize("sweep,members", SWEEPS, ids=SWEEP_IDS)
def test_every_sweep_builds_its_config_once(monkeypatch, sweep, members):
    builds = []
    build_all = RunConfig.build_all

    def counted_build_all(cfg):
        builds.append(cfg)
        return build_all(cfg)

    monkeypatch.setattr(RunConfig, "build_all", counted_build_all)
    cfg = disc_cfg()
    sweep(cfg)
    assert builds == [cfg]


def test_sweep_eps_builds_every_member_before_the_reference_solve(monkeypatch):
    def no_solve(*a, **kw):
        raise AssertionError("a member was solved before every member was built")

    monkeypatch.setattr(acgf.experiments, "run_flow", no_solve)
    with pytest.raises(ConfigError, match="eps must be nonnegative with a finite square"):
        sweep_epsilon(disc_cfg(), [1e200], 0.0)


def test_a_failing_verdict_fails_the_report_and_its_files(tmp_path):
    rep = sweep_epsilon(disc_cfg(), [0.8, 0.3], 0.0)
    assert rep.passed and rep.to_jsonable()["passed"] is True
    rep.verdicts["e_h_strictly_decreasing"] = False
    assert not rep.passed
    write_sweep_report(str(tmp_path), rep, {})
    payload = json.loads((tmp_path / "report.json").read_text())
    assert payload["passed"] is False
    assert "traces" not in payload
    rows = (tmp_path / "summary.csv").read_text().splitlines()[1:]
    assert len(rows) == 2 and all(row.endswith(",fail") for row in rows)


class TestContinuousDependence:
    def test_ratios_bounded_and_deterministic(self):
        rep = continuous_dependence_probe(interval_cfg(), [0.1, 0.01, 0.001])
        assert rep.verdicts["bounded_by_envelope"]
        assert rep.verdicts["deterministic_baseline"]
        assert rep.extra["ratio_spread"] <= 2.0

    def test_magnitudes_validated(self):
        with pytest.raises(ConfigError):
            continuous_dependence_probe(interval_cfg(), [])
        with pytest.raises(ConfigError):
            continuous_dependence_probe(interval_cfg(), [0.01, 0.1])
        with pytest.raises(ConfigError):
            continuous_dependence_probe(interval_cfg(), [0.1, -0.01])


def test_v0_distance_components():
    from acgf.meshes import IntervalMesh
    m = IntervalMesh(1.0, 4)
    u = m.coords[:, 0].copy()
    v = np.zeros(m.num_nodes)
    # slope 1 over unit length plus traces 0 and 1 at the endpoints
    assert v0_distance_sq(m, u, v) == pytest.approx(1.0 + 0.0 + 1.0, abs=1e-13)
