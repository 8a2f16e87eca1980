"""The names of the program that the benchmark's tracer hooks must keep existing.

``perfbench/spans.py`` wraps program functions by name; a traced metric whose
hooked name is gone is dropped from the benchmark's result. Renaming or
deleting such a name has to fail here first.
"""

import importlib.util
from pathlib import Path

import numpy as np
import scipy.linalg.lapack

import acgf.config
import acgf.energy
import acgf.experiments
import acgf.flow
import acgf.meshes
import acgf.norms
import acgf.runio
from acgf.config import config_from_dict
from acgf.energy import EnergyParams, SmoothPerturbation
from acgf.potentials import indicator

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_metric_finds_the_names_it_hooks():
    spans = load_spans()
    assert spans.absent_metrics({h.span for _, h in spans.hook_targets()}) == []


def test_energy_reaches_the_cell_gradients_through_its_own_module_attribute():
    assert vars(acgf.energy)["bulk_gradient"] is acgf.meshes.bulk_gradient


def test_energy_reaches_the_smoothed_norm_through_its_own_module_attribute():
    # a benchmark can count and time the norm of every evaluation by wrapping this one
    assert vars(acgf.energy)["smoothed"] is acgf.norms.smoothed


def test_flow_factors_and_solves_through_its_own_lapack_attributes():
    # a benchmark can time the factorization and the solve by wrapping these two
    assert vars(acgf.flow)["dpbtrf"] is scipy.linalg.lapack.dpbtrf
    assert vars(acgf.flow)["dpbtrs"] is scipy.linalg.lapack.dpbtrs


def test_run_flow_takes_each_step_through_the_hooked_proximal_step(monkeypatch):
    # the benchmark times a step as the span of acgf.flow.proximal_step and the
    # energy values inside it as acgf.energy.phi_regularized
    inside, steps, values_in_step = [], [], []
    step, phi = acgf.flow.proximal_step, acgf.energy.phi_regularized

    def counted_step(*args, **kwargs):
        steps.append(len(values_in_step))
        inside.append(True)
        try:
            return step(*args, **kwargs)
        finally:
            inside.pop()

    def counted_phi(*args, **kwargs):
        if inside:
            values_in_step.append(len(steps))
        return phi(*args, **kwargs)

    monkeypatch.setattr(acgf.flow, "proximal_step", counted_step)
    monkeypatch.setattr(acgf.energy, "phi_regularized", counted_phi)
    mesh = acgf.meshes.DiscMesh(1.0, 4, 8)
    wells = indicator(-1.0, 1.0)
    p = EnergyParams(kappa=0.2, eps=0.5, delta=0.1, lam=0.1, bulk_potential=wells,
                     bdry_potential=wells, perturbation=SmoothPerturbation.neg_quadratic(-1, 1))
    u0 = np.where(mesh.coords[:, 0] < 0.0, 0.9, -0.9)
    _, trace, _ = acgf.flow.run_flow(mesh, p, acgf.flow.FlowParams(tau=1 / 128, T=3 / 128), u0)
    assert len(trace) == len(steps) == 3
    assert set(values_in_step) == {1, 2, 3}  # every step evaluates the energy inside its span


def test_sweep_runs_each_member_through_the_hooked_run_flow(monkeypatch):
    # the benchmark counts a sweep's members (experiments.members) as the spans of
    # acgf.experiments.run_flow: the reference and each eps of the list, once each
    calls = []
    run_flow = acgf.experiments.run_flow

    def counted_run_flow(*args, **kwargs):
        calls.append(kwargs.get("guide") is not None)
        return run_flow(*args, **kwargs)

    monkeypatch.setattr(acgf.experiments, "run_flow", counted_run_flow)
    cfg = config_from_dict({
        "mesh": {"kind": "disc", "R": 1.0, "nr": 4, "ntheta": 8},
        "energy": {"kappa": 0.2, "eps": 0.5, "delta": 0.1, "lambda": 0.1,
                   "perturbation": {"kind": "neg_quadratic"}},
        "flow": {"tau": 1 / 128, "T": 2 / 128},
        "initial": {"kind": "two_phase", "amplitude": 0.9},
    })
    eps_list = [0.8, 0.4, 0.2, 0.1]
    report = acgf.experiments.sweep_epsilon(cfg, eps_list, 0.0)
    assert len(calls) == len(eps_list) + 1 == len(report.traces)
    assert calls == [False] + [True] * len(eps_list)  # the reference first, unguided


def test_setup_reads_the_initial_file_and_builds_the_mesh_once(tmp_path, monkeypatch):
    # the benchmark times the snapshot read and the mesh build as the spans of
    # acgf.runio.read_snapshot_values and acgf.config.build_mesh, which the config
    # must look up as module attributes when it builds the run
    mesh = acgf.meshes.DiscMesh(1.0, 4, 8)
    path = tmp_path / "initial.csv"
    path.write_text(acgf.runio._snapshot_csv(acgf.runio._row_prefixes(mesh),
                                             np.linspace(-0.5, 0.5, mesh.num_nodes)))
    calls = []
    for module, name in ((acgf.runio, "read_snapshot_values"), (acgf.config, "build_mesh")):
        original = getattr(module, name)
        monkeypatch.setattr(module, name,
                            lambda *a, name=name, f=original: calls.append(name) or f(*a))
    cfg = config_from_dict({"mesh": {"kind": "disc", "R": 1.0, "nr": 4, "ntheta": 8},
                            "initial": {"kind": "file", "path": str(path)}})
    assert sorted(calls) == ["build_mesh", "read_snapshot_values"]
    cfg.build_all()
    assert len(calls) == 2
