"""Workloads of the acgf benchmark: seeded inputs, one CLI-equivalent run, its checks.

A run goes through the same public calls as ``acgf run`` and
``acgf sweep-eps``: ``config.config_from_dict`` -> ``RunConfig.build_all``
-> ``flow.run_flow`` or ``experiments.sweep_epsilon`` ->
``runio.write_run_outputs`` or ``runio.write_sweep_report``. Every program
entry point is looked up on its module at call time, so the tracer in
``spans.py`` can wrap it.

One proximal step is one operation; in ``sweep-eps`` one member run is one
operation. A step fails on a ``SolverError``, on an inner residual above
``flow.default_inner_tol(mesh)``, or on a rise of the free energy over the
previous step beyond ``DISSIPATION_RTOL``. A whole run fails when its
written artifacts disagree with the returned results, when a rerun of the
same input is not bit-identical, when a sweep reports ``passed`` false, or
when a recorded reference value (``reference.json``) is missed by more than
``REFERENCE_RTOL``.
"""

import contextlib
import json
import math
import os
import shutil
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

import acgf
import acgf.config
import acgf.energy
import acgf.experiments
import acgf.flow
import acgf.meshes
import acgf.runio

TAU = 1.0 / 128.0
ENERGY = {"kappa": 0.2, "eps": 0.5, "delta": 0.1, "lambda": 0.1,
          "perturbation": {"kind": "neg_quadratic"}}
INDICATOR = {"kind": "indicator", "lo": -1.0, "hi": 1.0}
TABULATED = {"kind": "tabulated",
             "points": [[-1.0, 0.6], [-0.5, 0.1], [0.0, 0.0], [0.5, 0.1], [1.0, 0.6]]}
SWEEP_EPS = (0.8, 0.4, 0.2, 0.1)
SWEEP_EPS0 = 0.0

DISSIPATION_RTOL = 1e-12
REFERENCE_RTOL = 1e-6
REFERENCE_FILE = Path(__file__).resolve().parent / "reference.json"


@dataclass(frozen=True)
class Workload:
    name: str
    nr: int
    ntheta: int
    wells: dict
    steps: int
    snapshot_every: int
    inputs: int  # size of the seed's input set that a timed run cycles through
    sweep: bool = False

    @property
    def nodes(self):
        return self.nr * self.ntheta

    @property
    def ops_per_run(self):
        return len(SWEEP_EPS) + 1 if self.sweep else self.steps


WORKLOADS = {w.name: w for w in (
    # The paper's obstacle problem: Newton-CG with matrix-free Hessian
    # products dominates, prox work is negligible.
    Workload("disc-indicator", 32, 64, INDICATOR, steps=1, snapshot_every=8, inputs=5),
    # Tabulated wells: the bisection prox dominates, Newton-CG is small. Its
    # cost is per prox call, not per node, so a 128-node disc keeps the mix
    # while a run stays short.
    Workload("disc-tabulated", 8, 16, TABULATED, steps=1, snapshot_every=8, inputs=10),
    # Five independent one-step member runs on a 4x smaller mesh, one at
    # eps=0: the only workload that exercises experiments and sweep report I/O.
    Workload("sweep-eps", 16, 32, INDICATOR, steps=1, snapshot_every=0, inputs=8, sweep=True),
)}


def tiny(w):
    """The same workload on a 4x8 disc over two steps and two inputs, for the self-tests."""
    return replace(w, name=f"{w.name}-tiny", nr=4, ntheta=8, steps=2, inputs=2,
                   snapshot_every=0 if w.sweep else 1)


# ---------------------------------------------------------------------------
# seeded inputs

def node_coords(w):
    """Node x, y and boundary flag of the polar disc grid, ring-major like the program."""
    dr = 1.0 / (w.nr - 0.5)
    radii = (np.arange(w.nr) + 0.5) * dr
    radii[-1] = 1.0
    theta = np.arange(w.ntheta) * (2.0 * np.pi / w.ntheta)
    x = (radii[:, None] * np.cos(theta)[None, :]).ravel()
    y = (radii[:, None] * np.sin(theta)[None, :]).ravel()
    boundary = np.zeros(w.nodes, dtype=bool)
    boundary[-w.ntheta:] = True
    return x, y, boundary


def initial_state(w, seed, index):
    """Input ``index`` of the seed's sequence: a two-phase +-0.9 profile plus
    uniform +-0.05 noise, clipped to [-1, 1]."""
    rng = np.random.default_rng([seed, index])
    x, _, _ = node_coords(w)
    return np.clip(np.where(x < 0.0, 0.9, -0.9) + rng.uniform(-0.05, 0.05, w.nodes), -1.0, 1.0)


def write_snapshot(path, w, values):
    """Write values in the documented snapshot CSV format."""
    x, y, boundary = node_coords(w)
    lines = ["node_id,x,y,is_boundary,value"]
    lines.extend(f"{i},{x[i]:.17g},{y[i]:.17g},{int(boundary[i])},{values[i]:.17g}"
                 for i in range(w.nodes))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_snapshot(path):
    """Value column of a snapshot CSV, ordered by node id."""
    rows = Path(path).read_text(encoding="utf-8").split("\n")[1:]
    pairs = sorted((int(r.split(",")[0]), float(r.split(",")[4])) for r in rows if r)
    return np.array([v for _, v in pairs])


def config_dict(w, seed, snapshot_path, outdir):
    return {
        "mesh": {"kind": "disc", "R": 1.0, "nr": w.nr, "ntheta": w.ntheta},
        "energy": {**ENERGY, "bulk_potential": w.wells, "bdry_potential": w.wells},
        "flow": {"tau": TAU, "T": w.steps * TAU},
        "initial": {"kind": "file", "path": str(snapshot_path)},
        "forcing": {"kind": "zero"},
        "output_dir": str(outdir),
        "snapshot_every": w.snapshot_every,
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# one run

@dataclass
class RunResult:
    setup_s: float
    solve_s: float
    write_s: float
    ops: int
    failed: int
    newton_iters: int = 0
    files_written: int = 0
    bytes_written: int = 0
    outcome: dict = field(default_factory=dict)

    @property
    def total_s(self):
        return self.setup_s + self.solve_s + self.write_s


def setup(raw):
    """config_from_dict plus build_all, as the CLI does before solving."""
    cfg = acgf.config.config_from_dict(raw)
    return cfg, cfg.build_all()


def run_once(w, raw):
    """One timed CLI-equivalent run of ``raw``, followed by its (untimed) checks."""
    outdir = raw["output_dir"]
    t0 = time.perf_counter()
    cfg, (mesh, p, fp, u0, forcing) = setup(raw)
    t1 = time.perf_counter()
    try:
        if w.sweep:
            result = acgf.experiments.sweep_epsilon(cfg, list(SWEEP_EPS), SWEEP_EPS0)
        else:
            result = acgf.flow.run_flow(mesh, p, fp, u0, forcing,
                                        snapshot_every=cfg.snapshot_every)
    except acgf.SolverError:
        t2 = time.perf_counter()
        return RunResult(t1 - t0, t2 - t1, 0.0, w.ops_per_run, w.ops_per_run)
    t2 = time.perf_counter()
    if w.sweep:
        acgf.runio.write_sweep_report(outdir, result, cfg.resolved())
    else:
        _, trace, snapshots = result
        acgf.runio.write_run_outputs(outdir, mesh, cfg.resolved(), trace, snapshots)
    t3 = time.perf_counter()

    run = RunResult(t1 - t0, t2 - t1, t3 - t2, w.ops_per_run, 0)
    files = [f for f in Path(outdir).iterdir() if f.is_file()]
    run.files_written = len(files)
    run.bytes_written = sum(f.stat().st_size for f in files)
    if w.sweep:
        _check_sweep(w, mesh, p, u0, result, outdir, run)
    else:
        _check_flow_run(w, mesh, p, u0, result, outdir, run)
    shutil.rmtree(outdir)
    return run


def failed_steps(mesh, p, u0, trace, steps):
    """Steps that miss the inner tolerance, raise the free energy, or are missing."""
    tol = acgf.flow.default_inner_tol(mesh)
    prev = math.fsum(acgf.energy.energy_terms(mesh, p, u0))
    failed = max(0, steps - len(trace))
    for rec in trace:
        ok = (rec.inner_residual <= tol and math.isfinite(rec.free_energy)
              and rec.free_energy <= prev + DISSIPATION_RTOL * abs(prev))
        failed += not ok
        prev = rec.free_energy
    return failed


def _check_flow_run(w, mesh, p, u0, result, outdir, run):
    u, trace, _ = result
    run.newton_iters = sum(rec.inner_iters for rec in trace)
    run.failed = failed_steps(mesh, p, u0, trace, w.steps)
    run.outcome = {"phi_reg": trace[-1].phi_reg if trace else math.nan,
                   "h_norm": acgf.meshes.h_norm(mesh, u)}
    try:
        trace_rows = (Path(outdir) / "trace.csv").read_text(encoding="utf-8").count("\n") - 1
        snapshot = read_snapshot(Path(outdir) / f"snapshot_{w.steps:06d}.csv")
        written = trace_rows == len(trace) and np.array_equal(snapshot, u)
    except (OSError, ValueError, IndexError):
        written = False
    if not written:
        run.failed = run.ops


def _check_sweep(w, mesh, p, u0, report, outdir, run):
    traces = list(report.traces.values())
    eps_all = (SWEEP_EPS0,) + SWEEP_EPS
    run.newton_iters = sum(rec.inner_iters for tr in traces for rec in tr)
    run.failed = sum(failed_steps(mesh, p.replace(eps=e), u0, tr, w.steps) > 0
                     for e, tr in zip(eps_all, traces))
    run.outcome = {"phi_reg": [tr[-1].phi_reg if tr else math.nan for tr in traces],
                   "e_h": list(report.e_h)}
    try:
        report_json = json.loads((Path(outdir) / "report.json").read_text(encoding="utf-8"))
        summary_rows = (Path(outdir) / "summary.csv").read_text(encoding="utf-8").count("\n") - 1
        written = report_json["e_h"] == report.e_h and summary_rows == len(SWEEP_EPS)
    except (OSError, ValueError, KeyError):
        written = False
    if not (report.passed and len(traces) == len(eps_all) and written):
        run.failed = run.ops


def load_reference():
    if not REFERENCE_FILE.is_file():
        return {}
    return json.loads(REFERENCE_FILE.read_text(encoding="utf-8"))


def matches(outcome, expected):
    """True when every recorded value agrees within REFERENCE_RTOL."""
    for key, want in expected.items():
        got = np.atleast_1d(np.asarray(outcome.get(key, math.nan), dtype=float))
        want = np.atleast_1d(np.asarray(want, dtype=float))
        if got.shape != want.shape or not np.all(np.abs(got - want) <= REFERENCE_RTOL * np.abs(want)):
            return False
    return True


# ---------------------------------------------------------------------------
# a workload instance: its seeded inputs on disk and the runs made of them

class Instance:
    """The seeded input sequence of one workload, written under ``workdir`` on demand.

    The Newton work of a run depends on its input by several per cent, so a
    timed run cycles through the first ``w.inputs`` inputs and its figures
    average over them.
    """

    def __init__(self, w, seed, workdir):
        self.w = w
        self.seed = seed
        self.workdir = Path(workdir)
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.raws = []
        self.expected = load_reference().get(w.name, {}).get(str(seed), [])
        self.outcomes = []
        self.attempted = 0
        self.failed = 0

    def raw(self, index):
        while len(self.raws) <= index:
            k = len(self.raws)
            path = self.workdir / f"initial_{k}.csv"
            write_snapshot(path, self.w, initial_state(self.w, self.seed, k))
            self.raws.append(config_dict(self.w, self.seed, path, self.workdir / f"out_{k}"))
            self.outcomes.append(None)
        return self.raws[index]

    def time_setup(self, index):
        raw = self.raw(index)
        t0 = time.perf_counter()
        setup(raw)
        return time.perf_counter() - t0

    def run(self, index):
        """Run input ``index`` once; fold its operations into the attempted/failed counts.

        A rerun of an input must reproduce its first outcome bit for bit.
        """
        run = run_once(self.w, self.raw(index))
        if run.failed < run.ops:
            if self.outcomes[index] is None:
                self.outcomes[index] = run.outcome
            same = run.outcome == self.outcomes[index]
            known = index >= len(self.expected) or matches(run.outcome, self.expected[index])
            if not (same and known):
                run.failed = run.ops
        self.attempted += run.ops
        self.failed += run.failed
        return run

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            self.workdir.parent.rmdir()  # only when no other run is using it


def workdir_for(root, w, seed):
    return Path(root) / f"{w.name}-seed{seed}-pid{os.getpid()}"
