"""Benchmark of the acgf solver: seeded workloads, end-to-end times, traced layer split.

Run from the repository root:

    python3 perfbench/run.py --workload disc-indicator --seed 1 --seconds 40 --trace 0

Workloads are defined in ``workloads.py``; the layer hooks in ``spans.py``.
The program is imported from ``src/`` next to this directory, so the
benchmark measures the checkout it sits in.

With ``--trace 0`` a run makes whole passes over a fixed set of the seed's
inputs (``Workload.inputs`` of them), timing in each pass a few set-ups
and one CLI-equivalent run of every input, after one untimed warm-up run.
``solve_s`` and ``total_s`` are the mean over the inputs of each input's
mean sample, so every input weighs the same however many Newton
iterations it takes; ``setup_s`` is the median of all set-up samples.
Samples take turns on the allowed CPUs: on a shared 2-core host each CPU
slows by up to 1.8x in phases of its own, lasting from under a second to
over a minute, so the figures average over both CPUs and the whole run
rather than rest on the fastest or any single sample. The median, tail
and count of all samples are printed too.

With ``--trace 1`` input 0 is run alternately untraced and traced; the
last line reports the per-layer metrics of the traced runs (median per
run) and the tracing overhead. Earlier lines give the environment, each
end-to-end metric's samples per input, the Newton iterations per input,
and any per-layer metric that is absent because the name it hooks no
longer exists.

The exit code is 0 when the benchmark ran, whether or not the checks
passed (``correct`` says which), and non-zero when it could not run.
"""

import argparse
import ctypes
import importlib.metadata
import itertools
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_ROOT = Path(__file__).resolve().parent / "_work"

# Set-up-only repetitions per input and pass: set-up is short, so it gets
# more samples than the solve.
SETUP_REPEATS = 3


def import_program():
    if not (SRC / "acgf" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no acgf sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import acgf

    if not Path(acgf.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"perfbench: acgf was imported from {acgf.__file__}, not {SRC}")


def blas_threads():
    """Thread count of the loaded OpenBLAS, or None when it cannot be asked."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libs = {line.split()[-1] for line in maps.splitlines() if "openblas" in line.lower()}
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment():
    import numpy as np

    def version(pkg):
        try:
            return importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            return None

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "loadavg_start": [round(x, 2) for x in os.getloadavg()],
    }


def tail(values):
    """Highest percentile with at least ten samples above it, else the maximum."""
    s = sorted(values)
    n = len(s)
    if n > 20:
        return f"p{100 * (n - 10) / n:.0f}", s[n - 11]
    return "max", s[-1]


def per_input_mean(per_input):
    """Mean over inputs of each input's mean sample."""
    return statistics.fmean(statistics.fmean(v) for v in per_input)


def summarize(name, unit, per_input):
    """Print the reported figure, then the median, tail and count of every sample."""
    values = [v for samples in per_input for v in samples]
    label, worst = tail(values)
    print(f"{name}: per-input mean {per_input_mean(per_input):.6g} {unit}; "
          f"all samples median {statistics.median(values):.6g} {unit}, "
          f"{label} {worst:.6g} {unit}, n={len(values)}")
    for j, samples in enumerate(per_input):
        print(f"{name} input {j}: " + " ".join(f"{v:.4g}" for v in samples))


def measure(w, seed, seconds, traced):
    """Run whole passes until the next pass would overrun ``seconds``; always at least one.

    Untraced, a pass runs each of the seed's first ``w.inputs`` inputs once,
    after ``SETUP_REPEATS`` timed set-ups of it, each input on the next CPU
    in turn. Traced, input 0 is run alternately without and with the
    tracer, so the traced counts repeat exactly for a seed and the overhead
    compares like with like.
    """
    from spans import Tracer, absent_metrics, layer_metrics
    from workloads import Instance, workdir_for

    inst = Instance(w, seed, workdir_for(WORK_ROOT, w, seed))
    inputs = 1 if traced else w.inputs
    setups = [[] for _ in range(inputs)]
    runs = [[] for _ in range(inputs)]
    traced_runs = []
    installed = set()
    cpus = sorted(os.sched_getaffinity(0))
    # a shared host slows each CPU in its own phases: samples take turns on the CPUs
    turns = itertools.cycle(cpus)
    try:
        inst.run(0)  # warm-up: first-call costs and the file cache
        start = time.perf_counter()
        while True:
            began = time.perf_counter()
            for j in range(inputs):
                if runs[-1] and time.perf_counter() > start + seconds:
                    break  # after the first pass, one that overruns ends early
                os.sched_setaffinity(0, {next(turns)})
                setups[j].extend(inst.time_setup(j) for _ in range(SETUP_REPEATS))
                runs[j].append(inst.run(j))
            if traced:
                if len(traced_runs) == 0:
                    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
                with Tracer() as tracer:
                    run = inst.run(0)
                installed = tracer.installed
                traced_runs.append((run, layer_metrics(tracer.spans, installed, run.newton_iters)))
            now = time.perf_counter()
            if now + (now - began) > start + seconds:
                break
    finally:
        os.sched_setaffinity(0, cpus)
        inst.close()
    for j in range(inputs):
        setups[j].extend(r.setup_s for r in runs[j])
    result = {"correct": inst.failed == 0, "attempted": inst.attempted, "failed": inst.failed}
    print(f"reference: {'checked' if inst.expected else 'none recorded'} for seed {seed}")

    if not traced:
        samples = {"setup_s": setups, "solve_s": [[r.solve_s for r in rs] for rs in runs],
                   "total_s": [[r.total_s for r in rs] for rs in runs]}
        for name, per_input in samples.items():
            summarize(name, "s", per_input)
        print("newton_iters per input: " + " ".join(str(rs[0].newton_iters) for rs in runs))
        result["metrics"] = {name: {"value": per_input_mean(v), "unit": "s"}
                             for name, v in samples.items()}
        # set-up samples are short and many: their median is the steadier figure
        result["metrics"]["setup_s"]["value"] = statistics.median(
            v for per_input in setups for v in per_input)
        return result

    metrics = {name: statistics.median(m[name] for _, m in traced_runs)
               for name in traced_runs[0][1]}
    metrics["flow.newton_iters"] = statistics.median(r.newton_iters for r, _ in traced_runs)
    metrics["runio.files_written"] = statistics.median(r.files_written for r, _ in traced_runs)
    metrics["runio.bytes_written"] = statistics.median(r.bytes_written for r, _ in traced_runs)
    metrics["mem.peak_rss_mb"] = peak_rss_mb
    # each traced run directly follows an untraced run of the same input
    metrics["trace.overhead_s"] = statistics.median(
        t.total_s - u.total_s for u, (t, _) in zip(runs[0], traced_runs))
    summarize("traced solve_s", "s", [[r.solve_s for r, _ in traced_runs]])
    missing = absent_metrics(installed)
    if missing:
        print("absent (hooked name gone): " + ", ".join(missing))
    units = load_units()
    result["metrics"] = {name: {"value": value, "unit": units.get(name, "")}
                         for name, value in metrics.items()}
    return result


def load_units():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_program()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    w = WORKLOADS[args.workload]
    print("env " + json.dumps(environment(), sort_keys=True))
    print(f"workload {w.name}: {w.nodes} nodes, {w.wells['kind']} wells, "
          f"{w.steps} steps per run, {w.inputs} inputs of seed {args.seed}")
    result = measure(w, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
