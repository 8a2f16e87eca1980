"""Command-line entry point.

Subcommands: run, sweep-eps, sweep-reg, sweep-dep, probe-mosco. Every
subcommand takes --config PATH plus optional --out/--seed/--threads
(ACGF_THREADS is the environment fallback for --threads). Exit codes:
0 success, 1 numerical or verdict failure, 2 usage/configuration error.
"""

import argparse
import math
import os
import sys

from . import experiments, runio
from .config import load_config
from .errors import ConfigError, SolverError
from .flow import run_flow


def _real(tok, flag):
    """tok as a finite real, or a ConfigError naming the flag."""
    try:
        value = float(tok)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise ConfigError(f"{flag}: expected a finite real, got {tok.strip()!r}")
    return value


def _parse_floats(text, flag):
    values = [_real(tok, flag) for tok in text.split(",") if tok.strip() != ""]
    if not values:
        raise ConfigError(f"{flag}: list must be nonempty")
    return values


def _parse_pairs(text):
    pairs = []
    for tok in text.split(","):
        tok = tok.strip()
        if not tok:
            continue
        parts = tok.split(":")
        if len(parts) != 2:
            raise ConfigError(f"--pairs: expected delta:lambda entries, got {tok!r}")
        pairs.append((_real(parts[0], "--pairs"), _real(parts[1], "--pairs")))
    if not pairs:
        raise ConfigError("--pairs: list must be nonempty")
    return pairs


def _check_members(params, flag, members):
    """Build each sweep member's energy parameters before any solve; a bad one names ``flag``."""
    for overrides in members:
        try:
            params.replace(**overrides)
        except ConfigError as e:
            raise ConfigError(f"{flag}: {e}") from None


def _build_parser():
    parser = argparse.ArgumentParser(prog="acgf", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--config", required=True, help="path to the JSON run configuration")
        sp.add_argument("--out", default=None, help="output directory (default: from config)")
        sp.add_argument("--seed", type=int, default=None, help="override the config seed")
        sp.add_argument("--threads", type=int, default=None,
                        help="sweep parallelism (default: ACGF_THREADS or 1)")

    common(sub.add_parser("run", help="time-step the flow and persist trace/snapshots"))

    sp = sub.add_parser("sweep-eps", help="boundary-diffusion sweep toward a reference")
    common(sp)
    sp.add_argument("--eps-list", required=True, help="comma-separated values toward eps0")
    sp.add_argument("--eps0", type=float, required=True)

    sp = sub.add_parser("sweep-reg", help="smoothing sweep over (delta, lambda) pairs")
    common(sp)
    sp.add_argument("--pairs", required=True, help="comma-separated delta:lambda pairs")

    sp = sub.add_parser("sweep-dep", help="continuous-dependence perturbation probe")
    common(sp)
    sp.add_argument("--magnitudes", required=True, help="comma-separated descending magnitudes")

    sp = sub.add_parser("probe-mosco", help="sampled convergence probe for the smoothings")
    common(sp)
    sp.add_argument("--deltas", default=None,
                    help="comma-separated descending smoothing values (default: 2^-1..2^-12)")

    return parser


def _threads(args):
    source, threads = "--threads", args.threads
    env = os.environ.get("ACGF_THREADS")
    if threads is None and env:
        try:
            source, threads = "ACGF_THREADS", int(env)
        except ValueError:
            raise ConfigError(f"ACGF_THREADS: not an integer: {env!r}")
    if threads is not None and threads < 1:
        raise ConfigError(f"{source}: must be >= 1, got {threads}")
    return threads or 1


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        # argparse exits 2 on usage errors already; normalize other codes
        return int(e.code) if e.code else 0

    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            if args.seed < 0:
                raise ConfigError("--seed: must be >= 0")
            cfg.seed = args.seed
        if args.out is not None:
            cfg.output_dir = args.out
        threads = _threads(args)
        echo = cfg.resolved()
        outdir = cfg.output_dir

        if args.command == "run":
            mesh, p, fp, u0, forcing = cfg.build_all()
            _, trace, snapshots = run_flow(mesh, p, fp, u0, forcing,
                                           snapshot_every=cfg.snapshot_every)
            runio.write_run_outputs(outdir, mesh, echo, trace, snapshots)
            print(f"run: {len(trace)} steps -> {outdir}")
            return 0

        if args.command == "sweep-eps":
            eps_list = _parse_floats(args.eps_list, "--eps-list")
            p = cfg.build_energy_params()
            _check_members(p, "--eps0", [{"eps": args.eps0}])
            _check_members(p, "--eps-list", [{"eps": e} for e in eps_list])
            report = experiments.sweep_epsilon(cfg, eps_list, args.eps0, threads=threads)
        elif args.command == "sweep-reg":
            pairs = _parse_pairs(args.pairs)
            _check_members(cfg.build_energy_params(), "--pairs",
                           [{"delta": d, "lam": lam} for d, lam in pairs])
            report = experiments.sweep_regularization(cfg, pairs, threads=threads)
        elif args.command == "sweep-dep":
            mags = _parse_floats(args.magnitudes, "--magnitudes")
            report = experiments.continuous_dependence_probe(cfg, mags, threads=threads)
        else:  # probe-mosco
            if args.deltas is not None:
                deltas = _parse_floats(args.deltas, "--deltas")
            else:
                deltas = [2.0 ** (-k) for k in range(1, 13)]
            p = cfg.build_energy_params()
            _check_members(p, "--deltas", [{"delta": d} for d in deltas])
            mesh_dim = 2 if cfg.mesh["kind"] == "disc" else 1
            probe = experiments.mosco_probe(deltas, potential=p.bulk_potential,
                                            dim=mesh_dim)
            runio.write_probe_report(outdir, probe, echo)
            if not probe["passed"]:
                failed = [k for k, v in probe.items()
                          if isinstance(v, dict) and "holds" in v and not v["holds"]]
                print(f"probe-mosco: FAILED checks: {', '.join(failed)}", file=sys.stderr)
                return 1
            print(f"probe-mosco: pass -> {outdir}")
            return 0

        runio.write_sweep_report(outdir, report, echo)
        if not report.passed:
            failed = [k for k, ok in report.verdicts.items() if not ok]
            print(f"{args.command}: FAILED verdict: {failed[0]}", file=sys.stderr)
            return 1
        print(f"{args.command}: pass -> {outdir}")
        return 0

    except ConfigError as e:
        print(f"configuration error: {e}", file=sys.stderr)
        return 2
    except SolverError as e:
        print(f"solver failure: {e}", file=sys.stderr)
        return 1
    except OSError as e:  # the output directory cannot be made or written
        print(f"cannot write outputs: {e}", file=sys.stderr)
        return 2


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
