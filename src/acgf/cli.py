"""Command-line entry point.

Subcommands: run, sweep-eps, sweep-reg, sweep-dep. Every
subcommand takes --config PATH plus optional --out/--seed. Sweep members
run one after another. Exit codes: 0 success, 1 numerical or verdict
failure, 2 usage/configuration error.
"""

import argparse
import math
import sys

from . import experiments, runio
from .config import load_config
from .errors import ConfigError, SolverError, at_path
from .flow import run_flow


def _real(tok, flag):
    """tok as a finite real, or a ConfigError naming the flag.

    float() also takes "0_5" and non-ASCII digits such as "１.5"; both are refused.
    """
    try:
        value = float(tok) if tok.isascii() and "_" not in tok else math.nan
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


def _build_parser():
    parser = argparse.ArgumentParser(prog="acgf", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--config", required=True, help="path to the JSON run configuration")
        sp.add_argument("--out", default=None, help="output directory (default: from config)")
        sp.add_argument("--seed", type=int, default=None, help="override the config seed")

    common(sub.add_parser("run", help="time-step the flow and persist trace/snapshots"))

    sp = sub.add_parser("sweep-eps", help="boundary-diffusion sweep toward a reference")
    common(sp)
    sp.add_argument("--eps-list", required=True, help="comma-separated values toward eps0")
    sp.add_argument("--eps0", required=True)

    sp = sub.add_parser("sweep-reg", help="smoothing sweep over (delta, lambda) pairs")
    common(sp)
    sp.add_argument("--pairs", required=True, help="comma-separated delta:lambda pairs")

    sp = sub.add_parser("sweep-dep", help="continuous-dependence perturbation probe")
    common(sp)
    sp.add_argument("--magnitudes", required=True, help="comma-separated descending magnitudes")

    return parser


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        # argparse exits 2 on usage errors already; normalize other codes
        return int(e.code) if e.code else 0

    try:
        if args.seed is not None and args.seed < 0:
            raise ConfigError("--seed: must be >= 0")
        cfg = load_config(args.config, seed=args.seed, output_dir=args.out)
        mesh, p, fp, u0, forcing = cfg.build_all()
        echo = cfg.resolved()
        outdir = cfg.output_dir

        if args.command == "run":
            _, trace, snapshots = run_flow(mesh, p, fp, u0, forcing,
                                           snapshot_every=cfg.snapshot_every)
            runio.write_run_outputs(outdir, mesh, echo, trace, snapshots)
            print(f"run: {len(trace)} steps -> {outdir}")
            return 0

        if args.command == "sweep-eps":
            eps0 = _real(args.eps0, "--eps0")
            eps_list = _parse_floats(args.eps_list, "--eps-list")
            for flag, eps in [("--eps0", eps0), *(("--eps-list", e) for e in eps_list)]:
                at_path(flag, p.replace, eps=eps)  # each member checked before any is solved
            at_path("--eps-list", experiments.check_eps_list, eps_list, eps0)
            # not wrapped whole, as a wrong mesh is the fault of no flag
            report = experiments.sweep_epsilon(cfg, eps_list, eps0)
        elif args.command == "sweep-reg":
            report = at_path("--pairs", experiments.sweep_regularization, cfg,
                             _parse_pairs(args.pairs))
        else:  # sweep-dep
            report = at_path("--magnitudes", experiments.continuous_dependence_probe, cfg,
                             _parse_floats(args.magnitudes, "--magnitudes"))

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
