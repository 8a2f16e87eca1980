"""On-disk artifacts: trace CSVs, snapshots, sweep reports, config echoes.

All files are written atomically (temp file in the target directory,
then rename), so an interrupted run never leaves a partial file at the
final path. Reals are serialized with 17 significant digits and '.'
decimal, which round-trips float64 bit-exactly.
"""

import json
import math
import os
import tempfile

import numpy as np

from .errors import ConfigError

TRACE_HEADER = (
    "step,time,phi_reg,free_energy,rate_norm,inner_iters,inner_residual,"
    "tv_term,quad_term,bulk_potential_term,surface_term,bdry_potential_term,"
    "perturbation_term"
)

SNAPSHOT_HEADER = "node_id,x,y,is_boundary,value"


def fmt(x):
    return format(float(x), ".17g")


def atomic_write_text(path, text):
    directory = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp_", suffix="~")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def trace_to_csv(trace):
    lines = [TRACE_HEADER]
    for rec in trace:
        terms = rec.terms if rec.terms else (np.nan,) * 6
        row = [str(rec.step), fmt(rec.time), fmt(rec.phi_reg), fmt(rec.free_energy),
               fmt(rec.rate_norm), str(rec.inner_iters), fmt(rec.inner_residual)]
        row.extend(fmt(t) for t in terms)
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def _row_prefixes(mesh):
    """The ``node_id,x,y,is_boundary,`` start of every snapshot row; it depends on the mesh alone."""
    return [f"{i},{fmt(x)},{fmt(y)},{int(b)},"
            for i, ((x, y), b) in enumerate(zip(mesh.coords.tolist(), mesh.is_boundary.tolist()))]


def _snapshot_csv(prefixes, values):
    rows = [pre + format(v, ".17g") for pre, v in zip(prefixes, np.asarray(values, float).tolist())]
    return "\n".join([SNAPSHOT_HEADER] + rows) + "\n"


def snapshot_to_csv(mesh, values):
    return _snapshot_csv(_row_prefixes(mesh), values)


def read_snapshot_values(path, expected_nodes):
    """Read the value column of a snapshot CSV, ordered by node id.

    Every row must carry an integer node id of this mesh, once, and a finite value.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = [ln.strip() for ln in fh if ln.strip()]
    except (OSError, UnicodeDecodeError) as e:
        raise ConfigError(f"initial.path: cannot read {path}: {e}") from e
    if not lines or not lines[0].startswith("node_id"):
        raise ConfigError(f"initial.path: {path} is not a snapshot CSV")
    values = [None] * expected_nodes
    for k, ln in enumerate(lines[1:], 2):  # k counts non-blank rows, the header is row 1
        parts = ln.split(",")
        if len(parts) != 5:
            raise _row_error(path, k, ln, "expected 5 comma-separated fields")
        if not parts[0].isdecimal():  # int() would also take signs, spaces and "1_0"
            raise _row_error(path, k, ln, "node_id must be a non-negative integer")
        idx = int(parts[0])
        try:
            value = float(parts[4])
        except ValueError:
            raise _row_error(path, k, ln, "value must be a number") from None
        if idx >= expected_nodes:
            raise _row_error(path, k, ln, f"node id {idx} out of range for this mesh")
        if not math.isfinite(value):
            raise _row_error(path, k, ln, "value must be finite")
        if values[idx] is not None:
            raise _row_error(path, k, ln, f"node id {idx} appears twice")
        values[idx] = value
    if len(lines) - 1 < expected_nodes:  # every row has filled a distinct node
        raise ConfigError(f"initial.path: {path} does not cover every node of this mesh")
    return np.array(values)


def _row_error(path, k, ln, why):
    return ConfigError(f"initial.path: {path} row {k} ({ln!r}): {why}")


def write_run_outputs(outdir, mesh, cfg_echo, trace, snapshots):
    os.makedirs(outdir, exist_ok=True)
    atomic_write_text(os.path.join(outdir, "config_echo.json"),
                      json.dumps(cfg_echo, indent=2, sort_keys=True) + "\n")
    atomic_write_text(os.path.join(outdir, "trace.csv"), trace_to_csv(trace))
    prefixes = _row_prefixes(mesh) if snapshots else []
    for step, values in snapshots:
        atomic_write_text(os.path.join(outdir, f"snapshot_{step:06d}.csv"),
                          _snapshot_csv(prefixes, values))


def write_sweep_report(outdir, report, cfg_echo):
    """report.json + one trace CSV per member run + summary.csv."""
    os.makedirs(outdir, exist_ok=True)
    payload = report.to_jsonable()
    payload["config"] = cfg_echo
    atomic_write_text(os.path.join(outdir, "report.json"),
                      json.dumps(payload, indent=2, sort_keys=True) + "\n")
    for label, trace in report.traces.items():
        safe = label.replace("=", "_").replace("(", "_").replace(")", "").replace(",", "_")
        atomic_write_text(os.path.join(outdir, f"trace_{safe}.csv"), trace_to_csv(trace))
    lines = ["param,e_h,e_v0,verdict"]
    overall = "pass" if report.passed else "fail"
    for i, param in enumerate(report.params):
        if isinstance(param, (list, tuple)):
            label = ":".join(fmt(x) for x in param)
        else:
            label = fmt(param)
        e_h = report.e_h[i] if i < len(report.e_h) else np.nan
        e_v0 = report.e_v0[i] if i < len(report.e_v0) else np.nan
        lines.append(f"{label},{fmt(e_h)},{fmt(e_v0)},{overall}")
    atomic_write_text(os.path.join(outdir, "summary.csv"), "\n".join(lines) + "\n")


def write_probe_report(outdir, report, cfg_echo):
    os.makedirs(outdir, exist_ok=True)
    payload = dict(report)
    payload["config"] = cfg_echo
    atomic_write_text(os.path.join(outdir, "report.json"),
                      json.dumps(payload, indent=2, sort_keys=True) + "\n")
