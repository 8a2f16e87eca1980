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
        row = [str(rec.step), fmt(rec.time), fmt(rec.phi_reg), fmt(rec.free_energy),
               fmt(rec.rate_norm), str(rec.inner_iters), fmt(rec.inner_residual)]
        row.extend(fmt(t) for t in rec.terms)
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def _row_prefixes(mesh):
    """The ``node_id,x,y,is_boundary,`` start of every snapshot row; it depends on the mesh alone."""
    x, y = mesh.coords.T.tolist()
    return list(map("%d,%.17g,%.17g,%d,".__mod__,
                    zip(range(mesh.num_nodes), x, y, mesh.is_boundary.tolist())))


def _snapshot_csv(prefixes, values):
    rows = map("%s%.17g\n".__mod__, zip(prefixes, np.asarray(values, float).tolist()))
    return SNAPSHOT_HEADER + "\n" + "".join(rows)


def read_snapshot_values(path, expected_nodes):
    """Read the value column of a snapshot CSV, ordered by node id.

    Rows are the stripped non-blank lines after the header. Every row must
    carry an integer node id of this mesh, once, and a finite value. Each row
    is checked in this order, so a faulty file is reported at its first faulty
    row, with that row's first fault:

    1. the row has 5 comma-separated fields;
    2. its node id is a run of ASCII digits;
    3. float() reads its value, which holds no "_" and no non-ASCII character;
    4. its node id is below ``expected_nodes``;
    5. its value is finite;
    6. no earlier row carries its node id.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = [ln for ln in map(str.strip, fh.read().split("\n")) if ln]
    except (OSError, UnicodeDecodeError) as e:
        raise ConfigError(f"initial.path: cannot read {path}: {e}") from e
    if not lines or not lines[0].startswith("node_id"):
        raise ConfigError(f"initial.path: {path} is not a snapshot CSV")
    values = [None] * expected_nodes
    for k, ln in enumerate(lines[1:], 2):  # k counts non-blank rows, the header is row 1
        try:
            node, _, _, _, text = ln.split(",")
        except ValueError:
            raise _row_error(path, k, ln, "expected 5 comma-separated fields") from None
        if not (node.isdecimal() and node.isascii()):  # int() takes "+3", "1_0", "٣"
            raise _row_error(path, k, ln, "node_id must be a non-negative integer")
        try:
            idx = int(node)
        except ValueError:  # more digits than int() converts: out of range unless zero padding
            idx = int(node.lstrip("0")[:len(str(expected_nodes)) + 1] or "0")
        try:
            if "_" in text or not text.isascii():  # float() takes "0_5" and "１.5"
                raise ValueError
            value = float(text)
        except ValueError:
            raise _row_error(path, k, ln, "value must be a number") from None
        if idx >= expected_nodes:
            raise _row_error(path, k, ln, f"node id {node.lstrip('0')} out of range for this mesh")
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


def _finite_or_null(value):
    """``value`` with each non-finite float in it, at any depth of lists and dicts, as None."""
    if isinstance(value, dict):
        return {key: _finite_or_null(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_or_null(item) for item in value]
    return None if isinstance(value, float) and not math.isfinite(value) else value


def write_sweep_report(outdir, report, cfg_echo):
    """report.json, non-finite numbers as null; one trace CSV per member run; summary.csv."""
    os.makedirs(outdir, exist_ok=True)
    payload = _finite_or_null(report.to_jsonable())
    payload["config"] = cfg_echo
    atomic_write_text(os.path.join(outdir, "report.json"),
                      json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n")
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

