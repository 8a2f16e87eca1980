"""Run configuration: a single JSON document validated before any compute.

``FORMAT`` is the one description of that document. A section maps each
field to its default; a spec of several kinds (the mesh, the wells, the
perturbation parts, the initial state, the forcing) names its default kind
and maps each kind to its fields and their defaults. A default also says
how a given value is checked:

* a float: a finite real; None: a finite real or null,
* an int: a count, a non-negative integer,
* a str: a string without NUL characters,
* ``STRING``, ``PAIRS`` or ``NUMBERS``: a field that must be given, as a
  string, a list of [t, value] pairs or a list of numbers.

One walk over the document reports every unknown kind, unknown field,
missing required field and ill-typed value by its path, and fills in the
defaults. All physical quantities are plain nondimensional reals. The
resolved configuration (every field present, tolerances pinned to numbers)
is what gets echoed next to a run's outputs, and reparsing that echo
yields an identical resolved configuration.

``config_from_dict`` builds the run as it checks it: the mesh, the energy
and flow parameters, the initial state and the forcing, each once.
``RunConfig.build_all`` hands those objects out and builds nothing.
"""

import json
import math
import sys
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from . import runio
from .energy import (EnergyParams, ForcingField, NegQuadraticPart, NonePart, SmoothPerturbation,
                     TabulatedPart)
from .errors import ConfigError, at_path
from .flow import FlowParams, default_inner_tol
from .meshes import DiscMesh, IntervalMesh
from .potentials import indicator, quadratic, tabulated


class _Required:
    """The default of a field that must be given; ``what`` is the value it needs."""

    def __init__(self, what):
        self.what = what


STRING, PAIRS, NUMBERS = _Required("a string"), _Required("[t, value] pairs"), _Required("numbers")


class _Kinds(NamedTuple):
    """A spec of several kinds: the kind it takes without one, and kind -> field -> default."""

    default: str
    kinds: dict


_PART = _Kinds("none", {"none": {}, "neg_quadratic": {}, "tabulated": {"points": PAIRS}})
_WELL = _Kinds("indicator", {"indicator": {"lo": -1.0, "hi": 1.0}, "quadratic": {"c": 1.0},
                             "tabulated": {"points": PAIRS}})

FORMAT = {
    "mesh": _Kinds("interval", {"interval": {"L": 1.0, "n": 64},
                                "disc": {"R": 1.0, "nr": 16, "ntheta": 32}}),
    "energy": {"kappa": 1.0, "eps": 0.0, "delta": 0.1, "lambda": 0.1,
               "bulk_potential": _WELL, "bdry_potential": _WELL, "perturbation": _PART},
    "flow": {"tau": 0.01, "T": 0.5, "inner_tol": None, "inner_max_iters": 200},
    "initial": _Kinds("constant", {"constant": {"value": 0.0}, "two_phase": {"amplitude": 0.9},
                                   "file": {"path": STRING}, "random": {"amplitude": 1.0}}),
    "forcing": _Kinds("zero", {"zero": {}, "constant": {"bulk": 0.0, "boundary": 0.0},
                               "tabulated": {"times": NUMBERS, "bulk": NUMBERS,
                                             "boundary": NUMBERS}}),
    "output_dir": "out",
    "snapshot_every": 0,
    "seed": 0,
}

# kind -> constructor, called with the fields of a resolved spec (and, for a
# perturbation part, first with the domain of the bulk well)
_MESHES = {"interval": IntervalMesh, "disc": DiscMesh}
_WELLS = {"indicator": indicator, "quadratic": quadratic, "tabulated": tabulated}
_PARTS = {"none": lambda domain: NonePart(),
          "neg_quadratic": lambda domain: NegQuadraticPart(*domain),
          "tabulated": lambda domain, points: TabulatedPart(points)}


def _build(constructors, spec, *args):
    return constructors[spec["kind"]](*args, **{k: v for k, v in spec.items() if k != "kind"})


def build_mesh(spec):
    """The mesh of a resolved mesh spec."""
    return _build(_MESHES, spec)


def _energy_params(e):
    bulk, bdry = (at_path(f"energy.{well}", _build, _WELLS, e[well])
                  for well in ("bulk_potential", "bdry_potential"))
    pert = e["perturbation"]
    sides = ({f"energy.perturbation.{side}": pert[side] for side in ("bulk", "boundary")}
             if "bulk" in pert else {"energy.perturbation": pert})
    parts = [at_path(path, _build, _PARTS, spec, (bulk.lo, bulk.hi))
             for path, spec in sides.items()]
    try:
        return EnergyParams(
            kappa=float(e["kappa"]), eps=float(e["eps"]), delta=float(e["delta"]),
            lam=float(e["lambda"]), bulk_potential=bulk, bdry_potential=bdry,
            perturbation=SmoothPerturbation(*parts),
        )
    except ConfigError as err:  # its message starts with the field's name
        raise ConfigError(f"energy.{err}") from None


def _flow_params(f):
    return FlowParams(
        tau=float(f["tau"]), T=float(f["T"]),
        inner_tol=None if f["inner_tol"] is None else float(f["inner_tol"]),
        inner_max_iters=int(f["inner_max_iters"]),
    )


def _initial(spec, mesh, params, seed):
    kind = spec["kind"]
    lo, hi = params.bulk_potential.lo, params.bulk_potential.hi
    if kind == "constant":
        u = np.full(mesh.num_nodes, float(spec["value"]))
    elif kind == "two_phase":
        a = float(spec["amplitude"])
        mid = 0.5 * mesh.L if mesh.kind == "interval" else 0.0
        u = np.where(mesh.coords[:, 0] < mid, a, -a)
    elif kind == "file":
        u = runio.read_snapshot_values(spec["path"], mesh.num_nodes)
    else:  # random
        amp = float(spec["amplitude"])
        a, b = max(lo, -amp), min(hi, amp)
        if not (a <= b and math.isfinite(b - a)):
            raise ConfigError(f"initial.amplitude: {amp} leaves the empty or unbounded "
                              f"range [{a}, {b}] in the well domain [{lo}, {hi}]")
        u = np.random.default_rng(seed).uniform(a, b, size=mesh.num_nodes)
    if np.any(u < lo) or np.any(u > hi):
        raise ConfigError(f"initial: values leave the well domain [{lo}, {hi}]; "
                          "the initial pair must be admissible")
    return u


def _forcing(f, mesh):
    if f["kind"] == "zero":
        return ForcingField.zero(mesh)
    if f["kind"] == "constant":
        return ForcingField.constant(mesh, f["bulk"], f["boundary"])
    return ForcingField.tabulated(mesh, f["times"], f["bulk"], f["boundary"])


@dataclass
class RunConfig:
    """A checked run: its resolved document and the objects built from it.

    ``config_from_dict`` builds the run once, as it checks it. The fields
    are the resolved document, which ``resolved`` gives back for the echo.
    """

    mesh: dict
    energy: dict
    flow: dict
    initial: dict
    forcing: dict
    output_dir: str = "out"
    snapshot_every: int = 0
    seed: int = 0
    _built: tuple = field(default=None, init=False, repr=False, compare=False)

    def resolved(self):
        return {name: getattr(self, name) for name in FORMAT}

    def build_all(self):
        """(mesh, energy params, flow params, initial state, forcing); a fresh initial state."""
        mesh, p, fp, u0, forcing = self._built
        return mesh, p, fp, u0.copy(), forcing


# the format walk ------------------------------------------------------------

def _number_error(path, value, count=False):
    """Why value is not a finite JSON number (a count, if asked), or None."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return f"{path} must be a number, got {value!r}"
    if not abs(value) <= sys.float_info.max:  # also an integer too large for a float
        return f"{path} must be finite, got {value}"
    if count and math.floor(value) != value:
        return f"{path} must be an integer, got {value}"
    if count and value < 0:
        return f"{path}: must be >= 0, got {value}"
    return None


def _value_errors(path, value, default):
    """Errors of a given value of the field with that default."""
    if isinstance(default, str) or default is STRING:
        if isinstance(value, str) and "\0" not in value:
            return []
        return [f"{path} must be a string without NUL characters, got {value!r}"]
    if isinstance(default, _Required):  # a list of numbers or of [t, value] pairs
        pairs = default is PAIRS
        rows = value if isinstance(value, list) else None
        if pairs and rows is not None and not all(isinstance(r, list) and len(r) == 2
                                                  for r in rows):
            rows = None
        if rows is None:
            return [f"{path} must be a list of {default.what}"]
        items = ([(f"{path}[{i}][{j}]", x) for i, r in enumerate(rows) for j, x in enumerate(r)]
                 if pairs else [(f"{path}[{i}]", x) for i, x in enumerate(rows)])
        return [e for e in (_number_error(p, x) for p, x in items) if e]
    if default is None and value is None:
        return []
    error = _number_error(path, value, count=isinstance(default, int))
    return [error] if error else []


def _resolve(path, value, default, errors):
    """value checked against the field with that default, defaults filled in."""
    # a perturbation with either key gives each side a part of its own
    if path == "energy.perturbation" and isinstance(value, dict) and (
            "bulk" in value or "boundary" in value):
        default = {"bulk": _PART, "boundary": _PART}
    if not isinstance(default, (dict, _Kinds)):
        errors += _value_errors(path, value, default)
        return value
    if not isinstance(value, dict):
        errors.append(f"{path}: expected an object")
        return None
    if isinstance(default, dict):
        return _fields(path, value, default, errors)
    kind = value.get("kind", default.default)
    if not (isinstance(kind, str) and kind in default.kinds):
        errors.append(f"{path}.kind: unknown kind {kind!r} (kinds: {', '.join(default.kinds)})")
        return None
    return {"kind": kind, **_fields(path, value, default.kinds[kind], errors, kind)}


def _fields(path, given, fields, errors, kind=None):
    """The fields of a section, or of a spec of the given kind, defaults filled in."""
    prefix = f"{path}." if path else ""
    allowed = set(fields) if kind is None else {"kind", *fields}
    which = "allowed" if kind is None else f"allowed for kind {kind}"
    errors += [f"{prefix}{key}: unknown field ({which}: {', '.join(sorted(allowed))})"
               for key in given if key not in allowed]
    out = {}
    for key, default in fields.items():
        if key in given:
            out[key] = _resolve(prefix + key, given[key], default, errors)
        elif isinstance(default, _Required):
            errors.append(f"{prefix}{key}: required for kind {kind}")
        elif isinstance(default, (dict, _Kinds)):
            out[key] = _resolve(prefix + key, {}, default, errors)
        else:
            out[key] = default
    return out


def config_from_dict(raw):
    """Resolve defaults and validate; raises ConfigError with field paths."""
    if not isinstance(raw, dict):
        raise ConfigError("configuration root must be a JSON object")
    errors = []
    flow = raw.get("flow")
    if isinstance(flow, dict) and "semi_implicit_G" in flow:
        # echoes written before the fully implicit scheme was removed carry
        # the switch; its value true is a no-op
        if flow["semi_implicit_G"] is not True:
            errors.append("flow.semi_implicit_G: the fully implicit scheme was removed; "
                          f"only true is accepted, got {flow['semi_implicit_G']!r}")
        raw = {**raw, "flow": {k: v for k, v in flow.items() if k != "semi_implicit_G"}}
    resolved = _fields("", raw, FORMAT, errors)
    if errors:
        raise ConfigError("; ".join(errors))

    cfg = RunConfig(**{**resolved, "snapshot_every": int(resolved["snapshot_every"]),
                       "seed": int(resolved["seed"])})

    # structural checks that do not need the mesh built
    params = fp = None
    try:
        params = _energy_params(cfg.energy)
    except ConfigError as e:
        errors.append(str(e))
    try:
        fp = _flow_params(cfg.flow)
    except ConfigError as e:
        errors.append(f"flow: {e}")
    if params is not None and fp is not None:
        try:
            fp.check_stability(params.perturbation.lipschitz)
        except ConfigError as e:
            errors.append(f"flow.tau: {e}")
    try:
        mesh = build_mesh(cfg.mesh)
        if cfg.flow["inner_tol"] is None:
            cfg.flow["inner_tol"] = default_inner_tol(mesh)
        u0 = None if params is None else _initial(cfg.initial, mesh, params, cfg.seed)
        forcing = _forcing(cfg.forcing, mesh)
    except ConfigError as e:
        errors.append(str(e))

    if errors:
        raise ConfigError("; ".join(errors))
    cfg._built = (mesh, params, replace(fp, inner_tol=cfg.flow["inner_tol"]), u0, forcing)
    return cfg


def load_config(path, seed=None, output_dir=None):
    """The run of the JSON document at path.

    A given ``seed`` or ``output_dir`` replaces the document's own before
    the check, so it is checked, built and echoed like any other field.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as e:
        raise ConfigError(f"cannot read configuration {path}: {e}") from e
    except ValueError as e:  # not JSON, or an integer of more digits than Python parses
        raise ConfigError(f"configuration {path} is not valid JSON: {e}") from e
    if isinstance(raw, dict):
        given = {"seed": seed, "output_dir": output_dir}
        raw = {**raw, **{k: v for k, v in given.items() if v is not None}}
    return config_from_dict(raw)
