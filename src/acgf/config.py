"""Run configuration: a single JSON document validated before any compute.

All physical quantities are plain nondimensional reals. The resolved
configuration (defaults filled in, tolerances pinned to numbers) is what
gets echoed next to a run's outputs, and reparsing that echo yields an
identical resolved configuration.
"""

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .energy import EnergyParams, ForcingField, SmoothPerturbation
from .errors import ConfigError
from .flow import FlowParams, default_inner_tol
from .meshes import build_mesh
from .potentials import potential_from_spec

_MESH_DEFAULTS = {"interval": {"L": 1.0, "n": 64}, "disc": {"R": 1.0, "nr": 16, "ntheta": 32}}
_ENERGY_DEFAULTS = {
    "kappa": 1.0,
    "eps": 0.0,
    "delta": 0.1,
    "lambda": 0.1,
    "bulk_potential": {"kind": "indicator", "lo": -1.0, "hi": 1.0},
    "bdry_potential": {"kind": "indicator", "lo": -1.0, "hi": 1.0},
    "perturbation": {"kind": "none"},
}
_FLOW_DEFAULTS = {"tau": 0.01, "T": 0.5, "inner_tol": None, "inner_max_iters": 200}
# numeric fields per section, True where the value must be integral
_NUMBERS = {
    "mesh": {"L": False, "n": True, "R": False, "nr": True, "ntheta": True},
    "energy": {"kappa": False, "eps": False, "delta": False, "lambda": False},
    "flow": {"tau": False, "T": False, "inner_tol": False, "inner_max_iters": True},
    "initial": {"value": False, "amplitude": False},
}
# allowed keys of the sections without kinds; "semi_implicit_G" is kept so
# that older echoes still parse, and only its value true is accepted
_KEYS = {
    "": {"mesh", "energy", "flow", "initial", "forcing", "output_dir", "snapshot_every", "seed"},
    "energy": set(_ENERGY_DEFAULTS),
    "flow": {*_FLOW_DEFAULTS, "semi_implicit_G"},
}
# allowed keys besides "kind" of each kind of spec; a perturbation split into
# sides has the keys "bulk" and "boundary", each a perturbation part
_KIND_KEYS = {
    "mesh": {kind: set(fields) for kind, fields in _MESH_DEFAULTS.items()},
    "initial": {"constant": {"value"}, "two_phase": {"amplitude"}, "file": {"path"},
                "random": {"amplitude"}},
    "forcing": {"zero": set(), "constant": {"bulk", "boundary"},
                "tabulated": {"times", "bulk", "boundary"}},
    "well": {"indicator": {"lo", "hi"}, "quadratic": {"c"}, "tabulated": {"points"}},
    "part": {"none": set(), "neg_quadratic": set(), "tabulated": {"points"}},
}
_DEFAULT_KIND = {"initial": "constant", "forcing": "zero", "part": "none"}


@dataclass
class RunConfig:
    mesh: dict
    energy: dict
    flow: dict
    initial: dict
    forcing: dict
    output_dir: str = "out"
    snapshot_every: int = 0
    seed: int = 0
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    def resolved(self):
        return {
            "mesh": self.mesh,
            "energy": self.energy,
            "flow": self.flow,
            "initial": self.initial,
            "forcing": self.forcing,
            "output_dir": self.output_dir,
            "snapshot_every": self.snapshot_every,
            "seed": self.seed,
        }

    # builders -------------------------------------------------------------

    def build_mesh(self):
        return build_mesh(self.mesh)

    def build_energy_params(self):
        e = self.energy
        bulk = potential_from_spec(e["bulk_potential"])
        bdry = potential_from_spec(e["bdry_potential"])
        pert = SmoothPerturbation.from_spec(e.get("perturbation"), (bulk.lo, bulk.hi))
        return EnergyParams(
            kappa=float(e["kappa"]), eps=float(e["eps"]), delta=float(e["delta"]),
            lam=float(e["lambda"]), bulk_potential=bulk, bdry_potential=bdry,
            perturbation=pert,
        )

    def build_flow_params(self):
        f = self.flow
        return FlowParams(
            tau=float(f["tau"]), T=float(f["T"]),
            inner_tol=None if f["inner_tol"] is None else float(f["inner_tol"]),
            inner_max_iters=int(f["inner_max_iters"]),
        )

    def build_initial(self, mesh, params):
        spec = self.initial
        kind = spec.get("kind", "constant")
        lo, hi = params.bulk_potential.lo, params.bulk_potential.hi
        if kind == "constant":
            u = np.full(mesh.num_nodes, float(spec.get("value", 0.0)))
        elif kind == "two_phase":
            a = float(spec.get("amplitude", 0.9))
            mid = 0.5 * mesh.L if mesh.kind == "interval" else 0.0
            u = np.where(mesh.coords[:, 0] < mid, a, -a)
        elif kind == "file":
            from .runio import read_snapshot_values

            if "path" not in spec:
                raise ConfigError("initial.path: required for a file initial state")
            # read once per config: sweeps rebuild the initial state per member
            key = ("initial", spec["path"], mesh.num_nodes)
            if key not in self._cache:
                self._cache[key] = read_snapshot_values(spec["path"], mesh.num_nodes)
            u = self._cache[key].copy()
        elif kind == "random":
            amp = float(spec.get("amplitude", 1.0))
            a, b = max(lo, -amp), min(hi, amp)
            if not (a <= b and math.isfinite(b - a)):
                raise ConfigError(f"initial.amplitude: {amp} leaves the empty or unbounded "
                                  f"range [{a}, {b}] in the well domain [{lo}, {hi}]")
            u = np.random.default_rng(self.seed).uniform(a, b, size=mesh.num_nodes)
        else:
            raise ConfigError(f"initial.kind: unknown kind {kind!r}")
        if np.any(u < lo) or np.any(u > hi):
            raise ConfigError(
                "initial: values leave the well domain "
                f"[{lo}, {hi}]; the initial pair must be admissible"
            )
        return u

    def build_forcing(self, mesh):
        spec = self.forcing
        kind = spec.get("kind", "zero")
        if kind == "zero":
            return ForcingField.zero()
        if kind == "constant":
            return ForcingField.constant(mesh, spec.get("bulk", 0.0), spec.get("boundary", 0.0))
        if kind == "tabulated":
            for key in ("times", "bulk", "boundary"):
                if key not in spec:
                    raise ConfigError(f"forcing.{key}: required for tabulated forcing")
            return ForcingField.tabulated(mesh, spec["times"], spec["bulk"], spec["boundary"])
        raise ConfigError(f"forcing.kind: unknown kind {kind!r}")

    def build_all(self):
        """(mesh, energy params, flow params, initial state, forcing), cached mesh."""
        if "mesh" not in self._cache:
            self._cache["mesh"] = self.build_mesh()
        mesh = self._cache["mesh"]
        p = self.build_energy_params()
        fp = self.build_flow_params()
        u0 = self.build_initial(mesh, p)
        forcing = self.build_forcing(mesh)
        return mesh, p, fp, u0, forcing


def _merge(defaults, given, path, errors):
    out = dict(defaults)
    if given is None:
        return out
    if not isinstance(given, dict):
        errors.append(f"{path}: expected an object")
        return out
    out.update(given)
    return out


def _number_error(path, value, integer=False):
    """Why value is not a finite JSON number (integral if asked), or None."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return f"{path} must be a number, got {value!r}"
    if not math.isfinite(value):
        return f"{path} must be finite, got {value}"
    if integer and math.floor(value) != value:
        return f"{path} must be an integer, got {value}"
    return None


def _series(path, value, errors, pairs=False):
    """Number checks for a list of numbers, or of [t, value] pairs if ``pairs``."""
    rows = value if isinstance(value, list) else None
    if pairs and rows is not None and not all(isinstance(r, list) and len(r) == 2 for r in rows):
        rows = None
    if rows is None:
        errors.append(f"{path} must be a list of {'[t, value] pairs' if pairs else 'numbers'}")
        return []
    if pairs:
        return [(f"{path}[{i}][{j}]", x, False) for i, r in enumerate(rows) for j, x in enumerate(r)]
    return [(f"{path}[{i}]", x, False) for i, x in enumerate(rows)]


def _unknown_keys(path, spec, allowed, kind=None):
    which = "allowed" if kind is None else f"allowed for kind {kind}"
    return [f"{path}{key}: unknown field ({which}: {', '.join(sorted(allowed))})"
            for key in spec if key not in allowed]


def _kind_key_errors(path, spec, table):
    """Errors naming the keys of spec that its kind does not have.

    A spec of an unknown kind gets none here: its builder reports the kind.
    """
    kind = spec.get("kind", _DEFAULT_KIND.get(table))
    kinds = _KIND_KEYS[table]
    if not (isinstance(kind, str) and kind in kinds):
        return []
    return _unknown_keys(f"{path}.", spec, {"kind", *kinds[kind]}, kind)


def _type_errors(raw, sections):
    """Errors naming every unknown field and every value of the wrong JSON type or not finite."""
    errors = _unknown_keys("", raw, _KEYS[""])
    for name in ("energy", "flow"):
        errors += _unknown_keys(f"{name}.", sections[name], _KEYS[name])
    for name in ("mesh", "initial", "forcing"):
        errors += _kind_key_errors(name, sections[name], name)
    errors += [f"{key}: must be >= 0" for key in ("snapshot_every", "seed")
               if _number_error(key, raw.get(key, 0), True) is None and raw.get(key, 0) < 0]
    checks = [(key, raw[key], True) for key in ("snapshot_every", "seed") if key in raw]
    for name, fields in _NUMBERS.items():
        spec = sections[name]
        checks += [(f"{name}.{key}", spec[key], integer) for key, integer in fields.items()
                   if key in spec and not (key == "inner_tol" and spec[key] is None)]
    strings = (("output_dir", raw.get("output_dir", "")),
               ("initial.path", sections["initial"].get("path", "")))
    errors += [f"{path} must be a string without NUL characters, got {v!r}"
               for path, v in strings if not isinstance(v, str) or "\0" in v]
    scheme = sections["flow"].get("semi_implicit_G", True)
    if scheme is not True:
        errors.append("flow.semi_implicit_G: the fully implicit scheme was removed; "
                      f"only true is accepted, got {scheme!r}")

    energy = sections["energy"]
    specs = [(f"energy.{key}", energy[key], "well")
             for key in ("bulk_potential", "bdry_potential")]
    pert = energy["perturbation"]
    if isinstance(pert, dict) and ("bulk" in pert or "boundary" in pert):
        errors += _unknown_keys("energy.perturbation.", pert, {"bulk", "boundary"})
        specs += [(f"energy.perturbation.{side}", pert[side], "part")
                  for side in ("bulk", "boundary") if side in pert]
    elif pert is not None:
        specs.append(("energy.perturbation", pert, "part"))
    for path, spec, table in specs:
        if not isinstance(spec, dict):
            errors.append(f"{path}: expected an object")
            continue
        errors += _kind_key_errors(path, spec, table)
        checks += [(f"{path}.{key}", spec[key], False) for key in ("lo", "hi", "c") if key in spec]
        if "points" in spec:
            checks += _series(f"{path}.points", spec["points"], errors, pairs=True)

    forcing = sections["forcing"]
    if forcing.get("kind") == "tabulated":
        for key in ("times", "bulk", "boundary"):
            if key in forcing:
                checks += _series(f"forcing.{key}", forcing[key], errors)
    else:
        checks += [(f"forcing.{key}", forcing[key], False)
                   for key in ("bulk", "boundary") if key in forcing]
    return errors + [e for e in (_number_error(*c) for c in checks) if e]


def config_from_dict(raw):
    """Resolve defaults and validate; raises ConfigError with field paths."""
    if not isinstance(raw, dict):
        raise ConfigError("configuration root must be a JSON object")
    errors = []

    mesh = _merge({}, raw.get("mesh"), "mesh", errors)
    kind = mesh.get("kind", "interval")
    if not isinstance(kind, str) or kind not in _MESH_DEFAULTS:
        errors.append(f"mesh.kind: unknown kind {kind!r}")
        kind, mesh = "interval", {}  # the given fields belong to no known kind
    mesh = {**_MESH_DEFAULTS[kind], **mesh, "kind": kind}

    energy = _merge(_ENERGY_DEFAULTS, raw.get("energy"), "energy", errors)
    flow = _merge(_FLOW_DEFAULTS, raw.get("flow"), "flow", errors)
    initial = (_merge({}, raw.get("initial"), "initial", errors)
               or {"kind": "constant", "value": 0.0})
    forcing = _merge({}, raw.get("forcing"), "forcing", errors) or {"kind": "zero"}
    # values of the wrong type would fail the checks below with a bare exception
    type_errors = _type_errors(raw, {"mesh": mesh, "energy": energy, "flow": flow,
                                     "initial": initial, "forcing": forcing})
    if type_errors:
        raise ConfigError("; ".join(errors + type_errors))
    flow.pop("semi_implicit_G", None)  # true, a no-op since there is one scheme

    cfg = RunConfig(
        mesh=mesh, energy=energy, flow=flow, initial=initial, forcing=forcing,
        output_dir=str(raw.get("output_dir", "out")),
        snapshot_every=int(raw.get("snapshot_every", 0)),
        seed=int(raw.get("seed", 0)),
    )

    # structural checks that do not need the mesh built
    try:
        params = cfg.build_energy_params()
    except ConfigError as e:
        errors.append(f"energy: {e}")
        params = None
    try:
        fp = cfg.build_flow_params()
    except ConfigError as e:
        errors.append(f"flow: {e}")
        fp = None
    if params is not None and fp is not None:
        try:
            fp.check_stability(params.perturbation.lipschitz)
        except ConfigError as e:
            errors.append(f"flow.tau: {e}")
    try:
        mesh_obj = cfg.build_mesh()
        cfg._cache["mesh"] = mesh_obj
        if flow["inner_tol"] is None:
            flow["inner_tol"] = default_inner_tol(mesh_obj)
        if params is not None:
            cfg.build_initial(mesh_obj, params)
        cfg.build_forcing(mesh_obj)
    except ConfigError as e:
        errors.append(str(e))

    if errors:
        raise ConfigError("; ".join(errors))
    return cfg


def load_config(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as e:
        raise ConfigError(f"cannot read configuration {path}: {e}") from e
    except json.JSONDecodeError as e:
        raise ConfigError(f"configuration {path} is not valid JSON: {e}") from e
    return config_from_dict(raw)
