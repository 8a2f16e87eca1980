"""Spans around acgf's layer entry points, and the per-layer split they give.

``Tracer`` replaces each hooked attribute with a wrapper that records a
span (name, start, end, parent) in memory, and puts every original back on
exit. Attributes are looked up by name on the module or class that the
calling code resolves them from, e.g. ``acgf.energy.bulk_gradient`` (what
the energy module calls) or ``acgf.experiments.run_flow`` (what a sweep
member calls). A hooked name that no longer exists is skipped, and every
metric that needs it is reported absent rather than zero.

Layers are the program's modules; a span's layer is the part of its name
before the first dot. Self time is a span's duration minus the part of it
that its child spans cover.
"""

import functools
import importlib
import inspect
import threading
import time
from dataclasses import dataclass

import numpy as np


class Span:
    __slots__ = ("name", "start", "end", "parent", "elems")

    def __init__(self, name, start, end, parent=None, elems=0):
        self.name, self.start, self.end, self.parent, self.elems = name, start, end, parent, elems

    @property
    def duration(self):
        return self.end - self.start

    @property
    def layer(self):
        return self.name.split(".", 1)[0]


@dataclass(frozen=True)
class Hook:
    owner: str  # "module" or "module:Class"
    attr: str
    span: str
    size_arg: int | None = None  # positional argument whose size is recorded


HOOKS = (
    Hook("acgf.config", "config_from_dict", "config.parse"),
    Hook("acgf.config:RunConfig", "build_all", "config.build"),
    Hook("acgf.config", "build_mesh", "meshes.build"),
    Hook("acgf.runio", "read_snapshot_values", "runio.read"),
    Hook("acgf.runio", "write_run_outputs", "runio.write"),
    Hook("acgf.runio", "write_sweep_report", "runio.write"),
    Hook("acgf.flow", "run_flow", "flow.run"),
    Hook("acgf.flow", "proximal_step", "flow.step"),
    Hook("acgf.experiments", "sweep_epsilon", "experiments.sweep"),
    Hook("acgf.experiments", "run_flow", "flow.run"),
    Hook("acgf.energy", "phi_regularized", "energy.value"),
    Hook("acgf.energy", "_grad_partial", "energy.grad"),
    Hook("acgf.energy", "hess_phi_vec", "energy.hvp"),
    Hook("acgf.energy", "bulk_gradient", "meshes.gradient"),
    Hook("acgf.energy", "surface_gradient", "meshes.gradient"),
    Hook("acgf.norms:SmoothedNorm", "eval", "norms.eval"),
    Hook("acgf.norms:SmoothedNorm", "grad", "norms.grad"),
    Hook("acgf.norms:SmoothedNorm", "hess", "norms.hess"),
)

# Methods of the well classes, hooked on every class that defines them.
POTENTIAL_BASE = "acgf.potentials:ScalarConvexPotential"
POTENTIAL_METHODS = {"prox": 2, "envelope": None, "yosida": None, "yosida_derivative": None}


def _resolve(owner):
    module, _, cls = owner.partition(":")
    try:
        obj = importlib.import_module(module)
    except ImportError:
        return None
    return getattr(obj, cls, None) if cls else obj


def _potential_hooks():
    base = _resolve(POTENTIAL_BASE)
    if base is None:
        return []
    classes, todo = [], [base]
    while todo:
        cls = todo.pop()
        classes.append(cls)
        todo.extend(cls.__subclasses__())
    return [(cls, Hook(f"{cls.__module__}:{cls.__qualname__}", name, f"potentials.{name}", size))
            for cls in classes for name, size in POTENTIAL_METHODS.items() if name in vars(cls)]


def hook_targets():
    """(owner object, hook) for every hook whose attribute exists right now."""
    targets = []
    for hook in HOOKS:
        owner = _resolve(hook.owner)
        if owner is not None and inspect.isfunction(vars(owner).get(hook.attr)):
            targets.append((owner, hook))
    targets.extend((cls, h) for cls, h in _potential_hooks()
                   if inspect.isfunction(vars(cls)[h.attr]))
    return targets


class Tracer:
    """Context manager: wrap every hook target, record spans, restore on exit."""

    def __init__(self):
        self.spans = []
        self.installed = set()
        self._local = threading.local()
        self._originals = []

    def _wrap(self, name, fn, size_arg):
        spans, local, clock = self.spans, self._local, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            span = Span(name, 0.0, 0.0, stack[-1] if stack else None)
            if size_arg is not None and len(args) > size_arg:
                span.elems = int(np.size(args[size_arg]))
            spans.append(span)
            stack.append(span)
            span.start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()

        return traced

    def __enter__(self):
        for owner, hook in hook_targets():
            original = vars(owner)[hook.attr]
            self._originals.append((owner, hook.attr, original))
            setattr(owner, hook.attr, self._wrap(hook.span, original, hook.size_arg))
            self.installed.add(hook.span)
        return self

    def __exit__(self, *exc):
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)
        return False


# ---------------------------------------------------------------------------
# reduction

def self_times(spans):
    """Map id(span) -> duration minus the union of its children's intervals."""
    children = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(id(s.parent), []).append(s)
    out = {}
    for s in spans:
        covered, reach = 0.0, s.start
        for c in sorted(children.get(id(s), ()), key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[id(s)] = s.duration - covered
    return out


def _within(span, name):
    p = span.parent
    while p is not None:
        if p.name == name:
            return True
        p = p.parent
    return False


def _pct(values, q):
    return float(np.percentile(values, q)) if len(values) else 0.0


# metric -> span names it needs; "layer.*" means any hook of that layer
REQUIRES = {
    "flow.steps": ("flow.step",),
    "flow.step_ms.p50": ("flow.step",),
    "flow.step_ms.p90": ("flow.step",),
    "flow.self_s": ("flow.run",),
    "flow.linesearch_evals": ("flow.step", "energy.value"),
    "flow.linesearch_accept_ratio": ("flow.step", "energy.value"),
    "energy.value_calls": ("energy.value",),
    "energy.value_s": ("energy.value",),
    "energy.grad_calls": ("energy.grad",),
    "energy.grad_s": ("energy.grad",),
    "energy.hvp_calls": ("energy.hvp",),
    "energy.hvp_s": ("energy.hvp",),
    "energy.self_s": ("energy.*",),
    "norms.calls": ("norms.*",),
    "norms.self_s": ("norms.*",),
    "meshes.gradient_calls": ("meshes.gradient",),
    "meshes.self_s": ("meshes.gradient",),
    "meshes.build_s": ("meshes.build",),
    "potentials.prox_calls": ("potentials.prox",),
    "potentials.prox_elems": ("potentials.prox",),
    "potentials.yosida_derivative_calls": ("potentials.yosida_derivative",),
    "potentials.self_s": ("potentials.*",),
    "experiments.members": ("experiments.sweep", "flow.run"),
    "experiments.member_s.p50": ("experiments.sweep", "flow.run"),
    "experiments.member_s.max": ("experiments.sweep", "flow.run"),
    "experiments.self_s": ("experiments.sweep",),
    "config.parse_s": ("config.parse",),
    "config.build_s": ("config.build",),
    "runio.read_s": ("runio.read",),
    "runio.write_s": ("runio.write",),
}


def _have(installed, need):
    if need.endswith(".*"):
        return any(name.startswith(need[:-1]) for name in installed)
    return need in installed


def absent_metrics(installed):
    return sorted(m for m, needs in REQUIRES.items()
                  if not all(_have(installed, n) for n in needs))


def layer_metrics(spans, installed, newton_iters):
    """Per-layer metrics of the spans of one run; absent ones are left out."""
    selfs = self_times(spans)

    def named(name):
        return [s for s in spans if s.name == name]

    def self_of(pred):
        return sum(selfs[id(s)] for s in spans if pred(s))

    steps = named("flow.step")
    step_ms = [1e3 * s.duration for s in steps]
    evals = sum(_within(s, "flow.step") for s in named("energy.value"))
    members = [s.duration for s in named("flow.run")
               if s.parent is not None and s.parent.name == "experiments.sweep"]
    out = {
        "flow.steps": len(steps),
        "flow.step_ms.p50": _pct(step_ms, 50),
        "flow.step_ms.p90": _pct(step_ms, 90),
        "flow.self_s": self_of(lambda s: s.layer == "flow"),
        "flow.linesearch_evals": evals,
        "flow.linesearch_accept_ratio": newton_iters / max(evals - len(steps), 1),
        "energy.value_calls": len(named("energy.value")),
        "energy.value_s": sum(s.duration for s in named("energy.value")),
        "energy.grad_calls": len(named("energy.grad")),
        "energy.grad_s": sum(s.duration for s in named("energy.grad")),
        "energy.hvp_calls": len(named("energy.hvp")),
        "energy.hvp_s": sum(s.duration for s in named("energy.hvp")),
        "energy.self_s": self_of(lambda s: s.layer == "energy"),
        "norms.calls": sum(s.layer == "norms" for s in spans),
        "norms.self_s": self_of(lambda s: s.layer == "norms"),
        "meshes.gradient_calls": len(named("meshes.gradient")),
        "meshes.self_s": self_of(lambda s: s.name == "meshes.gradient"),
        "meshes.build_s": sum(s.duration for s in named("meshes.build")),
        "potentials.prox_calls": len(named("potentials.prox")),
        "potentials.prox_elems": sum(s.elems for s in named("potentials.prox")),
        "potentials.yosida_derivative_calls": len(named("potentials.yosida_derivative")),
        "potentials.self_s": self_of(lambda s: s.layer == "potentials"),
        "experiments.members": len(members),
        "experiments.member_s.p50": _pct(members, 50),
        "experiments.member_s.max": max(members, default=0.0),
        "experiments.self_s": self_of(lambda s: s.layer == "experiments"),
        "config.parse_s": self_of(lambda s: s.name == "config.parse"),
        "config.build_s": self_of(lambda s: s.name == "config.build"),
        "runio.read_s": sum(s.duration for s in named("runio.read")),
        "runio.write_s": sum(s.duration for s in named("runio.write")),
    }
    for name in absent_metrics(installed):
        del out[name]
    return out
