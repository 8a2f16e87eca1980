"""Desk-scale studies that put the solver's qualitative guarantees on trial.

Four probes are provided: a sweep over the boundary-diffusion strength
(solutions should approach the reference run as the parameter does), a
sweep over the smoothing pair (delta, lambda) (successive solutions
should form a Cauchy-like sequence while the smoothed energy climbs to
the exact one), a continuous-dependence probe (perturbation response
ratios must stay under a Gronwall-type envelope), and a sampled
convergence probe for the smoothing families themselves.

Every probe is deterministic given the configuration seed. A probe of
this kind can only refute an assertion that quantifies over infinitely
many sequences; see LIMITATION_NOTE.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .energy import phi_exact, phi_regularized
from .errors import ConfigError
from .flow import run_flow
from .meshes import bulk_gradient, h_norm, surface_gradient
from .norms import SmoothedNorm

LIMITATION_NOTE = (
    "The lower-bound condition quantifies over all weakly convergent "
    "sequences; this probe evaluates finitely many strongly convergent "
    "sample sequences, so it can refute the condition but never prove it."
)


@dataclass
class SweepReport:
    kind: str
    params: list
    ref: object
    e_h: list
    e_v0: list
    extra: dict = field(default_factory=dict)
    verdicts: dict = field(default_factory=dict)
    passed: bool = False
    notes: list = field(default_factory=list)
    traces: dict = field(default_factory=dict)
    seed: int = 0

    def to_jsonable(self):
        return {
            "kind": self.kind,
            "params": self.params,
            "ref": self.ref,
            "e_h": self.e_h,
            "e_v0": self.e_v0,
            "extra": self.extra,
            "verdicts": self.verdicts,
            "passed": self.passed,
            "notes": self.notes,
            "seed": self.seed,
        }


def v0_distance_sq(mesh, u, v):
    """Squared graph-space distance: bulk H1 seminorm + boundary L2 of the traces."""
    d = np.asarray(u, dtype=float) - np.asarray(v, dtype=float)
    g = bulk_gradient(mesh, d)
    out = float(np.dot(np.einsum("nd,nd->n", g, g), mesh.cell_weights))
    db = d[mesh.boundary_nodes]
    out += float(np.dot(db * db, mesh.w_bdry))
    return out


def _boundary_h1_sq(mesh, u, v):
    d = np.asarray(u, dtype=float) - np.asarray(v, dtype=float)
    db = d[mesh.boundary_nodes]
    out = float(np.dot(db * db, mesh.w_bdry))
    if mesh.seg_nodes.shape[0]:
        sg = surface_gradient(mesh, d)
        out += float(np.dot(sg * sg, mesh.seg_weights))
    return out


def _sup_h_dist(mesh, states_a, states_b):
    return max(h_norm(mesh, a - b) for a, b in zip(states_a, states_b))


def _integrated(mesh, states_a, states_b, tau, metric):
    total = 0.0
    for a, b in zip(states_a[1:], states_b[1:]):
        total += tau * metric(mesh, a, b)
    return math.sqrt(total)


def _run_states(cfg, guide=None, **overrides):
    """Run the flow for cfg with energy overrides; returns (mesh, fp, states, trace).

    ``guide`` is passed to ``run_flow``: the states of a run to follow.
    """
    mesh, p, fp, u0, forcing = cfg.build_all()
    _, trace, snaps = run_flow(mesh, p.replace(**overrides), fp, u0, forcing, snapshot_every=1,
                               guide=guide)
    states = [s for _, s in snaps]
    return mesh, fp, states, trace


def _loglog_rate(xs, ys):
    """Least-squares slope of log y against log x; None when degenerate."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    keep = (xs > 0) & (ys > 0)
    if keep.sum() < 2:
        return None
    slope = np.polyfit(np.log(xs[keep]), np.log(ys[keep]), 1)[0]
    return float(slope)


def sweep_epsilon(cfg, eps_list, eps0):
    """Rerun the flow along eps_list and compare against the eps0 reference.

    The eps0 reference runs first. The members then run in order, each
    guided by the reference's states (``run_flow``'s ``guide``): since the
    solution depends continuously on eps, a member's step n starts its Newton
    solve at u_{n-1} + (ref_n - ref_{n-1}) and needs fewer iterates to
    converge to its own step. A member at eps0 itself runs unguided, so that
    it reproduces the reference bit for bit.
    """
    eps_list = [float(e) for e in eps_list]
    eps0 = float(eps0)
    if not eps_list:
        raise ConfigError("eps_list must be nonempty")
    if any(e < 0.0 for e in eps_list) or eps0 < 0.0:
        raise ConfigError("eps values must be nonnegative")
    gaps = [abs(e - eps0) for e in eps_list]
    if any(b >= a for a, b in zip(gaps, gaps[1:])):
        raise ConfigError("eps_list must approach eps0 strictly")
    if cfg.mesh["kind"] != "disc":
        raise ConfigError("the eps sweep needs a disc mesh (eps is inert on an interval)")

    mesh, fp, ref_states, ref_trace = _run_states(cfg, eps=eps0)
    results = [_run_states(cfg, guide=None if e == eps0 else ref_states, eps=e)
               for e in eps_list]
    report = SweepReport(kind="sweep_epsilon", params=eps_list, ref=eps0,
                         e_h=[], e_v0=[], seed=cfg.seed)
    report.traces[f"eps={eps0:.17g}(ref)"] = ref_trace
    bdry = []
    for e, (_, _, states, trace) in zip(eps_list, results):
        report.traces[f"eps={e:.17g}"] = trace
        report.e_h.append(_sup_h_dist(mesh, states, ref_states))
        report.e_v0.append(_integrated(mesh, states, ref_states, fp.tau, v0_distance_sq))
        bdry.append(_integrated(mesh, states, ref_states, fp.tau, _boundary_h1_sq))
    if eps0 > 0.0:
        report.extra["boundary_h1"] = bdry
    report.verdicts["e_h_strictly_decreasing"] = all(
        b < a for a, b in zip(report.e_h, report.e_h[1:])
    )
    if eps0 > 0.0:
        report.verdicts["boundary_h1_decreasing"] = all(
            b < a for a, b in zip(bdry, bdry[1:])
        )
    report.extra["fitted_rate"] = _loglog_rate(gaps, report.e_h)
    report.notes.append(
        "forcing held fixed across the sweep (a strongly convergent family); "
        "weak-only convergence of forcings is not finitely samplable"
    )
    report.passed = all(report.verdicts.values())
    return report


def sweep_regularization(cfg, pairs):
    """Rerun the flow along descending (delta, lambda) pairs; check a Cauchy trend."""
    pairs = [(float(d), float(l)) for d, l in pairs]
    if not pairs:
        raise ConfigError("pairs must be nonempty")
    for (d0, l0), (d1, l1) in zip(pairs, pairs[1:]):
        if d1 > d0 or l1 > l0 or (d1, l1) == (d0, l0):
            raise ConfigError("(delta, lambda) pairs must descend")

    results = [_run_states(cfg, delta=d, lam=l) for d, l in pairs]
    mesh, fp, _, _ = results[0]
    report = SweepReport(kind="sweep_regularization", params=[list(x) for x in pairs],
                         ref=None, e_h=[], e_v0=[], seed=cfg.seed)
    for (d, l), (_, _, _, trace) in zip(pairs, results):
        report.traces[f"delta={d:.17g}_lambda={l:.17g}"] = trace
    succ = []
    for (_, _, sa, _), (_, _, sb, _) in zip(results, results[1:]):
        succ.append(_sup_h_dist(mesh, sa, sb))
    report.e_h = succ
    report.e_v0 = [
        _integrated(mesh, a[2], b[2], fp.tau, v0_distance_sq)
        for a, b in zip(results, results[1:])
    ]
    report.verdicts["successive_distances_decreasing"] = all(
        b < a for a, b in zip(succ, succ[1:])
    )
    report.extra["fitted_rate"] = _loglog_rate([d for d, _ in pairs[:len(succ)]], succ)

    # smoothed energy of the fixed initial state climbs toward the exact one
    mesh0, p0, _, u0, _ = cfg.build_all()
    phis = [phi_regularized(mesh0, p0.replace(delta=d, lam=l), u0) for d, l in pairs]
    exact = phi_exact(mesh0, p0, u0)
    report.extra["phi_values"] = phis
    report.extra["phi_exact"] = exact
    ok = all(b >= a - 1e-12 * (1.0 + abs(a)) for a, b in zip(phis, phis[1:]))
    ok = ok and all(v <= exact + 1e-12 * (1.0 + abs(exact)) for v in phis)
    if len(phis) >= 2 and np.isfinite(exact):
        ok = ok and (exact - phis[-1]) <= (exact - phis[0]) + 1e-12
    report.verdicts["phi_recovery_monotone"] = bool(ok)
    report.passed = all(report.verdicts.values())
    return report


def continuous_dependence_probe(cfg, magnitudes, perturb="both"):
    """Perturb data at several magnitudes and bound the response ratios.

    ``perturb`` selects what gets the scaled random field: "both",
    "u0" (initial state only), or "theta" (forcing only).
    """
    magnitudes = [float(m) for m in magnitudes]
    if not magnitudes:
        raise ConfigError("magnitudes must be nonempty")
    if any(m <= 0.0 for m in magnitudes):
        raise ConfigError("magnitudes must be positive")
    if any(b >= a for a, b in zip(magnitudes, magnitudes[1:])):
        raise ConfigError("magnitudes must descend")
    if perturb not in ("both", "u0", "theta"):
        raise ConfigError(f"perturb must be both/u0/theta, got {perturb!r}")

    mesh, p, fp, u0, forcing = cfg.build_all()
    lo, hi = p.bulk_potential.lo, p.bulk_potential.hi
    _, base_trace, base_snaps = run_flow(mesh, p, fp, u0, forcing, snapshot_every=1)
    base_states = [s for _, s in base_snaps]

    # bitwise determinism: the unperturbed rerun must reproduce the baseline
    _, _, again = run_flow(mesh, p, fp, u0, forcing, snapshot_every=1)
    deterministic = all(
        np.array_equal(a, b) for (_, a), (_, b) in zip(base_snaps, again)
    )

    rng = np.random.default_rng(cfg.seed)
    xi_u = rng.standard_normal(mesh.num_nodes) if perturb != "theta" else 0.0
    xi_th = rng.standard_normal(mesh.num_nodes) if perturb != "u0" else None
    steps = fp.num_steps

    def one(mag):
        u0p = np.clip(u0 + mag * xi_u, lo, hi)
        du0 = u0p - u0
        f = forcing if xi_th is None else forcing.with_offset(mag * xi_th)
        try:
            den = h_norm(mesh, du0) ** 2
            if xi_th is not None:
                den += steps * fp.tau * (mag ** 2) * h_norm(mesh, xi_th) ** 2
        except OverflowError:
            den = math.inf
        if not 0.0 < den < math.inf:
            raise ConfigError(f"magnitudes: {mag} gives the data perturbation a squared norm "
                              f"of {den}, outside (0, inf)")
        _, trace, snaps = run_flow(mesh, p, fp, u0p, f, snapshot_every=1)
        states = [s for _, s in snaps]
        num = _sup_h_dist(mesh, states, base_states) ** 2
        num += _integrated(mesh, states, base_states, fp.tau, v0_distance_sq) ** 2
        return num / den, trace

    outs = [one(mag) for mag in magnitudes]
    ratios = [r for r, _ in outs]
    envelope = 2.0 * math.exp(2.0 * p.perturbation.lipschitz * fp.T) * (1.0 + fp.T)
    report = SweepReport(kind="continuous_dependence", params=magnitudes, ref=None,
                         e_h=ratios, e_v0=[], seed=cfg.seed)
    report.traces["baseline"] = base_trace
    for m, (_, tr) in zip(magnitudes, outs):
        report.traces[f"magnitude={m:.17g}"] = tr
    report.extra["envelope"] = envelope
    report.extra["ratio_spread"] = (max(ratios) / min(ratios)) if min(ratios) > 0 else np.inf
    report.verdicts["bounded_by_envelope"] = all(r <= envelope for r in ratios)
    report.verdicts["deterministic_baseline"] = deterministic
    report.passed = all(report.verdicts.values())
    return report


def mosco_probe(delta_list, sample_points=None, sample_sequences=None,
                potential=None, scalar_points=None, dim=2):
    """Sampled convergence checks for the smoothing families.

    For the smoothed norms: every provided strongly convergent sequence
    must satisfy the lower-bound inequality within 1e-8 slack (estimated
    on the tail), and the constant recovery sequence must close the gap
    to the limit norm. For a well potential: the envelopes at the same
    parameters must climb monotonically to the exact value, within the
    classical gap bound (lam/2) * slope^2 at each sampled interior point.
    """
    deltas = np.asarray([float(d) for d in delta_list], dtype=float)
    if deltas.size == 0 or np.any(deltas <= 0.0):
        raise ConfigError("delta_list must be nonempty and positive")
    if np.any(np.diff(deltas) >= 0.0):
        raise ConfigError("delta_list must strictly descend")
    n = deltas.size

    if sample_points is None:
        if dim == 2:
            sample_points = [(0.0, 0.0), (3.0, 4.0), (-2.0, 0.0), (0.5, -0.25)]
        else:
            sample_points = [(0.0,), (2.0,), (-0.75,)]
    if sample_sequences is None:
        # outward radial drift |w_n| = |w| + 1/n keeps the finite-tail
        # lower-bound estimate sound; the origin gets the exact constant
        sample_sequences = []
        ns = np.arange(1, n + 1)[:, None]
        for pt in sample_points:
            pt = np.asarray(pt, dtype=float)
            r = np.linalg.norm(pt)
            terms = pt + (pt / r) / ns if r > 0 else np.tile(pt, (n, 1))
            sample_sequences.append({"limit": pt, "terms": terms})

    report = {"delta_list": deltas.tolist(), "limitation": LIMITATION_NOTE}

    worst_rec = 0.0
    for pt in sample_points:
        pt = np.asarray(pt, dtype=float)
        target = float(np.linalg.norm(pt))
        vals = np.array([SmoothedNorm(d, pt.size).eval(pt) for d in deltas])
        worst_rec = max(worst_rec, float(np.max(np.abs(vals - target) - deltas)))
    report["recovery"] = {"worst_excess_over_delta_band": worst_rec,
                          "holds": worst_rec <= 1e-12}

    worst_lb = 0.0
    for seq in sample_sequences:
        limit = np.asarray(seq["limit"], dtype=float)
        terms = np.asarray(seq["terms"], dtype=float)
        if terms.shape[0] != n:
            raise ConfigError("each sequence needs one term per delta")
        vals = np.array([SmoothedNorm(d, limit.size).eval(t)
                         for d, t in zip(deltas, terms)])
        tail = vals[max(0, n - max(1, n // 4)):]
        worst_lb = max(worst_lb, float(np.linalg.norm(limit) - np.min(tail)))
    report["lower_bound"] = {"worst_slack": worst_lb, "holds": worst_lb <= 1e-8}

    if potential is not None:
        if scalar_points is None:
            lo = max(potential.lo, -10.0)
            hi = min(potential.hi, 10.0)
            scalar_points = list(lo + (hi - lo) * np.linspace(0.15, 0.85, 5))
        worst_gap_excess = -np.inf
        monotone = True
        for r in scalar_points:
            br = potential.value(r)
            sl = potential.minimal_section(r)
            envs = np.array([potential.envelope(d, r) for d in deltas])
            monotone = monotone and bool(
                np.all(np.diff(envs) >= -1e-12 * (1.0 + np.abs(envs[:-1])))
            )
            bound = 0.5 * deltas * sl * sl + 1e-12
            worst_gap_excess = max(worst_gap_excess, float(np.max((br - envs) - bound)))
        report["envelope_recovery"] = {
            "worst_gap_excess": worst_gap_excess,
            "monotone": monotone,
            "holds": monotone and worst_gap_excess <= 0.0,
        }

    report["passed"] = all(
        section["holds"] for key, section in report.items()
        if isinstance(section, dict) and "holds" in section
    )
    return report
