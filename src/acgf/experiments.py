"""Desk-scale studies that put the solver's qualitative guarantees on trial.

Three probes are provided: a sweep over the boundary-diffusion strength
(solutions should approach the reference run as the parameter does), a
sweep over the smoothing pair (delta, lambda) (successive solutions
should form a Cauchy-like sequence while the smoothed energy climbs to
the exact one), and a continuous-dependence probe (perturbation response
ratios must stay under a Gronwall-type envelope).

Each probe takes the run its configuration built once and derives every
member from it (``EnergyParams.replace`` or shifted data) before it solves
any; every member runs through ``_states``, the one call of ``run_flow``
here. A report passes iff all of its verdicts hold. Every probe is
deterministic given the configuration seed. A probe raises ConfigError only
before its first solve; one about its list argument does not name it, so a
caller can prefix the name it knows the list by (the CLI gives the flag).
"""

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .energy import phi_exact, phi_regularized
from .errors import ConfigError
from .flow import run_flow
from .meshes import bulk_gradient, h_norm, rowdot, surface_gradient


@dataclass
class SweepReport:
    kind: str
    params: list
    ref: object
    e_h: list
    e_v0: list
    extra: dict = field(default_factory=dict)
    verdicts: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)
    traces: dict = field(default_factory=dict)
    seed: int = 0

    @property
    def passed(self):
        """True iff every verdict holds."""
        return all(self.verdicts.values())

    def to_jsonable(self):
        out = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "traces"}
        out["passed"] = self.passed
        return out


def v0_distance_sq(mesh, u, v):
    """Squared graph-space distance: bulk H1 seminorm + boundary L2 of the traces."""
    d = np.asarray(u, dtype=float) - np.asarray(v, dtype=float)
    g = bulk_gradient(mesh, d)
    out = float(np.dot(rowdot(g, g), mesh.cell_weights))
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
    return math.sqrt(sum(tau * metric(mesh, a, b) for a, b in zip(states_a[1:], states_b[1:])))


def _states(mesh, p, fp, u0, forcing, guide=None):
    """Run one sweep member; returns (its state at every step, its trace).

    ``guide`` is passed to ``run_flow``: the states of a run to follow.
    """
    _, trace, snaps = run_flow(mesh, p, fp, u0, forcing, snapshot_every=1, guide=guide)
    return [s for _, s in snaps], trace


def _decreasing(xs):
    """True iff every entry of xs is below the one before it."""
    return all(b < a for a, b in zip(xs, xs[1:]))


def _loglog_rate(xs, ys):
    """Least-squares slope of log y against log x; None when degenerate."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    keep = (xs > 0) & (ys > 0)
    if keep.sum() < 2:
        return None
    slope = np.polyfit(np.log(xs[keep]), np.log(ys[keep]), 1)[0]
    return float(slope)


def check_eps_list(eps_list, eps0):
    """Raise ConfigError unless eps_list is nonempty and approaches eps0 strictly."""
    if not eps_list:
        raise ConfigError("must be nonempty")
    if not _decreasing([abs(e - eps0) for e in eps_list]):
        raise ConfigError("must approach eps0 strictly")


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
    check_eps_list(eps_list, eps0)
    mesh, p, fp, u0, forcing = cfg.build_all()
    if mesh.kind != "disc":
        raise ConfigError("the eps sweep needs a disc mesh (eps is inert on an interval)")
    ref_p, *members = (p.replace(eps=e) for e in [eps0, *eps_list])

    report = SweepReport(kind="sweep_epsilon", params=eps_list, ref=eps0,
                         e_h=[], e_v0=[], seed=cfg.seed)
    ref, report.traces[f"eps={eps0:.17g}(ref)"] = _states(mesh, ref_p, fp, u0, forcing)
    bdry = []
    for e, q in zip(eps_list, members):
        states, report.traces[f"eps={e:.17g}"] = _states(
            mesh, q, fp, u0, forcing, guide=None if e == eps0 else ref)
        report.e_h.append(_sup_h_dist(mesh, states, ref))
        report.e_v0.append(_integrated(mesh, states, ref, fp.tau, v0_distance_sq))
        bdry.append(_integrated(mesh, states, ref, fp.tau, _boundary_h1_sq))
    report.verdicts["e_h_strictly_decreasing"] = _decreasing(report.e_h)
    if eps0 > 0.0:
        report.extra["boundary_h1"] = bdry
        report.verdicts["boundary_h1_decreasing"] = _decreasing(bdry)
    report.extra["fitted_rate"] = _loglog_rate([abs(e - eps0) for e in eps_list], report.e_h)
    report.notes.append(
        "forcing held fixed across the sweep (a strongly convergent family); "
        "weak-only convergence of forcings is not finitely samplable"
    )
    return report


def sweep_regularization(cfg, pairs):
    """Rerun the flow along descending (delta, lambda) pairs; check a Cauchy trend."""
    pairs = [(float(d), float(l)) for d, l in pairs]
    if not pairs:
        raise ConfigError("must be nonempty")
    for (d0, l0), (d1, l1) in zip(pairs, pairs[1:]):
        if d1 > d0 or l1 > l0 or (d1, l1) == (d0, l0):
            raise ConfigError("must descend: neither delta nor lambda may grow, "
                              "and no entry may repeat the one before")

    mesh, p, fp, u0, forcing = cfg.build_all()
    members = [p.replace(delta=d, lam=l) for d, l in pairs]
    report = SweepReport(kind="sweep_regularization", params=[list(x) for x in pairs],
                         ref=None, e_h=[], e_v0=[], seed=cfg.seed)
    states = []
    for (d, l), q in zip(pairs, members):
        s, report.traces[f"delta={d:.17g}_lambda={l:.17g}"] = _states(mesh, q, fp, u0, forcing)
        states.append(s)
    report.e_h = [_sup_h_dist(mesh, a, b) for a, b in zip(states, states[1:])]
    report.e_v0 = [_integrated(mesh, a, b, fp.tau, v0_distance_sq)
                   for a, b in zip(states, states[1:])]
    report.verdicts["successive_distances_decreasing"] = _decreasing(report.e_h)
    report.extra["fitted_rate"] = _loglog_rate([d for d, _ in pairs[:len(report.e_h)]],
                                               report.e_h)

    # smoothed energy of the fixed initial state climbs toward the exact one
    phis = [phi_regularized(mesh, q, u0) for q in members]
    exact = phi_exact(mesh, p, u0)
    report.extra["phi_values"] = phis
    report.extra["phi_exact"] = exact
    ok = all(b >= a - 1e-12 * (1.0 + abs(a)) for a, b in zip(phis, phis[1:]))
    ok = ok and all(v <= exact + 1e-12 * (1.0 + abs(exact)) for v in phis)
    if len(phis) >= 2 and np.isfinite(exact):
        ok = ok and (exact - phis[-1]) <= (exact - phis[0]) + 1e-12
    report.verdicts["phi_recovery_monotone"] = bool(ok)
    return report


def continuous_dependence_probe(cfg, magnitudes):
    """Perturb the initial state and the forcing at several magnitudes; bound the response ratios.

    Two standard normal nodal fields are drawn from the config seed, xi_u
    and then xi_theta. The member at magnitude m starts from u0 + m xi_u
    (clipped to the well domain) under the forcing theta + m xi_theta. Its
    squared distance from the baseline run, over the squared size of that
    data perturbation, must stay under a Gronwall-type envelope, and an
    unperturbed rerun must reproduce the baseline bit for bit.
    """
    magnitudes = [float(m) for m in magnitudes]
    if not magnitudes:
        raise ConfigError("must be nonempty")
    if any(m <= 0.0 for m in magnitudes):
        raise ConfigError("must be positive")
    if not _decreasing(magnitudes):
        raise ConfigError("must descend")

    mesh, p, fp, u0, forcing = cfg.build_all()
    rng = np.random.default_rng(cfg.seed)
    xi_u = rng.standard_normal(mesh.num_nodes)
    xi_th = rng.standard_normal(mesh.num_nodes)
    members = []  # (magnitude, its initial state, its squared data-perturbation norm)
    for mag in magnitudes:
        u0p = np.clip(u0 + mag * xi_u, p.bulk_potential.lo, p.bulk_potential.hi)
        try:
            den = h_norm(mesh, u0p - u0) ** 2
            den += fp.num_steps * fp.tau * (mag ** 2) * h_norm(mesh, xi_th) ** 2
        except OverflowError:
            den = math.inf
        if not 0.0 < den < math.inf:
            raise ConfigError(f"{mag} gives the data perturbation a squared norm of {den}, "
                              "outside (0, inf)")
        members.append((mag, u0p, den))
    try:  # an infinite envelope bounds every ratio
        envelope = 2.0 * math.exp(2.0 * p.perturbation.lipschitz * fp.T) * (1.0 + fp.T)
    except OverflowError:
        envelope = math.inf

    base, base_trace = _states(mesh, p, fp, u0, forcing)
    again, _ = _states(mesh, p, fp, u0, forcing)  # the unperturbed rerun must match bitwise
    report = SweepReport(kind="continuous_dependence", params=magnitudes, ref=None,
                         e_h=[], e_v0=[], seed=cfg.seed)
    report.traces["baseline"] = base_trace
    for mag, u0p, den in members:
        states, report.traces[f"magnitude={mag:.17g}"] = _states(
            mesh, p, fp, u0p, forcing.with_offset(mag * xi_th))
        num = _sup_h_dist(mesh, states, base) ** 2
        num += _integrated(mesh, states, base, fp.tau, v0_distance_sq) ** 2
        report.e_h.append(num / den)
    ratios = report.e_h
    report.extra["envelope"] = envelope
    report.extra["ratio_spread"] = (max(ratios) / min(ratios)) if min(ratios) > 0 else np.inf
    report.verdicts["bounded_by_envelope"] = all(r <= envelope for r in ratios)
    report.verdicts["deterministic_baseline"] = all(
        np.array_equal(a, b) for a, b in zip(base, again))
    return report

