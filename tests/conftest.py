"""Shared test helpers, including the independent proximal-step oracle."""

import math
import os
import sys

import numpy as np
from hypothesis import strategies as st

from acgf.energy import NegQuadraticPart, NonePart, _grad_partial
from acgf.errors import ConfigError
from acgf.meshes import _check_field
from acgf.runio import _row_error

sys.path.insert(0, os.path.dirname(__file__))


def grad_phi_regularized(mesh, p, u):
    """Gradient of the regularized energy w.r.t. the product inner product."""
    return _grad_partial(mesh, p, u) / mesh.mass


def smoothed_norm_hess(delta, omega, dual=None):
    """(I - (w omega^T + omega w^T) / (2 s)) / s, s = sqrt(|omega|^2 + delta^2); shape (..., dim, dim).

    The Hessian blocks of f_delta(omega) = s - delta in their full form, the
    reference that ``energy.hessian``'s packed band is checked against.
    ``dual`` is a flux w of the same shape as ``omega``; the default w =
    omega / s gives the exact Hessian I/s - omega omega^T / s^3. For |w| < 1
    the matrix is symmetric positive definite with eigenvalues at least
    (1 - |w| |omega| / s) / s.
    """
    omega = np.asarray(omega, dtype=float)
    s = np.sqrt(np.sum(omega * omega, axis=-1) + delta**2)
    w = omega / s[..., None] if dual is None else np.asarray(dual, dtype=float)
    sym = 0.5 * (w[..., :, None] * omega[..., None, :] + omega[..., :, None] * w[..., None, :])
    return (np.eye(omega.shape[-1]) - sym / s[..., None, None]) / s[..., None, None]


def laplace_beltrami(mesh, u):
    """Periodic second difference along the boundary loop, per boundary node."""
    if mesh.kind != "disc":
        raise ValueError("laplace_beltrami needs a 1-dimensional boundary (disc mesh); "
                         "on an interval it vanishes identically")
    ub = _check_field(mesh, u)[mesh.boundary_nodes]
    return (np.roll(ub, 1) - 2.0 * ub + np.roll(ub, -1)) / mesh.seg_len**2


def subdifferential(pot, p):
    """Ends (left, right) of the tabulated well pot's subdifferential interval at p in its domain.

    They are the slopes of the segments to the left and to the right of p,
    with -inf at lo and +inf at hi.
    """
    last = len(pot.slopes) - 1
    left = pot.slopes[np.clip(np.searchsorted(pot.ts, p, side="left") - 1, 0, last)]
    right = pot.slopes[np.clip(np.searchsorted(pot.ts, p, side="right") - 1, 0, last)]
    return np.where(p <= pot.lo, -np.inf, left), np.where(p >= pot.hi, np.inf, right)


def optimality_residual(pot, lam, r, p):
    """Distance of (r - p)/lam from the subdifferential interval of the tabulated well pot at p."""
    g = (np.asarray(r, dtype=float) - p) / lam
    s_lo, s_hi = subdifferential(pot, p)
    return np.maximum(np.maximum(s_lo - g, g - s_hi), 0.0)


def least_norm_subgradient(pot, r):
    """The least-norm subgradient of the well pot at r, nan outside its domain.

    An indicator's is 0 inside and, by convention, -inf and +inf at lo and hi.
    """
    arr = np.asarray(r, dtype=float)
    if pot.kind == "indicator":
        out = np.where(arr == pot.lo, -np.inf, np.where(arr == pot.hi, np.inf, 0.0))
    elif pot.kind == "quadratic":
        out = pot.c * arr
    else:
        s_lo, s_hi = subdifferential(pot, arr)
        out = np.where(s_lo > 0.0, s_lo, np.where(s_hi < 0.0, s_hi, 0.0))
    return np.where((arr < pot.lo) | (arr > pot.hi), np.nan, out)[()]


def coordinate_descent_prox_oracle(mesh, p, tau, uprev, theta=None, grad_tol=1e-10,
                                   max_sweeps=20000):
    """Brute-force minimizer of the implicit-Euler step objective.

    Independent of the solver under test: the objective's partial
    derivatives are written out from scratch (plain scalar arithmetic)
    for a uniform interval mesh with interval-indicator wells and an
    optional clamped -s^2/2 perturbation treated semi-implicitly. Cyclic
    coordinate minimization with per-coordinate bisection runs until
    every partial derivative is below ``grad_tol``.
    """
    assert mesh.kind == "interval"
    assert p.bulk_potential.kind == "indicator" and p.bdry_potential.kind == "indicator"
    n = mesh.n
    h = mesh.L / n
    lo, hi = p.bulk_potential.lo, p.bulk_potential.hi
    lam, dd, kk = p.lam, p.delta * p.delta, p.kappa * p.kappa

    # quadrature recomputed from scratch: trapezoid bulk, unit endpoint mass
    w = [h] * (n + 1)
    w[0] = w[-1] = h / 2
    wg = [0.0] * (n + 1)
    wg[0] = wg[-1] = 1.0
    m = [w[i] + wg[i] for i in range(n + 1)]

    part = p.perturbation.bulk
    u = [float(x) for x in uprev]
    if isinstance(part, NegQuadraticPart):
        gval = [-min(max(x, lo), hi) for x in u]
    elif isinstance(part, NonePart):
        gval = [0.0] * (n + 1)
    else:  # pragma: no cover - oracle scope
        raise AssertionError(f"oracle does not handle perturbation {type(part).__name__}")
    th = [0.0] * (n + 1) if theta is None else [float(x) for x in theta]
    c = [gval[i] - th[i] for i in range(n + 1)]

    def partial(v, i):
        t = v[i]
        tc = lo if t < lo else (hi if t > hi else t)
        out = m[i] * (t - u[i]) / tau + m[i] * c[i] + (w[i] + wg[i]) * (t - tc) / lam
        if i >= 1:
            s = (t - v[i - 1]) / h
            out += s / math.sqrt(s * s + dd) + kk * s
        if i <= n - 1:
            s = (v[i + 1] - t) / h
            out -= s / math.sqrt(s * s + dd) + kk * s
        return out

    v = [float(x) for x in uprev]
    for _ in range(max_sweeps):
        for i in range(n + 1):
            a, b = lo - 20.0, hi + 20.0
            for _ in range(70):
                mid = 0.5 * (a + b)
                v[i] = mid
                if partial(v, i) > 0.0:
                    b = mid
                else:
                    a = mid
            v[i] = 0.5 * (a + b)
        if max(abs(partial(v, i)) for i in range(n + 1)) <= grad_tol:
            return np.array(v)
    raise AssertionError("oracle did not reach the requested gradient tolerance")


def einsum_affine_fit_ops(coords, cell_nodes):
    """Reference cell operators: einsum products with each cell's explicit 2 x 2 inverse."""
    P = coords[cell_nodes]  # (nc, k, 2)
    D = P - P.mean(axis=1, keepdims=True)
    M = np.einsum("nkd,nke->nde", D, D)
    det = M[:, 0, 0] * M[:, 1, 1] - M[:, 0, 1] * M[:, 1, 0]
    Minv = np.empty_like(M)
    Minv[:, 0, 0] = M[:, 1, 1]
    Minv[:, 1, 1] = M[:, 0, 0]
    Minv[:, 0, 1] = -M[:, 0, 1]
    Minv[:, 1, 0] = -M[:, 1, 0]
    Minv /= det[:, None, None]
    return np.einsum("nde,nke->ndk", Minv, D)


def per_row_snapshot_values(path, expected_nodes):
    """Reference snapshot reader: every check of a row before the next row is read.

    Raises ValueError on a node id of more digits than int() converts.
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
        if not (parts[0].isascii() and parts[0].isdecimal()):  # int() takes "+3", "1_0", "٣"
            raise _row_error(path, k, ln, "node_id must be a non-negative integer")
        idx = int(parts[0])
        try:
            if not parts[4].isascii() or "_" in parts[4]:  # float() takes "0_5" and "１.5"
                raise ValueError
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


def key_paths(node, prefix=()):
    """Key paths of every value nested in a JSON document."""
    if isinstance(node, dict):
        items = node.items()
    else:
        items = enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield prefix + (key,)
        yield from key_paths(child, prefix + (key,))


def json_values(numbers):
    """Arbitrary JSON values, config kinds and keys among them, numbers drawn from numbers."""
    kinds = ["interval", "disc", "indicator", "quadratic", "tabulated", "neg_quadratic", "none",
             "constant", "two_phase", "file", "random", "zero"]
    keys = ["kind", "points", "path", "lo", "bulk", "times", "n"]
    return st.recursive(
        st.none() | st.booleans() | numbers
        | st.sampled_from([float("nan"), float("inf"), -float("inf")])
        | st.text(max_size=3) | st.sampled_from(kinds),
        lambda inner: st.lists(inner, max_size=3)
        | st.dictionaries(st.sampled_from(keys), inner, max_size=3),
        max_leaves=6,
    )
