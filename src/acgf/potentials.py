"""Scalar convex well potentials and their Moreau machinery.

Each potential B is proper, lower semicontinuous and convex on the real
line, vanishes at 0, is nonnegative, and has a closed interval domain
[lo, hi] (infinite endpoints allowed for the non-indicator kinds).
Operations are pure and vectorized: scalars in, scalars out; arrays in,
arrays out.

Three kinds are shipped:

* ``indicator``  -- 0 on [lo, hi], +inf outside (the canonical obstacle),
* ``quadratic``  -- c*t^2/2 on the whole line, c >= 0,
* ``tabulated``  -- convex piecewise-linear interpolation of (t, B) pairs,
  +inf outside the table range.

Every kind writes one closed form, ``_moreau``: the prox, the envelope,
the Yosida slope and its exact a.e. derivative, all from one prox.
``prox`` reads its first entry, and ``moreau`` the other three, which is
what the energy reads per side of the field; ``envelope``, ``yosida`` and
``yosida_derivative`` each take one of those. For a tabulated well with
breakpoints t_i and segment slopes s_i the prox is itself piecewise
linear in r (Parikh & Boyd, *Proximal Algorithms*, 2014, sec. 6): it
rests on t_i for r in [t_i + lam*s_{i-1}, t_i + lam*s_i] and is
r - lam*s_i in between.
"""

import numpy as np

from .errors import ConfigError


def _as_array(r):
    arr = np.asarray(r, dtype=float)
    return arr, arr.ndim == 0


def _restore(arr, scalar):
    return float(arr) if scalar else arr


def breakpoints(points, what):
    """t and value columns, sorted by t, of >= 2 finite pairs, or a ConfigError naming ``what``."""
    need = f"{what} needs >= 2 finite (t, value) pairs"
    try:
        pts = np.asarray(points, dtype=float)
    except (TypeError, ValueError):
        raise ConfigError(need) from None
    if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 2 or not np.isfinite(pts).all():
        raise ConfigError(need)
    order = np.argsort(pts[:, 0])
    ts = pts[order, 0]
    if np.any(np.diff(ts) <= 0.0):
        raise ConfigError(f"{what} breakpoints must be strictly increasing")
    return ts, pts[order, 1]


class ScalarConvexPotential:
    """Base interface; use the module factories to construct instances."""

    kind = "abstract"
    lo = -np.inf
    hi = np.inf

    def value(self, r):
        """B(r), +inf outside the closed domain."""
        raise NotImplementedError

    def prox(self, lam, r):
        """argmin_t (t-r)^2/(2 lam) + B(t); unique by strict convexity. r must be finite."""
        lam = _check_lam(lam)
        arr, scalar = _as_array(r)
        if not np.all(np.isfinite(arr)):
            raise ConfigError("prox requires finite input")
        # the envelope and the slope of a finite r near the double range may overflow
        with np.errstate(over="ignore", invalid="ignore"):
            return _restore(self._moreau(lam, arr)[0], scalar)

    def moreau(self, lam, r):
        """(envelope, Yosida slope, slope derivative) at r, all from one prox of r.

        The envelope is B^lam(r) = (p - r)^2/(2 lam) + B(p), p = prox(r); the
        Yosida slope (r - p)/lam is its derivative, and the slope's a.e.
        derivative in r is the Hessian diagonal. Unlike ``prox``, a NaN or
        infinite r is not an error: it gives non-finite results, so that a
        line search can reject a non-finite trial point.
        """
        lam = _check_lam(lam)
        arr, scalar = _as_array(r)
        _, env, slope, dslope = self._moreau(lam, arr)
        return _restore(env, scalar), _restore(slope, scalar), _restore(dslope, scalar)

    def _moreau(self, lam, arr):
        """(prox, envelope, slope, slope derivative) of a float array: each kind's closed form."""
        raise NotImplementedError

    def envelope(self, lam, r):
        """Moreau envelope B^lam(r) = min_t (t-r)^2/(2 lam) + B(t)."""
        return self.moreau(lam, r)[0]

    def yosida(self, lam, r):
        """Yosida slope (r - prox(r)) / lam; the derivative of the envelope."""
        return self.moreau(lam, r)[1]

    def yosida_derivative(self, lam, r):
        """a.e. derivative of the Yosida slope in r (the Hessian diagonal)."""
        return self.moreau(lam, r)[2]

    def project(self, r):
        """Clamp onto the closed domain: (r v lo) ^ hi."""
        arr, scalar = _as_array(r)
        return _restore(np.clip(arr, self.lo, self.hi), scalar)

    def same_domain(self, other):
        return self.lo == other.lo and self.hi == other.hi

    def contains(self, r):
        """True where r lies in the closed domain."""
        arr, _ = _as_array(r)
        return np.all((arr >= self.lo) & (arr <= self.hi))


def _check_lam(lam):
    lam = float(lam)
    if not lam > 0.0:
        raise ConfigError(f"moreau parameter must be positive, got {lam}")
    return lam


class _Indicator(ScalarConvexPotential):
    kind = "indicator"

    def __init__(self, lo, hi):
        lo, hi = float(lo), float(hi)
        if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
            raise ConfigError(f"indicator needs finite lo < hi, got [{lo}, {hi}]")
        if not (lo <= 0.0 <= hi):
            raise ConfigError("indicator domain must contain 0")
        self.lo, self.hi = lo, hi

    def value(self, r):
        arr, scalar = _as_array(r)
        out = np.where((arr >= self.lo) & (arr <= self.hi), 0.0, np.inf)
        return _restore(out, scalar)

    def _moreau(self, lam, arr):
        p = np.minimum(np.maximum(arr, self.lo), self.hi)
        d = arr - p
        outside = (arr < self.lo) | (arr > self.hi)
        return p, d * d / (2.0 * lam), d / lam, np.where(outside, 1.0 / lam, 0.0)


class _Quadratic(ScalarConvexPotential):
    kind = "quadratic"

    def __init__(self, c):
        c = float(c)
        if not (np.isfinite(c) and c >= 0.0):
            raise ConfigError(f"quadratic coefficient must be >= 0, got {c}")
        self.c = c
        self.lo, self.hi = -np.inf, np.inf

    def value(self, r):
        arr, scalar = _as_array(r)
        return _restore(0.5 * self.c * arr * arr, scalar)

    def _moreau(self, lam, arr):
        k = 1.0 + lam * self.c
        p = arr / k
        return p, 0.5 * self.c * arr * arr / k, (arr - p) / lam, np.full_like(arr, self.c / k)


class _Tabulated(ScalarConvexPotential):
    kind = "tabulated"

    def __init__(self, points):
        self.ts, self.bs = breakpoints(points, "tabulated potential")
        if np.any(self.bs < -1e-12):
            raise ConfigError("tabulated potential values must be nonnegative")
        self.slopes = np.diff(self.bs) / np.diff(self.ts)
        if np.any(np.diff(self.slopes) < -1e-9 * (1.0 + np.abs(self.slopes[:-1]))):
            raise ConfigError("tabulated potential is not convex (slopes decrease)")
        # A fall within that tolerance is roundoff: raising it makes the slopes,
        # hence the prox knots and the subdifferential, exactly monotone.
        self.slopes = np.maximum.accumulate(self.slopes)
        self.lo, self.hi = float(self.ts[0]), float(self.ts[-1])
        if not (self.lo <= 0.0 <= self.hi):
            raise ConfigError("tabulated domain must contain 0")
        if abs(float(np.interp(0.0, self.ts, self.bs))) > 1e-12:
            raise ConfigError("tabulated potential must vanish at 0")

    def value(self, r):
        arr, scalar = _as_array(r)
        inside = (arr >= self.lo) & (arr <= self.hi)
        out = np.where(inside, np.interp(arr, self.ts, self.bs), np.inf)
        return _restore(out, scalar)

    def _moreau(self, lam, arr):
        # The prox of r lies in segment i, where i counts the segment ends
        # t_{i+1} + lam*s_i at or below r; unclamped it is q = r - lam*s_i.
        ends = self.ts[1:] + lam * self.slopes
        i = np.minimum(ends.searchsorted(arr, side="right"), len(self.slopes) - 1)
        q = arr - lam * self.slopes[i]
        left, right = self.ts[i], self.ts[i + 1]
        p = np.minimum(np.maximum(q, left), right)
        d = arr - p
        # the slope's derivative is 0 where the prox moves with r inside a
        # segment and 1/lam where it rests on a breakpoint
        moving = (q >= left) & (q < right)
        return (p, d * d / (2.0 * lam) + np.interp(p, self.ts, self.bs), d / lam,
                np.where(moving, 0.0, 1.0 / lam))


def indicator(lo=-1.0, hi=1.0):
    """Obstacle potential: 0 on [lo, hi], +inf outside."""
    return _Indicator(lo, hi)


def quadratic(c=1.0):
    """B(t) = c t^2 / 2 on the whole line."""
    return _Quadratic(c)


def tabulated(points):
    """Convex piecewise-linear potential through the given (t, B) pairs."""
    return _Tabulated(points)

