"""Tests for the scalar convex potentials and their Moreau machinery."""

import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from acgf.config import config_from_dict
from acgf.energy import TabulatedPart
from acgf.errors import ConfigError
from acgf.potentials import indicator, quadratic, tabulated
from conftest import least_norm_subgradient, optimality_residual


def grid_prox_oracle(pot, lam, r, lo=-10.0, hi=10.0):
    """Dense-grid minimizer of (t-r)^2/(2 lam) + B(t) at 1e-6 resolution.

    Two-stage refinement (coarse 1e-3 grid, then 1e-6 around the coarse
    argmin) is equivalent to the full dense grid because the objective is
    convex, hence unimodal.
    """
    def objective(ts):
        vals = np.asarray(pot.value(ts), dtype=float)
        return (ts - r) ** 2 / (2.0 * lam) + vals

    coarse = np.arange(lo, hi + 1e-3, 1e-3)
    t0 = coarse[np.argmin(objective(coarse))]
    fine = np.arange(t0 - 2e-3, t0 + 2e-3, 1e-6)
    return fine[np.argmin(objective(fine))]


@st.composite
def convex_tables(draw):
    """(t, B) pairs of a convex piecewise-linear well with B(0) = 0.

    Segments leave 0 to both sides with slopes whose magnitudes grow
    outward. Optionally one slope falls by up to 0.9 of the constructor's
    1e-9 relative convexity tolerance, and the table may be mirrored.
    """
    side = st.lists(st.tuples(st.floats(0.05, 1.5), st.floats(0.0, 3.0)), max_size=4)
    right, left = draw(side), draw(side)
    if not right and not left:
        right = [(1.0, 1.0)]
    pts = [(0.0, 0.0)]
    for segs, sign in ((right, 1.0), (left, -1.0)):
        widths = np.array([w for w, _ in segs])
        slopes = np.cumsum([ds for _, ds in segs])
        falls = [k for k in range(len(slopes) - 1) if slopes[k] >= 0.1]
        if falls and draw(st.booleans()):
            k = draw(st.sampled_from(falls))
            slopes[k + 1] = slopes[k] - draw(st.floats(0.0, 0.9)) * 1e-9 * (1.0 + slopes[k])
        ts = sign * np.cumsum(widths)
        bs = np.cumsum(widths * slopes)
        pts += list(zip(ts, bs))
    pts = np.array(pts)
    if draw(st.booleans()):
        pts[:, 0] = -pts[:, 0]
    return pts


def prox_knots(pot, lam):
    """r-breakpoints of the tabulated prox: t_i + lam * s_i and t_{i+1} + lam * s_i."""
    return np.concatenate([pot.ts[:-1] + lam * pot.slopes, pot.ts[1:] + lam * pot.slopes])


class TestTabulatedClosedForm:
    @settings(max_examples=60, deadline=None)
    @given(convex_tables(), st.floats(0.01, 1.0), st.floats(0.0, 1.0))
    def test_prox_matches_grid_oracle(self, pts, lam, frac):
        pot = tabulated(pts)
        r = pot.lo - 2.0 + frac * (pot.hi - pot.lo + 4.0)
        expected = grid_prox_oracle(pot, lam, r, lo=pot.lo, hi=pot.hi)
        assert pot.prox(lam, r) == pytest.approx(expected, abs=2e-6)

    @settings(max_examples=100, deadline=None)
    @given(convex_tables(), st.floats(0.01, 1.0))
    def test_optimality_residual(self, pts, lam):
        pot = tabulated(pts)
        knots = prox_knots(pot, lam)
        rs = np.concatenate([np.linspace(pot.lo - 3.0, pot.hi + 3.0, 2001), knots,
                             np.nextafter(knots, -np.inf), np.nextafter(knots, np.inf)])
        p = np.asarray(pot.prox(lam, rs))
        assert np.max(optimality_residual(pot, lam, rs, p)) <= 1e-12

    @settings(max_examples=100, deadline=None)
    @given(convex_tables(), st.floats(0.01, 1.0))
    def test_yosida_derivative_matches_central_differences(self, pts, lam):
        pot = tabulated(pts)
        rs = np.linspace(pot.lo - 2.0, pot.hi + 2.0, 801)
        rs = rs[np.abs(rs[:, None] - prox_knots(pot, lam)).min(axis=1) >= 0.02]
        h = 1e-4
        fd = (np.asarray(pot.yosida(lam, rs + h)) - np.asarray(pot.yosida(lam, rs - h))) / (2 * h)
        d = np.asarray(pot.yosida_derivative(lam, rs))
        assert np.abs(d - fd).max(initial=0.0) <= 1e-6 / lam


class TestProx:
    def test_indicator_clamps_above(self):
        assert indicator(-1, 1).prox(0.5, 2.0) == 1.0

    def test_indicator_fixes_interior(self):
        assert indicator(-1, 1).prox(0.25, 0.3) == 0.3

    def test_quadratic_against_grid_oracle(self):
        pot = quadratic(1.0)
        expected = grid_prox_oracle(pot, 1.0, 2.0)
        assert expected == pytest.approx(1.0, abs=2e-6)
        assert pot.prox(1.0, 2.0) == pytest.approx(expected, abs=2e-6)

    def test_tabulated_against_grid_oracle(self):
        # |t| well on [-2, 2]
        pot = tabulated([[-2.0, 2.0], [0.0, 0.0], [2.0, 2.0]])
        for lam, r in [(0.5, 1.7), (0.25, -0.1), (1.0, 3.5), (0.8, 0.3)]:
            expected = grid_prox_oracle(pot, lam, r, lo=-2.0, hi=2.0)
            assert pot.prox(lam, r) == pytest.approx(expected, abs=2e-6)

    def test_tabulated_optimality_residual(self):
        pot = tabulated([[-1.0, 0.5], [0.0, 0.0], [0.5, 0.25], [1.0, 1.0]])
        rs = np.linspace(-4, 4, 41)
        p = pot.prox(0.3, rs)
        assert np.max(optimality_residual(pot, 0.3, rs, p)) <= 1e-12

    def test_rejects_nonfinite_input(self):
        with pytest.raises(ConfigError):
            indicator(-1, 1).prox(0.5, np.nan)
        with pytest.raises(ConfigError):
            quadratic(1.0).prox(0.5, np.inf)


class TestEnvelope:
    def test_zero_at_zero(self):
        assert indicator(-1, 1).envelope(0.5, 0.0) == 0.0

    def test_distance_formula(self):
        # grid oracle agrees with dist(r, [-1,1])^2 / (2 lam); the oracle
        # value carries the 1e-6 grid resolution times the local slope
        pot = indicator(-1, 1)
        for lam, r, expected in [(0.5, 2.0, 1.0), (0.25, -1.5, 0.5)]:
            p = grid_prox_oracle(pot, lam, r)
            oracle = (p - r) ** 2 / (2 * lam)
            assert oracle == pytest.approx(expected, abs=1e-5)
            assert pot.envelope(lam, r) == pytest.approx(expected, abs=1e-12)

    def test_sandwiched_by_exact(self):
        rng = np.random.default_rng(0)
        for pot in (indicator(-1, 1), quadratic(2.0),
                    tabulated([[-1.5, 1.5], [0.0, 0.0], [1.5, 3.0]])):
            rs = rng.uniform(pot.lo if np.isfinite(pot.lo) else -3,
                             pot.hi if np.isfinite(pot.hi) else 3, 64)
            env = np.asarray(pot.envelope(0.3, rs))
            assert np.all(env >= -1e-15)
            assert np.all(env <= np.asarray(pot.value(rs)) + 1e-12)

    def test_monotone_in_lam(self):
        # lam >= lam' implies env_lam <= env_lam' <= B, at sampled points
        pot = quadratic(1.5)
        rs = np.linspace(-3, 3, 25)
        lams = [2.0 ** (-k) for k in range(1, 11)]
        prev = np.zeros_like(rs)
        for lam in lams:
            cur = np.asarray(pot.envelope(lam, rs))
            assert np.all(cur >= prev - 1e-14)
            prev = cur
        assert np.all(prev <= np.asarray(pot.value(rs)) + 1e-14)

    def test_converges_on_interior(self):
        pot = tabulated([[-2.0, 1.0], [0.0, 0.0], [2.0, 4.0]])
        for r in [-1.5, -0.3, 0.9, 1.9]:
            gaps = [float(pot.value(r)) - pot.envelope(2.0 ** (-k), r)
                    for k in range(1, 11)]
            assert all(b <= a + 1e-13 for a, b in zip(gaps, gaps[1:]))
            assert gaps[-1] <= 1e-2 * (1 + abs(float(pot.value(r))))


class TestYosida:
    def test_interior_vanishes(self):
        assert indicator(-1, 1).yosida(0.5, 0.5) == 0.0

    def test_outside_values(self):
        pot = indicator(-1, 1)
        # via the prox oracle: (r - prox) / lam
        for lam, r, expected in [(0.5, 2.0, 2.0), (0.5, -3.0, -4.0)]:
            p = grid_prox_oracle(pot, lam, r)
            assert (r - p) / lam == pytest.approx(expected, abs=1e-5)
            assert pot.yosida(lam, r) == pytest.approx(expected, abs=1e-12)

    def test_matches_envelope_derivative(self):
        h = 1e-5
        for pot in (indicator(-1, 1), quadratic(0.7),
                    tabulated([[-2.0, 0.8], [0.0, 0.0], [2.0, 2.4]])):
            for r in [-1.6, -0.4, 0.2, 0.9, 1.7]:
                fd = (pot.envelope(0.5, r + h) - pot.envelope(0.5, r - h)) / (2 * h)
                ys = pot.yosida(0.5, r)
                assert abs(fd - ys) <= 1e-6 * max(1.0, abs(ys))

    def test_zero_at_zero(self):
        for pot in (indicator(-1, 1), quadratic(3.0)):
            assert pot.yosida(0.25, 0.0) == 0.0

    def test_bounded_by_minimal_section_interior(self):
        pot = quadratic(2.0)
        rs = np.linspace(-5, 5, 21)
        ys = np.abs(np.asarray(pot.yosida(0.1, rs)))
        ms = np.abs(least_norm_subgradient(pot, rs))
        assert np.all(ys <= ms + 1e-14)


WELLS = {
    "indicator": indicator(-1, 1),
    "quadratic": quadratic(1.5),
    "tabulated": tabulated([[-1.0, 0.6], [-0.5, 0.1], [0.0, 0.0], [0.5, 0.1], [1.0, 0.6]]),
}


def slope_kinks(pot, lam):
    """The r where the Yosida slope bends: the prox enters or leaves a segment or the domain."""
    if pot.kind == "tabulated":
        return prox_knots(pot, lam)
    return np.array([pot.lo, pot.hi])[np.isfinite([pot.lo, pot.hi])]


@pytest.mark.parametrize("kind", WELLS)
@pytest.mark.parametrize("lam", [0.3, 1.0])
class TestMoreau:
    """moreau's three parts against oracles that do not use the prox."""

    def points(self, pot, lam):
        # inside and outside a bounded domain, at least 0.02 away from every kink
        rs = np.linspace(-3.0, 3.0, 61) + 0.013
        return rs[np.abs(rs[:, None] - slope_kinks(pot, lam)).min(axis=1, initial=1.0) >= 0.02]

    def test_envelope_is_the_dense_grid_minimum(self, kind, lam):
        pot = WELLS[kind]
        rs = self.points(pot, lam)
        env = pot.moreau(lam, rs)[0]
        lo, hi = max(pot.lo, -10.0), min(pot.hi, 10.0)
        for r, e in zip(rs, env):
            t = grid_prox_oracle(pot, lam, r, lo=lo, hi=hi)
            assert e == pytest.approx((t - r) ** 2 / (2 * lam) + pot.value(t), abs=1e-5)

    def test_slope_is_the_envelope_derivative(self, kind, lam):
        pot = WELLS[kind]
        rs, h = self.points(pot, lam), 1e-5
        slope = pot.moreau(lam, rs)[1]
        fd = (pot.moreau(lam, rs + h)[0] - pot.moreau(lam, rs - h)[0]) / (2 * h)
        assert np.abs(fd - slope).max() <= 1e-6 * max(1.0, np.abs(slope).max())

    def test_slope_derivative_is_the_slope_difference(self, kind, lam):
        pot = WELLS[kind]
        rs, h = self.points(pot, lam), 1e-4
        dslope = pot.moreau(lam, rs)[2]
        fd = (pot.moreau(lam, rs + h)[1] - pot.moreau(lam, rs - h)[1]) / (2 * h)
        assert np.abs(fd - dslope).max() <= 1e-6 / lam

    def test_scalars_and_the_three_readers_give_the_same_numbers(self, kind, lam):
        pot = WELLS[kind]
        rs = self.points(pot, lam)
        parts = pot.moreau(lam, rs)
        for i in range(0, len(rs), 5):
            r = float(rs[i])
            got = pot.moreau(lam, r)
            assert all(type(x) is float for x in got)
            assert got == tuple(float(x[i]) for x in parts)
            assert (pot.envelope(lam, r), pot.yosida(lam, r), pot.yosida_derivative(lam, r)) == got


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(sorted(WELLS)),
       st.sampled_from([-0.5, 0.0, 0.5]) | st.floats(-1.0, 1.0, exclude_min=True,
                                                      exclude_max=True))
def test_envelope_gap_bounded_by_the_least_norm_subgradient(kind, r):
    # For convex B and any g in its subdifferential at r, B(t) >= B(r) + g (t - r),
    # so B^lam(r) >= B(r) - (lam/2) g^2: the gap is at most (lam/2) |least-norm g|^2.
    # Below, the slack is rounding: np.interp gives the tabulated B(-6.7e-65) as 0.
    pot = WELLS[kind]
    lams = 2.0 ** -np.arange(1, 13)
    gap = pot.value(r) - np.array([pot.envelope(lam, r) for lam in lams])
    assert np.all(gap >= -1e-15)
    assert np.all(gap <= 0.5 * lams * least_norm_subgradient(pot, r) ** 2 + 1e-12)


@pytest.mark.parametrize("kind", WELLS)
def test_non_finite_input_gives_a_non_finite_envelope_and_prox_still_refuses_it(kind):
    pot = WELLS[kind]
    with np.errstate(invalid="ignore"):
        env = pot.moreau(0.5, np.array([np.nan, np.inf, -np.inf, 0.2]))[0]
        assert not np.isfinite(pot.envelope(0.5, np.nan))
    assert not np.isfinite(env[:3]).any() and np.isfinite(env[3])
    with pytest.raises(ConfigError, match="prox requires finite input"):
        pot.prox(0.5, np.array([0.2, np.inf]))


@pytest.mark.parametrize("kind", WELLS)
@pytest.mark.parametrize("big", [1e300, sys.float_info.max])
def test_prox_near_the_double_range_is_exact_and_silent(kind, big):
    # the envelope and slope of such r overflow inside _moreau; prox reads neither
    r = np.array([big, -big])
    lam = 0.1
    pot = quadratic(2.0) if kind == "quadratic" else WELLS[kind]
    expected = r / 1.2 if kind == "quadratic" else np.array([1.0, -1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.array_equal(pot.prox(lam, r), expected)
        assert [pot.prox(lam, x) for x in r] == list(expected)


@pytest.mark.parametrize("make,what", [(tabulated, "tabulated potential"),
                                       (TabulatedPart, "tabulated perturbation")])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("at", [(0, 0), (0, 1), (2, 1)])
def test_tables_refuse_non_finite_points(make, what, bad, at):
    points = [[-1.0, 0.5], [0.0, 0.0], [1.0, 0.5]]
    points[at[0]][at[1]] = bad
    with pytest.raises(ConfigError, match=f"^{what} needs >= 2 finite"):
        make(points)


@pytest.mark.parametrize("make,what", [(tabulated, "tabulated potential"),
                                       (TabulatedPart, "tabulated perturbation")])
@pytest.mark.parametrize("points,message", [
    ([[0.0, 0.0]], "needs >= 2 finite"),
    ([[0.0, 0.0, 1.0], [1.0, 1.0, 1.0]], "needs >= 2 finite"),
    ([[0.0, 0.0], [1.0]], "needs >= 2 finite"),
    ([["a", 0.0], [1.0, 1.0]], "needs >= 2 finite"),
    ([[0.0, 0.0], [1.0, 1.0], [0.0, 0.0]], "breakpoints must be strictly increasing"),
])
def test_malformed_tables_are_named(make, what, points, message):
    with pytest.raises(ConfigError, match=f"^{what} {message}"):
        make(points)


def test_tables_are_read_sorted_by_t():
    points = [[1.0, 0.6], [-1.0, 0.6], [0.0, 0.0]]
    well, part = tabulated(points), TabulatedPart(points)
    assert well.ts.tolist() == part.ts.tolist() == [-1.0, 0.0, 1.0]
    assert well.bs.tolist() == part.gs.tolist() == [0.6, 0.0, 0.6]
    assert part.lipschitz == pytest.approx(0.6)


class TestProjection:
    def test_clamp_above(self):
        assert indicator(-1, 1).project(2.0) == 1.0

    def test_identity_inside(self):
        assert indicator(-1, 1).project(0.3) == 0.3

    def test_clamp_below(self):
        assert indicator(-1, 1).project(-5.0) == -1.0

    def test_unbounded_is_identity(self):
        assert quadratic(1.0).project(123.4) == 123.4


def test_prox_is_nonexpansive():
    rng = np.random.default_rng(42)
    pots = [indicator(-1, 1), quadratic(1.3),
            tabulated([[-2.0, 1.0], [-0.5, 0.1], [0.0, 0.0], [2.0, 3.0]])]
    for pot in pots:
        r1 = rng.uniform(-6, 6, 400)
        r2 = rng.uniform(-6, 6, 400)
        p1 = np.asarray(pot.prox(0.37, r1))
        p2 = np.asarray(pot.prox(0.37, r2))
        assert np.all(np.abs(p1 - p2) <= np.abs(r1 - r2) + 1e-9)


class TestValidation:
    def test_indicator_needs_zero_inside(self):
        with pytest.raises(ConfigError):
            indicator(0.5, 1.0)

    def test_indicator_needs_finite_interval(self):
        with pytest.raises(ConfigError):
            indicator(-np.inf, 1.0)

    def test_tabulated_rejects_concave(self):
        with pytest.raises(ConfigError):
            tabulated([[-1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])

    def test_tabulated_needs_zero_at_zero(self):
        with pytest.raises(ConfigError):
            tabulated([[-1.0, 1.0], [1.0, 1.0]])

    def test_spec_factory(self):
        def well(spec):
            raw = {"energy": {"bulk_potential": spec, "bdry_potential": spec}}
            return config_from_dict(raw).build_all()[1].bulk_potential

        p = well({"kind": "indicator", "lo": -1.0, "hi": 1.0})
        assert p.kind == "indicator" and p.lo == -1.0
        q = well({"kind": "quadratic", "c": 2.0})
        assert q.kind == "quadratic" and q.c == 2.0
        with pytest.raises(ConfigError, match="energy.bulk_potential.kind: unknown kind 'mystery'"):
            well({"kind": "mystery"})


def test_minimal_section_conventions():
    pot = indicator(-1, 1)
    assert least_norm_subgradient(pot, 0.0) == 0.0
    assert least_norm_subgradient(pot, 1.0) == np.inf
    assert least_norm_subgradient(pot, -1.0) == -np.inf
    assert np.isnan(least_norm_subgradient(pot, 2.0))
    tab = tabulated([[-1.0, 0.5], [0.0, 0.0], [1.0, 2.0]])
    assert least_norm_subgradient(tab, 0.5) == 2.0
    assert least_norm_subgradient(tab, 0.0) == 0.0  # kink straddling zero slope
