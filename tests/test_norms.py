"""Tests for the smoothed Euclidean norm family."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import smoothed_norm_hess

from acgf.errors import ConfigError
from acgf.norms import SmoothedNorm, smoothed


def test_zero_at_origin():
    assert SmoothedNorm(0.1, 2).eval(np.zeros(2)) == 0.0


def test_eval_examples():
    f = SmoothedNorm(0.1, 2)
    val = f.eval(np.array([3.0, 4.0]))
    assert val == pytest.approx(np.sqrt(25.01) - 0.1, abs=1e-15)
    assert abs(val - 5.0) <= 0.1  # delta band
    f1 = SmoothedNorm(1.0, 2)
    assert f1.eval(np.array([1.0, 0.0])) == pytest.approx(np.sqrt(2.0) - 1.0, abs=1e-15)


def test_grad_examples():
    assert np.all(SmoothedNorm(0.5, 2).grad(np.zeros(2)) == 0.0)
    g = SmoothedNorm(1e-6, 2).grad(np.array([3.0, 4.0]))
    assert np.allclose(g, [0.6, 0.8], atol=1e-4)
    g1 = SmoothedNorm(1.0, 2).grad(np.array([1.0, 0.0]))
    assert np.allclose(g1, [1 / np.sqrt(2), 0.0], atol=1e-12)


def test_grad_matches_finite_differences():
    rng = np.random.default_rng(5)
    for delta in (1.0, 0.1, 0.01):
        f = SmoothedNorm(delta, 2)
        for _ in range(50):
            w = rng.uniform(-5, 5, 2)
            h = 1e-6 * (1.0 + np.linalg.norm(w))
            g = f.grad(w)
            for d in range(2):
                e = np.zeros(2)
                e[d] = h
                fd = (f.eval(w + e) - f.eval(w - e)) / (2 * h)
                assert abs(fd - g[d]) <= 1e-6 * max(1.0, abs(g[d]))


def test_delta_band_and_gradient_bound():
    rng = np.random.default_rng(6)
    for delta in (1.0, 0.1, 0.01):
        f = SmoothedNorm(delta, 2)
        w = rng.uniform(-10, 10, size=(2000, 2))
        vals = f.eval(w)
        norms = np.linalg.norm(w, axis=1)
        assert np.all(np.abs(vals - norms) <= delta + 1e-14)
        gn = np.linalg.norm(f.grad(w), axis=1)
        assert np.all(gn < 1.0)
        assert np.all(gn <= norms + 1.0)  # the family bound with C0 = 1


def test_midpoint_convexity():
    rng = np.random.default_rng(7)
    f = SmoothedNorm(0.3, 2)
    a = rng.uniform(-4, 4, size=(500, 2))
    b = rng.uniform(-4, 4, size=(500, 2))
    lhs = f.eval(0.5 * (a + b))
    rhs = 0.5 * f.eval(a) + 0.5 * f.eval(b)
    assert np.all(lhs <= rhs + 1e-12)


def test_grad_dot_omega_approaches_norm():
    w = np.array([2.0, -1.5])
    prev = -np.inf
    for delta in [1.0, 0.3, 0.1, 0.03, 0.01, 1e-4]:
        f = SmoothedNorm(delta, 2)
        val = float(np.dot(f.grad(w), w))
        assert val >= prev - 1e-14
        prev = val
    assert prev == pytest.approx(np.linalg.norm(w), abs=1e-6)


@st.composite
def omega_and_dual(draw):
    """(delta, omega, dual) with |dual| <= 0.999, in dims 1 and 2."""
    dim = draw(st.sampled_from([1, 2]))
    delta = draw(st.floats(1e-3, 1.0))
    omega = np.array(draw(st.lists(st.floats(-50.0, 50.0), min_size=dim, max_size=dim)))
    direction = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=dim, max_size=dim)))
    n = np.linalg.norm(direction)
    radius = draw(st.floats(0.0, 0.999))
    dual = radius * direction / n if n > 1e-6 else np.zeros(dim)
    return delta, omega, dual


def _closed_form_hess(delta, omega):
    s = np.sqrt(float(omega @ omega) + delta**2)
    return np.eye(len(omega)) / s - np.outer(omega, omega) / s**3, s


class TestPrimalDualHessian:
    @settings(max_examples=300, deadline=None)
    @given(omega_and_dual())
    def test_symmetric_with_eigenvalue_floor(self, case):
        delta, omega, dual = case
        h = smoothed_norm_hess(delta, omega, dual)
        assert np.array_equal(h, h.T)
        _, s = _closed_form_hess(delta, omega)
        floor = (1.0 - np.linalg.norm(dual) * np.linalg.norm(omega) / s) / s
        assert np.linalg.eigvalsh(h)[0] >= floor * (1.0 - 1e-12)

    @settings(max_examples=300, deadline=None)
    @given(omega_and_dual())
    def test_dual_at_omega_over_s_is_the_exact_hessian(self, case):
        delta, omega, _ = case
        exact, s = _closed_form_hess(delta, omega)
        h = smoothed_norm_hess(delta, omega)
        scale = 1.0 / s  # both forms cancel terms of this size along omega
        assert np.abs(h - exact).max() <= 1e-14 * scale
        assert np.abs(smoothed_norm_hess(delta, omega, omega / s) - h).max() <= 1e-14 * scale

    def test_batched_matches_per_row(self):
        rng = np.random.default_rng(8)
        omega = rng.uniform(-3, 3, size=(20, 2))
        dual = rng.uniform(-0.7, 0.7, size=(20, 2))
        h = smoothed_norm_hess(0.05, omega, dual)
        assert h.shape == (20, 2, 2)
        for k in range(20):
            assert np.array_equal(h[k], smoothed_norm_hess(0.05, omega[k], dual[k]))


@pytest.mark.parametrize("dim", [1, 2])
def test_the_class_reads_the_solver_formula_on_any_leading_shape(dim):
    rng = np.random.default_rng(9)
    omega = rng.uniform(-3, 3, size=(3, 5, dim))
    f = SmoothedNorm(0.2, dim)
    _, _, s, flux = smoothed(omega.reshape(-1, dim), 0.2)
    assert f.eval(omega).shape == (3, 5) and np.array_equal(f.eval(omega).ravel(), s - 0.2)
    assert f.grad(omega).shape == omega.shape
    assert np.array_equal(f.grad(omega).reshape(-1, dim), flux)


def test_parameter_validation():
    with pytest.raises(ConfigError):
        SmoothedNorm(0.0, 2)
    with pytest.raises(ConfigError):
        SmoothedNorm(1.5, 2)
    with pytest.raises(ConfigError):
        SmoothedNorm(0.5, 3)
