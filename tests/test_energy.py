"""Energy assembly, gradients, perturbations, and forcing."""

import numpy as np
import pytest
from scipy.linalg import cholesky_banded

from acgf.config import config_from_dict
from acgf.energy import (
    EnergyParams,
    Evaluation,
    ForcingField,
    NonePart,
    SmoothPerturbation,
    energy_terms,
    free_energy,
    _grad_partial,
    gcal,
    hess_phi_vec,
    hessian,
    is_feasible,
    perturbation_energy,
    phi_exact,
    phi_regularized,
)
from acgf.errors import ConfigError
from acgf.meshes import DiscMesh, IntervalMesh, bulk_gradient, h_inner, h_norm
from acgf.potentials import indicator, quadratic, tabulated
from conftest import grad_phi_regularized, smoothed_norm_hess

IND = indicator(-1.0, 1.0)
TAB = tabulated([[-1.0, 0.6], [-0.5, 0.1], [0.0, 0.0], [0.5, 0.1], [1.0, 0.6]])


def dense_from_band(mesh, band):
    """The symmetric matrix, in node order, whose lower band in ``mesh.band_order`` is band."""
    n = mesh.num_nodes
    Hb = np.zeros((n, n))
    for off in range(mesh.bandwidth + 1):  # band row off holds subdiagonal off
        Hb[np.arange(off, n), np.arange(n - off)] = band[off, :n - off]
    H = np.empty((n, n))
    H[np.ix_(mesh.band_order, mesh.band_order)] = Hb + np.tril(Hb, -1).T
    return H


def make_params(**kw):
    base = dict(kappa=1.0, eps=0.0, delta=1.0, lam=1.0,
                bulk_potential=IND, bdry_potential=IND,
                perturbation=SmoothPerturbation(NonePart()))
    base.update(kw)
    return EnergyParams(**base)


class TestPhiRegularized:
    def test_zero_field_gives_zero(self):
        m = IntervalMesh(1.0, 4)
        assert phi_regularized(m, make_params(), np.zeros(m.num_nodes)) == 0.0
        d = DiscMesh(1.0, 4, 8)
        assert phi_regularized(d, make_params(eps=0.7), np.zeros(d.num_nodes)) == 0.0

    def test_hand_assembled_value(self):
        # u = x on [0,1] with 2 cells: slope 1 per cell, smoothing value
        # sqrt(2)-1 per unit length, quadratic part 1/2, no well cost
        m = IntervalMesh(1.0, 2)
        u = m.coords[:, 0].copy()
        assert u.tolist() == [0.0, 0.5, 1.0]
        val = phi_regularized(m, make_params(), u)
        assert val == pytest.approx(np.sqrt(2.0) - 1.0 + 0.5, abs=1e-14)

    def test_kappa_scales_only_quadratic_part(self):
        m = IntervalMesh(1.0, 2)
        u = m.coords[:, 0].copy()
        val = phi_regularized(m, make_params(kappa=2.0), u)
        assert val == pytest.approx(np.sqrt(2.0) - 1.0 + 2.0, abs=1e-14)

    def test_size_mismatch(self):
        m = IntervalMesh(1.0, 4)
        with pytest.raises(ValueError):
            phi_regularized(m, make_params(), np.zeros(3))

    def test_eps_monotone_on_disc(self):
        d = DiscMesh(1.0, 4, 8)
        rng = np.random.default_rng(2)
        u = rng.uniform(-0.9, 0.9, d.num_nodes)
        vals = [phi_regularized(d, make_params(eps=e), u) for e in (0.0, 0.3, 0.6, 1.2)]
        assert all(b >= a - 1e-14 for a, b in zip(vals, vals[1:]))


class TestPhiExact:
    def test_zero_field(self):
        m = IntervalMesh(1.0, 4)
        assert phi_exact(m, make_params(), np.zeros(m.num_nodes)) == 0.0

    def test_infeasible_node_gives_infinity(self):
        m = IntervalMesh(1.0, 4)
        u = np.zeros(m.num_nodes)
        u[2] = 1.5
        assert phi_exact(m, make_params(), u) == np.inf

    def test_total_variation_plus_quadratic(self):
        m = IntervalMesh(1.0, 2)
        u = m.coords[:, 0].copy()
        assert phi_exact(m, make_params(), u) == pytest.approx(1.5, abs=1e-14)

    def test_dominates_regularized_on_feasible_states(self):
        rng = np.random.default_rng(4)
        for mesh in (IntervalMesh(1.0, 12), DiscMesh(1.0, 4, 8)):
            p = make_params(delta=0.3, lam=0.2, eps=0.5)
            for _ in range(10):
                u = rng.uniform(-1.0, 1.0, mesh.num_nodes)
                assert phi_regularized(mesh, p, u) <= phi_exact(mesh, p, u) + 1e-12

    def test_monotone_recovery_as_smoothing_vanishes(self):
        m = IntervalMesh(1.0, 16)
        rng = np.random.default_rng(8)
        u = rng.uniform(-0.95, 0.95, m.num_nodes)
        exact = phi_exact(m, make_params(), u)
        vals = [phi_regularized(m, make_params(delta=2.0 ** -k, lam=2.0 ** -k), u)
                for k in range(1, 9)]
        assert all(b >= a - 1e-13 for a, b in zip(vals, vals[1:]))
        assert vals[-1] <= exact + 1e-12
        assert exact - vals[-1] <= 0.05 * (1.0 + abs(exact))


class TestFreeEnergy:
    def test_zero_field(self):
        m = IntervalMesh(1.0, 4)
        p = make_params(perturbation=SmoothPerturbation.neg_quadratic(-1, 1))
        assert free_energy(m, p, np.zeros(m.num_nodes)) == 0.0

    def test_constant_one_measures_the_sets(self):
        # G = -s^2/2 on |Omega| = 1 plus |Gamma| = 2
        m = IntervalMesh(1.0, 4)
        p = make_params(perturbation=SmoothPerturbation.neg_quadratic(-1, 1))
        u = np.ones(m.num_nodes)
        assert free_energy(m, p, u) == pytest.approx(-1.5, abs=1e-14)

    def test_infeasible_dominates(self):
        m = IntervalMesh(1.0, 4)
        p = make_params(perturbation=SmoothPerturbation.neg_quadratic(-1, 1))
        assert free_energy(m, p, np.full(m.num_nodes, 1.5)) == np.inf


class TestGradient:
    def test_interior_constant_is_stationary(self):
        for mesh in (IntervalMesh(1.0, 6), DiscMesh(1.0, 4, 8)):
            p = make_params(delta=0.4, lam=0.3, eps=0.5)
            g = grad_phi_regularized(mesh, p, np.full(mesh.num_nodes, 0.4))
            assert np.abs(g).max() <= 1e-13

    @pytest.mark.parametrize("mesh,eps", [
        (IntervalMesh(1.0, 8), 0.0),
        (DiscMesh(1.0, 4, 8), 0.7),
    ])
    def test_matches_finite_differences(self, mesh, eps):
        p = make_params(delta=0.3, lam=0.25, eps=eps, kappa=0.8)
        rng = np.random.default_rng(17)
        u = rng.uniform(-0.9, 0.9, mesh.num_nodes)
        g = grad_phi_regularized(mesh, p, u)
        h = 1e-6
        for _ in range(10):
            v = rng.standard_normal(mesh.num_nodes)
            fd = (phi_regularized(mesh, p, u + h * v)
                  - phi_regularized(mesh, p, u - h * v)) / (2 * h)
            ip = h_inner(mesh, g, v)
            assert abs(ip - fd) <= 1e-6 * max(1.0, abs(fd))

    def test_hessian_matches_gradient_differences(self):
        mesh = DiscMesh(1.0, 4, 8)
        p = make_params(delta=0.3, lam=0.25, eps=0.7, kappa=0.8,
                        bulk_potential=quadratic(1.2), bdry_potential=quadratic(0.5))
        rng = np.random.default_rng(23)
        u = rng.uniform(-0.9, 0.9, mesh.num_nodes)
        v = rng.standard_normal(mesh.num_nodes)
        h = 1e-6
        from acgf.energy import _grad_partial
        fd = (_grad_partial(mesh, p, u + h * v) - _grad_partial(mesh, p, u - h * v)) / (2 * h)
        hv = hess_phi_vec(mesh, p, u, v)
        assert np.abs(hv - fd).max() <= 1e-5 * (1.0 + np.abs(fd).max())

    @pytest.mark.parametrize("mesh", [IntervalMesh(1.0, 8), DiscMesh(1.0, 4, 8)],
                             ids=["interval", "disc"])
    @pytest.mark.parametrize("eps", [0.0, 0.7])
    @pytest.mark.parametrize("well", ["indicator", "quadratic", "tabulated"])
    def test_assembled_hessian(self, mesh, eps, well):
        lam = 0.25
        pot, kinks = {
            "indicator": (IND, [-1.0, 1.0]),
            "quadratic": (quadratic(1.2), []),
            # the Yosida slope of a piecewise-linear well bends where the
            # prox enters or leaves a segment: r = t_i + lam * s_i, t_{i+1} + lam * s_i
            "tabulated": (TAB, np.concatenate([TAB.ts[:-1] + lam * TAB.slopes,
                                               TAB.ts[1:] + lam * TAB.slopes])),
        }[well]
        p = make_params(delta=0.3, lam=lam, eps=eps, kappa=0.8,
                        bulk_potential=pot, bdry_potential=pot)
        rng = np.random.default_rng(41)
        u = rng.uniform(-1.2, 1.2, mesh.num_nodes)
        while True:
            near = np.abs(u[:, None] - np.asarray(kinks)).min(axis=1, initial=1.0) < 0.02
            if not near.any():
                break
            u[near] = rng.uniform(-1.2, 1.2, near.sum())
        tau = 1.0 / 128.0
        H = dense_from_band(mesh, hessian(mesh, p, u, 0.0))
        h = 1e-6
        for _ in range(3):
            v = rng.standard_normal(mesh.num_nodes)
            fd = (_grad_partial(mesh, p, u + h * v) - _grad_partial(mesh, p, u - h * v)) / (2 * h)
            assert np.abs(H @ v - fd).max() <= 1e-5 * (1.0 + np.abs(fd).max())
        np.linalg.cholesky(dense_from_band(mesh, hessian(mesh, p, u, mesh.mass / tau)))

    @pytest.mark.parametrize("mesh", [IntervalMesh(1.0, 8), DiscMesh(1.0, 4, 8)],
                             ids=["interval", "disc"])
    @pytest.mark.parametrize("eps", [0.0, 0.5])
    @pytest.mark.parametrize("dual", [False, True], ids=["exact", "dual"])
    def test_band_matches_the_cellwise_dense_oracle(self, mesh, eps, dual):
        # sum over cells of ops^T (smoothed_norm_hess + kappa^2 I) ops * weight,
        # plus the diagonal and the surface segments, assembled densely in node order
        p = make_params(delta=0.3, lam=0.25, eps=eps, kappa=0.8,
                        bulk_potential=TAB, bdry_potential=TAB)
        rng = np.random.default_rng(43)
        u = rng.uniform(-0.9, 0.9, mesh.num_nodes)
        shift = rng.uniform(1.0, 2.0, mesh.num_nodes)
        w = None
        if dual:
            w = rng.standard_normal((mesh.cell_nodes.shape[0], mesh.dim))
            w *= rng.uniform(0.0, 0.999, (len(w), 1)) / np.linalg.norm(w, axis=1, keepdims=True)
        a = smoothed_norm_hess(p.delta, bulk_gradient(mesh, u), w) + p.kappa**2 * np.eye(mesh.dim)
        H = np.diag(shift + p.bulk_potential.yosida_derivative(p.lam, u) * mesh.w_bulk)
        bn = mesh.boundary_nodes
        H[bn, bn] += p.bdry_potential.yosida_derivative(p.lam, u[bn]) * mesh.w_bdry
        for nodes, ops, a_c, wt in zip(mesh.cell_nodes, mesh.cell_ops, a, mesh.cell_weights):
            H[np.ix_(nodes, nodes)] += ops.T @ a_c @ ops * wt
        if eps > 0.0:
            for nodes, wt in zip(mesh.seg_nodes, mesh.seg_weights):
                H[np.ix_(nodes, nodes)] += eps**2 * wt / mesh.seg_len**2 * np.array([[1, -1], [-1, 1]])
        band = hessian(mesh, p, u, shift, w)
        assert band.shape == (mesh.bandwidth + 1, mesh.num_nodes)
        assert np.abs(dense_from_band(mesh, band) - H).max() <= 1e-13 * np.abs(H).max()

    def test_band_is_column_major_and_factored_in_place(self):
        mesh = DiscMesh(1.0, 4, 8)
        p = make_params(delta=0.3, lam=0.25, eps=0.5, kappa=0.8)
        u = np.random.default_rng(47).uniform(-0.9, 0.9, mesh.num_nodes)
        band = hessian(mesh, p, u, mesh.mass * 128.0)
        assert band.flags.f_contiguous
        factor = cholesky_banded(band, overwrite_ab=True, lower=True, check_finite=False)
        assert np.shares_memory(factor, band)

    def test_midpoint_convexity_along_segments(self):
        mesh = IntervalMesh(1.0, 16)
        p = make_params(delta=0.2, lam=0.2)
        rng = np.random.default_rng(31)
        for _ in range(20):
            a = rng.uniform(-2, 2, mesh.num_nodes)
            b = rng.uniform(-2, 2, mesh.num_nodes)
            mid = phi_regularized(mesh, p, 0.5 * (a + b))
            assert mid <= 0.5 * phi_regularized(mesh, p, a) \
                + 0.5 * phi_regularized(mesh, p, b) + 1e-12

    def test_strong_convexity_in_bulk_seminorm(self):
        # second difference along v bounds kappa^2 * |grad v|^2 from below
        from acgf.meshes import bulk_gradient
        mesh = IntervalMesh(1.0, 12)
        p = make_params(delta=0.3, lam=0.3, kappa=0.9)
        rng = np.random.default_rng(37)
        for _ in range(10):
            u = rng.uniform(-0.8, 0.8, mesh.num_nodes)
            v = rng.standard_normal(mesh.num_nodes)
            h = 1e-3
            second = (phi_regularized(mesh, p, u + h * v) - 2 * phi_regularized(mesh, p, u)
                      + phi_regularized(mesh, p, u - h * v)) / h**2
            gv = bulk_gradient(mesh, v)
            semi = float(np.dot(np.einsum("nd,nd->n", gv, gv), mesh.cell_weights))
            assert second >= p.kappa**2 * semi - 1e-6 * (1 + abs(second))


class TestEvaluation:
    @pytest.mark.parametrize("mesh", [IntervalMesh(1.0, 8), DiscMesh(1.0, 4, 8)],
                             ids=["interval", "disc"])
    @pytest.mark.parametrize("eps", [0.0, 0.5])
    def test_one_evaluation_gives_the_array_results_bit_for_bit(self, mesh, eps):
        # read in the solver's order, twice: no reader may change what the next one reads
        p = make_params(delta=0.3, lam=0.25, eps=eps, kappa=0.8,
                        bulk_potential=TAB, bdry_potential=IND)
        rng = np.random.default_rng(53)
        u = rng.uniform(-1.2, 1.2, mesh.num_nodes)
        shift = rng.uniform(1.0, 2.0, mesh.num_nodes)
        w = rng.uniform(-0.5, 0.5, (mesh.cell_nodes.shape[0], mesh.dim))
        at = Evaluation(mesh, p, u)
        for _ in range(2):
            assert phi_regularized(mesh, p, at) == phi_regularized(mesh, p, u)
            assert np.array_equal(_grad_partial(mesh, p, at), _grad_partial(mesh, p, u))
            for dual in (w, None):
                assert np.array_equal(hessian(mesh, p, at, shift, dual),
                                      hessian(mesh, p, u, shift, dual))
            assert energy_terms(mesh, p, at) == energy_terms(mesh, p, u)

    @pytest.mark.parametrize("well", [IND, quadratic(1.2), TAB],
                             ids=["indicator", "quadratic", "tabulated"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_field_gives_a_non_finite_value(self, well, bad):
        mesh = DiscMesh(1.0, 4, 8)
        p = make_params(delta=0.3, lam=0.25, eps=0.5, bulk_potential=well, bdry_potential=well)
        u = np.random.default_rng(59).uniform(-0.9, 0.9, mesh.num_nodes)
        node = mesh.boundary_nodes[2]
        u[node] = bad
        with np.errstate(invalid="ignore", over="ignore"):
            at = Evaluation(mesh, p, u)
            assert not np.isfinite(at.bulk[0][node]) and not np.isfinite(at.bdry[0][2])
            assert not np.isfinite(phi_regularized(mesh, p, at))


class TestPerturbation:
    def test_neg_quadratic_values_and_clamping(self):
        pert = SmoothPerturbation.neg_quadratic(-1.0, 1.0)
        assert pert.bulk.G(0.5) == pytest.approx(-0.125)
        assert pert.bulk.g(0.5) == -0.5
        # outside the well domain the slope freezes (Lipschitz extension)
        assert pert.bulk.g(3.0) == -1.0
        assert pert.bulk.G(2.0) == pytest.approx(-0.5 - 1.0)
        assert pert.lipschitz == 1.0

    @staticmethod
    def from_config(spec):
        return config_from_dict({"energy": {"perturbation": spec}}).build_all()[1].perturbation

    def test_tabulated_part_derivative_consistency(self):
        pert = self.from_config(
            {"kind": "tabulated", "points": [[-1.0, 1.0], [0.0, 0.0], [1.0, -2.0]]})
        part = pert.bulk
        assert part.G(0.0) == 0.0
        h = 1e-6
        for r in [-0.7, -0.2, 0.4, 0.9, 1.5, -1.5]:
            fd = (part.G(r + h) - part.G(r - h)) / (2 * h)
            assert abs(fd - part.g(r)) <= 1e-6 * (1 + abs(part.g(r)))
        assert part.lipschitz == pytest.approx(2.0)

    def test_split_bulk_boundary_spec(self):
        pert = self.from_config({"bulk": {"kind": "neg_quadratic"}, "boundary": {"kind": "none"}})
        assert pert.bulk.g(0.5) == -0.5
        assert pert.bdry.g(0.5) == 0.0
        assert self.from_config({"boundary": {"kind": "neg_quadratic"}}).bulk.g(0.5) == 0.0

    def test_gcal_riesz_representative(self):
        mesh = IntervalMesh(1.0, 6)
        p = make_params(perturbation=SmoothPerturbation.neg_quadratic(-1, 1))
        rng = np.random.default_rng(47)
        u = rng.uniform(-0.9, 0.9, mesh.num_nodes)
        gc = gcal(mesh, p, u)
        # equal bulk and boundary derivatives collapse to the pointwise value
        assert np.allclose(gc, -u, atol=1e-14)
        # and the pairing reproduces the perturbation's directional derivative
        v = rng.standard_normal(mesh.num_nodes)
        h = 1e-7
        fd = (perturbation_energy(mesh, p, u + h * v)
              - perturbation_energy(mesh, p, u - h * v)) / (2 * h)
        assert h_inner(mesh, gc, v) == pytest.approx(fd, rel=1e-6)


class TestForcing:
    def test_zero_forcing(self):
        mesh = IntervalMesh(1.0, 4)
        f = ForcingField.zero(mesh)
        assert f.fields.dtype == np.float64 and f.fields.shape == (1, mesh.num_nodes)
        assert np.array_equal(f.at_time(0.0), np.zeros(mesh.num_nodes))
        assert not np.signbit(f.fields).any()  # +0.0, and x - 0.0 is x for every double

    def test_constant_pair_layout(self):
        # a boundary node holds the pair's Riesz form: -1 + 3 w_bulk / mass = -1 + 3 (1/8) / (9/8)
        mesh = IntervalMesh(1.0, 4)
        f = ForcingField.constant(mesh, 2.0, -1.0)
        field = f.at_time(0.3)
        assert field[0] == pytest.approx(-2.0 / 3.0, abs=1e-15) and field[-1] == field[0]
        assert field[2] == 2.0

    @pytest.mark.parametrize("mesh", [IntervalMesh(1.0, 4), DiscMesh(1.0, 4, 8)],
                             ids=["interval", "disc"])
    def test_equal_parts_give_the_bulk_value_bit_for_bit(self, mesh):
        f = ForcingField.tabulated(mesh, [0.0, 0.5], [0.3, -1.7], [0.3, -1.7])
        assert np.array_equal(f.fields, np.repeat([[0.3], [-1.7]], mesh.num_nodes, axis=1))

    def test_tabulated_switches_on_the_step_grid(self):
        mesh = IntervalMesh(1.0, 4)
        f = ForcingField.tabulated(mesh, [0.0, 0.5], [1.0, 3.0], [1.0, 3.0])
        assert f.at_time(0.49)[2] == 1.0
        assert f.at_time(0.5)[2] == 3.0
        assert f.at_time(0.51)[2] == 3.0

    def test_offset_applies_everywhere(self):
        mesh = IntervalMesh(1.0, 4)
        off = np.arange(mesh.num_nodes, dtype=float)
        f = ForcingField.zero(mesh).with_offset(off)
        assert np.array_equal(f.at_time(0.2), off)
        g = ForcingField.constant(mesh, 1.0, 1.0).with_offset(off)
        assert np.array_equal(g.at_time(0.2), 1.0 + off)

    @pytest.mark.parametrize("times,fields", [([0.0, np.nan], np.zeros((2, 3))),
                                              ([0.0, np.inf], np.zeros((2, 3))),
                                              ([0.0, 1.0], [[0.0] * 3, [0.0, np.nan, 0.0]]),
                                              ([0.0], [np.array([0.0, -np.inf])])])
    def test_non_finite_forcing_is_refused(self, times, fields):
        with pytest.raises(ConfigError, match="forcing times and field values must be finite"):
            ForcingField(times, fields)

    @pytest.mark.parametrize("fields", [[[0.0, 0.0], [0.0]], [0.0, 0.0], np.zeros((2, 2, 1)),
                                        [[0.0, "a"], [0.0, 0.0]], np.zeros((3, 2))],
                             ids=["ragged", "one-field", "3-d", "not-a-number", "three-rows"])
    def test_fields_not_one_row_per_time_are_refused(self, fields):
        with pytest.raises(ConfigError, match="^forcing needs nonempty times and one row of node "
                                              "values per time$"):
            ForcingField([0.0, 1.0], fields)

    def test_fields_are_the_forcings_own_copy(self):
        rows = np.zeros((2, 3))
        f = ForcingField([0.0, 1.0], rows)
        rows[1, 2] = np.nan
        assert np.array_equal(f.fields, np.zeros((2, 3)))

    def test_validation(self):
        mesh = IntervalMesh(1.0, 4)
        with pytest.raises(ConfigError):
            ForcingField.tabulated(mesh, [0.5, 1.0], [1.0, 2.0], [1.0, 2.0])
        with pytest.raises(ConfigError):
            ForcingField.tabulated(mesh, [0.0], [1.0, 2.0], [1.0, 2.0])


def test_params_validation():
    with pytest.raises(ConfigError):
        make_params(kappa=0.0)
    with pytest.raises(ConfigError):
        make_params(delta=0.0)
    with pytest.raises(ConfigError):
        make_params(lam=1.5)
    with pytest.raises(ConfigError):
        make_params(eps=-0.1)
    with pytest.raises(ConfigError):
        make_params(bdry_potential=indicator(-2, 2))


def test_feasibility_predicate():
    mesh = IntervalMesh(1.0, 4)
    p = make_params()
    assert is_feasible(mesh, p, np.zeros(mesh.num_nodes))
    u = np.zeros(mesh.num_nodes)
    u[1] = 1.0001
    assert not is_feasible(mesh, p, u)
