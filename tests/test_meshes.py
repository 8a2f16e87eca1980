"""Mesh construction, quadrature, and the discrete differential operators."""

import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from acgf.config import build_mesh, config_from_dict
from acgf.errors import ConfigError
from acgf.meshes import (
    MAX_BAND_ENTRIES,
    PACKED,
    _LOWER,
    DiscMesh,
    IntervalMesh,
    bulk_gradient,
    h_inner,
    h_norm,
    rowdot,
    surface_gradient,
)
from conftest import einsum_affine_fit_ops, laplace_beltrami


@pytest.fixture
def disc():
    return DiscMesh(1.0, 8, 16)


@pytest.fixture
def interval():
    return IntervalMesh(1.0, 10)


class TestQuadrature:
    def test_interval_measures(self, interval):
        assert interval.w_bulk.sum() == pytest.approx(1.0, rel=1e-12)
        assert interval.w_bdry.sum() == pytest.approx(2.0, rel=1e-12)

    def test_disc_measures(self, disc):
        assert disc.w_bulk.sum() == pytest.approx(np.pi, rel=1e-12)
        assert disc.w_bdry.sum() == pytest.approx(2 * np.pi, rel=1e-12)

    def test_disc_measures_other_radius(self):
        m = DiscMesh(2.5, 5, 12)
        assert m.w_bulk.sum() == pytest.approx(np.pi * 2.5**2, rel=1e-12)
        assert m.w_bdry.sum() == pytest.approx(2 * np.pi * 2.5, rel=1e-12)

    def test_boundary_nodes_are_bulk_nodes(self, disc):
        assert np.all(disc.boundary_nodes < disc.num_nodes)
        assert np.all(disc.w_bulk[disc.boundary_nodes] > 0)

    def test_disc_boundary_is_even_closed_loop(self, disc):
        pts = disc.coords[disc.boundary_nodes]
        radii = np.linalg.norm(pts, axis=1)
        assert np.allclose(radii, 1.0, atol=1e-14)
        steps = np.diff(np.arctan2(pts[:, 1], pts[:, 0]))
        gaps = np.mod(steps, 2 * np.pi)
        assert np.allclose(gaps, 2 * np.pi / disc.ntheta, atol=1e-12)


class TestBulkGradient:
    def test_constant_field_annihilated(self, interval, disc):
        for m in (interval, disc):
            g = bulk_gradient(m, np.full(m.num_nodes, 3.7))
            assert np.abs(g).max() <= 1e-13

    def test_affine_exact_on_interval(self, interval):
        g = bulk_gradient(interval, interval.coords[:, 0].copy())
        assert np.allclose(g[:, 0], 1.0, atol=1e-12)

    def test_x_coordinate_exact_on_disc(self, disc):
        g = bulk_gradient(disc, disc.coords[:, 0].copy())
        assert np.abs(g - np.array([1.0, 0.0])).max() <= 1e-10

    def test_general_affine_exact_on_disc(self, disc):
        u = 0.3 + 1.7 * disc.coords[:, 0] - 0.9 * disc.coords[:, 1]
        g = bulk_gradient(disc, u)
        assert np.abs(g - np.array([1.7, -0.9])).max() <= 1e-10

    def test_size_mismatch_rejected(self, disc):
        with pytest.raises(ValueError):
            bulk_gradient(disc, np.zeros(disc.num_nodes + 1))

    def test_first_order_on_smooth_field(self):
        errs = []
        for nr, nth in [(8, 16), (16, 32), (32, 64)]:
            m = DiscMesh(1.0, nr, nth)
            x, y = m.coords[:, 0], m.coords[:, 1]
            u = np.sin(x) * np.cos(y)
            g = bulk_gradient(m, u)
            centers = m.coords[m.cell_nodes].mean(axis=1)
            gx = np.cos(centers[:, 0]) * np.cos(centers[:, 1])
            gy = -np.sin(centers[:, 0]) * np.sin(centers[:, 1])
            errs.append(np.abs(g - np.column_stack([gx, gy])).max())
        assert errs[1] <= errs[0] / 1.7 and errs[2] <= errs[1] / 1.7


class TestCellOperators:
    SHAPES = [(32, 64), (16, 32), (8, 16), (3, 7), (2, 3), (64, 3), (3, 400)]

    @pytest.mark.parametrize("nr,ntheta", SHAPES)
    def test_closed_form_equals_the_einsum_form_bit_for_bit(self, nr, ntheta):
        m = DiscMesh(1.0, nr, ntheta)
        ref = einsum_affine_fit_ops(m.coords, m.cell_nodes)
        assert m.cell_ops.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("nr,ntheta", SHAPES)
    def test_each_cell_operator_is_the_pseudo_inverse_of_its_corner_offsets(self, nr, ntheta):
        m = DiscMesh(1.0, nr, ntheta)
        P = m.coords[m.cell_nodes]
        D = P - P.mean(axis=1, keepdims=True)
        pinv = np.linalg.pinv(D)
        rel = np.abs(m.cell_ops - pinv).max(axis=(1, 2)) / np.abs(pinv).max(axis=(1, 2))
        # the normal equations lose accuracy as the square of the offsets' condition number:
        # 3.6e-12 on the thin cells of the 64 x 3 disc, 4e-14 by SVD
        tol = 1e-12 + 2 * np.finfo(float).eps * np.linalg.cond(D) ** 2
        assert np.all(rel <= tol)


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("rows", [7, 1000, 200_000])
def test_rowdot_equals_einsum(dim, rows):
    # rowdot stands for this einsum in the energy and the dual update, so it must give its values
    rng = np.random.default_rng(rows + dim)
    scale = 10.0 ** rng.uniform(-8.0, 8.0, (rows, 1))
    a, b = rng.standard_normal((2, rows, dim)) * scale
    assert np.array_equal(rowdot(a, b), np.einsum("nd,nd->n", a, b))
    assert np.array_equal(rowdot(a, a), np.einsum("nd,nd->n", a, a))


class TestSurfaceGradient:
    def test_interval_is_empty(self, interval):
        assert surface_gradient(interval, np.ones(interval.num_nodes)).size == 0

    def test_constant_loop(self, disc):
        sg = surface_gradient(disc, np.full(disc.num_nodes, 2.0))
        assert np.abs(sg).max() == 0.0

    def test_quadrant_samples_of_sine(self):
        m = DiscMesh(1.0, 2, 4)
        u = np.zeros(m.num_nodes)
        u[m.boundary_nodes] = [0.0, 1.0, 0.0, -1.0]
        expected = np.array([1.0, -1.0, -1.0, 1.0]) * 2.0 / np.pi
        assert np.allclose(surface_gradient(m, u), expected, atol=1e-14)


class TestLaplaceBeltrami:
    def test_constants_in_kernel(self, disc):
        lb = laplace_beltrami(disc, np.full(disc.num_nodes, -1.2))
        assert np.abs(lb).max() <= 1e-12

    def test_cosine_eigenrelation(self):
        m = DiscMesh(1.0, 4, 256)
        th = np.arctan2(m.coords[:, 1], m.coords[:, 0])
        lb = laplace_beltrami(m, np.cos(th))
        assert np.abs(lb + np.cos(th[m.boundary_nodes])).max() <= 1e-3

    def test_adjoint_identity(self, disc):
        rng = np.random.default_rng(3)
        u = rng.standard_normal(disc.num_nodes)
        v = rng.standard_normal(disc.num_nodes)
        lhs = float(np.dot(laplace_beltrami(disc, u) * v[disc.boundary_nodes], disc.w_bdry))
        rhs = -float(np.dot(surface_gradient(disc, u) * surface_gradient(disc, v),
                            disc.seg_weights))
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))

    def test_unsupported_on_interval(self, interval):
        with pytest.raises(ValueError):
            laplace_beltrami(interval, np.zeros(interval.num_nodes))


class TestInnerProduct:
    def test_interval_measure_of_ones(self, interval):
        ones = np.ones(interval.num_nodes)
        assert h_inner(interval, ones, ones) == pytest.approx(3.0, rel=1e-12)

    def test_zero_field(self, interval):
        assert h_inner(interval, np.zeros(interval.num_nodes),
                       np.ones(interval.num_nodes)) == 0.0

    def test_disc_measure_of_ones(self, disc):
        ones = np.ones(disc.num_nodes)
        assert h_inner(disc, ones, ones) == pytest.approx(3 * np.pi, rel=1e-12)

    def test_symmetric_bilinear_positive(self, disc):
        rng = np.random.default_rng(9)
        u = rng.standard_normal(disc.num_nodes)
        v = rng.standard_normal(disc.num_nodes)
        w = rng.standard_normal(disc.num_nodes)
        assert h_inner(disc, u, v) == pytest.approx(h_inner(disc, v, u), rel=1e-14)
        assert h_inner(disc, u + 2 * w, v) == pytest.approx(
            h_inner(disc, u, v) + 2 * h_inner(disc, w, v), rel=1e-12)
        assert h_inner(disc, u, u) > 0
        assert h_norm(disc, u) == pytest.approx(np.sqrt(h_inner(disc, u, u)))


def test_build_mesh_specs():
    m = build_mesh({"kind": "interval", "L": 2.0, "n": 8})
    assert isinstance(m, IntervalMesh) and m.num_nodes == 9
    d = build_mesh({"kind": "disc", "R": 1.0, "nr": 4, "ntheta": 8})
    assert isinstance(d, DiscMesh) and d.num_nodes == 32
    with pytest.raises(ConfigError):
        build_mesh({"kind": "disc", "R": -1.0, "nr": 4, "ntheta": 8})
    # kinds and defaults come from the configuration format
    with pytest.raises(ConfigError, match="mesh.kind: unknown kind 'torus'"):
        config_from_dict({"mesh": {"kind": "torus"}})
    assert config_from_dict({"mesh": {"kind": "disc"}}).build_all()[0].num_nodes == 16 * 32


@pytest.mark.parametrize("make,message", [
    (lambda: IntervalMesh(1.0, 8.9), "mesh.n must be an integer >= 2, got 8.9"),
    (lambda: IntervalMesh(1.0, True), "mesh.n must be an integer >= 2, got True"),
    (lambda: DiscMesh(1.0, 16.7, 32), "mesh.nr must be an integer >= 2, got 16.7"),
    (lambda: DiscMesh(1.0, 16, 32.5), "mesh.ntheta must be an integer >= 3, got 32.5"),
    (lambda: DiscMesh(1.0, float("nan"), "32"),
     "mesh.nr must be an integer >= 2, got nan; mesh.ntheta must be an integer >= 3, got 32"),
], ids=["interval", "interval-bool", "disc-nr", "disc-ntheta", "disc-both"])
def test_non_integral_counts_are_refused_not_truncated(make, message):
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        make()


def test_integral_counts_of_any_number_type_are_taken():
    assert DiscMesh(1.0, 16.0, np.int64(32)).num_nodes == 16 * 32
    assert IntervalMesh(1.0, np.float64(8)).n == 8


class TestBand:
    @staticmethod
    def spread(mesh):
        """Largest distance in band positions between two nodes of one cell or segment."""
        pos = np.empty(mesh.num_nodes, dtype=int)
        pos[mesh.band_order] = np.arange(mesh.num_nodes)
        return max(int(np.ptp(pos[nodes], axis=1).max(initial=0))
                   for nodes in (mesh.cell_nodes, mesh.seg_nodes))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 12), st.integers(3, 41))
    def test_disc_band_order_folds_the_seam(self, nr, ntheta):
        m = DiscMesh(1.0, nr, ntheta)
        assert np.array_equal(np.sort(m.band_order), np.arange(m.num_nodes))
        assert m.bandwidth == ntheta + 2
        assert self.spread(m) == m.bandwidth

    def test_interval_band_is_tridiagonal(self, interval):
        assert np.array_equal(interval.band_order, np.arange(interval.num_nodes))
        assert self.spread(interval) == interval.bandwidth == 1

    @pytest.mark.parametrize("spec,fields", [
        ({"kind": "interval", "n": 2**23}, "mesh.n: "),
        ({"kind": "disc", "nr": 4294967296, "ntheta": 32}, "mesh.nr, mesh.ntheta: "),
        ({"kind": "disc", "nr": 2, "ntheta": 10**18}, "mesh.nr, mesh.ntheta: "),
        ({"kind": "disc", "nr": 256, "ntheta": 256}, "mesh.nr, mesh.ntheta: "),
    ])
    def test_band_above_the_ceiling_rejected(self, spec, fields):
        with pytest.raises(ConfigError, match=fields):
            config_from_dict({"mesh": spec})

    @pytest.mark.parametrize("make", [lambda: IntervalMesh(1.0, 2**14),
                                      lambda: DiscMesh(1.0, 64, 64),
                                      lambda: DiscMesh(1.0, 32, 64),
                                      lambda: DiscMesh(1.0, 2**12, 4)],
                             ids=["interval", "disc", "disc-32x64", "thin-disc"])
    def test_mesh_and_tables_stay_within_their_bytes_per_node(self, make):
        tracemalloc.start()
        try:
            m = make()
            m.band_slots, m.cell_products
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= m.num_nodes * m.node_bytes

    def test_largest_documented_disc_fits(self):
        m = DiscMesh(1.0, 128, 256)
        assert m.num_nodes * (m.bandwidth + 1) <= MAX_BAND_ENTRIES

    @pytest.mark.parametrize("make", [lambda: IntervalMesh(1.0, 64),
                                      lambda: DiscMesh(1.0, 32, 64),
                                      lambda: DiscMesh(1.0, 2**12, 4)],
                             ids=["interval", "disc-32x64", "thin-disc"])
    def test_cell_products_match_a_per_cell_loop(self, make):
        m = make()
        p, q = _LOWER[m.cell_ops.shape[2]]
        oracle = np.empty_like(m.cell_products)
        for n, (w, op) in enumerate(zip(m.cell_weights, m.cell_ops)):
            for r, (a, b) in enumerate(zip(*PACKED[m.dim])):
                block = np.outer(w * op[a], op[b])  # block[p, q] = w op[a, p] op[b, q]
                if a != b:
                    block += np.outer(w * op[b], op[a])
                oracle[r, :, n] = block[p, q]
        np.testing.assert_allclose(m.cell_products, oracle, rtol=1e-15, atol=0.0)
