"""Discretizations of the domain and its boundary with shared trace DOFs.

Two mesh kinds are provided. An interval [0, L] with n cells carries a
0-dimensional boundary (its two endpoints), so surface calculus is
trivial there. A disc of radius R is meshed by a polar tensor grid whose
radial rings are cell-centered (innermost ring at dr/2, no node at the
origin) except that the outermost ring sits exactly on the boundary
circle; the boundary is a closed loop of evenly spaced nodes.

Boundary nodes ARE bulk nodes: a field u carries one value per global
node and its boundary entries serve simultaneously as the trace and the
boundary unknown. The pairing of a field pair is

    h_inner(u, v) = sum_nodes u v w_bulk + sum_bnd u v w_bdry,

so boundary nodes contribute to both sums with their respective weights.

Per-cell gradients are the gradients of the least-squares affine fit of
the corner values against the corner coordinates: this annihilates
constants and reproduces every globally affine field exactly on both
mesh kinds.

Nodes are numbered ring by ring, so the energy Hessian is a band. Its
storage order ``band_order`` (the identity on the interval; on the disc
each ring at spokes 0, 1, ntheta-1, 2, ntheta-2, ...) folds the periodic
seam, so the bandwidth is ntheta + 2 rather than 2 ntheta - 1. The band is
LAPACK's lower band storage, laid out column-major as LAPACK reads it.
Two tables depend on the mesh alone and are built once, on first use:
the flat slot of every Hessian contribution in that layout, which holds
only the lower entry of each symmetric pair, and the products of the
cell operators that turn a cell's coefficients into its contributions. A
mesh whose band would hold more than ``MAX_BAND_ENTRIES`` numbers is
rejected before anything is allocated.
"""

import functools

import numpy as np

from .errors import ConfigError


MAX_BAND_ENTRIES = 2**24  # nodes * (bandwidth + 1) doubles: 128 MiB per Newton band

# (a, b), a <= b: the packed coefficients of a symmetric dim x dim matrix
PACKED = {dim: np.triu_indices(dim) for dim in (1, 2)}
# (p, q), p >= q: the lower pairs of a k x k block, k the nodes of a cell or segment
_LOWER = {k: np.tril_indices(k) for k in (2, 4)}


def _product_index(dim, k):
    """Row indices into a cell operator flattened to dim k rows, for ``cell_products``.

    Entry (r, c) pairs coefficient (a, b) = PACKED[dim][:, r] with corner pair
    (p, q) = _LOWER[k][:, c] and needs ops[a, p] ops[b, q], plus ops[b, p]
    ops[a, q] where a != b. Returns the rows of the first product for every
    entry, then the entries with a != b and the rows of their second product.
    """
    (a, b), (p, q) = PACKED[dim], _LOWER[k]
    ap, bq, bp, aq = [x.ravel() for x in (a[:, None] * k + p, b[:, None] * k + q,
                                          b[:, None] * k + p, a[:, None] * k + q)]
    off = np.flatnonzero(np.repeat(a != b, len(p)))
    return ap, bq, off, bp[off], aq[off]


_PRODUCT_INDEX = {(dim, k): _product_index(dim, k) for dim, k in ((1, 2), (2, 4))}


def _check_band_size(fields, nodes, bandwidth):
    entries = nodes * (bandwidth + 1)
    if entries > MAX_BAND_ENTRIES:
        raise ConfigError(f"{fields}: {nodes} nodes need a Newton band of {entries} numbers, "
                          f"more than the {MAX_BAND_ENTRIES} allowed")


class _Mesh:
    """Structure shared by the mesh kinds and derived lazily from their arrays."""

    @functools.cached_property
    def band_slots(self):
        """Flat index of every Hessian contribution in the column-major band, built on first use.

        Entry (i, j) of the Newton matrix, i >= j in ``band_order`` positions,
        sits at ``(i - j) + j * (bandwidth + 1)``, which ``reshape(n, bandwidth
        + 1).T`` turns into LAPACK lower band storage without a copy. Each
        symmetric pair is stored once, as its lower entry. Contributions are
        ordered as: for each corner pair (p, q), p >= q, of ``np.tril_indices(k)``
        every cell in order; one diagonal entry per node; then for each pair of
        ``np.tril_indices(2)`` every boundary segment in order.
        """
        bw = self.bandwidth
        pos = np.empty(self.num_nodes, dtype=np.intp)
        pos[self.band_order] = np.arange(self.num_nodes)

        def lower(nodes):
            p, q = _LOWER[nodes.shape[1]]
            at = pos[nodes.T]
            i, j = at[p], at[q]
            return (i + j + (bw - 1) * np.minimum(i, j)).ravel()  # max + bw min

        return np.concatenate([lower(self.cell_nodes), pos * (bw + 1), lower(self.seg_nodes)])

    @functools.cached_property
    def cell_products(self):
        """Weighted products of ``cell_ops`` rows, shape (dim (dim + 1) / 2, k (k + 1) / 2, cells).

        Row r belongs to the coefficient A[a, b], (a, b) the r-th entry of
        ``np.triu_indices(dim)``, of a symmetric dim x dim matrix A per cell;
        column c to the c-th corner pair (p, q) of ``np.tril_indices(k)``. A
        cell's term ``cell_weight * ops^T A ops`` at (p, q) is then the sum over
        r of A[a, b] times entry (r, c), and [r, c, :] follows ``band_slots``.
        """
        ap, bq, off, bp, aq = _PRODUCT_INDEX[self.dim, self.cell_ops.shape[2]]
        ops = np.ascontiguousarray(self.cell_ops.reshape(len(self.cell_ops), -1).T)  # row a k + p
        weighted = ops * self.cell_weights
        table = weighted[ap]
        table *= ops[bq]
        table[off] += weighted[bp] * ops[aq]
        return table.reshape(len(PACKED[self.dim][0]), -1, len(self.cell_ops))


class IntervalMesh(_Mesh):
    """[0, L] with n uniform cells, n + 1 nodes; boundary = both endpoints."""

    kind = "interval"
    dim = 1

    def __init__(self, L, n):
        L = float(L)
        n = int(n)
        if not (L > 0.0 and n >= 2):
            raise ConfigError(f"interval mesh needs L > 0 and n >= 2, got L={L}, n={n}")
        self.bandwidth = 1
        _check_band_size("mesh.n", n + 1, self.bandwidth)
        self.L = L
        self.n = n
        h = L / n
        self.num_nodes = n + 1
        self.band_order = np.arange(n + 1)
        x = np.arange(n + 1) * h
        self.coords = np.column_stack([x, np.zeros(n + 1)])
        self.w_bulk = np.full(n + 1, h)
        self.w_bulk[0] = self.w_bulk[-1] = 0.5 * h
        self.boundary_nodes = np.array([0, n])
        self.w_bdry = np.ones(2)
        self.is_boundary = np.zeros(n + 1, dtype=bool)
        self.is_boundary[self.boundary_nodes] = True
        self.cell_nodes = np.column_stack([np.arange(n), np.arange(1, n + 1)])
        op = np.array([[-1.0 / h, 1.0 / h]])
        self.cell_ops = np.broadcast_to(op, (n, 1, 2)).copy()
        self.cell_weights = np.full(n, h)
        self.seg_nodes = np.zeros((0, 2), dtype=int)
        self.seg_weights = np.zeros(0)
        self.mass = self.w_bulk.copy()
        self.mass[self.boundary_nodes] += self.w_bdry
        self.volume = L
        self.surface = 2.0


class DiscMesh(_Mesh):
    """Disc of radius R on a polar tensor grid with nr rings and ntheta spokes."""

    kind = "disc"
    dim = 2

    def __init__(self, R, nr, ntheta):
        R = float(R)
        nr, ntheta = int(nr), int(ntheta)
        if not (R > 0.0 and nr >= 2 and ntheta >= 3):
            raise ConfigError(
                f"disc mesh needs R > 0, nr >= 2, ntheta >= 3, got R={R}, nr={nr}, ntheta={ntheta}"
            )
        self.bandwidth = ntheta + 2  # what the seam fold of band_order below achieves
        _check_band_size("mesh.nr, mesh.ntheta", nr * ntheta, self.bandwidth)
        self.R, self.nr, self.ntheta = R, nr, ntheta
        dr = R / (nr - 0.5)
        dth = 2.0 * np.pi / ntheta
        radii = (np.arange(nr) + 0.5) * dr  # outer ring lands on R
        radii[-1] = R
        thetas = np.arange(ntheta) * dth
        rr, tt = np.meshgrid(radii, thetas, indexing="ij")
        self.num_nodes = nr * ntheta
        k = np.arange(ntheta)
        fold = np.where(k % 2, (k + 1) // 2, -(k // 2)) % ntheta  # spokes 0, 1, -1, 2, -2, ...
        self.band_order = (np.arange(nr)[:, None] * ntheta + fold).ravel()
        self.coords = np.column_stack([(rr * np.cos(tt)).ravel(), (rr * np.sin(tt)).ravel()])

        # node quadrature: annular sector of the dual (edge-midpoint) radii
        edges = np.concatenate([[0.0], np.arange(1, nr) * dr, [R]])
        ring_w = 0.5 * (edges[1:] ** 2 - edges[:-1] ** 2) * dth
        self.w_bulk = np.repeat(ring_w, ntheta)

        self.boundary_nodes = (nr - 1) * ntheta + np.arange(ntheta)
        self.w_bdry = np.full(ntheta, R * dth)
        self.is_boundary = np.zeros(self.num_nodes, dtype=bool)
        self.is_boundary[self.boundary_nodes] = True

        # quad cells between consecutive rings, periodic in theta
        i = np.repeat(np.arange(nr - 1), ntheta)
        j = np.tile(np.arange(ntheta), nr - 1)
        jn = (j + 1) % ntheta
        self.cell_nodes = np.column_stack(
            [i * ntheta + j, (i + 1) * ntheta + j, (i + 1) * ntheta + jn, i * ntheta + jn]
        )
        self.cell_weights = np.repeat(0.5 * (radii[1:] ** 2 - radii[:-1] ** 2) * dth, ntheta)
        self.cell_ops = _affine_fit_ops(self.coords, self.cell_nodes)

        # boundary loop segments j -> j+1
        self.seg_len = R * dth
        self.seg_nodes = np.column_stack(
            [self.boundary_nodes, np.roll(self.boundary_nodes, -1)]
        )
        self.seg_weights = np.full(ntheta, self.seg_len)

        self.mass = self.w_bulk.copy()
        self.mass[self.boundary_nodes] += self.w_bdry
        self.volume = np.pi * R * R
        self.surface = 2.0 * np.pi * R


def _affine_fit_ops(coords, cell_nodes):
    """Per-cell linear maps sending corner values to the LSQ-affine gradient."""
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


def _check_field(mesh, u):
    u = np.asarray(u, dtype=float)
    if u.shape != (mesh.num_nodes,):
        raise ValueError(f"field has shape {u.shape}, mesh has {mesh.num_nodes} nodes")
    return u


def bulk_gradient(mesh, u):
    """Per-cell gradient vectors, shape (ncells, dim)."""
    u = _check_field(mesh, u)
    return np.einsum("ndk,nk->nd", mesh.cell_ops, u[mesh.cell_nodes])


def surface_gradient(mesh, u):
    """Per-boundary-segment tangential slope; empty on an interval mesh."""
    u = _check_field(mesh, u)
    if mesh.seg_nodes.shape[0] == 0:
        return np.zeros(0)
    du = u[mesh.seg_nodes[:, 1]] - u[mesh.seg_nodes[:, 0]]
    return du / mesh.seg_len


def laplace_beltrami(mesh, u):
    """Periodic second difference along the boundary loop, per boundary node."""
    if mesh.kind != "disc":
        raise ValueError("laplace_beltrami needs a 1-dimensional boundary (disc mesh); "
                         "on an interval it vanishes identically")
    u = _check_field(mesh, u)
    ub = u[mesh.boundary_nodes]
    return (np.roll(ub, 1) - 2.0 * ub + np.roll(ub, -1)) / mesh.seg_len**2


def h_inner(mesh, u, v):
    """Discrete inner product of the product space L2(bulk) x L2(boundary)."""
    u = _check_field(mesh, u)
    v = _check_field(mesh, v)
    return float(np.dot(mesh.mass, u * v))


def h_norm(mesh, u):
    return float(np.sqrt(h_inner(mesh, u, u)))
