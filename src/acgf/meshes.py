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
mesh kinds. On the disc the fit has a closed form. With a cell's corner
offsets (x, y) from its centroid, the fit to corner values u has gradient
M^-1 [x y]^T u, where M = [[a, b], [b, c]] is the normal matrix with
a = sum x^2, b = sum x y and c = sum y^2. Writing out its inverse
[[c, -b], [-b, a]] / (ac - b^2) gives the cell operator
[c x - b y, a y - b x] / (ac - b^2), computed for all cells at once.

Nodes are numbered ring by ring, so the energy Hessian is a band. Its
storage order ``band_order`` (the identity on the interval; on the disc
each ring at spokes 0, 1, ntheta-1, 2, ntheta-2, ...) folds the periodic
seam, so the bandwidth is ntheta + 2 rather than 2 ntheta - 1. The band is
LAPACK's lower band storage, laid out column-major as LAPACK reads it.
Two tables depend on the mesh alone and are built once, on first use:
the flat slot of every Hessian contribution in that layout, which holds
only the lower entry of each symmetric pair, and the products of the
cell operators that turn a cell's coefficients into its contributions. A
mesh whose band would hold more than ``MAX_BAND_ENTRIES`` numbers, or whose
arrays and tables would take more than ``MAX_MESH_BYTES``, is rejected
before anything is allocated; one whose cell operators or node masses
leave the double range, once built.
"""

import functools

import numpy as np

from .errors import ConfigError


MAX_BAND_ENTRIES = 2**24  # nodes * (bandwidth + 1) doubles: 128 MiB per Newton band
MAX_MESH_BYTES = 2**27  # the same 128 MiB for a mesh's arrays and its two tables

# (a, b), a <= b: the packed coefficients of a symmetric dim x dim matrix
PACKED = {dim: np.triu_indices(dim) for dim in (1, 2)}
# (p, q), p >= q: the lower pairs of a k x k block, k the nodes of a cell or segment
_LOWER = {k: np.tril_indices(k) for k in (2, 4)}


def _check_fields(*checks):
    """One ConfigError naming every (field, value, ok, bound) whose check failed."""
    failed = [f"mesh.{name} must be {bound}, got {value}" for name, value, ok, bound in checks
              if not ok]
    if failed:
        raise ConfigError("; ".join(failed))


def _is_count(value, least):
    """True where value is an integral number (not a bool) of at least ``least``."""
    try:
        return not isinstance(value, bool) and int(value) == value and value >= least
    except (TypeError, ValueError, OverflowError):  # not a number, NaN or infinite
        return False


def _check_size(fields, nodes, bandwidth, node_bytes):
    entries = nodes * (bandwidth + 1)
    if entries > MAX_BAND_ENTRIES:
        raise ConfigError(f"{fields}: {nodes} nodes need a Newton band of {entries} numbers, "
                          f"more than the {MAX_BAND_ENTRIES} allowed")
    if nodes * node_bytes > MAX_MESH_BYTES:
        raise ConfigError(f"{fields}: {nodes} nodes need {nodes * node_bytes} bytes of mesh "
                          f"arrays and tables, more than the {MAX_MESH_BYTES} allowed")


class _Mesh:
    """Structure shared by the mesh kinds and derived lazily from their arrays.

    ``node_bytes`` is the peak memory per node of building a mesh and both of
    its tables, measured with tracemalloc (201 bytes on an interval, 761 on a
    disc) and rounded up.
    """

    def _set_mass(self, fields):
        """Sum the node weights into ``mass``; a ConfigError naming ``fields`` unless every cell operator
        is finite and every mass finite and positive (a disc's divide by a determinant ~ R^4)."""
        self.mass = self.w_bulk.copy()
        self.mass[self.boundary_nodes] += self.w_bdry
        if not (np.isfinite(self.cell_ops).all() and ((self.mass > 0.0) & (self.mass < np.inf)).all()):
            raise ConfigError(f"{fields}: the cell gradients or node masses of this mesh are out of "
                              "double-precision range; rescale the domain")

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
        """Weighted cell-operator products, shape (dim (dim + 1) / 2, k (k + 1) / 2, cells).

        Entry [r, c, n] is ``w ops[a, p] ops[b, q]``, plus ``w ops[b, p] ops[a, q]``
        where a != b, for w and ops the weight and operator of cell n, (a, b) the
        r-th coefficient of ``PACKED[dim]`` and (p, q) the c-th pair of ``_LOWER[k]``.
        A cell's term ``w ops^T A ops`` at (p, q), A symmetric, is then the sum over
        r of A[a, b] times entry [r, c], and [r, c, :] follows ``band_slots``.
        """
        ops = np.ascontiguousarray(self.cell_ops.transpose(1, 2, 0))  # ops[a, p, cell]
        weighted = ops * self.cell_weights
        p, q = _LOWER[ops.shape[1]]
        table = np.empty((len(PACKED[self.dim][0]), len(p), len(self.cell_ops)))
        for row, a, b in zip(table, *PACKED[self.dim]):
            row[:] = weighted[a, p]
            row *= ops[b, q]  # in place: numpy reuses temporaries only above 256 KiB
            if a != b:
                second = weighted[b, p]
                second *= ops[a, q]
                row += second
        return table


class IntervalMesh(_Mesh):
    """[0, L] with n uniform cells, n + 1 nodes; boundary = both endpoints."""

    kind = "interval"
    dim = 1
    node_bytes = 208

    @np.errstate(all="ignore")  # a degenerate size fails _set_mass instead
    def __init__(self, L, n):
        L = float(L)
        _check_fields(("L", L, L > 0.0, "positive"), ("n", n, _is_count(n, 2), "an integer >= 2"))
        n = int(n)
        self.bandwidth = 1
        _check_size("mesh.n", n + 1, self.bandwidth, self.node_bytes)
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
        op = np.array([[-1.0, 1.0]]) / h
        self.cell_ops = np.broadcast_to(op, (n, 1, 2)).copy()
        self.cell_weights = np.full(n, h)
        self.seg_nodes = np.zeros((0, 2), dtype=int)
        self.seg_weights = np.zeros(0)
        self._set_mass(f"mesh.L, mesh.n = {L}, {n}")


class DiscMesh(_Mesh):
    """Disc of radius R on a polar tensor grid with nr rings and ntheta spokes."""

    kind = "disc"
    dim = 2
    node_bytes = 848

    @np.errstate(all="ignore")  # a degenerate size fails _set_mass instead
    def __init__(self, R, nr, ntheta):
        R = float(R)
        _check_fields(("R", R, R > 0.0, "positive"), ("nr", nr, _is_count(nr, 2), "an integer >= 2"),
                      ("ntheta", ntheta, _is_count(ntheta, 3), "an integer >= 3"))
        nr, ntheta = int(nr), int(ntheta)
        self.bandwidth = ntheta + 2  # what the seam fold of band_order below achieves
        _check_size("mesh.nr, mesh.ntheta", nr * ntheta, self.bandwidth, self.node_bytes)
        self.ntheta = ntheta
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

        self._set_mass(f"mesh.R, mesh.nr, mesh.ntheta = {R}, {nr}, {ntheta}")


def _affine_fit_ops(coords, cell_nodes):
    """Per-cell linear maps sending corner values to the LSQ-affine gradient, shape (nc, 2, k)."""
    x, y = coords[:, 0][cell_nodes.T], coords[:, 1][cell_nodes.T]  # (k, nc): one row per corner
    x -= _corner_sum(x) / len(x)  # corner offsets from the centroid
    y -= _corner_sum(y) / len(y)
    a, b, c = _corner_sum(x * x), _corner_sum(x * y), _corner_sum(y * y)
    det = a * c - b * b
    a /= det
    b /= det
    c /= det
    ops = np.empty((cell_nodes.shape[0], 2, cell_nodes.shape[1]))
    ops[:, 0] = (c * x - b * y).T
    ops[:, 1] = (a * y - b * x).T
    return ops


def _corner_sum(rows):
    """rows[0] + rows[1] + ... in that order, the order numpy reduces a short axis in, but faster."""
    return sum(rows[1:], rows[0])


def _check_field(mesh, u, what="field"):
    u = np.asarray(u, dtype=float)
    if u.shape != (mesh.num_nodes,):
        raise ValueError(f"{what} has shape {u.shape}, mesh has {mesh.num_nodes} nodes")
    return u


def bulk_gradient(mesh, u):
    """Per-cell gradient vectors, shape (ncells, dim)."""
    u = _check_field(mesh, u)
    return np.einsum("ndk,nk->nd", mesh.cell_ops, u[mesh.cell_nodes])


def rowdot(a, b):
    """Row-wise dot products of (n, dim) arrays by columns: ``einsum("nd,nd->n")``'s values, faster."""
    out = a[:, 0] * b[:, 0]
    for k in range(1, a.shape[1]):
        out += a[:, k] * b[:, k]
    return out


def surface_gradient(mesh, u):
    """Per-boundary-segment tangential slope; empty on an interval mesh."""
    u = _check_field(mesh, u)
    if mesh.seg_nodes.shape[0] == 0:
        return np.zeros(0)
    du = u[mesh.seg_nodes[:, 1]] - u[mesh.seg_nodes[:, 0]]
    return du / mesh.seg_len


def h_inner(mesh, u, v):
    """Discrete inner product of the product space L2(bulk) x L2(boundary)."""
    u = _check_field(mesh, u)
    v = _check_field(mesh, v)
    return float(np.dot(mesh.mass, u * v))


def h_norm(mesh, u):
    return float(np.sqrt(h_inner(mesh, u, u)))
