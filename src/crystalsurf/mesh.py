"""Rectangular tensor grids with mimetic difference operators.

Layout: scalars (height u, density rho, source f) live at grid nodes,
flux components live at the midpoints of the edges joining adjacent
nodes along each axis. Node quadrature uses tensor trapezoid weights,
an edge of axis k carries weight h_k times the trapezoid weight of its
transverse position.

With this pairing the divergence is the exact negative adjoint of the
gradient,

    <div q, v>_nodes = -<q, grad v>_edges   for all q, v,

so discrete integration by parts, and every mean identity built on it,
holds to machine precision. Homogeneous Neumann conditions are encoded
by reflective ghosts: flux components normal to the boundary are
identically zero, which is why boundary-normal edges are not stored.

Every per-axis quantity (node and edge weights, sparse operators) is
one tensor-product rule, ``_tensor``, so no code branches on the
dimension. Every derivative is a sparse operator on flat node values,
cached per grid: ``gradient_matrices`` gives the differences D_k,
``edge_stencil`` adds (in 2D) a transverse reconstruction averaging the
four neighboring transverse differences (zero on boundary rows, where
the reflective ghosts cancel), and ``edge_adjoints`` caches their
transposes. ``gradient`` is D_k u, ``divergence`` -W^-1 sum_k D_k^T
(w_k q_k), and ``edge_gradients`` samples the full gradient at the
edges of each family as one ``(*edges, dim)`` array. ``operators``
returns all of a grid's cached operators with one cache lookup, as a
``GridOperators`` whose methods act on flat node values: the solvers,
the coupled layer and the audit fetch it once per call and work on flat
arrays below the ``NodeField`` API, and the public functions here wrap
the same methods, so both give the same bits. The Laplacian and
the Dirichlet integral difference first, never multiplying by K: for
u = 1e3 + 1e-6 xi, u^T K u loses the fluctuation to the rounding of
the constant (relative error of order one at 65x33 nodes), while D_k u
cancels the constant exactly.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

__all__ = [
    "Grid",
    "NodeField",
    "EdgeField",
    "gradient",
    "divergence",
    "laplacian",
    "integrate",
    "norm_lp",
    "norm_l2",
    "w1p_norm",
    "gradient_power_integral",
    "edge_gradients",
    "dirichlet_integral",
    "stiffness_matrix",
    "mass_vector",
    "edge_weight_vectors",
    "edge_stencil",
    "edge_adjoints",
    "GridOperators",
    "operators",
    "write_node_csv",
    "read_node_csv",
    "write_edge_csv",
]


@dataclass(frozen=True)
class Grid:
    """Uniform rectangular grid in 1 or 2 dimensions.

    ``cells`` are node counts per axis (at least 3); spacing per axis is
    extent / (cells - 1), so nodes sit on the domain boundary.
    """

    dim: int
    extents: tuple[float, ...]
    cells: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.dim not in (1, 2):
            raise ValueError("dim must be 1 or 2")
        if len(self.extents) != self.dim or len(self.cells) != self.dim:
            raise ValueError("extents and cells must have one entry per axis")
        if not all(0.0 < e < np.inf for e in self.extents):
            raise ValueError("extents must be positive and finite")
        if any(int(n) != n or n < 3 for n in self.cells):
            raise ValueError("cells must be integers >= 3 per axis")

    @classmethod
    def interval(cls, length: float, nodes: int) -> "Grid":
        return cls(1, (float(length),), (int(nodes),))

    @classmethod
    def rectangle(cls, extents, cells) -> "Grid":
        return cls(2, tuple(float(e) for e in extents), tuple(int(n) for n in cells))

    @property
    def h(self) -> tuple[float, ...]:
        return tuple(e / (n - 1) for e, n in zip(self.extents, self.cells))

    @property
    def shape(self) -> tuple[int, ...]:
        return self.cells

    @property
    def node_count(self) -> int:
        return int(np.prod(self.cells))

    @property
    def volume(self) -> float:
        return float(np.prod(self.extents))

    def axis_coords(self, axis: int) -> np.ndarray:
        return np.linspace(0.0, self.extents[axis], self.cells[axis])

    @functools.lru_cache(maxsize=None)
    def node_weights(self) -> np.ndarray:
        """Tensor trapezoid quadrature weights, shape ``self.shape``; cached, read-only."""
        w = _tensor(self, None, _trapezoid, _trapezoid, np.kron).reshape(self.shape)
        w.flags.writeable = False
        return w

    def edge_shape(self, axis: int) -> tuple[int, ...]:
        """Shape of the edges joining adjacent nodes along ``axis``."""
        return tuple(n - 1 if j == axis else n for j, n in enumerate(self.cells))

    def meshgrid(self) -> tuple[np.ndarray, ...]:
        return tuple(
            np.meshgrid(*(self.axis_coords(k) for k in range(self.dim)), indexing="ij")
        )


@dataclass
class NodeField:
    """One scalar value per grid node, shape ``grid.shape``; every value finite.

    The type of the public API: fields go into and come out of the
    solvers, the coupled layer, the audit and the CSV writers as
    ``NodeField``s, each checked once on construction. Below that API the
    Newton and outer loops run on flat float64 arrays
    (``GridOperators``)."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != self.grid.shape:
            raise ValueError(
                f"values shape {self.values.shape} does not match grid {self.grid.shape}"
            )
        if not np.all(np.isfinite(self.values)):
            raise ValueError("node values must be finite")

    @classmethod
    def zeros(cls, grid: Grid) -> "NodeField":
        return cls(grid, np.zeros(grid.shape))

    @classmethod
    def constant(cls, grid: Grid, value: float) -> "NodeField":
        return cls(grid, np.full(grid.shape, float(value)))

    @classmethod
    def from_function(cls, grid: Grid, fn) -> "NodeField":
        return cls(grid, np.asarray(fn(*grid.meshgrid()), dtype=float) * np.ones(grid.shape))

    @classmethod
    def from_flat(cls, grid: Grid, flat: np.ndarray) -> "NodeField":
        return cls(grid, np.asarray(flat, dtype=float).reshape(grid.shape))

    @property
    def flat(self) -> np.ndarray:
        return self.values.reshape(-1)


@dataclass
class EdgeField:
    """One scalar per interior edge per axis (staggered flux components)."""

    grid: Grid
    components: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        self.components = tuple(np.asarray(c, dtype=float) for c in self.components)
        for k, c in enumerate(self.components):
            if c.shape != self.grid.edge_shape(k):
                raise ValueError(f"axis {k} component shape {c.shape}, expected {self.grid.edge_shape(k)}")


def gradient(u: NodeField) -> EdgeField:
    """Edgewise differences D_k u (adjacent node difference over spacing)."""
    g = u.grid
    comps = (d @ u.flat for d in gradient_matrices(g))
    return EdgeField(g, tuple(c.reshape(g.edge_shape(k)) for k, c in enumerate(comps)))


def divergence(q: EdgeField) -> NodeField:
    """Exact negative adjoint of ``gradient`` under node quadrature,
    -W^-1 sum_k D_k^T (w_k q_k).

    Boundary-normal fluxes are treated as zero, so the weighted node sum
    of any divergence vanishes identically (telescoping).
    """
    g = q.grid
    flux = sum(
        edge_adjoints(g, k)[0] @ (w * c.ravel())
        for k, (c, w) in enumerate(zip(q.components, edge_weight_vectors(g)))
    )
    return NodeField.from_flat(g, -flux / mass_vector(g))


def laplacian(u: NodeField) -> NodeField:
    """divergence(gradient(u)); reflective-ghost Neumann stencil."""
    return NodeField.from_flat(u.grid, operators(u.grid).laplacian(u.flat))


def integrate(u: NodeField) -> float:
    return operators(u.grid).integral(u.flat)


def norm_lp(u: NodeField, p: float) -> float:
    if p < 1:
        raise ValueError("p must be >= 1")
    return operators(u.grid).norm_lp(u.flat, p)


def norm_l2(u: NodeField) -> float:
    return norm_lp(u, 2.0)


def w1p_norm(u: NodeField, p: float) -> float:
    """(integral |u|^p + integral |grad u|^p)^(1/p), the gradient term by
    ``gradient_power_integral``."""
    if p < 1:
        raise ValueError("p must be >= 1")
    return operators(u.grid).w1p_norm(u.flat, p)


def gradient_power_integral(u: NodeField, p: float) -> float:
    """integral |grad u|^p with the quadrature of ``solvers.surface_energy``:
    sum_e w_e |z_e|^p over each axis family of ``edge_gradients``, divided
    by dim."""
    return operators(u.grid).gradient_power_integral(u.flat, p)


def edge_gradients(u: NodeField) -> list[np.ndarray]:
    """Full gradient samples at the edges of each axis family.

    One array per axis family, shape ``(*grid.edge_shape(axis), dim)``:
    component 0 is the longitudinal difference, the rest are the
    transverse reconstructions of ``edge_stencil``, in its order.
    """
    g = u.grid
    samples = operators(g).edge_samples(u.flat)
    return [z.reshape(*g.edge_shape(k), g.dim) for k, z in enumerate(samples)]


def dirichlet_integral(u: NodeField) -> float:
    """integral |grad u|^2 = sum_k sum(w_k (D_k u)^2), the edgewise pairing
    of u^T K u evaluated on the differences."""
    return operators(u.grid).dirichlet_integral(u.flat)


def _trapezoid(n: int, h: float) -> np.ndarray:
    """1D trapezoid weights of n nodes at spacing h."""
    w = np.full(n, h)
    w[0] *= 0.5
    w[-1] *= 0.5
    return w


_sparse_kron = functools.partial(sp.kron, format="csr")


def _tensor(grid: Grid, axis: int | None, own, other, kron=_sparse_kron):
    """Kronecker product, in axis order, of ``own(n, h)`` on ``axis`` and
    ``other(n, h)`` on every other axis (n nodes at spacing h per axis;
    ``axis`` None puts ``other`` on all of them)."""
    factors = [(own if k == axis else other)(n, h) for k, (n, h) in enumerate(zip(grid.cells, grid.h))]
    return functools.reduce(kron, factors)


@functools.lru_cache(maxsize=None)
def _axis_difference_matrix(n: int, h: float) -> sp.csr_matrix:
    data = np.repeat([[-1.0 / h, 1.0 / h]], n - 1, axis=0).ravel()
    rows = np.repeat(np.arange(n - 1), 2)
    cols = np.vstack([np.arange(n - 1), np.arange(1, n)]).T.ravel()
    return sp.csr_matrix((data, (rows, cols)), shape=(n - 1, n))


@functools.lru_cache(maxsize=None)
def edge_weight_vectors(grid: Grid) -> tuple[np.ndarray, ...]:
    """Quadrature weight per edge (flattened C order), one array per axis:
    the edge length times the trapezoid weights of the other axes."""
    return tuple(
        _tensor(grid, k, lambda n, h: np.full(n - 1, h), _trapezoid, np.kron) for k in range(grid.dim)
    )


@functools.lru_cache(maxsize=None)
def gradient_matrices(grid: Grid) -> tuple[sp.csr_matrix, ...]:
    """Sparse longitudinal difference operators, one per axis, on flat values."""
    return tuple(
        _tensor(grid, k, _axis_difference_matrix, lambda n, h: sp.identity(n, format="csr"))
        for k in range(grid.dim)
    )


@functools.lru_cache(maxsize=None)
def stiffness_matrix(grid: Grid) -> sp.csr_matrix:
    """K with u^T K v = <grad u, grad v>_edges; symmetric positive semidefinite."""
    mats = gradient_matrices(grid)
    wvecs = edge_weight_vectors(grid)
    k = sum(d.T @ sp.diags(w) @ d for d, w in zip(mats, wvecs))
    return sp.csr_matrix(k)


@functools.lru_cache(maxsize=None)
def mass_vector(grid: Grid) -> np.ndarray:
    """Flattened node quadrature weights."""
    return grid.node_weights().reshape(-1)


@functools.lru_cache(maxsize=None)
def _axis_average_matrix(n: int) -> sp.csr_matrix:
    """(n-1) x n mean of the two endpoints of each edge."""
    return abs(_axis_difference_matrix(n, 2.0))


@functools.lru_cache(maxsize=None)
def _axis_central_matrix(n: int, h: float) -> sp.csr_matrix:
    """n x n central difference at nodes, the mean of the two adjacent edge
    differences; boundary rows are empty (the reflected ghosts cancel)."""
    interior = sp.diags(np.r_[0.0, np.ones(n - 2), 0.0])
    return sp.csr_matrix(interior @ _axis_average_matrix(n).T @ _axis_difference_matrix(n, h))


@functools.lru_cache(maxsize=None)
def edge_stencil(grid: Grid, axis: int) -> tuple[sp.csr_matrix, ...]:
    """Sparse edge operators of one axis family on flat node values.

    Only the operators that exist, longitudinal first: ``(D_l,)`` in 1D
    and ``(D_l, D_t)`` in 2D, never None. ``D_l`` is the longitudinal
    difference ``gradient_matrices(grid)[axis]``; ``D_t`` reconstructs
    the transverse derivative as the edge average of nodal central
    differences, i.e. the mean of the four neighboring transverse
    differences, with zero rows on the boundary. A grid has at most two
    axes, so the other axis of a 2D grid is the transverse one.
    """
    transverse = [
        _tensor(grid, axis, lambda n, h: _axis_average_matrix(n), _axis_central_matrix)
        for _ in range(1, grid.dim)
    ]
    return (gradient_matrices(grid)[axis], *transverse)


@functools.lru_cache(maxsize=None)
def edge_adjoints(grid: Grid, axis: int) -> tuple[sp.csr_matrix, ...]:
    """CSR transposes of ``edge_stencil(grid, axis)``, in its order."""
    return tuple(sp.csr_matrix(d.T) for d in edge_stencil(grid, axis))


@dataclass(frozen=True, eq=False)
class GridOperators:
    """The one per-grid record the solvers and the coupled layer read:
    the cached operators of one grid, and the quadratures and differences
    built from them, on flat node values (C order).

    ``w`` is ``mass_vector`` and ``k`` ``stiffness_matrix``; ``stencils``,
    ``adjoints`` and ``edge_weights`` hold ``edge_stencil``,
    ``edge_adjoints`` and ``edge_weight_vectors`` per axis family, so
    ``stencils[k][0]`` is D_k. K is symmetric, so its CSR arrays are also
    its CSC arrays, and every Newton matrix of the solvers is data on
    them; in 1D ``k.data`` holds the diagonal at [::3] and the
    subdiagonal at [1::3]. ``diagonal``, ``stiffness_map`` and
    ``cosine_spectrum`` are built on first use. The methods are the
    bodies of the public ``NodeField`` functions of the same names;
    ``integral`` and the L^2 ``norm_lp`` are each one dot product with W.
    """

    grid: Grid
    w: np.ndarray
    k: sp.csr_matrix
    stencils: tuple[tuple[sp.csr_matrix, ...], ...]
    adjoints: tuple[tuple[sp.csr_matrix, ...], ...]
    edge_weights: tuple[np.ndarray, ...]

    @functools.cached_property
    def diagonal(self) -> np.ndarray:
        """Positions of K's diagonal in ``k.data``."""
        return np.flatnonzero(self.k.indices == np.repeat(np.arange(self.grid.node_count), np.diff(self.k.indptr)))

    @functools.cached_property
    def stiffness_map(self) -> sp.csc_matrix:
        """The linear map from edge coefficients c, concatenated over the
        axis families, to the data of sum D_l^T diag(c) D_l on the pattern
        of K (of K itself when c is the edge weights)."""
        k, n = self.k, self.grid.node_count
        rows = np.repeat(np.arange(n), np.diff(k.indptr))
        # row e of D_l has two nonzeros, at the edge's end nodes a and b, so
        # column e of the map holds D_l[e, x] D_l[e, y] at the position of
        # (x, y) in K's data for each x, y in {a, b}; K's rows are sorted, and
        # the keys x n + y pass int32 beyond 46341 nodes
        mats = [ops[0] for ops in self.stencils]
        ends = np.concatenate([d.indices.reshape(-1, 2) for d in mats]).astype(np.int64)
        vals = np.concatenate([d.data.reshape(-1, 2) for d in mats])
        x, y = [0, 0, 1, 1], [0, 1, 0, 1]
        pos = np.searchsorted(rows * n + k.indices, ends[:, x] * n + ends[:, y])
        return sp.csc_matrix(
            ((vals[:, x] * vals[:, y]).ravel(), pos.ravel(), np.arange(0, pos.size + 1, 4)),
            shape=(k.nnz, len(ends)),
        )

    @functools.cached_property
    def cosine_spectrum(self) -> tuple[np.ndarray, float]:
        """Eigenvalues of W^-1 K on the cosine modes, and the scale of a
        DCT-I applied twice.

        W^-1 K is the reflective Neumann Laplacian, the sum over axes of the
        1D operator (2 u_i - u_i-1 - u_i+1)/h^2 with ghosts u_-1 = u_1 and
        u_n = u_n-2, so the tensor cosine modes prod cos(pi i_a k_a / N_a),
        N_a = n_a - 1, are its eigenvectors with eigenvalues
        sum_a (2 sin(pi k_a / (2 N_a)) / h_a)^2, returned with shape
        ``grid.shape``. The unnormalized DCT-I applied twice is prod 2 N_a
        times the identity."""
        lam = np.zeros(())
        for n, h in zip(self.grid.cells, self.grid.h):
            lam = np.add.outer(lam, (2.0 * np.sin(0.5 * np.pi * np.arange(n) / (n - 1)) / h) ** 2)
        return lam, float(np.prod([2 * (n - 1) for n in self.grid.cells]))

    def integral(self, v: np.ndarray) -> float:
        return float(self.w @ v)

    def norm_lp(self, v: np.ndarray, p: float) -> float:
        if p == 2.0:
            return float(np.sqrt(v @ (self.w * v)))
        return float((self.w @ np.abs(v) ** p) ** (1.0 / p))

    def w1p_norm(self, v: np.ndarray, p: float) -> float:
        return float((np.sum(self.w * np.abs(v) ** p) + self.gradient_power_integral(v, p)) ** (1.0 / p))

    def laplacian(self, v: np.ndarray) -> np.ndarray:
        """-W^-1 sum_k D_k^T (w_k D_k v)."""
        flux = sum(adj[0] @ (we * (ops[0] @ v)) for ops, adj, we in zip(self.stencils, self.adjoints, self.edge_weights))
        return -flux / self.w

    def edge_samples(self, v: np.ndarray) -> list[np.ndarray]:
        """``edge_gradients`` with the edges of each family flattened:
        one ``(edges, dim)`` array per axis family."""
        return [np.array([d @ v for d in ops]).T for ops in self.stencils]

    def gradient_power_integral(self, v: np.ndarray, p: float) -> float:
        total = sum(
            float(np.sum(we * np.linalg.norm(z, axis=-1).ravel() ** p))
            for z, we in zip(self.edge_samples(v), self.edge_weights)
        )
        return total / self.grid.dim

    def dirichlet_integral(self, v: np.ndarray) -> float:
        return sum(float(np.sum(we * d * d)) for d, we in zip((ops[0] @ v for ops in self.stencils), self.edge_weights))


@functools.lru_cache(maxsize=None)
def operators(grid: Grid) -> GridOperators:
    """Every cached operator of ``grid`` in one ``GridOperators``; cached."""
    axes = range(grid.dim)
    return GridOperators(
        grid=grid,
        w=mass_vector(grid),
        k=stiffness_matrix(grid),
        stencils=tuple(edge_stencil(grid, axis) for axis in axes),
        adjoints=tuple(edge_adjoints(grid, axis) for axis in axes),
        edge_weights=edge_weight_vectors(grid),
    )


_AXIS_NAMES = ("x", "y")


def _row_templates(columns) -> str:
    """The "%.17g" template of consecutive rows: the ``columns`` (equal-shape,
    C order) formatted to 17 significant digits, then the value's placeholder."""
    row = "%.17g," * len(columns) + "%%.17g\n"
    return "".join(row % r for r in zip(*(np.ravel(c).tolist() for c in columns)))


def _header(grid: Grid, *names: str) -> str:
    return ",".join([*_AXIS_NAMES[: grid.dim], *names]) + "\n"


@functools.lru_cache(maxsize=None)
def _node_rows(grid: Grid) -> str:
    """Whole-file template of ``write_node_csv``: the header and the node
    coordinates; cached per grid."""
    return _header(grid, "value") + _row_templates(grid.meshgrid())


@functools.lru_cache(maxsize=None)
def _edge_rows(grid: Grid) -> str:
    """Whole-file template of ``write_edge_csv``: the header, then midpoint
    and axis of every edge, one axis family after the other; cached per grid."""
    coords = grid.meshgrid()
    text = _header(grid, "axis", "value")
    for k in range(grid.dim):
        lo = (slice(None),) * k + (slice(None, -1),)
        hi = (slice(None),) * k + (slice(1, None),)
        mids = [c[lo] for c in coords]
        mids[k] = 0.5 * (coords[k][lo] + coords[k][hi])
        text += _row_templates([*mids, np.full(grid.edge_shape(k), k)])
    return text


def _write_rows(path, template, values) -> None:
    """Write the whole-file ``template`` filled with one value per row."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(template % tuple(values))


def write_node_csv(u: NodeField, path) -> None:
    """CSV with header x[,y],value, nodes in row-major order, 17 significant digits."""
    g = u.grid
    _write_rows(path, _node_rows(g), u.flat.tolist())


def read_node_csv(path, grid: Grid) -> NodeField:
    """Read a node CSV written by ``write_node_csv`` onto the given grid."""
    raw = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if raw.shape[0] != grid.node_count or raw.shape[1] != grid.dim + 1:
        raise ValueError(
            f"csv holds {raw.shape[0]} rows of {raw.shape[1]} columns, "
            f"grid needs {grid.node_count} nodes in {grid.dim}D"
        )
    coords = np.stack([m.reshape(-1) for m in grid.meshgrid()], axis=1)
    if not np.allclose(raw[:, : grid.dim], coords, rtol=0.0, atol=1e-12):
        raise ValueError("csv node coordinates do not match the grid")
    return NodeField.from_flat(grid, raw[:, grid.dim])


def write_edge_csv(q: EdgeField, path) -> None:
    """CSV of edge midpoints with header x[,y],axis,value, one axis family
    after the other, each in row-major order."""
    g = q.grid
    values = np.concatenate([np.ravel(comp) for comp in q.components]).tolist()
    _write_rows(path, _edge_rows(g), values)
