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

Every edge quantity is a sparse operator on flat node values, cached
per grid: ``gradient_matrices`` gives the longitudinal difference of
each axis family, and ``edge_stencil`` pairs it with a transverse
reconstruction that averages the four neighboring transverse
differences (zero on boundary rows, where the reflective ghosts
cancel). Squared gradient magnitudes at edges combine the two, and the
solvers assemble energy gradients and Hessians from the same operators
and their transposes.
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
    "node_gradient",
    "node_gradient_magnitude",
    "edge_gradients",
    "edge_squared_gradient",
    "dirichlet_integral",
    "stiffness_matrix",
    "mass_vector",
    "edge_weight_vectors",
    "edge_stencil",
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

    def axis_weights(self, axis: int) -> np.ndarray:
        """1D trapezoid weights: h at interior nodes, h/2 at the two ends."""
        n = self.cells[axis]
        w = np.full(n, self.h[axis])
        w[0] *= 0.5
        w[-1] *= 0.5
        return w

    def node_weights(self) -> np.ndarray:
        """Tensor trapezoid quadrature weights, shape ``self.shape``."""
        if self.dim == 1:
            return self.axis_weights(0)
        return np.outer(self.axis_weights(0), self.axis_weights(1))

    def meshgrid(self) -> tuple[np.ndarray, ...]:
        return tuple(
            np.meshgrid(*(self.axis_coords(k) for k in range(self.dim)), indexing="ij")
        )


@dataclass
class NodeField:
    """One scalar value per grid node, shape ``grid.shape``."""

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

    def copy(self) -> "NodeField":
        return NodeField(self.grid, self.values.copy())


@dataclass
class EdgeField:
    """One scalar per interior edge per axis (staggered flux components)."""

    grid: Grid
    components: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        comps = []
        for k, c in enumerate(self.components):
            c = np.asarray(c, dtype=float)
            expected = tuple(
                n - 1 if j == k else n for j, n in enumerate(self.grid.cells)
            )
            if c.shape != expected:
                raise ValueError(
                    f"axis {k} component shape {c.shape}, expected {expected}"
                )
            comps.append(c)
        self.components = tuple(comps)


def gradient(u: NodeField) -> EdgeField:
    """Edgewise differences (adjacent node difference over spacing)."""
    g = u.grid
    comps = tuple(np.diff(u.values, axis=k) / g.h[k] for k in range(g.dim))
    return EdgeField(g, comps)


def divergence(q: EdgeField) -> NodeField:
    """Exact negative adjoint of ``gradient`` under node quadrature.

    Boundary-normal fluxes are treated as zero, so the weighted node sum
    of any divergence vanishes identically (telescoping).
    """
    g = q.grid
    out = np.zeros(g.shape)
    for k in range(g.dim):
        w = g.axis_weights(k)
        shape = [1] * g.dim
        shape[k] = g.cells[k]
        out += np.diff(q.components[k], axis=k, prepend=0.0, append=0.0) / w.reshape(shape)
    return NodeField(g, out)


def laplacian(u: NodeField) -> NodeField:
    """divergence(gradient(u)); reflective-ghost Neumann stencil."""
    return divergence(gradient(u))


def integrate(u: NodeField) -> float:
    return float(np.sum(u.values * u.grid.node_weights()))


def norm_lp(u: NodeField, p: float) -> float:
    if p < 1:
        raise ValueError("p must be >= 1")
    return float(np.sum(u.grid.node_weights() * np.abs(u.values) ** p) ** (1.0 / p))


def norm_l2(u: NodeField) -> float:
    return norm_lp(u, 2.0)


def node_gradient(u: NodeField) -> list[np.ndarray]:
    """Per-axis derivative at nodes: adjacent edge differences averaged,
    one-sided at the boundary."""
    g = u.grid
    out = []
    for k in range(g.dim):
        d = np.diff(u.values, axis=k) / g.h[k]
        dn = np.empty(g.shape)
        head = [slice(None)] * g.dim
        tail = [slice(None)] * g.dim
        inner = [slice(None)] * g.dim
        head[k] = slice(0, 1)
        tail[k] = slice(-1, None)
        inner[k] = slice(1, -1)
        lo = [slice(None)] * g.dim
        hi = [slice(None)] * g.dim
        lo[k] = slice(None, -1)
        hi[k] = slice(1, None)
        dn[tuple(head)] = d[tuple(head)]
        dn[tuple(tail)] = d[tuple(tail)]
        dn[tuple(inner)] = 0.5 * (d[tuple(lo)] + d[tuple(hi)])
        out.append(dn)
    return out


def node_gradient_magnitude(u: NodeField) -> np.ndarray:
    comps = node_gradient(u)
    return np.sqrt(sum(c * c for c in comps))


def w1p_norm(u: NodeField, p: float) -> float:
    """(integral |u|^p + integral |grad u|^p)^(1/p) with nodal gradient magnitudes."""
    if p < 1:
        raise ValueError("p must be >= 1")
    w = u.grid.node_weights()
    mag = node_gradient_magnitude(u)
    total = np.sum(w * np.abs(u.values) ** p) + np.sum(w * mag**p)
    return float(total ** (1.0 / p))


def edge_gradients(u: NodeField) -> list[tuple[np.ndarray, np.ndarray | None]]:
    """Per axis: (longitudinal difference, reconstructed transverse or None)."""
    g = u.grid
    out = []
    for k in range(g.dim):
        shape = tuple(n - 1 if j == k else n for j, n in enumerate(g.cells))
        out.append(tuple(None if d is None else (d @ u.flat).reshape(shape) for d in edge_stencil(g, k)))
    return out


def edge_squared_gradient(u: NodeField) -> list[np.ndarray]:
    """|grad u|^2 at the edges of each axis family."""
    out = []
    for d_long, d_trans in edge_gradients(u):
        s = d_long * d_long
        if d_trans is not None:
            s = s + d_trans * d_trans
        out.append(s)
    return out


def dirichlet_integral(u: NodeField) -> float:
    """integral |grad u|^2 using the exact edgewise pairing (u^T K u)."""
    g = u.grid
    total = 0.0
    wvecs = edge_weight_vectors(g)
    for k in range(g.dim):
        d = np.diff(u.values, axis=k) / g.h[k]
        total += float(np.sum(wvecs[k].reshape(d.shape) * d * d))
    return total


@functools.lru_cache(maxsize=None)
def _axis_difference_matrix(n: int, h: float) -> sp.csr_matrix:
    data = np.repeat([[-1.0 / h, 1.0 / h]], n - 1, axis=0).ravel()
    rows = np.repeat(np.arange(n - 1), 2)
    cols = np.vstack([np.arange(n - 1), np.arange(1, n)]).T.ravel()
    return sp.csr_matrix((data, (rows, cols)), shape=(n - 1, n))


@functools.lru_cache(maxsize=None)
def edge_weight_vectors(grid: Grid) -> tuple[np.ndarray, ...]:
    """Quadrature weight per edge (flattened C order), one array per axis."""
    if grid.dim == 1:
        return (np.full(grid.cells[0] - 1, grid.h[0]),)
    nx, ny = grid.cells
    hx, hy = grid.h
    wx = grid.axis_weights(0)
    wy = grid.axis_weights(1)
    w0 = np.kron(np.full(nx - 1, hx), wy)
    w1 = np.kron(wx, np.full(ny - 1, hy))
    return (w0, w1)


@functools.lru_cache(maxsize=None)
def gradient_matrices(grid: Grid) -> tuple[sp.csr_matrix, ...]:
    """Sparse longitudinal difference operators, one per axis, on flat values."""
    if grid.dim == 1:
        return (_axis_difference_matrix(grid.cells[0], grid.h[0]),)
    nx, ny = grid.cells
    dx = _axis_difference_matrix(nx, grid.h[0])
    dy = _axis_difference_matrix(ny, grid.h[1])
    return (
        sp.kron(dx, sp.identity(ny, format="csr"), format="csr"),
        sp.kron(sp.identity(nx, format="csr"), dy, format="csr"),
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
def edge_stencil(grid: Grid, axis: int) -> tuple[sp.csr_matrix, sp.csr_matrix | None]:
    """Sparse edge operators (D_l, D_t) of one axis family on flat node values.

    ``D_l`` is the longitudinal difference ``gradient_matrices(grid)[axis]``;
    ``D_t`` reconstructs the transverse derivative as the edge average of
    nodal central differences, i.e. the mean of the four neighboring
    transverse differences, with zero rows on the boundary. ``D_t`` is
    None in 1D.
    """
    d_long = gradient_matrices(grid)[axis]
    if grid.dim == 1:
        return d_long, None
    nx, ny = grid.cells
    if axis == 0:
        d_trans = sp.kron(_axis_average_matrix(nx), _axis_central_matrix(ny, grid.h[1]), format="csr")
    else:
        d_trans = sp.kron(_axis_central_matrix(nx, grid.h[0]), _axis_average_matrix(ny), format="csr")
    return d_long, d_trans


def _fmt(v: float) -> str:
    return format(float(v), ".17g")


def write_node_csv(u: NodeField, path) -> None:
    """CSV with header x[,y],value, nodes in row-major order, 17 significant digits."""
    g = u.grid
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        if g.dim == 1:
            fh.write("x,value\n")
            xs = g.axis_coords(0)
            for i in range(g.cells[0]):
                fh.write(f"{_fmt(xs[i])},{_fmt(u.values[i])}\n")
        else:
            fh.write("x,y,value\n")
            xs = g.axis_coords(0)
            ys = g.axis_coords(1)
            for i in range(g.cells[0]):
                for j in range(g.cells[1]):
                    fh.write(f"{_fmt(xs[i])},{_fmt(ys[j])},{_fmt(u.values[i, j])}\n")


def read_node_csv(path, grid: Grid) -> NodeField:
    """Read a node CSV written by ``write_node_csv`` onto the given grid."""
    raw = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if raw.shape[0] != grid.node_count or raw.shape[1] != grid.dim + 1:
        raise ValueError(
            f"csv holds {raw.shape[0]} rows of {raw.shape[1]} columns, "
            f"grid needs {grid.node_count} nodes in {grid.dim}D"
        )
    coords = np.stack(
        [m.reshape(-1) for m in np.meshgrid(*(grid.axis_coords(k) for k in range(grid.dim)), indexing="ij")],
        axis=1,
    )
    if not np.allclose(raw[:, : grid.dim], coords, rtol=0.0, atol=1e-12):
        raise ValueError("csv node coordinates do not match the grid")
    return NodeField.from_flat(grid, raw[:, grid.dim])


def write_edge_csv(q: EdgeField, path) -> None:
    """CSV of edge midpoints with header x[,y],axis,value."""
    g = q.grid
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        head = "x,axis,value\n" if g.dim == 1 else "x,y,axis,value\n"
        fh.write(head)
        for k in range(g.dim):
            comp = q.components[k]
            mids = [g.axis_coords(j) for j in range(g.dim)]
            mids[k] = 0.5 * (mids[k][:-1] + mids[k][1:])
            if g.dim == 1:
                for i, v in enumerate(comp):
                    fh.write(f"{_fmt(mids[0][i])},{k},{_fmt(v)}\n")
            else:
                for i in range(comp.shape[0]):
                    for j in range(comp.shape[1]):
                        fh.write(
                            f"{_fmt(mids[0][i])},{_fmt(mids[1][j])},{k},{_fmt(comp[i, j])}\n"
                        )
