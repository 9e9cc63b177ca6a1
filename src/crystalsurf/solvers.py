"""Newton solvers for the two decoupled scalar problems.

Density problem (limit semilinear equation):

    -lap rho + tau ln rho = g,   grad rho . nu = 0,

solved by ``solve_rho`` with damped Newton on s = ln rho - mean_w(g)/tau,
so the density is positive by construction and the residual differences
only the fluctuation of rho. Warm and cold solves are the same loop from
different starts. ``solve_rho_delta`` solves the paper's barrier
regularization -lap rho + delta rho + tau psi_delta(rho) = g for
delta in (0,1) by Newton on rho itself.

Height problem (convex variational equation):

    -div(F(|grad u|^2) grad u) - delta lap u + tau u = rhs,  grad u . nu = 0,

solved by minimizing the discrete energy

    J(u) = (1/dim) sum_edges W_e e(g_e) + (delta/2) |grad u|^2
           + (tau/2) u^2 - rhs u,

whose exact gradient and Hessian are assembled from the sparse edge
operators D_i of ``mesh.edge_stencil`` (the longitudinal D_l, then in
2D the transverse D_t) and the edge gradient samples z of
``mesh.edge_gradients``: the gradient is sum_i D_i^T (W F z_i) and the
Hessian sum_ij D_i^T diag(W h_ij) D_j, with h the edgewise energy
Hessian, in every dimension alike. The 1/dim factor compensates for
sampling the full edge gradient once per axis family. Strict convexity
of the edge energy makes the Hessian symmetric positive definite, so
Newton converges quadratically and the minimizer is unique. Newton runs
on the fluctuation u - mean(u), which keeps the rounding error of the
residual proportional to the fluctuation.

All three solves run one damped Newton loop, ``_damped_newton``, with
Armijo backtracking on the quadrature-weighted residual norm; each
passes its own linear solve for the Newton step. ``NewtonConfig`` sets
only the tolerance and the iteration cap; the line search constants are
fixed here.

Inner linear systems are symmetric positive definite and are solved by
SuperLU, which orders the columns by multiple minimum degree on A^T + A
(COLAMD orders for A^T A and fills more) and keeps its default threshold
pivoting. No solve calls ``pcg``, a Jacobi-preconditioned conjugate
gradient that raises on nonpositive curvature; the test suite runs it on
the Newton matrices to check that they are positive definite.

Each Newton matrix is assembled on a pattern fixed per grid, with no
sparse products: the density matrix K + diag(tau W/rho) adds to a copy of
the data of K at its cached diagonal positions, and the height matrix is
data = B concat(W h_ij) + delta K + tau W on the cached pattern of
``_hessian_pattern``, where the scatter matrix B holds every product
D_i[e, a] D_j[e, b] / dim of the edge operators.

A ``SolveReport`` holds only the Newton iteration count, the merit
history and the convergence flag, with the same meaning for every caller.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import mesh
from .energy import (
    ModelParams,
    energy_density,
    energy_hessian,
    flux_coefficient,
    log_barrier,
    log_barrier_slope,
)
from .mesh import Grid, NodeField

__all__ = [
    "NewtonConfig",
    "SolveReport",
    "SolverError",
    "pcg",
    "solve_rho_delta",
    "solve_rho",
    "solve_u",
    "apply_height_operator",
    "height_energy",
    "surface_energy",
]

_LOG_MAX = float(np.log(np.finfo(float).max))
_RHO_FLOOR = float(np.sqrt(np.finfo(float).tiny))  # density floor of the Newton matrix only
# Armijo line search: step shrink factor, sufficient decrease, backtracks per step
_ARMIJO_SHRINK = 0.5
_ARMIJO_DECREASE = 1e-4
_MAX_BACKTRACKS = 40


@dataclass
class NewtonConfig:
    """Newton iteration controls shared by the scalar solvers."""

    tol_residual: float = 1e-10
    max_iter: int = 100

    def __post_init__(self) -> None:
        if not 0.0 < self.tol_residual < np.inf:
            raise ValueError("tol_residual must be positive and finite")
        _require_int("max_iter", self.max_iter, 1)


def _require_int(name: str, value, minimum: int) -> None:
    """Raise ValueError unless ``value`` is an integer (not a bool) >= minimum."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < minimum:
        raise ValueError(f"{name} must be an integer >= {minimum}")


@dataclass
class SolveReport:
    """Iteration trace of one nonlinear solve: steps taken, the merit
    (residual norm) before each step and at the end, and convergence."""

    iterations: int = 0
    residual_history: list[float] = field(default_factory=list)
    converged: bool = False

    def to_dict(self) -> dict:
        return {
            "iterations": int(self.iterations),
            "residual_history": [float(r) for r in self.residual_history],
            "converged": bool(self.converged),
        }


class SolverError(RuntimeError):
    """Nonlinear solve failure; carries the partial iteration report."""

    def __init__(self, message: str, report: SolveReport | None = None, stage: str | None = None):
        super().__init__(message if stage is None else f"{stage}: {message}")
        self.report = report
        self.stage = stage


def pcg(matvec, b: np.ndarray, diag: np.ndarray, tol: float, maxiter: int) -> tuple[np.ndarray, int]:
    """Jacobi-preconditioned conjugate gradient for SPD systems.

    Raises SolverError on nonpositive curvature, which would contradict
    positive definiteness of the operator.
    """
    x = np.zeros_like(b)
    r = b.copy()
    minv = 1.0 / diag
    z = minv * r
    p = z.copy()
    rz = float(r @ z)
    bnorm = float(np.linalg.norm(b))
    if bnorm == 0.0:
        return x, 0
    for it in range(1, maxiter + 1):
        ap = matvec(p)
        pap = float(p @ ap)
        if pap <= 0.0:
            raise SolverError("conjugate gradient hit nonpositive curvature (matrix not SPD)")
        alpha = rz / pap
        x += alpha * p
        r -= alpha * ap
        if np.linalg.norm(r) <= tol * bnorm:
            return x, it
        z = minv * r
        rz_new = float(r @ z)
        p = z + (rz_new / rz) * p
        rz = rz_new
    raise SolverError(f"conjugate gradient failed to reach tolerance in {maxiter} iterations")


def _linear_solve(a: sp.csr_matrix, b: np.ndarray, report: SolveReport) -> np.ndarray:
    try:  # both Newton matrices are symmetric, so order by minimum degree on A^T + A
        lu = spla.splu(sp.csc_matrix(a), permc_spec="MMD_AT_PLUS_A")
    except RuntimeError as err:  # SuperLU reports an exactly singular factor this way
        raise SolverError(f"sparse factorization failed: {err}", report) from err
    return lu.solve(b)


def _weighted_norm(w: np.ndarray, r: np.ndarray) -> float:
    return float(np.sqrt(np.sum(w * r * r)))


def _damped_newton(x, residual, solve, w, target, cfg, report, name) -> np.ndarray:
    """Damped Newton with Armijo backtracking on the merit |residual|_w.

    Each step is ``solve(x, -w residual(x))``, the solve with W times
    the Jacobian of ``residual`` at x. Converged once the merit is at
    most ``target``, so a start within target is returned as is.
    ``report`` collects the trace.
    """
    res = residual(x)
    merit = _weighted_norm(w, res)
    for it in range(cfg.max_iter + 1):
        report.residual_history.append(merit)
        if merit <= target:
            report.converged = True
            return x
        if it == cfg.max_iter:
            break
        step = solve(x, -w * res)
        report.iterations += 1
        s = 1.0
        for _ in range(_MAX_BACKTRACKS + 1):
            trial = x + s * step
            with np.errstate(over="ignore"):  # an overflowing trial has merit inf and is backtracked
                res_t = residual(trial)
                merit_t = _weighted_norm(w, res_t)
            if merit_t <= (1.0 - _ARMIJO_DECREASE * s) * merit:
                x, res, merit = trial, res_t, merit_t
                break
            s *= _ARMIJO_SHRINK
        else:
            raise SolverError(f"{name} Newton line search failed", report)
    raise SolverError(f"{name} Newton did not converge in {cfg.max_iter} iterations", report)


# ---------------------------------------------------------------------------
# density problem
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _stiffness_diagonal(grid: Grid) -> np.ndarray:
    """Positions of the diagonal inside ``mesh.stiffness_matrix(grid).data``."""
    k = mesh.stiffness_matrix(grid)
    return np.flatnonzero(k.indices == np.repeat(np.arange(grid.node_count), np.diff(k.indptr)))


def _stiffness_plus_diagonal(grid: Grid, d: np.ndarray) -> sp.csr_matrix:
    """K + diag(d) on the pattern of K, which holds every diagonal entry."""
    k = mesh.stiffness_matrix(grid)
    data = k.data.copy()
    data[_stiffness_diagonal(grid)] += d
    return sp.csr_matrix((data, k.indices, k.indptr), shape=k.shape)


def solve_rho_delta(
    g: NodeField, tau: float, delta: float, cfg: NewtonConfig | None = None
) -> tuple[NodeField, SolveReport]:
    """Solve -lap rho + delta rho + tau psi_delta(rho) = g by damped Newton.

    The paper's regularized density problem, for tau >= 0 and delta in
    (0,1); the limit delta = 0 is ``solve_rho``. Starts from the constant
    exp(mean(g)/tau), clipped to [e^-80, e^80] (1 when tau = 0).
    """
    if tau < 0.0 or not 0.0 < delta < 1.0:
        raise ValueError("need tau >= 0 and delta in (0,1)")
    cfg = cfg or NewtonConfig()
    grid = g.grid
    k = mesh.stiffness_matrix(grid)
    w = mesh.mass_vector(grid)
    gv = g.flat
    gbar = float(np.sum(w * gv) / np.sum(w))
    rho = np.full(gv.size, np.exp(np.clip(gbar / tau, -80.0, 80.0)) if tau > 0 else 1.0)

    def residual(r):
        return (k @ r) / w + delta * r + tau * log_barrier(r, delta) - gv

    def solve(r, rhs):
        jac = _stiffness_plus_diagonal(grid, w * (delta + tau * log_barrier_slope(r, delta)))
        return _linear_solve(jac, rhs, report)

    report = SolveReport()
    target = cfg.tol_residual * (1.0 + _weighted_norm(w, gv))
    rho = _damped_newton(rho, residual, solve, w, target, cfg, report, "density")
    return NodeField.from_flat(grid, rho), report


def solve_rho(
    g: NodeField, tau: float, cfg: NewtonConfig | None = None, rho0: NodeField | None = None
) -> tuple[NodeField, SolveReport]:
    """Solve -lap rho + tau ln rho = g by Newton in the log variable.

    The unknown is s = ln rho - sigma0, with sigma0 = mean_w(g)/tau the
    log of the constant solution for the mean source and c = e^sigma0.
    The residual c K expm1(s)/w + tau s + tau sigma0 - g differences only
    the fluctuation expm1(s), so its rounding error does not grow like
    rho/h^2, and rho = c e^s is strictly positive by construction. A step
    solves the SPD system (K + diag(tau W/rho)) y = -W r and takes
    ds = y/rho, with rho floored at sqrt(tiny) where c e^s underflows: the
    exact Jacobian there is tau W alone, and the floor adds only
    K sqrt(tiny). A converged density that underflows to 0 at some node
    is a SolverError naming the underflow.

    Newton starts from s = ln rho0 - sigma0 when ``rho0`` is strictly
    positive (typically the density of a nearby source) and from s = 0
    otherwise. A failed warm start is retried from s = 0, and the report
    keeps both attempts' iterations and residuals. A warm start already
    within tolerance is returned unchanged. Raises SolverError before any
    exponential is taken when |sigma0| exceeds ln(max float).
    """
    if tau <= 0.0:
        raise ValueError("tau must be positive for the limit density problem")
    cfg = cfg or NewtonConfig()
    grid = g.grid
    k = mesh.stiffness_matrix(grid)
    w = mesh.mass_vector(grid)
    gv = g.flat
    sigma0 = float(np.sum(w * gv) / np.sum(w)) / tau
    if not abs(sigma0) <= _LOG_MAX:
        kind = "underflows" if sigma0 < 0.0 else "overflows"
        raise SolverError(
            f"density {kind}: |mean(g)/tau| = {abs(sigma0):.6g} exceeds ln(max float) = {_LOG_MAX:.6g}"
        )
    c = np.exp(sigma0)
    shift = tau * sigma0 - gv

    def residual(s):
        return c * (k @ np.expm1(s)) / w + tau * s + shift

    def solve(s, rhs):
        rho = np.maximum(c * np.exp(s), _RHO_FLOOR)
        return _linear_solve(_stiffness_plus_diagonal(grid, tau * w / rho), rhs, report) / rho

    report = SolveReport()
    target = cfg.tol_residual * (1.0 + _weighted_norm(w, gv))
    s = None
    if rho0 is not None and np.min(rho0.values) > 0.0:
        start = np.log(rho0.flat) - sigma0
        try:
            s = _damped_newton(start, residual, solve, w, target, cfg, report, "density")
        except SolverError:
            pass  # the failed attempt stays in the report
        else:
            if s is start:
                return NodeField.from_flat(grid, rho0.flat.copy()), report
    if s is None:
        s = _damped_newton(np.zeros(gv.size), residual, solve, w, target, cfg, report, "density")
    rho = c * np.exp(s)
    if not np.min(rho) > 0.0:
        raise SolverError(
            f"density underflows: rho = e^{np.min(s) + sigma0:.6g} is below the smallest float "
            f"at {np.count_nonzero(rho == 0.0)} of {rho.size} nodes",
            report,
        )
    return NodeField.from_flat(grid, rho), report


# ---------------------------------------------------------------------------
# height problem
# ---------------------------------------------------------------------------


def surface_energy(u: NodeField, params: ModelParams) -> float:
    """Discrete integral of the smoothed energy density of grad u."""
    grid = u.grid
    total = 0.0
    for z, wvec in zip(mesh.edge_gradients(u), mesh.edge_weight_vectors(grid)):
        total += float(np.sum(wvec * energy_density(z, params).ravel()))
    return total / grid.dim


def height_energy(u: NodeField, params: ModelParams, rhs: NodeField) -> float:
    """Objective minimized by ``solve_u``."""
    grid = u.grid
    k = mesh.stiffness_matrix(grid)
    w = mesh.mass_vector(grid)
    uf = u.flat
    quad = 0.5 * params.delta * float(uf @ (k @ uf)) + 0.5 * params.tau * float(
        np.sum(w * uf * uf)
    )
    return surface_energy(u, params) + quad - float(np.sum(w * rhs.flat * uf))


@functools.lru_cache(maxsize=None)
def _edge_operators(grid: Grid) -> tuple:
    """Per axis family, (D, D^T) for each operator of ``mesh.edge_stencil``."""
    return tuple(
        tuple((d, sp.csr_matrix(d.T)) for d in mesh.edge_stencil(grid, axis))
        for axis in range(grid.dim)
    )


class _HessianPattern(NamedTuple):
    """Fixed CSR pattern of the height Newton matrix on one grid.

    ``scatter`` (B) maps the edge coefficients concat(W h_ij), per axis
    family and operator pair (i, j) in order, to the pattern's data, with
    the 1/dim factor folded in. ``k_pos`` and ``diag`` are the positions
    of the entries of K and of the diagonal inside that data.
    """

    indptr: np.ndarray
    indices: np.ndarray
    scatter: sp.csc_matrix
    k_pos: np.ndarray
    diag: np.ndarray


def _edge_pairs(di: sp.csr_matrix, dj: sp.csr_matrix) -> tuple[np.ndarray, np.ndarray]:
    """The terms of D_i^T diag(c) D_j: for each edge e, every pair of a
    nonzero of row e of D_i with one of row e of D_j, grouped by edge.
    Returns the positions of the pairs' entries in ``di.data`` and
    ``dj.data``."""
    ni = np.diff(di.indptr)
    reps = np.repeat(np.diff(dj.indptr), ni)
    first = np.cumsum(reps) - reps
    return (
        np.repeat(np.arange(di.nnz), reps),
        np.repeat(np.repeat(dj.indptr[:-1], ni) - first, reps) + np.arange(reps.sum()),
    )


@functools.lru_cache(maxsize=None)
def _hessian_pattern(grid: Grid) -> _HessianPattern:
    """Pattern and scatter matrix of the height Newton matrix, built at
    the first height solve on a grid, one operator pair at a time with
    int32 positions."""
    n = grid.node_count
    blocks = [(di, dj) for ops in _edge_operators(grid) for di, _ in ops for dj, _ in ops]
    # sum |D_i|^T |D_j| adds positive terms only, so no entry cancels out of the pattern
    pattern = sp.csr_matrix(sum(abs(di).T @ abs(dj) for di, dj in blocks)).sorted_indices()
    flat = np.repeat(np.arange(n, dtype=np.int64), np.diff(pattern.indptr)) * n + pattern.indices

    def position(rows, cols):  # index of each entry (rows, cols) in the pattern's data
        return np.searchsorted(flat, rows.astype(np.int64) * n + cols)

    per_edge = np.concatenate([np.diff(di.indptr) * np.diff(dj.indptr) for di, dj in blocks])
    columns = np.r_[0, np.cumsum(per_edge)].astype(np.int32)  # one column of B per edge of each pair
    rows = np.empty(columns[-1], dtype=np.int32)
    vals = np.empty(columns[-1])
    start = 0
    for di, dj in blocks:
        ti, tj = _edge_pairs(di, dj)
        rows[start : start + ti.size] = position(di.indices[ti], dj.indices[tj])
        vals[start : start + ti.size] = di.data[ti] * dj.data[tj] / grid.dim
        start += ti.size
    k = mesh.stiffness_matrix(grid)
    nodes = np.arange(n)
    return _HessianPattern(
        indptr=pattern.indptr,
        indices=pattern.indices,
        scatter=sp.csc_matrix((vals, rows, columns), shape=(pattern.nnz, per_edge.size)),
        k_pos=position(np.repeat(nodes, np.diff(k.indptr)), k.indices),
        diag=position(nodes, nodes),
    )


def _energy_gradient_vec(u: NodeField, params: ModelParams) -> np.ndarray:
    """Exact gradient of the edge-energy sum: sum over operators D^T (W F z)."""
    grid = u.grid
    out = np.zeros(grid.node_count)
    for ops, z, wvec in zip(_edge_operators(grid), mesh.edge_gradients(u), mesh.edge_weight_vectors(grid)):
        f = flux_coefficient(np.sum(z * z, axis=-1), params)
        for i, (_, dt) in enumerate(ops):
            out += dt @ (wvec * (f * z[..., i]).ravel())
    return out / grid.dim


def _height_newton_matrix(u: NodeField, params: ModelParams) -> sp.csr_matrix:
    """W times the Jacobian of ``apply_height_operator`` at u: the exact
    energy Hessian sum_ij D_i^T diag(W h_ij) D_j / dim plus delta K +
    tau W (sparse, symmetric, positive definite), assembled on the fixed
    pattern of ``_hessian_pattern`` without sparse products."""
    grid = u.grid
    pat = _hessian_pattern(grid)
    coef = []
    for z, wvec in zip(mesh.edge_gradients(u), mesh.edge_weight_vectors(grid)):
        h = energy_hessian(z, params).reshape(wvec.size, -1)
        coef += [wvec * h[:, m] for m in range(h.shape[1])]
    data = pat.scatter @ np.concatenate(coef)
    data[pat.k_pos] += params.delta * mesh.stiffness_matrix(grid).data
    data[pat.diag] += params.tau * mesh.mass_vector(grid)
    return sp.csr_matrix((data, pat.indices, pat.indptr), shape=(grid.node_count, grid.node_count))


def apply_height_operator(u: NodeField, params: ModelParams) -> NodeField:
    """Nodewise discrete operator -div(F(|grad u|^2) grad u) - delta lap u + tau u.

    The divergence-form term is the weighted dual of the edge-energy
    gradient, so its weighted node sum vanishes identically; manufactured
    sources built from this function are recovered exactly by ``solve_u``.
    """
    grid = u.grid
    k = mesh.stiffness_matrix(grid)
    w = mesh.mass_vector(grid)
    vals = (_energy_gradient_vec(u, params) + params.delta * (k @ u.flat)) / w + params.tau * u.flat
    return NodeField.from_flat(grid, vals)


def solve_u(
    rhs: NodeField,
    params: ModelParams,
    cfg: NewtonConfig | None = None,
    u0: NodeField | None = None,
) -> tuple[NodeField, SolveReport]:
    """Minimize the discrete height energy; Newton with Armijo backtracking.

    Requires tau > 0: the zeroth-order term makes the objective coercive
    and the same tau smooths the flux coefficient, which is singular at
    flat gradients when tau = 0. Sharp-limit quantities are reported by
    the coupled layer instead of being solved for directly.

    ``u0`` is a warm start: Newton runs from it first and, if that
    fails, again from the constant start, with both attempts in the
    returned report.
    """
    cfg = cfg or NewtonConfig()
    if params.tau <= 0.0:
        raise SolverError(
            "the height solve requires tau > 0 (flux coefficient is singular at flat states)"
        )
    report = SolveReport()
    if u0 is not None:
        try:
            return _height_newton(rhs, params, cfg, u0.flat, report), report
        except SolverError:
            pass  # the failed attempt stays in the report
    grid = rhs.grid
    mean = float(np.sum(mesh.mass_vector(grid) * rhs.flat)) / (params.tau * grid.volume)
    return _height_newton(rhs, params, cfg, np.full(grid.node_count, mean), report), report


def _height_newton(
    rhs: NodeField, params: ModelParams, cfg: NewtonConfig, start: np.ndarray, report: SolveReport
) -> NodeField:
    """Newton on the fluctuation v = u - c, c the weighted mean of ``start``.

    The operator only sees gradients of u plus tau u, so A(c + v) =
    A(v) + tau c; evaluating it on the small fluctuation instead of on u
    keeps the rounding error of the differences proportional to |v|, not
    |u|, which would otherwise put a floor on the merit above the
    tolerance at small tau and fine grids. Iterations and residuals are
    appended to ``report``.
    """
    grid = rhs.grid
    w = mesh.mass_vector(grid)
    rv = rhs.flat
    c = float(np.sum(w * start) / np.sum(w))
    shift = params.tau * c - rv

    def residual(vec):
        return apply_height_operator(NodeField.from_flat(grid, vec), params).flat + shift

    def solve(vec, b):
        return _linear_solve(_height_newton_matrix(NodeField.from_flat(grid, vec), params), b, report)

    target = cfg.tol_residual * (1.0 + _weighted_norm(w, rv))
    v = _damped_newton(start - c, residual, solve, w, target, cfg, report, "height")
    return NodeField.from_flat(grid, c + v)
