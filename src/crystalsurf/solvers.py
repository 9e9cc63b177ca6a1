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
on the fluctuation about the solution's exact mean mean_w(rhs)/tau,
which keeps the rounding error of the residual proportional to the
fluctuation.

One Newton core, ``_damped_newton``, owns the starts (a warm start, when
given, then the cold one), the target, the Armijo line search on the
quadrature-weighted residual norm and the ``SolveReport`` of every
solve; each solve passes its residual and its linear solve.
``NewtonConfig`` sets only the tolerance and the iteration cap; the line
search constants are fixed here.

Inner linear systems are symmetric positive definite. On a 1D grid
every Newton matrix lies on the tridiagonal pattern of K, and
``_linear_solve`` solves it directly with LAPACK's ``dptsv`` (L D L^T
in O(n), no pivoting) and holds no factor; no 2D matrix has that
pattern. Any other matrix goes to SuperLU, which orders the columns by
multiple minimum degree on A^T + A (COLAMD orders for A^T A and fills
more) and keeps its default threshold pivoting. ``_linear_solve`` keeps
the last factor of each Newton family, "rho" and "u", in a ``factors``
cache (one per ``coupled.solve_coupled`` call or standalone solve) and
solves by ``pcg``, conjugate gradient on the Newton matrix
preconditioned with that lagged factor, to relative residual 1e-10 in
at most ``_PCG_MAX_ITER`` iterations. When CG fails (the cap, or
nonpositive curvature), or no factor is held, the step runs CG with the
family's own preconditioner, and when that fails too, the Newton matrix
is factored, the solve is direct and the cache keeps the factor. A
tridiagonal matrix on which ``dptsv`` meets a nonpositive pivot (it is
not numerically SPD) takes that path with no preconditioner of its
own. The 2D density family preconditions with ``_cosine_solver``, a
solve of K + cbar W by two DCT-Is (real FFTs of the even extension,
from ``numpy.fft``) in O(n log n) with no factor (Concus & Golub 1973):
on this node-centred trapezoid grid W^-1 K is the reflective Neumann
Laplacian, which the tensor cosine modes diagonalize exactly, and
cbar = tau mean_w(1/rho) matches the Newton matrix K + diag(tau W/rho)
on the constant mode. When cbar is not finite or lies below the
rounding of K, the step goes straight to the factor. The 2D height
family factors the Hessian's longitudinal part P = sum D_l^T
diag(W h_ll / dim) D_l + delta K + tau W, which has the 5-point pattern
of K where the 2D Hessian has 21 points and about a fifth of its LU
fill, and runs CG with it. In 1D, P is the Newton matrix itself.

Below the public ``NodeField`` API the solvers run on flat float64
arrays. Each solve fetches its grid's operators (``mesh.operators``)
and patterns once, so its Newton loop wraps no field and makes no
per-grid cache lookup. Each Newton matrix is its data on a symmetric
pattern cached per grid (``_Matrix`` on a ``_Pattern``), assembled with
no sparse products: the density matrix K + diag(tau W/rho) adds to a
copy of the data of K at its cached diagonal positions, and the height
matrix is data = B concat(W h_ij) + delta K + tau W on the cached
pattern of ``_hessian_pattern``, where the scatter matrix B holds every
product D_i[e, a] D_j[e, b] / dim of the edge operators. P's data on
the pattern of K comes from B's (D_l, D_l) columns and the same energy
Hessian samples. ``_linear_solve`` hands a tridiagonal matrix's data
straight to ``dptsv`` and builds the CSC matrix that SuperLU and CG read
only on their paths, so a 1D solve builds none.

A ``SolveReport`` holds an iteration count, a residual history and a
convergence flag: here Newton steps and the merit before each step and at
the end of each attempt. ``coupled.solve_coupled``'s outer report counts
outer steps and records one equation residual after each.
"""

from __future__ import annotations

import functools
from collections.abc import Callable
from dataclasses import asdict, dataclass, field
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import lapack

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
_EPS = float(np.finfo(float).eps)
_RHO_FLOOR = float(np.sqrt(np.finfo(float).tiny))  # density floor of the Newton matrix only
# Armijo line search: step shrink factor, sufficient decrease, backtracks per step
_ARMIJO_SHRINK = 0.5
_ARMIJO_DECREASE = 1e-4
_MAX_BACKTRACKS = 40
_PCG_MAX_ITER = 20  # lagged-factor CG iterations before a preconditioner is factored afresh


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
        return asdict(self)


class SolverError(RuntimeError):
    """Nonlinear solve failure; carries the partial iteration report, an
    empty one when the solve failed before its first iteration."""

    def __init__(self, message: str, report: SolveReport | None = None):
        super().__init__(message)
        self.report = report if report is not None else SolveReport()


def pcg(matvec, b: np.ndarray, precond, tol: float, maxiter: int) -> tuple[np.ndarray, int]:
    """Preconditioned conjugate gradient for SPD systems: ``precond(r)``
    applies the inverse of the preconditioner to a residual.

    Raises SolverError on nonpositive curvature, which would contradict
    positive definiteness of the operator, and when ``maxiter``
    iterations do not reach the relative residual ``tol``.
    """
    x = np.zeros_like(b)
    bnorm = float(np.linalg.norm(b))
    if bnorm == 0.0:
        return x, 0
    r = b.copy()
    z = precond(r)
    p = z.copy()
    rz = float(r @ z)
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
        z = precond(r)
        rz_new = float(r @ z)
        p = z + (rz_new / rz) * p
        rz = rz_new
    raise SolverError(f"conjugate gradient failed to reach tolerance in {maxiter} iterations")


class _Pattern(NamedTuple):
    """CSC ``indptr`` and ``indices`` of a symmetric n-by-n sparse
    pattern, and whether it is the full tridiagonal pattern with sorted
    rows, the pattern of a 1D K, whose data holds the diagonal at [::3]
    and the subdiagonal at [1::3]."""

    indptr: np.ndarray
    indices: np.ndarray
    tridiagonal: bool


def _pattern(indptr: np.ndarray, indices: np.ndarray) -> _Pattern:
    """The ``_Pattern`` of a CSC pattern; built once per grid and family."""
    n = indptr.size - 1
    cols = np.arange(n)
    tri_ptr = np.r_[0, 3 * cols[1:] - 1, 3 * n - 2]
    tri_ind = np.stack([cols - 1, cols, cols + 1], axis=1).ravel()[1:-1]
    tridiagonal = indices.size == tri_ind.size and (indptr == tri_ptr).all() and (indices == tri_ind).all()
    return _Pattern(indptr, indices, bool(tridiagonal))


class _Matrix(NamedTuple):
    """A Newton matrix as its CSC data on a cached ``_Pattern``."""

    data: np.ndarray
    pattern: _Pattern

    def csc(self) -> sp.csc_matrix:
        n = self.pattern.indptr.size - 1
        return sp.csc_matrix((self.data, self.pattern.indices, self.pattern.indptr), shape=(n, n))


def _linear_solve(
    a: _Matrix,
    b: np.ndarray,
    factors: dict,
    family: str,
    p: _Matrix | Callable[[np.ndarray], np.ndarray] | None = None,
) -> np.ndarray:
    """Solve a x = b for a symmetric positive definite a.

    On the tridiagonal pattern of a 1D K the solve is LAPACK's ``dptsv``
    on the diagonal and subdiagonal read straight from ``a.data``, an
    L D L^T factorization without pivoting; no CSC matrix is built and
    the ``factors`` cache is not touched. When ``dptsv`` meets a
    nonpositive pivot (a is not numerically SPD), or a has any other
    pattern, a is built as CSC and CG runs preconditioned with the lagged
    factor of ``family`` when the cache holds one. Otherwise, or when CG
    fails, CG runs with ``p``, an SPD operator close to a in spectrum: a
    function applying its inverse is used as is, a matrix is factored
    and the cache keeps that factor. When ``p`` is a (None means a) or
    that CG fails too, the cache keeps a fresh factor of a and the solve
    is direct."""
    if a.pattern.tridiagonal:
        x, info = lapack.dptsv(a.data[::3], a.data[1::3], b)[2:]
        if info == 0:
            return x
    if p is a:
        p = None
    a = a.csc()
    if family in factors:
        try:
            return pcg(a.dot, b, factors[family].solve, 1e-10, _PCG_MAX_ITER)[0]
        except SolverError:
            pass  # the lagged factor has gone stale: refactor
    if p is not None:
        if not callable(p):
            factors[family] = _factor(p.csc())
            p = factors[family].solve
        try:
            return pcg(a.dot, b, p, 1e-10, _PCG_MAX_ITER)[0]
        except SolverError:
            pass  # p is too far from a: solve with a factor of a itself
    factors[family] = lu = _factor(a)
    return lu.solve(b)


def _factor(a: sp.csc_matrix):
    """SuperLU factor of a symmetric matrix, ordered by minimum degree on A^T + A."""
    try:
        return spla.splu(a, permc_spec="MMD_AT_PLUS_A")
    except RuntimeError as err:  # SuperLU reports an exactly singular factor this way
        raise SolverError(f"sparse factorization failed: {err}") from err


def _weighted_norm(w: np.ndarray, r: np.ndarray) -> float:
    return float(np.sqrt(np.sum(w * r * r)))


def _damped_newton(starts, residual, solve, w, source, cfg, name) -> tuple:
    """Run ``_newton_attempt`` from each of ``starts`` until one reaches
    tol_residual (1 + |source|_w); return it and the report of every
    attempt, which is attached to the last SolverError if none does."""
    cfg = cfg or NewtonConfig()
    target = cfg.tol_residual * (1.0 + _weighted_norm(w, source))
    report = SolveReport()
    for x in starts:
        try:
            return _newton_attempt(x, residual, solve, w, target, cfg, report, name), report
        except SolverError as err:
            failure = err  # the failed attempt stays in the report
    failure.report = report
    raise failure


def _newton_attempt(x, residual, solve, w, target, cfg, report, name) -> np.ndarray:
    """Damped Newton with Armijo backtracking on the merit |residual|_w.

    Each step is ``solve(x, -w residual(x))``, the solve with W times
    the Jacobian of ``residual`` at x. Converged once the merit is at
    most ``target``, so a start within target is returned as is.
    Iterations and merits are appended to ``report``.
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
            raise SolverError(f"{name} Newton line search failed")
    raise SolverError(f"{name} Newton did not converge in {cfg.max_iter} iterations")


# ---------------------------------------------------------------------------
# density problem
# ---------------------------------------------------------------------------


class _Stiffness(NamedTuple):
    """K of one grid as a Newton matrix base: its data (K is symmetric,
    so its CSR arrays are also its CSC arrays), its ``_Pattern``, which
    holds every diagonal entry, and the positions of the diagonal in the
    data."""

    data: np.ndarray
    pattern: _Pattern
    diagonal: np.ndarray


@functools.lru_cache(maxsize=None)
def _stiffness(grid: Grid) -> _Stiffness:
    k = mesh.stiffness_matrix(grid)
    diagonal = np.flatnonzero(k.indices == np.repeat(np.arange(grid.node_count), np.diff(k.indptr)))
    return _Stiffness(k.data, _pattern(k.indptr, k.indices), diagonal)


def _stiffness_plus_diagonal(k: _Stiffness, d: np.ndarray) -> _Matrix:
    """K + diag(d) on the pattern of K, in fresh data."""
    data = k.data.copy()
    data[k.diagonal] += d
    return _Matrix(data, k.pattern)


@functools.lru_cache(maxsize=None)
def _cosine_spectrum(grid: Grid) -> tuple[np.ndarray, float]:
    """Eigenvalues of W^-1 K on the cosine modes, and the scale of ``_dct1``.

    W^-1 K is the reflective Neumann Laplacian, the sum over axes of the
    1D operator (2 u_i - u_i-1 - u_i+1)/h^2 with ghosts u_-1 = u_1 and
    u_n = u_n-2, so the tensor cosine modes prod cos(pi i_a k_a / N_a),
    N_a = n_a - 1, are its eigenvectors with eigenvalues
    sum_a (2 sin(pi k_a / (2 N_a)) / h_a)^2, returned with shape
    ``grid.shape``. ``_dct1`` applied twice is prod 2 N_a times the
    identity."""
    lam = np.zeros(())
    for n, h in zip(grid.cells, grid.h):
        lam = np.add.outer(lam, (2.0 * np.sin(0.5 * np.pi * np.arange(n) / (n - 1)) / h) ** 2)
    return lam, float(np.prod([2 * (n - 1) for n in grid.cells]))


def _dct1(x: np.ndarray) -> np.ndarray:
    """Unnormalized DCT-I along every axis, y_k = x_0 + (-1)^k x_N +
    2 sum_0<i<N x_i cos(pi i k / N): the real FFT of the even extension
    x_0 .. x_N .. x_1, whose imaginary part vanishes."""
    for axis in range(x.ndim):
        inner = (slice(None),) * axis + (slice(-2, 0, -1),)
        x = np.fft.rfft(np.concatenate([x, x[inner]], axis=axis), axis=axis).real
    return x


def _cosine_solver(grid: Grid, c: float) -> Callable[[np.ndarray], np.ndarray]:
    """(K + cW)^-1, for c > 0, as a function applied in O(n log n) with
    no factorization (Concus & Golub 1973).

    With T the DCT-I of ``_dct1`` and L the spectrum of W^-1 K,
    (K + cW)^-1 = T diag(1 / (prod 2 N_a (L + c))) T W^-1: the cosine
    modes diagonalize W^-1 K (``_cosine_spectrum``) and T^2 = prod 2 N_a.
    The operator is symmetric positive definite.
    """
    lam, scale = _cosine_spectrum(grid)
    inv = 1.0 / (scale * (lam + c))
    w = mesh.mass_vector(grid).reshape(grid.shape)

    def solve(b: np.ndarray) -> np.ndarray:
        return _dct1(inv * _dct1(b.reshape(grid.shape) / w)).reshape(-1)

    return solve


def _cosine_preconditioner(grid: Grid, d: np.ndarray) -> Callable[[np.ndarray], np.ndarray] | None:
    """``_cosine_solver`` of K + cbar W, cbar = sum d / sum W, for the
    Newton matrix K + diag(d) of a 2D grid: both have the same constant
    mode. None in 1D, where a Newton matrix that ``dptsv`` rejects is
    factored, and when cbar is not finite or not above eps times the
    largest eigenvalue of W^-1 K (tau W/rho underflows to 0 for rho near
    e^709, and lies below the rounding of K from rho near e^25 at tau 0.1
    on 33^2): the constant mode is then lost to rounding, CG cannot
    resolve it and its iterates grow like 1/cbar, so the caller factors
    instead."""
    if grid.dim == 1:
        return None
    with np.errstate(over="ignore"):
        cbar = float(np.sum(d)) / float(np.sum(mesh.mass_vector(grid)))
    if not _EPS * np.max(_cosine_spectrum(grid)[0]) < cbar < np.inf:
        return None
    return _cosine_solver(grid, cbar)


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
    ops, stiff = mesh.operators(g.grid), _stiffness(g.grid)
    k, w = ops.k, ops.w
    gv = g.flat
    gbar = float(np.sum(w * gv) / np.sum(w))
    rho = np.full(gv.size, np.exp(np.clip(gbar / tau, -80.0, 80.0)) if tau > 0 else 1.0)
    factors = {}

    def residual(r):
        return (k @ r) / w + delta * r + tau * log_barrier(r, delta) - gv

    def solve(r, rhs):
        jac = _stiffness_plus_diagonal(stiff, w * (delta + tau * log_barrier_slope(r, delta)))
        return _linear_solve(jac, rhs, factors, "rho")

    rho, report = _damped_newton([rho], residual, solve, w, gv, cfg, "density")
    return NodeField.from_flat(g.grid, rho), report


def solve_rho(
    g: NodeField,
    tau: float,
    cfg: NewtonConfig | None = None,
    rho0: NodeField | None = None,
    factors: dict | None = None,
) -> tuple[NodeField, SolveReport]:
    """Solve -lap rho + tau ln rho = g by Newton in the log variable.

    The unknown is s = ln rho - sigma0, with sigma0 = mean_w(g)/tau the
    log of the constant solution for the mean source and c = e^sigma0.
    The residual (c K expm1(s)/w + tau s + tau sigma0 - g)/tau differences
    only the fluctuation expm1(s), so its rounding error does not grow
    like rho/h^2, and rho = c e^s is strictly positive by construction.
    Divided by tau it is in units of ln rho, the height equation's
    source, so the target tol (1 + |g/tau|_w) bounds the error of ln rho,
    not of tau ln rho. A step solves the SPD system
    (K + diag(tau W/rho)) y = -W tau r and takes ds = y/rho, with rho
    floored at sqrt(tiny) where c e^s underflows: the exact Jacobian
    there is tau W alone, and the floor adds only K sqrt(tiny). A
    converged density that underflows to 0 at some node is a SolverError
    naming the underflow.

    Newton starts from s = ln rho0 - sigma0 when ``rho0`` is strictly
    positive (typically the density of a nearby source) and from s = 0
    otherwise. A failed warm start is retried from s = 0, and the report
    keeps both attempts' iterations and residuals. A warm start already
    within tolerance is returned unchanged. Raises SolverError before any
    exponential is taken when |sigma0| exceeds ln(max float).
    ``factors`` is a linear-solve cache (``_linear_solve``), family "rho";
    None gives the solve a cache of its own. In 2D each step runs CG
    preconditioned with the cosine solve of K + cbar W,
    cbar = tau mean_w(1/rho) (``_cosine_preconditioner``), and the cache
    gets a factor only when that CG fails or cbar is out of range. A 1D
    step solves its tridiagonal matrix with ``dptsv`` and factors only
    when that meets a nonpositive pivot.
    """
    if tau <= 0.0:
        raise ValueError("tau must be positive for the limit density problem")
    grid = g.grid
    ops, stiff = mesh.operators(grid), _stiffness(grid)
    k, w = ops.k, ops.w
    gv = g.flat
    sigma0 = float(np.sum(w * gv) / np.sum(w)) / tau
    if not abs(sigma0) <= _LOG_MAX:
        kind = "underflows" if sigma0 < 0.0 else "overflows"
        raise SolverError(
            f"density {kind}: |mean(g)/tau| = {abs(sigma0):.6g} exceeds ln(max float) = {_LOG_MAX:.6g}"
        )
    c = np.exp(sigma0)
    shift = tau * sigma0 - gv
    factors = {} if factors is None else factors

    def residual(s):  # in units of ln rho
        return (c * (k @ np.expm1(s)) / w + tau * s + shift) / tau

    def solve(s, rhs):
        rho = np.maximum(c * np.exp(s), _RHO_FLOOR)
        d = tau * w / rho
        jac = _stiffness_plus_diagonal(stiff, d)
        return tau * _linear_solve(jac, rhs, factors, "rho", _cosine_preconditioner(grid, d)) / rho

    warm = rho0 is not None and np.min(rho0.values) > 0.0
    starts = ([np.log(rho0.flat) - sigma0] if warm else []) + [np.zeros(gv.size)]
    s, report = _damped_newton(starts, residual, solve, w, gv / tau, cfg, "density")
    if warm and s is starts[0]:  # a warm start within target is returned unchanged
        return NodeField.from_flat(grid, rho0.flat.copy()), report
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
    ops = mesh.operators(u.grid)
    total = 0.0
    for z, wvec in zip(ops.edge_samples(u.flat), ops.edge_weights):
        total += float(np.sum(wvec * energy_density(z, params)))
    return total / u.grid.dim


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


class _HessianPattern(NamedTuple):
    """Fixed symmetric pattern of the height Newton matrix on one grid.

    ``scatter`` (B) maps the edge coefficients concat(W h_ij), per axis
    family and operator pair (i, j) in order, to the pattern's data, with
    the 1/dim factor folded in. ``k_pos`` and ``diag`` are the positions
    of the entries of K and of the diagonal inside that data.
    ``longitudinal`` is B's (0, 0) columns, the pair (D_l, D_l) of each
    axis family, read at ``k_pos``: it maps concat(W h_ll) to the data of
    sum D_l^T diag(W h_ll / dim) D_l on the pattern of K, where all of
    that sum lies. ``stiffness`` is the grid's ``_Stiffness``, the base
    of that longitudinal part.
    """

    pattern: _Pattern
    scatter: sp.csc_matrix
    k_pos: np.ndarray
    diag: np.ndarray
    longitudinal: sp.csc_matrix
    stiffness: _Stiffness


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
    stencils = [mesh.edge_stencil(grid, axis) for axis in range(grid.dim)]
    blocks = [(di, dj) for ops in stencils for di in ops for dj in ops]
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
    scatter = sp.csc_matrix((vals, rows, columns), shape=(pattern.nnz, per_edge.size))
    k = mesh.stiffness_matrix(grid)
    nodes = np.arange(n)
    k_pos = position(np.repeat(nodes, np.diff(k.indptr)), k.indices)
    # (D_l, D_l) is the first of the len(ops)^2 column blocks of each axis family, one column per edge
    starts = np.cumsum([0] + [len(ops) ** 2 * ops[0].shape[0] for ops in stencils])
    ll = np.concatenate([np.arange(s, s + ops[0].shape[0]) for s, ops in zip(starts, stencils)])
    return _HessianPattern(
        pattern=_pattern(pattern.indptr, pattern.indices),
        scatter=scatter,
        k_pos=k_pos,
        diag=position(nodes, nodes),
        longitudinal=sp.csc_matrix(scatter[:, ll][k_pos]),
        stiffness=_stiffness(grid),
    )


def _energy_gradient(ops: mesh.GridOperators, v: np.ndarray, params: ModelParams) -> np.ndarray:
    """Exact gradient of the edge-energy sum at the flat heights v: sum
    over operators D^T (W F z)."""
    out = np.zeros(v.size)
    for z, wvec, adjoints in zip(ops.edge_samples(v), ops.edge_weights, ops.adjoints):
        f = flux_coefficient(np.sum(z * z, axis=-1), params)
        for i, dt in enumerate(adjoints):
            out += dt @ (wvec * (f * z[:, i]))
    return out / ops.grid.dim


def _height_newton_matrices(
    ops: mesh.GridOperators, pat: _HessianPattern, v: np.ndarray, params: ModelParams
) -> tuple[_Matrix, _Matrix]:
    """W times the Jacobian of ``apply_height_operator`` at the flat
    heights v, and its longitudinal part, the preconditioner of
    ``solve_u``.

    The first is the exact energy Hessian sum_ij D_i^T diag(W h_ij) D_j
    / dim plus delta K + tau W (sparse, symmetric, positive definite),
    assembled on the fixed symmetric pattern ``pat`` of ``_hessian_pattern``
    without sparse products. The second, P = sum D_l^T diag(W h_ll / dim)
    D_l + delta K + tau W, sits on the 5-point pattern of K and is built
    from the same energy Hessian samples; a 1D edge family has no
    transverse operator, so there P is the first matrix itself.
    """
    coef = []
    for z, wvec in zip(ops.edge_samples(v), ops.edge_weights):
        h = energy_hessian(z, params).reshape(wvec.size, -1)
        coef += [wvec * h[:, m] for m in range(h.shape[1])]
    data = pat.scatter @ np.concatenate(coef)
    data[pat.k_pos] += params.delta * ops.k.data
    data[pat.diag] += params.tau * ops.w
    hess = _Matrix(data, pat.pattern)
    dim = ops.grid.dim
    if dim == 1:
        return hess, hess
    # W h_ll is the first of the dim^2 coefficients of each axis family
    lon = pat.longitudinal @ np.concatenate(coef[:: dim**2]) + params.delta * ops.k.data
    lon[pat.stiffness.diagonal] += params.tau * ops.w
    return hess, _Matrix(lon, pat.stiffness.pattern)


def _height_operator(ops: mesh.GridOperators, v: np.ndarray, params: ModelParams) -> np.ndarray:
    return (_energy_gradient(ops, v, params) + params.delta * (ops.k @ v)) / ops.w + params.tau * v


def apply_height_operator(u: NodeField, params: ModelParams) -> NodeField:
    """Nodewise discrete operator -div(F(|grad u|^2) grad u) - delta lap u + tau u.

    The divergence-form term is the weighted dual of the edge-energy
    gradient, so its weighted node sum vanishes identically; manufactured
    sources built from this function are recovered exactly by ``solve_u``.

    Below the public API ``u`` may also be a pair (``mesh.GridOperators``,
    flat heights), and the result is then flat too: ``solve_u``
    evaluates each residual with one such call, which is the count
    ``bench/tracing.py`` reads as ``solvers.u_residual_evals``.
    """
    if isinstance(u, NodeField):
        return NodeField.from_flat(u.grid, _height_operator(mesh.operators(u.grid), u.flat, params))
    return _height_operator(*u, params)


def solve_u(
    rhs: NodeField,
    params: ModelParams,
    cfg: NewtonConfig | None = None,
    u0: NodeField | None = None,
    factors: dict | None = None,
) -> tuple[NodeField, SolveReport]:
    """Minimize the discrete height energy; Newton with Armijo backtracking.

    Requires tau > 0: the zeroth-order term makes the objective coercive
    and the same tau smooths the flux coefficient, which is singular at
    flat gradients when tau = 0. Sharp-limit quantities are reported by
    the coupled layer instead of being solved for directly.

    Newton runs on v = u - ubar, ubar = mean_w(rhs)/tau the exact mean of
    the solution (the divergence terms of ``apply_height_operator`` have
    weighted sum zero). A(ubar + v) = A(v) + tau ubar, and evaluating A
    on the small fluctuation keeps the residual's rounding error
    proportional to |v|, not |u|, which would otherwise floor the merit
    above the tolerance at small tau and fine grids. ``u0`` is a warm
    start: Newton runs from v = u0 - ubar first and, if that fails, from
    v = 0, with both attempts in the returned report. ``factors`` is a
    linear-solve cache (``_linear_solve``), family "u", which in 2D
    holds a factor of the Hessian's longitudinal part P or, after a
    failed CG from a fresh factor of P, of the Hessian; None gives the
    solve a cache of its own. A 1D step solves its tridiagonal Hessian
    with ``dptsv`` and factors only when that meets a nonpositive pivot.
    """
    if params.tau <= 0.0:
        raise SolverError(
            "the height solve requires tau > 0 (flux coefficient is singular at flat states)"
        )
    grid = rhs.grid
    ops, pat = mesh.operators(grid), _hessian_pattern(grid)
    w = ops.w
    rv = rhs.flat
    ubar = float(np.sum(w * rv) / np.sum(w)) / params.tau
    shift = params.tau * ubar - rv
    factors = {} if factors is None else factors

    def residual(vec):
        return apply_height_operator((ops, vec), params) + shift

    def solve(vec, b):
        hess, lon = _height_newton_matrices(ops, pat, vec, params)
        return _linear_solve(hess, b, factors, "u", lon)

    starts = ([u0.flat - ubar] if u0 is not None else []) + [np.zeros(grid.node_count)]
    v, report = _damped_newton(starts, residual, solve, w, rv, cfg, "height")
    return NodeField.from_flat(grid, ubar + v), report
