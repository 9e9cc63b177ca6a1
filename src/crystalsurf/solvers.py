"""Newton solvers for the two decoupled scalar problems.

Density problem (limit semilinear equation):

    -lap rho + tau ln rho = g,   grad rho . nu = 0,

solved by ``solve_rho`` with damped Newton on s = ln rho - mean_w(g)/tau,
so the density is positive by construction and the residual differences
only the fluctuation of rho. Warm and cold solves are the same loop from
different starts; a linear step on the mean mode then holds the mean of
ln rho, which the equation fixes at mean_w(g)/tau, to its own bound.
``solve_rho_delta`` solves the paper's barrier regularization
-lap rho + delta rho + tau psi_delta(rho) = g for delta in (0,1) by
Newton on rho itself.

Height problem (convex variational equation):

    -div(F(|grad u|^2) grad u) - delta lap u + tau u = rhs,  grad u . nu = 0,

solved by minimizing the discrete energy

    J(u) = (1/dim) sum_edges W_e e(g_e) + (delta/2) |grad u|^2
           + (tau/2) u^2 - rhs u,

whose exact gradient and Hessian are given by the sparse edge
operators D_i of ``mesh.edge_stencil`` (the longitudinal D_l, then in
2D the transverse D_t) and the edge gradients z_i = D_i u: the gradient
is sum_i D_i^T (W F z_i) / dim and the Hessian
sum_ij D_i^T diag(c_ij) D_j, in every dimension alike. The edge energy
is radial, so its Hessian is F I + B z z^T with B = 2 F'(|z|^2), and
c_ij = (W / dim) (F delta_ij + B z_i z_j) in closed form
(``energy.hessian_coefficients``); delta K adds delta W to c_ll. The
1/dim factor compensates for sampling the full edge gradient once per
axis family. Strict convexity of the edge energy makes the Hessian
symmetric positive definite, so Newton converges quadratically and the
minimizer is unique. Newton runs on the fluctuation about the
solution's exact mean mean_w(rhs)/tau, which keeps the rounding error of
the residual proportional to the fluctuation.

Each Newton point is evaluated once. ``_edge_pass`` forms z per axis
family, then (F, B) at |z|^2 from m = |z|^2 + tau and the flux terms
a_p = m^((p-2)/2) and a_tv = beta0 m^(-1/2), and the edge coefficients
q_i = W F / dim (plus delta W on the longitudinal one) and W B / dim;
the residual is built from it, and the Newton core always steps from
the point of its latest residual, so the step's Newton matrix reuses
that pass
(``_height_newton_matrices``), as does the 1D joint Newton's banded
matrix in ``coupled``. The residual's merit is one dot product with W
(``_weighted_norm``). A height solve started at the field an earlier one
returned takes that solve's last pass too (``solve_u``'s ``u0_report``).

One Newton core, ``_damped_newton``, owns the starts (a warm start, when
given, then the cold one), the target, the Armijo line search on the
quadrature-weighted residual norm and the ``SolveReport`` of every
solve; each solve passes its residual and its linear solve. The joint
Newton on (u, ln rho) of a 1D ``coupled.solve_coupled``
runs on this core too, with its own residual and banded linear solve.
``NewtonConfig`` sets only the tolerance and the iteration cap; the line
search constants are fixed here.

The scalar problems' linear systems are symmetric positive definite
(``coupled`` solves the joint Newton's nonsymmetric banded one with
``dgbsv``). On a 1D grid every Newton matrix lies on the tridiagonal
pattern of K, and ``_linear_solve`` solves it directly with LAPACK's
``dptsv`` (L D L^T in O(n), no pivoting) and holds no factor. A 2D
matrix is solved by ``pcg``: ``_linear_solve`` keeps the last
preconditioner of each Newton family, "rho" and "u", in a ``factors``
cache (one per ``coupled.solve_coupled`` call or standalone solve) and
runs conjugate gradient on the Newton matrix preconditioned with it, in
at most ``_PCG_MAX_ITER`` iterations to the relative residual
eta = clamp(0.5 target / merit, 1e-10, 0.1), the forcing term of the
Newton step (``_forcing``; cf. Eisenstat & Walker 1996): each step
solves only as accurately as landing within the Newton target needs,
and the direct 1D solves ignore it. When CG fails (the cap, or
nonpositive curvature), or no preconditioner is held, the step runs CG
with the family's own preconditioner, factored when it is a matrix, and
when that fails too, the Newton matrix is factored, the solve is direct
and the cache keeps the factor. Only these fallbacks reach SuperLU,
which orders the columns by multiple minimum degree on A^T + A (COLAMD
orders for A^T A and fills more) and keeps its default threshold
pivoting. A tridiagonal matrix on which ``dptsv`` meets a nonpositive
pivot (it is not numerically SPD) takes that path with no
preconditioner of its own. The 2D density family preconditions with
``_cosine_solver``, a solve of K + cbar W by two DCT-Is, each two
products with the per-axis DCT-I matrices that ``mesh.GridOperators``
caches (the fast diagonalization of Lynch, Rice & Thomas 1964), with
no factor (Concus & Golub 1973): on this node-centred trapezoid grid
W^-1 K is the reflective Neumann Laplacian, which the tensor cosine
modes diagonalize exactly, and cbar = tau mean_w(1/rho) matches the
Newton matrix K + diag(tau W/rho) on the constant mode. When cbar is not
finite or lies below the rounding of K, the step goes straight to the
factor. The 2D height family preconditions with the Hessian's
longitudinal part P = sum D_l^T diag(W h_ll / dim) D_l + delta K + tau W,
which has the 5-point pattern of K where the 2D Hessian has 21 points
and about a fifth of its LU fill. At the flat heights v = 0 every h_ll
is the same constant, so P = alpha K + tau W, which the cosine solve
inverts exactly (``_flat_height_preconditioner``); an empty height
cache starts with it. Every 2D ``coupled.solve_coupled`` takes its
first height step there, so a 2D solve factors nothing unless a CG
fails, and then P is built and factored at the step's heights. In 1D,
P is the Newton matrix itself.

Below the public ``NodeField`` API the solvers run on flat float64
arrays. Each solve fetches its grid's record, ``mesh.operators``, once,
so its Newton loop wraps no field and makes no per-grid cache lookup.
A Newton matrix on the pattern of K is a ``_Matrix``, its data on that
record, so it can only be data on its own grid's K. The density matrix
K + diag(tau W/rho) is a copy of the data of K plus tau W/rho at K's
diagonal positions (``GridOperators.diagonal``). The
2D height Newton matrix is never assembled on a step: CG needs only its
products, and ``_HeightHessian`` applies H v = sum_families sum_i
D_i^T (sum_j c_ij D_j v) + tau W v from the edge operators and the
closed-form c_ij of the step's edge pass, kept as one edge array per
(i, j) pair. Its longitudinal part P lies on the pattern of K, where its data is
one small linear map per grid (``GridOperators.stiffness_map``, four entries
per edge, built straight from the two nonzeros of each row of D_l)
applied to the (D_l, D_l) coefficients c_ll, which carry delta K, plus
tau W on the diagonal (``_longitudinal_part``). In 1D, P is the height
matrix, built at every step; in 2D it is a ``_LazyMatrix``, built only
when CG with the held preconditioner fails and P is factored, so a 2D
step whose CG converges builds no P. Only the rare fallback that
factors the height matrix itself builds it as CSC, by sparse products
of the edge operators. ``_linear_solve`` hands a 1D matrix's data
straight to ``dptsv`` and builds the CSC matrix that SuperLU and CG
read only on their paths, so a 1D solve builds none.

A ``SolveReport`` holds an iteration count, a residual history and a
convergence flag: here Newton steps and the merit before each step and at
the end of each attempt, and a converged solve's residual at the point
it returned (``solve_u`` also that point's edge pass, for a later warm
start there). ``coupled.solve_coupled``'s report counts joint steps in
1D and outer steps in 2D, with the coupled residual at each step's map
output, then at the returned pair.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import lapack

from . import mesh
from .energy import (  # energy_hessian and flux_coefficient: names bench/tracing.py patches here
    ModelParams,
    energy_density,
    energy_hessian,
    flux_coefficient,
    hessian_coefficients,
    log_barrier,
    log_barrier_slope,
)
from .mesh import NodeField

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
# forcing term of a Newton step's linear solve: bounds of 0.5 target / merit
_ETA_MIN = 1e-10
_ETA_MAX = 0.1


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
    (residual norm) before each step and at the end, and convergence.

    A converged Newton solve also keeps ``residual``, the residual array
    at the point it returned, as it evaluated it and in its own units
    (ln rho for ``solve_rho``); ``solve_u`` keeps in ``end`` that point's
    height-operator values and edge pass (``_HeightEnd``), which a later
    ``solve_u`` started at the returned field takes (clearing ``end``) for
    its first residual. Neither is a dataclass field, so neither is
    compared, printed or part of ``to_dict``."""

    iterations: int = 0
    residual_history: list[float] = field(default_factory=list)
    converged: bool = False
    residual = None  # set on the instance, as ``end`` is
    end = None

    def to_dict(self) -> dict:
        """The fields as ``dataclasses.asdict`` gives them, without its deep copy."""
        return {
            "iterations": self.iterations,
            "residual_history": list(self.residual_history),
            "converged": self.converged,
        }


class SolverError(RuntimeError):
    """Nonlinear solve failure; carries the partial iteration report, an
    empty one when the solve failed before its first iteration."""

    def __init__(self, message: str, report: SolveReport | None = None):
        super().__init__(message)
        self.report = report if report is not None else SolveReport()


def pcg(matvec, b: np.ndarray, precond, tol: float, maxiter: int) -> tuple[np.ndarray, int]:
    """Preconditioned conjugate gradient for SPD systems: ``precond(r)``
    applies the inverse of the preconditioner to a residual.

    Stops at |b - A x|_2 <= tol |b|_2, the Euclidean norm. A Newton step
    passes b = -W res and its forcing term as ``tol`` (``_forcing``),
    while the Newton merit is the W-weighted norm of res; the factor
    0.5 in the forcing term covers the mismatch, at most
    sqrt(max w / min w) = 2 on the trapezoid weights.

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


class _Matrix(NamedTuple):
    """A Newton matrix as its CSC data on the pattern of its own grid's K
    (``mesh.GridOperators``)."""

    data: np.ndarray
    ops: mesh.GridOperators

    def csc(self) -> sp.csc_matrix:
        k = self.ops.k
        return sp.csc_matrix((self.data, k.indices, k.indptr), shape=k.shape)


def _linear_solve(
    a: _Matrix | _HeightHessian,
    b: np.ndarray,
    factors: dict,
    family: str,
    eta: float,
    p: _Matrix | _LazyMatrix | Callable[[np.ndarray], np.ndarray] | None = None,
) -> np.ndarray:
    """Solve a x = b for a symmetric positive definite a, by CG to the
    relative residual ``eta``, the Newton step's forcing term
    (``_forcing``), or directly.

    A ``_Matrix`` of a 1D grid lies on the tridiagonal pattern of its K,
    and the solve is LAPACK's ``dptsv`` on the diagonal and subdiagonal
    read straight from ``a.data``, an L D L^T factorization without
    pivoting; no CSC matrix is built and the ``factors`` cache is not
    touched. When ``dptsv`` meets a nonpositive pivot (a is not
    numerically SPD), or the grid is 2D, a is built as CSC, and a
    ``_HeightHessian`` is applied
    matrix-free. CG runs preconditioned with the lagged preconditioner of
    ``family`` when the cache holds one: a SuperLU factor, or any object
    with its ``solve`` (the height family's flat-state cosine solve,
    ``_flat_height_preconditioner``). Otherwise, or when CG fails, CG
    runs with ``p``, an SPD operator close to a in spectrum: a function
    applying its inverse is used as is, a matrix (a ``_LazyMatrix`` is
    built here) is factored and the cache keeps that factor. When ``p``
    is a (None means a) or that CG fails too, the cache keeps a fresh
    factor of a, the one place a ``_HeightHessian`` is assembled, and the
    solve is direct."""
    if p is a:
        p = None
    if isinstance(a, _Matrix):
        if a.ops.grid.dim == 1:
            x, info = lapack.dptsv(a.data[::3], a.data[1::3], b)[2:]
            if info == 0:
                return x
        a = a.csc()
    if family in factors:
        try:
            return pcg(a.dot, b, factors[family].solve, eta, _PCG_MAX_ITER)[0]
        except SolverError:
            pass  # the lagged factor has gone stale: refactor
    if p is not None:
        if not callable(p):
            factors[family] = _factor(p.csc())
            p = factors[family].solve
        try:
            return pcg(a.dot, b, p, eta, _PCG_MAX_ITER)[0]
        except SolverError:
            pass  # p is too far from a: solve with a factor of a itself
    factors[family] = lu = _factor(a.csc() if isinstance(a, _HeightHessian) else a)
    return lu.solve(b)


def _factor(a: sp.csc_matrix):
    """SuperLU factor of a symmetric matrix, ordered by minimum degree on A^T + A."""
    try:
        return spla.splu(a, permc_spec="MMD_AT_PLUS_A")
    except RuntimeError as err:  # SuperLU reports an exactly singular factor this way
        raise SolverError(f"sparse factorization failed: {err}") from err


def _weighted_norm(w: np.ndarray, r: np.ndarray) -> float:
    return float(np.sqrt(r @ (w * r)))


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


def _forcing(merit: float, target: float) -> float:
    """Forcing term of a Newton step from ``merit`` toward ``target``:
    the relative residual 0.5 target / merit of its linear solve, clamped
    to [1e-10, 0.1]."""
    return min(_ETA_MAX, max(_ETA_MIN, 0.5 * target / merit))


def _newton_attempt(x, residual, solve, w, target, cfg, report, name) -> np.ndarray:
    """Damped Newton with Armijo backtracking on the merit |residual|_w.

    Each step is ``solve(x, -w residual(x), eta)``, the solve with W
    times the Jacobian of ``residual`` at x to the relative Euclidean
    residual eta = ``_forcing(merit, target)``; direct solves ignore
    eta. With A that matrix and b = -W res, the step's linear residual
    leaves W^-1 (A step - b) in the linearized next residual, whose
    W-norm is at most eta sqrt(max w / min w) |res|_w = 2 eta merit on
    the trapezoid weights: the factor 0.5 keeps it within ``target``, so
    each step solves only as accurately as landing within the target
    needs. Converged once the merit of the exact residual is at most
    ``target``, so a start within target is returned as is. Iterations
    and merits are appended to ``report``, and a converged attempt sets
    its ``residual`` to the residual at the returned point.
    """
    res = residual(x)
    merit = _weighted_norm(w, res)
    for it in range(cfg.max_iter + 1):
        report.residual_history.append(merit)
        if merit <= target:
            report.converged, report.residual = True, res
            return x
        if it == cfg.max_iter:
            break
        step = solve(x, -w * res, _forcing(merit, target))
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


def _stiffness_plus_diagonal(ops: mesh.GridOperators, d: np.ndarray) -> _Matrix:
    """K + diag(d) on the pattern of K, in fresh data."""
    data = ops.k.data.copy()
    data[ops.diagonal] += d
    return _Matrix(data, ops)


def _cosine_solver(ops: mesh.GridOperators, c: float) -> Callable[[np.ndarray], np.ndarray]:
    """(K + cW)^-1 on a 2D grid, for c > 0, as four dense matrix products
    with no factorization (Concus & Golub 1973; Lynch, Rice & Thomas 1964).

    With T = T0 (x) T1 the unnormalized DCT-I and L the spectrum of W^-1 K,
    (K + cW)^-1 = T diag(1 / (prod 2 N_a (L + c))) T W^-1: the cosine
    modes diagonalize W^-1 K (``ops.cosine_spectrum``) and T^2 = prod 2 N_a.
    W = w0 (x) w1, so ``ops.cosine_matrices`` folds W^-1 into the first
    pair of products. The operator is symmetric positive definite.
    """
    lam, scale = ops.cosine_spectrum
    inv = 1.0 / (scale * (lam + c))
    (t0, s0), (t1, s1) = ops.cosine_matrices

    def solve(b: np.ndarray) -> np.ndarray:
        return (t0 @ (inv * (s0 @ b.reshape(inv.shape) @ s1.T)) @ t1.T).reshape(-1)

    return solve


def _cosine_preconditioner(ops: mesh.GridOperators, d: np.ndarray) -> Callable[[np.ndarray], np.ndarray] | None:
    """``_cosine_solver`` of K + cbar W, cbar = sum d / sum W, for the
    Newton matrix K + diag(d) of a 2D grid: both have the same constant
    mode. None in 1D, where a Newton matrix that ``dptsv`` rejects is
    factored, and when cbar is not finite or not above eps times the
    largest eigenvalue of W^-1 K (tau W/rho underflows to 0 for rho near
    e^709, and lies below the rounding of K from rho near e^25 at tau 0.1
    on 33^2): the constant mode is then lost to rounding, CG cannot
    resolve it and its iterates grow like 1/cbar, so the caller factors
    instead."""
    if ops.grid.dim == 1:
        return None
    with np.errstate(over="ignore"):
        cbar = float(np.sum(d)) / float(np.sum(ops.w))
    if not _EPS * np.max(ops.cosine_spectrum[0]) < cbar < np.inf:
        return None
    return _cosine_solver(ops, cbar)


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
    ops = mesh.operators(g.grid)
    k, w = ops.k, ops.w
    gv = g.flat
    gbar = float(np.sum(w * gv) / np.sum(w))
    rho = np.full(gv.size, np.exp(np.clip(gbar / tau, -80.0, 80.0)) if tau > 0 else 1.0)
    factors = {}

    def residual(r):
        return (k @ r) / w + delta * r + tau * log_barrier(r, delta) - gv

    def solve(r, rhs, eta):  # solves to the floor of the forcing term, whatever eta
        jac = _stiffness_plus_diagonal(ops, w * (delta + tau * log_barrier_slope(r, delta)))
        return _linear_solve(jac, rhs, factors, "rho", _ETA_MIN)

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

    Integrating the equation gives tau int ln rho = int g (K's columns
    sum to zero), so the W-mean of the residual is exactly
    m = mean_w(s) = mean_w(ln rho) - mean_w(g)/tau. The Newton target
    grows like 1/tau, while the coupled solve's height equation reads the
    mean of ln rho against tol (1 + |ln rho|_w). So once Newton stops,
    when |m| exceeds tol (1 + |ln rho|_w), one more step is solved with
    the Newton matrix at the returned point and the right-hand side
    -W m 1, with no line search, and the report's ``residual`` is
    evaluated afresh at the corrected point.

    Newton starts from s = ln rho0 - sigma0 when ``rho0`` is strictly
    positive (typically the density of a nearby source) and from s = 0
    otherwise. A failed warm start is retried from s = 0, and the report
    keeps both attempts' iterations and residuals. A warm start within
    the Newton target and within the mean's bound is returned unchanged;
    one within the target only comes back with its mean corrected. Raises
    SolverError before any exponential is taken when |sigma0| exceeds
    ln(max float).
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
    ops = mesh.operators(grid)
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

    def solve(s, rhs, eta):
        rho = np.maximum(c * np.exp(s), _RHO_FLOOR)
        d = tau * w / rho
        jac = _stiffness_plus_diagonal(ops, d)
        return tau * _linear_solve(jac, rhs, factors, "rho", eta, _cosine_preconditioner(ops, d)) / rho

    warm = rho0 is not None and np.min(rho0.values) > 0.0
    starts = ([np.log(rho0.flat) - sigma0] if warm else []) + [np.zeros(gv.size)]
    s, report = _damped_newton(starts, residual, solve, w, gv / tau, cfg, "density")
    m = float(w @ report.residual) / float(np.sum(w))  # mean_w(s) = mean_w(ln rho) - mean_w(g)/tau
    bound = (cfg or NewtonConfig()).tol_residual * (1.0 + _weighted_norm(w, s + sigma0))
    if abs(m) > bound:  # one Newton solve on the mean mode, no line search
        s = s + solve(s, -w * m, _forcing(abs(m), bound))
        report.residual = residual(s)
    if warm and s is starts[0]:  # a warm start within both bounds is returned unchanged
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
    ops, uf = mesh.operators(u.grid), u.flat
    quad = 0.5 * params.delta * float(uf @ (ops.k @ uf)) + 0.5 * params.tau * float(np.sum(ops.w * uf * uf))
    return surface_energy(u, params) + quad - float(np.sum(ops.w * rhs.flat * uf))


class _EdgeFamily(NamedTuple):
    """The edge energy of one axis family at the flat heights v: the
    gradient components z_i = D_i v (longitudinal first), the flux
    coefficients q_i = W F / dim, plus delta W on the longitudinal one,
    and wb = W B / dim, with the pair (F, B) of
    ``energy.hessian_coefficients`` at |z|^2. The family's part of the
    W-weighted height operator is sum_i D_i^T (q_i z_i), and the edge
    coefficients of its Newton matrix are c_ij = q_i delta_ij + wb z_i z_j."""

    z: list[np.ndarray]
    q: list[np.ndarray]
    wb: np.ndarray


class _HeightEnd(NamedTuple):
    """The point a ``solve_u`` returned: the field ``u``, the parameters
    and grid record it was solved with, and at its flat fluctuation v
    (u = ubar + v) the values A(v) of ``apply_height_operator`` and their
    ``_edge_pass``."""

    u: NodeField
    params: ModelParams
    ops: mesh.GridOperators
    v: np.ndarray
    values: np.ndarray
    edges: list[_EdgeFamily]


def _edge_pass(ops: mesh.GridOperators, v: np.ndarray, params: ModelParams) -> list[_EdgeFamily]:
    """Evaluate every edge of ``ops`` once at the flat heights v: one
    ``_EdgeFamily`` per axis family, from which both the height residual
    and the Newton matrix at v are built."""
    dim, out = ops.grid.dim, []
    for stencil, wvec in zip(ops.stencils, ops.edge_weights):
        z = [d @ v for d in stencil]
        f, b = hessian_coefficients(sum(zi * zi for zi in z), params)
        f /= dim
        q = [wvec * (f + params.delta), *(wvec * f for _ in z[1:])]
        out.append(_EdgeFamily(z, q, wvec * (b / dim)))
    return out


class _HeightHessian(NamedTuple):
    """The 2D height Newton matrix H = sum over axis families of
    sum_ij D_i^T diag(c_ij) D_j + tau W, kept as its edge coefficients:
    ``coef[k][i][j]`` is c_ij on the edges of family k, in the closed form
    c_ij = (W / dim) (F delta_ij + B z_i z_j) with the pair (F, B) of
    ``energy.hessian_coefficients``, and delta W added to c_ll, which
    carries delta K (K is sum D_l^T diag(W) D_l). ``dot`` applies H with
    four sparse products per family, and ``csc`` assembles it by sparse
    products of the edge operators, which only a factor of H needs."""

    ops: mesh.GridOperators
    coef: list[list[list[np.ndarray]]]
    tau_w: np.ndarray

    def dot(self, v: np.ndarray) -> np.ndarray:
        out = self.tau_w * v
        for c, stencil, adjoints in zip(self.coef, self.ops.stencils, self.ops.adjoints):
            g = [d @ v for d in stencil]  # D_j v once per family
            for dt, ci in zip(adjoints, c):
                flux = ci[0] * g[0]
                for cij, gj in zip(ci[1:], g[1:]):
                    flux += cij * gj
                out += dt @ flux
        return out

    def csc(self) -> sp.csc_matrix:
        h = sp.diags(self.tau_w)
        for c, stencil in zip(self.coef, self.ops.stencils):
            for di, ci in zip(stencil, c):
                for dj, cij in zip(stencil, ci):
                    h = h + di.T @ sp.diags(cij) @ dj
        return sp.csc_matrix(h)


def _height_newton_matrices(
    ops: mesh.GridOperators, v: np.ndarray, params: ModelParams, edges: list[_EdgeFamily] | None = None
) -> tuple[_HeightHessian | _Matrix, _Matrix | _LazyMatrix]:
    """W times the Jacobian of ``apply_height_operator`` at the flat
    heights v, and its longitudinal part, the preconditioner of
    ``solve_u``, both from ``edges``, the ``_edge_pass`` at v (the one
    that evaluated the residual at v, or a fresh one when None).

    The first is the exact energy Hessian sum_ij D_i^T diag(c_ij) D_j
    plus tau W (symmetric positive definite), with the closed-form edge
    coefficients c_ij = q_i delta_ij + wb z_i z_j of the ``_EdgeFamily``,
    (W / dim) (F delta_ij + B z_i z_j) plus delta W on c_ll, as the
    matrix-free ``_HeightHessian``; no per-edge matrix is formed. The
    second is P = sum D_l^T diag(c_ll) D_l + tau W, its data on the
    pattern of K from ``_longitudinal_part``. A 1D edge family has no
    transverse operator, so there P is the first matrix itself and is
    built at once. In 2D, P is a ``_LazyMatrix``: its data is built only
    when ``_linear_solve`` factors it, after CG with the held
    preconditioner fails.
    """
    dim = ops.grid.dim
    edges = _edge_pass(ops, v, params) if edges is None else edges
    coef = []
    for e in edges:
        c = [[None] * dim for _ in range(dim)]
        for i in range(dim):
            bz = e.wb * e.z[i]
            for j in range(i, dim):
                c[i][j] = c[j][i] = bz * e.z[j]  # one array for c_ij = c_ji
            c[i][i] += e.q[i]
        coef.append(c)
    tau_w = params.tau * ops.w
    if dim == 1:
        lon = _longitudinal_part(ops, coef, tau_w)
        return lon, lon
    return _HeightHessian(ops, coef, tau_w), _LazyMatrix(lambda: _longitudinal_part(ops, coef, tau_w))


def _longitudinal_part(ops: mesh.GridOperators, coef: list[list[list[np.ndarray]]], tau_w: np.ndarray) -> _Matrix:
    """P = sum D_l^T diag(c_ll) D_l + tau W as its data on the pattern of
    K: ``ops.stiffness_map`` applied to the c_ll of every family in
    ``coef`` (``_HeightHessian.coef``), plus ``tau_w`` on the diagonal."""
    data = ops.stiffness_map @ np.concatenate([c[0][0] for c in coef])
    data[ops.diagonal] += tau_w
    return _Matrix(data, ops)


class _LazyMatrix(NamedTuple):
    """A ``_Matrix`` that ``build()`` makes only when ``csc`` is asked for,
    which only a factor of it needs."""

    build: Callable[[], _Matrix]

    def csc(self) -> sp.csc_matrix:
        return self.build().csc()


def _flat_height_preconditioner(ops: mesh.GridOperators, params: ModelParams) -> SimpleNamespace | None:
    """P^-1 at the flat heights v = 0 of a 2D grid, behind a SuperLU
    factor's ``solve`` name, with no factorization.

    Every edge gradient z is 0 there, so every c_ll is the one multiple
    (F(0) / dim + delta) W, F(0) from ``energy.hessian_coefficients``,
    and P = alpha K + tau W, alpha = F(0) / dim + delta
    (K is sum D_l^T diag(W) D_l): P^-1 = ``_cosine_preconditioner`` of
    K + (tau / alpha) W, divided by alpha. None where that is None (in 1D,
    and when tau / alpha lies below the rounding of K).
    """
    alpha = float(hessian_coefficients(0.0, params)[0]) / ops.grid.dim + params.delta
    flat = _cosine_preconditioner(ops, (params.tau / alpha) * ops.w)
    return None if flat is None else SimpleNamespace(solve=lambda r: flat(r) / alpha)


def apply_height_operator(u: NodeField, params: ModelParams) -> NodeField:
    """Nodewise discrete operator -div(F(|grad u|^2) grad u) - delta lap u + tau u.

    The divergence-form term is the weighted dual of the edge-energy
    gradient, so its weighted node sum vanishes identically; manufactured
    sources built from this function are recovered exactly by ``solve_u``.
    Both it and the viscous term difference first: the flux of each edge
    is (F / dim + delta) W z_l on the longitudinal component and
    F W z_t / dim on the transverse one, from one ``_edge_pass``.

    Below the public API ``u`` may also be a pair (``mesh.GridOperators``,
    flat heights v), and the result is then the flat values and the
    ``_edge_pass`` at v, from which ``_height_newton_matrices`` builds the
    Newton matrix at v without evaluating an edge again. ``solve_u``
    evaluates each residual with one such call, except a warm start at
    the field an earlier ``solve_u`` returned, whose values it shifts;
    that is the count ``bench/tracing.py`` reads as
    ``solvers.u_residual_evals``. The 1D joint Newton's residual makes
    one too, through ``coupled``'s import.
    """
    field = isinstance(u, NodeField)
    ops, v = (mesh.operators(u.grid), u.flat) if field else u
    edges = _edge_pass(ops, v, params)
    out = np.zeros(v.size)
    for e, adjoints in zip(edges, ops.adjoints):
        for dt, qi, zi in zip(adjoints, e.q, e.z):
            out += dt @ (qi * zi)
    out = out / ops.w + params.tau * v
    return NodeField.from_flat(u.grid, out) if field else (out, edges)


def solve_u(
    rhs: NodeField,
    params: ModelParams,
    cfg: NewtonConfig | None = None,
    u0: NodeField | None = None,
    factors: dict | None = None,
    u0_report: SolveReport | None = None,
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
    v = 0, with both attempts in the returned report. When ``u0`` is the
    very field that an earlier ``solve_u`` returned, at the same params,
    and ``u0_report`` is that solve's report, the warm start's residual
    and first Newton matrix come from the report's ``end`` without an
    edge pass: the start differs from that end point by the difference
    of the two solves' means, a constant, which the edge gradients do not
    see, and A(v + const) = A(v) + tau const. The solve takes the end
    from the report (it sets ``u0_report.end`` to None), so the end's
    edge pass is freed once Newton leaves the start. ``factors`` is a
    linear-solve cache (``_linear_solve``), family "u"; None gives the
    solve a cache of its own. In 2D a cache without "u" gets the cosine
    solve of the Hessian's longitudinal part P at v = 0
    (``_flat_height_preconditioner``), exact for a cold first step and
    no factor. When CG with the held preconditioner fails, the cache
    gets a factor of P at the step's heights or, when CG from that fails
    too, of the Hessian. A 2D step runs CG on the matrix-free Hessian
    (``_HeightHessian``) and assembles it only for that last factor. A 1D
    step solves its tridiagonal Hessian, which is P, with ``dptsv`` and
    factors only when that meets a nonpositive pivot.
    """
    if params.tau <= 0.0:
        raise SolverError(
            "the height solve requires tau > 0 (flux coefficient is singular at flat states)"
        )
    grid = rhs.grid
    ops = mesh.operators(grid)
    w = ops.w
    rv = rhs.flat
    ubar = float(np.sum(w * rv) / np.sum(w)) / params.tau
    shift = params.tau * ubar - rv
    factors = {} if factors is None else factors
    if "u" not in factors and (flat := _flat_height_preconditioner(ops, params)) is not None:
        factors["u"] = flat
    point = [None, None, None]  # the heights of the latest residual, A there and its edge pass
    starts = ([u0.flat - ubar] if u0 is not None else []) + [np.zeros(grid.node_count)]
    end = u0_report.end if u0_report is not None else None
    if end is not None and end.u is u0 and end.ops is ops and end.params == params:
        u0_report.end = None  # taken: held only until Newton leaves the start
    else:
        end = None

    def residual(vec):
        nonlocal end
        if end is not None and vec is starts[0]:  # the earlier solve's end point, shifted
            values, edges = end.values + params.tau * (vec - end.v), end.edges
            end = None
        else:
            values, edges = apply_height_operator((ops, vec), params)
        point[:] = vec, values, edges
        return values + shift

    def solve(vec, b, eta):  # the core steps from the point of its latest residual
        hess, lon = _height_newton_matrices(ops, vec, params, point[2] if vec is point[0] else None)
        return _linear_solve(hess, b, factors, "u", eta, lon)

    v, report = _damped_newton(starts, residual, solve, w, rv, cfg, "height")
    u = NodeField.from_flat(grid, ubar + v)
    if point[0] is v:
        report.end = _HeightEnd(u, params, ops, v, point[1], point[2])
    return u, report
