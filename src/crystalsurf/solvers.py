"""Newton solvers for the two decoupled scalar problems.

Density problem (barrier-regularized semilinear equation):

    -lap rho + delta rho + tau psi_delta(rho) = g,   grad rho . nu = 0,

solved by damped Newton; ``solve_rho`` drives delta to zero along a
geometric schedule and finishes with an exact-logarithm polish so the
limit equation -lap rho + tau ln rho = g holds at solver tolerance.
Given a positive warm start it runs the exact-logarithm stage alone,
falling back to the schedule if that fails.

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

Both problems run one damped Newton loop, ``_damped_newton``, with
Armijo backtracking on the quadrature-weighted residual norm.

Inner linear systems are symmetric positive definite; they are solved
with a sparse direct factorization by default, or with the bundled
Jacobi-preconditioned conjugate gradient (which asserts positive
curvature) when ``NewtonConfig.linear_solver = "pcg"``.

A ``SolveReport`` holds only the Newton iteration count, the merit
history and the convergence flag, with the same meaning for every caller.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

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
    "default_delta_schedule",
]


@dataclass
class NewtonConfig:
    """Newton iteration controls shared by the scalar solvers."""

    tol_residual: float = 1e-10
    max_iter: int = 100
    armijo_factor: float = 0.5
    armijo_decrease: float = 1e-4
    max_backtracks: int = 40
    linear_solver: str = "direct"  # "direct" (sparse LU) or "pcg"
    pcg_tol: float = 1e-12

    def __post_init__(self) -> None:
        if not 0.0 < self.tol_residual < np.inf:
            raise ValueError("tol_residual must be positive and finite")
        _require_int("max_iter", self.max_iter, 1)
        if not 0.0 < self.armijo_factor < 1.0:
            raise ValueError("armijo_factor must lie in (0,1)")
        if not 0.0 < self.armijo_decrease < 1.0:
            raise ValueError("armijo_decrease must lie in (0,1)")
        _require_int("max_backtracks", self.max_backtracks, 0)
        if self.linear_solver not in ("direct", "pcg"):
            raise ValueError("linear_solver must be 'direct' or 'pcg'")
        if not 0.0 < self.pcg_tol < np.inf:
            raise ValueError("pcg_tol must be positive and finite")


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


def _linear_solve(a: sp.csr_matrix, b: np.ndarray, cfg: NewtonConfig, report: SolveReport) -> np.ndarray:
    if cfg.linear_solver == "pcg":
        return pcg(a.dot, b, a.diagonal(), cfg.pcg_tol, maxiter=max(10 * b.size, 1000))[0]
    try:
        lu = spla.splu(sp.csc_matrix(a))
    except RuntimeError as err:  # SuperLU reports an exactly singular factor this way
        raise SolverError(f"sparse factorization failed: {err}", report) from err
    return lu.solve(b)


def _weighted_norm(w: np.ndarray, r: np.ndarray) -> float:
    return float(np.sqrt(np.sum(w * r * r)))


def _damped_newton(
    x, residual, jacobian, w, target, cfg, report, name, admissible=None, min_steps=0
) -> np.ndarray:
    """Damped Newton with Armijo backtracking on the merit |residual|_w.

    Steps solve ``jacobian(x) step = -w residual(x)``; trials failing
    ``admissible`` are backtracked without evaluating the residual.
    Converged once the merit is at most ``target`` after at least
    ``min_steps`` steps, or when the line search fails on such an iterate
    (the merit is at its rounding floor). ``report`` collects the trace.
    """
    res = residual(x)
    merit = _weighted_norm(w, res)
    for it in range(cfg.max_iter + 1):
        report.residual_history.append(merit)
        if merit <= target and it >= min_steps:
            report.converged = True
            return x
        if it == cfg.max_iter:
            break
        step = _linear_solve(jacobian(x), -w * res, cfg, report)
        report.iterations += 1
        s = 1.0
        for _ in range(cfg.max_backtracks + 1):
            trial = x + s * step
            if admissible is None or admissible(trial):
                res_t = residual(trial)
                merit_t = _weighted_norm(w, res_t)
                if merit_t <= (1.0 - cfg.armijo_decrease * s) * merit:
                    x, res, merit = trial, res_t, merit_t
                    break
            s *= cfg.armijo_factor
        else:
            if merit > target:
                raise SolverError(f"{name} Newton line search failed", report)
            report.converged = True
            return x
    raise SolverError(f"{name} Newton did not converge in {cfg.max_iter} iterations", report)


# ---------------------------------------------------------------------------
# density problem
# ---------------------------------------------------------------------------


def default_delta_schedule() -> np.ndarray:
    return np.geomspace(1e-1, 1e-8, 8)


def _barrier(rho: np.ndarray, delta: float):
    if delta > 0.0:
        return log_barrier(rho, delta), log_barrier_slope(rho, delta)
    # exact logarithm; callers guarantee positivity through the line search
    return np.log(rho), 1.0 / rho


def solve_rho_delta(
    g: NodeField,
    tau: float,
    delta: float,
    cfg: NewtonConfig | None = None,
    rho0: NodeField | None = None,
) -> tuple[NodeField, SolveReport]:
    """Solve -lap rho + delta rho + tau psi_delta(rho) = g by damped Newton.

    Requires tau > 0 or delta > 0 (both zero is ill posed). ``delta = 0``
    selects the exact logarithm and demands a strictly positive start,
    the line search then keeps iterates positive. The exact-logarithm
    stage always takes at least one Newton step, so a start that already
    meets the tolerance is still polished; if that step's line search
    fails on an iterate within tolerance (the merit is at its rounding
    floor), the iterate is returned as converged.
    """
    if tau < 0.0 or delta < 0.0 or delta >= 1.0:
        raise ValueError("need tau >= 0 and delta in [0,1)")
    if tau == 0.0 and delta == 0.0:
        raise ValueError("tau = delta = 0 is ill posed for the density problem")
    cfg = cfg or NewtonConfig()
    grid = g.grid
    k = mesh.stiffness_matrix(grid)
    w = mesh.mass_vector(grid)
    gv = g.flat
    gnorm = _weighted_norm(w, gv)

    if rho0 is not None:
        rho = rho0.flat.copy()
    else:
        gbar = float(np.sum(w * gv) / np.sum(w))
        rho = np.full(gv.size, np.exp(np.clip(gbar / tau, -80.0, 80.0)) if tau > 0 else 1.0)
    if delta == 0.0 and np.min(rho) <= 0.0:
        raise SolverError("exact-logarithm solve needs a positive starting density")

    def residual(r):
        psi, _ = _barrier(r, delta)
        return (k @ r) / w + delta * r + tau * psi - gv

    def jacobian(r):
        _, slope = _barrier(r, delta)
        return k + sp.diags(w * (delta + tau * slope))

    exact = delta == 0.0  # the exact logarithm keeps iterates positive, polishes at least once
    positive = (lambda r: np.min(r) > 0.0) if exact else None
    report = SolveReport()
    target = cfg.tol_residual * (1.0 + gnorm)
    rho = _damped_newton(
        rho, residual, jacobian, w, target, cfg, report, "density", positive, min_steps=int(exact)
    )
    return NodeField.from_flat(grid, rho), report


def solve_rho(
    g: NodeField,
    tau: float,
    cfg: NewtonConfig | None = None,
    delta_schedule: np.ndarray | None = None,
    rho0: NodeField | None = None,
) -> tuple[NodeField, SolveReport]:
    """Barrier continuation toward -lap rho + tau ln rho = g.

    Cold (``rho0`` None or not strictly positive): solves along a
    decreasing delta schedule, each stage starting from the last, then
    re-solves at delta = 0 so the limit equation holds at tolerance.
    Warm (``rho0`` strictly positive, typically the density of a nearby
    source): runs only the exact-logarithm stage from ``rho0`` and falls
    back to the cold schedule if that fails; the report then also
    carries the failed attempt's iterations and residuals.

    The returned density is strictly positive on the grid. A failure of
    the final exact-logarithm stage raises with the inner error's
    message, prefixed "density is not positive" only when the last
    barrier stage ended non-positive (the source is too negative for the
    resolution).
    """
    if tau <= 0.0:
        raise ValueError("tau must be positive for the limit density problem")
    cfg = cfg or NewtonConfig()
    schedule = default_delta_schedule() if delta_schedule is None else np.asarray(delta_schedule, float)
    if schedule.size == 0 or np.any(schedule <= 0.0) or np.any(np.diff(schedule) >= 0.0):
        raise ValueError("delta schedule must be strictly decreasing and positive")
    total = SolveReport()
    if rho0 is not None and np.min(rho0.values) > 0.0:
        try:
            rho, rep = solve_rho_delta(g, tau, 0.0, cfg, rho0=rho0)
        except SolverError as err:
            _absorb(total, err.report)
        else:
            _absorb(total, rep)
            total.converged = rep.converged
            return rho, total
    rho = None
    for delta in schedule:
        rho, rep = solve_rho_delta(g, tau, float(delta), cfg, rho0=rho)
        _absorb(total, rep)
    clamped = np.min(rho.values) <= 0.0
    if clamped:
        # the barrier stages undershoot when the source is strongly
        # negative; the exact-logarithm stage can still recover a positive
        # solution from a clamped start, so only fail if that breaks too
        rho = NodeField(g.grid, np.maximum(rho.values, float(schedule[-1])))
    try:
        rho, rep = solve_rho_delta(g, tau, 0.0, cfg, rho0=rho)
    except SolverError as err:
        _absorb(total, err.report)
        prefix = "density is not positive at this resolution (source too negative): " if clamped else ""
        raise SolverError(f"{prefix}{err}", total) from err
    _absorb(total, rep)
    total.converged = rep.converged
    return rho, total


def _absorb(total: SolveReport, rep: SolveReport | None) -> None:
    """Append one inner solve's iterations and residuals."""
    if rep is None:
        return
    total.iterations += rep.iterations
    total.residual_history.extend(rep.residual_history)


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


def _scale_rows(d: sp.csr_matrix, s: np.ndarray) -> sp.csr_matrix:
    """diag(s) d for a CSR matrix, without building the diagonal."""
    out = d.copy()
    out.data *= np.repeat(s, np.diff(d.indptr))
    return out


def _energy_gradient_vec(u: NodeField, params: ModelParams) -> np.ndarray:
    """Exact gradient of the edge-energy sum: sum over operators D^T (W F z)."""
    grid = u.grid
    out = np.zeros(grid.node_count)
    for ops, z, wvec in zip(_edge_operators(grid), mesh.edge_gradients(u), mesh.edge_weight_vectors(grid)):
        f = flux_coefficient(np.sum(z * z, axis=-1), params)
        for i, (_, dt) in enumerate(ops):
            out += dt @ (wvec * (f * z[..., i]).ravel())
    return out / grid.dim


def _energy_hessian_matrix(u: NodeField, params: ModelParams) -> sp.csr_matrix:
    """Exact Hessian of the edge-energy sum, sum over operator pairs
    D_i^T diag(W h_ij) D_j (sparse, symmetric, PSD)."""
    grid = u.grid
    terms = []
    for ops, z, wvec in zip(_edge_operators(grid), mesh.edge_gradients(u), mesh.edge_weight_vectors(grid)):
        h = energy_hessian(z, params)
        terms += [
            dt_i @ _scale_rows(d_j, wvec * h[..., i, j].ravel())
            for i, (_, dt_i) in enumerate(ops)
            for j, (d_j, _) in enumerate(ops)
        ]
    return sum(terms) / grid.dim


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
    k = mesh.stiffness_matrix(grid)
    w = mesh.mass_vector(grid)
    rv = rhs.flat
    c = float(np.sum(w * start) / np.sum(w))
    shift = params.tau * c - rv

    def residual(vec):
        return apply_height_operator(NodeField.from_flat(grid, vec), params).flat + shift

    def hessian(vec):
        e_hess = _energy_hessian_matrix(NodeField.from_flat(grid, vec), params)
        return e_hess + params.delta * k + sp.diags(params.tau * w)

    target = cfg.tol_residual * (1.0 + _weighted_norm(w, rv))
    v = _damped_newton(start - c, residual, hessian, w, target, cfg, report, "height")
    return NodeField.from_flat(grid, c + v)
