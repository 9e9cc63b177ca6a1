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

whose exact gradient and Hessian are assembled from the edgewise energy
derivatives. The 1/dim factor compensates for sampling the full edge
gradient (longitudinal plus reconstructed transverse) once per axis
family. Strict convexity of the edge energy makes the Hessian symmetric
positive definite, so Newton converges quadratically and the minimizer
is unique. Newton runs on the fluctuation u - mean(u), which keeps the
rounding error of the residual proportional to the fluctuation.

Inner linear systems are symmetric positive definite; they are solved
with a sparse direct factorization by default, or with the bundled
Jacobi-preconditioned conjugate gradient (which asserts positive
curvature) when ``NewtonConfig.linear_solver = "pcg"``.
"""

from __future__ import annotations

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
    """Iteration trace of one nonlinear solve."""

    iterations: int = 0
    residual_history: list[float] = field(default_factory=list)
    converged: bool = False
    linear_solver_stats: list[int] = field(default_factory=list)
    energy_history: list[float] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "iterations": int(self.iterations),
            "residual_history": [float(r) for r in self.residual_history],
            "converged": bool(self.converged),
            "linear_solver_stats": [int(n) for n in self.linear_solver_stats],
            "energy_history": [float(e) for e in self.energy_history],
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
        x, its = pcg(a.dot, b, a.diagonal(), cfg.pcg_tol, maxiter=max(10 * b.size, 1000))
        report.linear_solver_stats.append(its)
        return x
    lu = spla.splu(sp.csc_matrix(a))
    report.linear_solver_stats.append(1)
    return lu.solve(b)


def _weighted_norm(w: np.ndarray, r: np.ndarray) -> float:
    return float(np.sqrt(np.sum(w * r * r)))


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

    report = SolveReport()

    def residual(r):
        psi, _ = _barrier(r, delta)
        return (k @ r) / w + delta * r + tau * psi - gv

    res = residual(rho)
    merit = _weighted_norm(w, res)
    target = cfg.tol_residual * (1.0 + gnorm)
    report.residual_history.append(merit)
    for _ in range(cfg.max_iter):
        if merit <= target and (delta > 0.0 or report.iterations > 0):
            report.converged = True
            return NodeField.from_flat(grid, rho), report
        _, slope = _barrier(rho, delta)
        jac = k + sp.diags(w * (delta + tau * slope))
        step = _linear_solve(sp.csr_matrix(jac), -w * res, cfg, report)
        accepted = False
        s = 1.0
        for _ in range(cfg.max_backtracks + 1):
            trial = rho + s * step
            if delta == 0.0 and np.min(trial) <= 0.0:
                s *= cfg.armijo_factor
                continue
            res_t = residual(trial)
            merit_t = _weighted_norm(w, res_t)
            if merit_t <= (1.0 - cfg.armijo_decrease * s) * merit:
                rho, res, merit = trial, res_t, merit_t
                accepted = True
                break
            s *= cfg.armijo_factor
        report.iterations += 1
        if not accepted:
            if merit <= target:
                report.converged = True
                return NodeField.from_flat(grid, rho), report
            raise SolverError("density Newton line search failed", report)
        report.residual_history.append(merit)
    if merit <= target:
        report.converged = True
        return NodeField.from_flat(grid, rho), report
    raise SolverError(
        f"density Newton did not converge in {cfg.max_iter} iterations", report
    )


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

    The returned density is strictly positive on the grid; a sign
    failure after the final barrier stage raises (the source is too
    negative for the resolution).
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
    floor = float(schedule[-1])
    if np.min(rho.values) <= 0.0:
        # the barrier stages undershoot when the source is strongly
        # negative; the exact-logarithm stage can still recover a positive
        # solution from a clamped start, so only fail if that breaks too
        clamped = np.maximum(rho.values, floor)
        rho = NodeField(g.grid, clamped)
    try:
        rho, rep = solve_rho_delta(g, tau, 0.0, cfg, rho0=rho)
    except SolverError as err:
        _absorb(total, err.report)
        raise SolverError(
            "density is not positive at this resolution (source too negative)", total
        ) from err
    _absorb(total, rep)
    total.converged = rep.converged
    return rho, total


def _absorb(total: SolveReport, rep: SolveReport | None) -> None:
    """Append one inner solve's iterations, residuals and linear solves."""
    if rep is None:
        return
    total.iterations += rep.iterations
    total.residual_history.extend(rep.residual_history)
    total.linear_solver_stats.extend(rep.linear_solver_stats)


# ---------------------------------------------------------------------------
# height problem
# ---------------------------------------------------------------------------


def _edge_vectors(u: NodeField) -> list[np.ndarray]:
    """Full gradient samples at edges, shape (E, dim) per axis family."""
    out = []
    for d_long, d_trans in mesh.edge_gradients(u):
        if d_trans is None:
            out.append(d_long.reshape(-1, 1))
        else:
            out.append(np.stack([d_long.reshape(-1), d_trans.reshape(-1)], axis=1))
    return out


def surface_energy(u: NodeField, params: ModelParams) -> float:
    """Discrete integral of the smoothed energy density of grad u."""
    grid = u.grid
    total = 0.0
    for axis, z in enumerate(_edge_vectors(u)):
        wvec = mesh.edge_weight_vectors(grid)[axis]
        total += float(np.sum(wvec * energy_density(z, params)))
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


def _energy_gradient_vec(u: NodeField, params: ModelParams) -> np.ndarray:
    """Exact gradient of the edge-energy sum with respect to node values."""
    grid = u.grid
    out = np.zeros(grid.node_count)
    for axis, z in enumerate(_edge_vectors(u)):
        st = mesh.edge_stencil(grid, axis)
        s = np.sum(z * z, axis=1)
        f = flux_coefficient(s, params)
        gl = f * z[:, 0]
        contrib = st.weights[:, None] * gl[:, None] * st.coef_long
        if st.coef_trans is not None:
            gt = f * z[:, 1]
            contrib = contrib + st.weights[:, None] * gt[:, None] * st.coef_trans
        np.add.at(out, st.idx.reshape(-1), contrib.reshape(-1))
    return out / grid.dim


def _energy_hessian_matrix(u: NodeField, params: ModelParams) -> sp.csr_matrix:
    """Exact Hessian of the edge-energy sum (sparse, symmetric, PSD)."""
    grid = u.grid
    n = grid.node_count
    blocks = []
    for axis, z in enumerate(_edge_vectors(u)):
        st = mesh.edge_stencil(grid, axis)
        h = energy_hessian(z, params)
        if st.coef_trans is None:
            data = (
                st.weights[:, None, None]
                * h[:, 0, 0][:, None, None]
                * st.coef_long[:, :, None]
                * st.coef_long[:, None, :]
            )
        else:
            cl = st.coef_long
            ct = st.coef_trans
            data = st.weights[:, None, None] * (
                h[:, 0, 0][:, None, None] * cl[:, :, None] * cl[:, None, :]
                + h[:, 0, 1][:, None, None]
                * (cl[:, :, None] * ct[:, None, :] + ct[:, :, None] * cl[:, None, :])
                + h[:, 1, 1][:, None, None] * ct[:, :, None] * ct[:, None, :]
            )
        rows = np.broadcast_to(st.idx[:, :, None], data.shape)
        cols = np.broadcast_to(st.idx[:, None, :], data.shape)
        blocks.append(
            sp.coo_matrix((data.reshape(-1), (rows.reshape(-1), cols.reshape(-1))), shape=(n, n))
        )
    return sp.csr_matrix(sum(blocks)) / grid.dim


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
    tolerance at small tau and fine grids. Iterations, residuals and
    energies are appended to ``report``.
    """
    grid = rhs.grid
    k = mesh.stiffness_matrix(grid)
    w = mesh.mass_vector(grid)
    rv = rhs.flat
    target = cfg.tol_residual * (1.0 + _weighted_norm(w, rv))
    c = float(np.sum(w * start) / np.sum(w))
    v = start - c
    shift = params.tau * c - rv

    def residual(vec):
        return apply_height_operator(NodeField.from_flat(grid, vec), params).flat + shift

    def energy(vec):
        return height_energy(NodeField.from_flat(grid, c + vec), params, rhs)

    res = residual(v)
    merit = _weighted_norm(w, res)
    report.residual_history.append(merit)
    report.energy_history.append(energy(v))
    for _ in range(cfg.max_iter):
        if merit <= target:
            report.converged = True
            return NodeField.from_flat(grid, c + v)
        hess = (
            _energy_hessian_matrix(NodeField.from_flat(grid, v), params)
            + params.delta * k
            + sp.diags(params.tau * w)
        )
        step = _linear_solve(sp.csr_matrix(hess), -w * res, cfg, report)
        accepted = False
        s = 1.0
        for _ in range(cfg.max_backtracks + 1):
            trial = v + s * step
            res_t = residual(trial)
            merit_t = _weighted_norm(w, res_t)
            if merit_t <= (1.0 - cfg.armijo_decrease * s) * merit:
                v, res, merit = trial, res_t, merit_t
                accepted = True
                break
            s *= cfg.armijo_factor
        report.iterations += 1
        if not accepted:
            raise SolverError("height Newton line search failed", report)
        report.residual_history.append(merit)
        report.energy_history.append(energy(v))
    if merit <= target:
        report.converged = True
        return NodeField.from_flat(grid, c + v)
    raise SolverError(f"height Newton did not converge in {cfg.max_iter} iterations", report)
