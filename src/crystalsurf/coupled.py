"""Fixed-point solution of the coupled system, continuation, time stepping.

The stationary system couples the density and height equations

    -lap rho + tau ln rho = f - a u
    -div(F(|grad u|^2) grad u) - delta lap u + tau u = ln rho

with homogeneous Neumann conditions. ``picard_map`` evaluates the
composition map B: given a height iterate v, solve the density equation
with source f - a v (Newton in ln rho), then the height equation with
source ln rho, each by the single damped Newton core of ``solvers`` and
optionally warm-started from a previous density and height.

``solve_coupled`` runs a fixed-point iteration on B with one structural
addition: integrating both equations shows that the discrete solution
satisfies (a + tau^2) int u = int f exactly (the mimetic operators
integrate to zero), so each iterate has its mean projected onto that
known value. The projection leaves the fixed point unchanged and removes
the mean mode of B, whose amplification factor a / tau^2 makes the raw
iteration diverge for small tau. The fluctuating modes contract at an
O(a) rate independent of tau, and the mean identity then holds to
rounding on every converged solve. Each update is Anderson mixing
(Anderson 1965; Walker & Ni 2011) of the projected residuals
F = pin(B(u)) - u of the last ``_ANDERSON_DEPTH`` + 1 iterates, with the
relaxation as mixing weight; when the combined residual grows the
history is dropped, so the next update is the plain damped step
pin(u + w F). The height viscosity is capped at
``PicardConfig.delta_polish`` and the capped system solved in one pass.
The outer report records one residual per outer step; the inner Newton
loops keep their own iteration counts.

The drivers of ``solve_coupled`` live here too: ``continuation_tau``,
``evolve`` and the manufactured-solution study ``mms_convergence``.
The first two are generators of the completed stages or steps that end
with the failing solve's own tagged SolverError; what becomes of the
completed prefix is the caller's decision (the CLI writes it, then fails).
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, replace

import numpy as np

from . import analysis, mesh
from .energy import ModelParams, energy_gradient, subgradient_select
from .mesh import EdgeField, Grid, NodeField
from .solvers import (
    NewtonConfig,
    SolveReport,
    SolverError,
    _require_int,
    apply_height_operator,
    solve_rho,
    solve_u,
    surface_energy,
)

__all__ = [
    "ProblemData",
    "PicardConfig",
    "WeakSolutionTriple",
    "TauStage",
    "EvolveStep",
    "MmsRow",
    "picard_map",
    "solve_coupled",
    "coupled_residuals",
    "validate_tau_schedule",
    "continuation_tau",
    "evolve",
    "energy_nonincreasing",
    "mms_convergence",
    "subgradient_field",
    "limit_flux",
    "mean_height_target",
    "capped_params",
]

_ANDERSON_DEPTH = 3  # earlier outer steps whose differences enter the Anderson mixing


@dataclass
class ProblemData:
    """Source field and model constants of one stationary problem."""

    f: NodeField
    params: ModelParams


@dataclass
class PicardConfig:
    """Outer fixed-point iteration controls.

    ``relaxation`` is the Anderson mixing weight of the outer update, the
    plain damped step's weight when the mixing history is empty. It is
    adapted: grown by 1.2 (capped at 1) when the combined equation
    residual shrinks; halved when it grows, and then the mixing history
    is dropped.
    ``delta_polish`` caps the height viscosity: the coupled solve runs
    at min(params.delta, delta_polish), or at params.delta when it is
    None (as the manufactured-solution study needs, whose analytic
    operator carries params.delta).
    """

    relaxation: float = 0.5
    tol_fixed_point: float = 1e-9
    max_outer: int = 200
    tol_residual: float = 1e-8
    delta_polish: float | None = 1e-10

    def __post_init__(self) -> None:
        if not (0.0 < self.relaxation <= 1.0):
            raise ValueError("relaxation must lie in (0,1]")
        if not 0.0 < self.tol_fixed_point < np.inf:
            raise ValueError("tol_fixed_point must be positive and finite")
        _require_int("max_outer", self.max_outer, 1)
        if not 0.0 < self.tol_residual < np.inf:
            raise ValueError("tol_residual must be positive and finite")
        if self.delta_polish is not None and not 0.0 <= self.delta_polish < np.inf:
            raise ValueError("delta_polish must be None or nonnegative and finite")


@dataclass
class WeakSolutionTriple:
    """Converged height, density, TV subgradient selection, and the coupled_residuals of (u, rho)."""

    u: NodeField
    rho: NodeField
    phi: EdgeField
    residuals: tuple[float, float]


def mean_height_target(data: ProblemData) -> float:
    """Mean of u forced by the discrete integral of the coupled system."""
    p = data.params
    return mesh.integrate(data.f) / ((p.a + p.tau**2) * data.f.grid.volume)


def subgradient_field(u: NodeField) -> EdgeField:
    """Edgewise selection grad u / |grad u| (longitudinal components)."""
    return EdgeField(u.grid, tuple(subgradient_select(z)[..., 0] for z in mesh.edge_gradients(u)))


def limit_flux(u: NodeField, params: ModelParams) -> EdgeField:
    """Sharp-limit flux |grad u|^(p-2) grad u + beta0 grad u/|grad u| at edges.

    The energy gradient at tau = 0, with the zero selection where the
    gradient vanishes; longitudinal components per edge family.
    """
    sharp = replace(params, tau=0.0)
    return EdgeField(u.grid, tuple(energy_gradient(z, sharp)[..., 0] for z in mesh.edge_gradients(u)))


def picard_map(
    v: NodeField,
    data: ProblemData,
    newton_cfg: NewtonConfig | None = None,
    rho0: NodeField | None = None,
    u0: NodeField | None = None,
    factors: dict | None = None,
) -> tuple[NodeField, NodeField]:
    """One composition step: density solve with source f - a v, then height solve.

    ``rho0`` and ``u0`` warm-start the two inner solves (cold when None);
    ``factors`` is their shared linear-solve cache (``solvers._linear_solve``).
    Solver failures are re-raised tagged with the stage that failed.
    """
    p = data.params
    if p.tau <= 0.0:
        raise ValueError("the coupled map requires tau > 0")
    g = NodeField(data.f.grid, data.f.values - p.a * v.values)
    try:
        rho, _ = solve_rho(g, p.tau, newton_cfg, rho0=rho0, factors=factors)
    except SolverError as err:
        raise SolverError(f"rho-stage: {err}", err.report) from err
    rhs = NodeField(data.f.grid, np.log(rho.values))
    try:
        u, _ = solve_u(rhs, p, newton_cfg, u0=u0, factors=factors)
    except SolverError as err:
        raise SolverError(f"u-stage: {err}", err.report) from err
    return u, rho


def coupled_residuals(u: NodeField, rho: NodeField, data: ProblemData) -> tuple[float, float]:
    """Relative residuals of the density and height equations for a pair."""
    p = data.params
    ops = mesh.operators(u.grid)
    uf, f = u.flat, data.f.flat
    log_rho = np.log(rho.flat)
    r1 = -ops.laplacian(rho.flat) + p.tau * log_rho - (f - p.a * uf)
    r2 = apply_height_operator((ops, uf), p) - log_rho
    s1 = ops.norm_lp(r1, 2.0) / (1.0 + ops.norm_lp(f, 2.0))
    s2 = ops.norm_lp(r2, 2.0) / (1.0 + ops.norm_lp(log_rho, 2.0))
    return s1, s2


def _pin_mean(u: np.ndarray, ops: mesh.GridOperators, target: float) -> np.ndarray:
    """The flat heights u shifted to the mean ``target``."""
    return u + (target - ops.integral(u) / ops.grid.volume)


def capped_params(params: ModelParams, cfg: PicardConfig) -> ModelParams:
    """The parameters the coupled solve actually solves at: ``params`` with
    the height viscosity capped at ``cfg.delta_polish``."""
    if cfg.delta_polish is None:
        return params
    return replace(params, delta=min(params.delta, cfg.delta_polish))


def solve_coupled(
    data: ProblemData,
    picard_cfg: PicardConfig | None = None,
    newton_cfg: NewtonConfig | None = None,
    u0: NodeField | None = None,
    rho0: NodeField | None = None,
) -> tuple[WeakSolutionTriple, SolveReport]:
    """Solve the coupled stationary system by mean-projected Anderson mixing.

    The height viscosity is first capped at ``PicardConfig.delta_polish``;
    the returned triple solves that capped system. ``u0`` is the first
    outer iterate (default: the constant with the known mean). ``rho0``
    warm-starts the first density solve, e.g. from the density of a
    nearby problem; each later outer step warm-starts its inner solves
    from the previous step's density and height map. An inner Newton
    solve whose warm start fails is retried in the same loop from its
    cold start (s = ln rho - mean(g)/tau = 0 for the density, the
    constant mean(rhs)/tau for the height), so warm starts change cost, not the
    solution beyond solver tolerance. The inner solves share one
    linear-solve cache for this call: in 2D each Newton family keeps its
    last LU factor and preconditions later steps with it, and the density
    family holds no factor unless its cosine-preconditioned CG fails
    (``solvers.solve_rho``). In 1D every step is a direct tridiagonal
    solve and the cache stays empty. The mixing history, like the cache,
    lives for this call only. The mixing, the mean pin and the change
    run on flat arrays; each outer iterate becomes one NodeField, for
    the public ``picard_map`` and ``coupled_residuals``, after a check
    that it is finite (a ValueError, as NodeField raises, before the
    pin spreads a non-finite value to every node).
    """
    cfg = picard_cfg or PicardConfig()
    if data.params.tau <= 0.0:
        raise ValueError("the coupled solve requires tau > 0")
    data = ProblemData(data.f, capped_params(data.params, cfg))
    grid = data.f.grid
    ops = mesh.operators(grid)
    report = SolveReport()
    ubar = mean_height_target(data)
    uf = _pin_mean(u0.flat if u0 is not None else np.full(grid.node_count, ubar), ops, ubar)
    u = NodeField.from_flat(grid, uf)
    rho, u_map = rho0, None
    factors = {}
    omega = cfg.relaxation
    prev_res = np.inf
    sqrt_w = np.sqrt(ops.w)
    us, fs = [], []  # the last iterates and their residuals pin(B(u)) - u, flat
    for _ in range(cfg.max_outer):
        u_map, rho = picard_map(u, data, newton_cfg, rho0=rho, u0=u_map, factors=factors)
        us.append(uf)
        fs.append(_pin_mean(u_map.flat, ops, ubar) - uf)
        del us[: -_ANDERSON_DEPTH - 1], fs[: -_ANDERSON_DEPTH - 1]
        step = omega * fs[-1]
        if len(fs) > 1:  # gamma = argmin |F - dF gamma|_W; lstsq copes with rank-deficient dF
            d_u, d_f = np.diff(us, axis=0), np.diff(fs, axis=0)
            gamma = np.linalg.lstsq((d_f * sqrt_w).T, fs[-1] * sqrt_w, rcond=None)[0]
            step -= gamma @ (d_u + omega * d_f)
        u_new = us[-1] + step
        if not np.isfinite(u_new).all():
            raise ValueError("node values must be finite")
        u_new = _pin_mean(u_new, ops, ubar)
        change = ops.norm_lp(u_new - uf, 2.0)
        u, uf = NodeField.from_flat(grid, u_new), u_new
        r1, r2 = coupled_residuals(u, rho, data)
        res = max(r1, r2)
        report.iterations += 1
        report.residual_history.append(res)
        if change <= cfg.tol_fixed_point and res <= cfg.tol_residual:
            report.converged = True
            return WeakSolutionTriple(u, rho, subgradient_field(u), (r1, r2)), report
        if res < prev_res:
            omega = min(1.0, omega * 1.2)
        else:
            omega = max(1e-3, 0.5 * omega)
            us.clear()
            fs.clear()
        prev_res = res
    raise SolverError(
        f"coupled iteration did not converge in {cfg.max_outer} outer steps", report
    )


@dataclass
class TauStage:
    tau: float
    triple: WeakSolutionTriple
    estimates: analysis.EstimateReport
    report: SolveReport


def validate_tau_schedule(tau_schedule) -> list[float]:
    """The schedule as floats; ValueError unless nonempty, positive, decreasing."""
    schedule = [float(t) for t in tau_schedule]
    if not schedule or any(t <= 0.0 for t in schedule) or any(
        b >= a for a, b in zip(schedule, schedule[1:])
    ):
        raise ValueError("tau schedule must be strictly decreasing and positive")
    return schedule


def continuation_tau(
    data: ProblemData,
    tau_schedule,
    picard_cfg: PicardConfig | None = None,
    newton_cfg: NewtonConfig | None = None,
) -> Iterator[TauStage]:
    """Warm-started sweep of the coupled solve over a decreasing tau schedule.

    A generator: each stage starts from the previous stage's height and
    density and is yielded audited (estimate report attached). A stage
    failure ends the sweep with the SolverError tagged ``tau=<tau>: ``.
    The schedule is validated at the first ``next()``.
    """
    u = rho = None
    for tau in validate_tau_schedule(tau_schedule):
        stage_data = ProblemData(data.f, replace(data.params, tau=tau))
        try:
            triple, rep = solve_coupled(stage_data, picard_cfg, newton_cfg, u0=u, rho0=rho)
        except SolverError as err:
            raise SolverError(f"tau={tau:g}: {err}", err.report) from err
        u, rho = triple.u, triple.rho
        yield TauStage(tau, triple, analysis.apriori_audit(u, rho, stage_data), rep)


@dataclass
class EvolveStep:
    index: int
    time: float
    u: NodeField
    rho: NodeField | None
    surface_energy: float
    l2_height: float
    mean_height: float
    residuals: tuple[float, float] | None = None
    estimates: analysis.EstimateReport | None = None


def energy_nonincreasing(energies: list[float]) -> bool:
    """Whether the surface energies never rise by more than 1e-12 relative."""
    return all(b <= a + 1e-12 * max(1.0, abs(a)) for a, b in zip(energies, energies[1:]))


def evolve(
    u0: NodeField,
    dt: float,
    nsteps: int,
    params: ModelParams,
    picard_cfg: PicardConfig | None = None,
    newton_cfg: NewtonConfig | None = None,
) -> Iterator[EvolveStep]:
    """Implicit (backward Euler) evolution of the relaxation law.

    A generator of the steps 0 (the initial height) to ``nsteps``. Each
    step solves the stationary system with rate coefficient 1/dt and
    source u^n/dt; per the mean identity the discrete mass satisfies
    int u^{n+1} = int u^n / (1 + tau^2 dt) exactly. Each step starts
    from the previous step's height and density. The recorded residuals
    are those ``solve_coupled`` evaluated on its last outer step, of the
    system solved at the capped viscosity. The surface energy is recorded
    per step as a diagnostic. A step failure ends the trajectory with the
    SolverError tagged ``step <n>: ``. The inputs are validated at the
    first ``next()``.
    """
    if dt <= 0.0 or nsteps < 1:
        raise ValueError("need dt > 0 and nsteps >= 1")
    if params.tau <= 0.0:
        raise ValueError("evolution requires tau > 0")
    grid = u0.grid
    cfg = picard_cfg or PicardConfig()
    step_params = replace(params, a=1.0 / dt)
    u, rho, residuals, estimates = u0, None, None, None
    for n in range(nsteps + 1):
        if n > 0:
            data = ProblemData(NodeField(grid, u.values / dt), step_params)
            try:
                triple, _ = solve_coupled(data, cfg, newton_cfg, u0=u, rho0=rho)
            except SolverError as err:
                raise SolverError(f"step {n}: {err}", err.report) from err
            u, rho, residuals = triple.u, triple.rho, triple.residuals
            estimates = analysis.apriori_audit(u, rho, data)
        yield EvolveStep(
            n,
            n * dt,
            u,
            rho,
            surface_energy(u, params),
            mesh.norm_l2(u),
            mesh.integrate(u) / grid.volume,
            residuals,
            estimates,
        )


@dataclass
class MmsRow:
    h: float
    err_u: float
    err_rho: float
    order_u: float | None = None
    order_rho: float | None = None


def mms_convergence(
    extents,
    cells_list,
    params: ModelParams,
    amplitude: float = 0.06,
    newton_cfg: NewtonConfig | None = None,
) -> list[MmsRow]:
    """Solve the coupled system against the analytic cosine solution on a
    grid sequence and tabulate relative L2 errors and observed orders.

    The domain is the box of ``extents``, one entry per axis; each entry
    of ``cells_list`` is the node count on every axis of one grid.

    The viscosity cap is disabled (``delta_polish=None``) so the discrete
    system keeps params.delta, as the analytic operator that generated
    the data does.
    """
    picard_cfg = PicardConfig(tol_fixed_point=1e-11, tol_residual=1e-7, delta_polish=None)
    extents = tuple(float(e) for e in extents)
    rows: list[MmsRow] = []
    for cells in cells_list:
        grid = Grid(len(extents), extents, (int(cells),) * len(extents))
        exact = analysis.cosine_mms(grid, params, amplitude)
        data = ProblemData(exact.f, params)
        triple, _ = solve_coupled(data, picard_cfg, newton_cfg)
        err_u = mesh.norm_l2(NodeField(grid, triple.u.values - exact.u.values)) / mesh.norm_l2(exact.u)
        err_rho = mesh.norm_l2(NodeField(grid, triple.rho.values - exact.rho.values)) / mesh.norm_l2(exact.rho)
        rows.append(MmsRow(h=max(grid.h), err_u=err_u, err_rho=err_rho))
    for prev, row in zip(rows, rows[1:]):
        ratio = math.log(prev.h / row.h)
        row.order_u = math.log(prev.err_u / row.err_u) / ratio
        row.order_rho = math.log(prev.err_rho / row.err_rho) / ratio
    return rows
