"""Fixed-point solution of the coupled system, continuation, time stepping.

The stationary system couples the density and height equations

    -lap rho + tau ln rho = f - a u
    -div(F(|grad u|^2) grad u) - delta lap u + tau u = ln rho

with homogeneous Neumann conditions. ``picard_map`` evaluates the
composition map B: given a height iterate v, solve the density equation
with source f - a v (Newton in ln rho), then the height equation with
source ln rho, each by the single damped Newton core of ``solvers`` and
optionally warm-started from a previous density and height.

``solve_coupled`` runs a damped iteration on B with one structural
addition: integrating both equations shows that the discrete solution
satisfies (a + tau^2) int u = int f exactly (the mimetic operators
integrate to zero), so each iterate has its mean projected onto that
known value. The projection leaves the fixed point unchanged and removes
the mean mode of B, whose amplification factor a / tau^2 makes the raw
iteration diverge for small tau. The fluctuating modes contract at an
O(a) rate independent of tau, and the mean identity then holds to
rounding on every converged solve. The height viscosity is capped at
``PicardConfig.delta_polish`` and the capped system solved in one pass.
The outer report records one residual per outer step; the inner Newton
loops keep their own iteration counts.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import mesh
from .energy import ModelParams, subgradient_select
from .mesh import EdgeField, NodeField
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
    "ContinuationResult",
    "EvolveStep",
    "Trajectory",
    "picard_map",
    "solve_coupled",
    "coupled_residuals",
    "continuation_tau",
    "evolve",
    "subgradient_field",
    "limit_flux",
    "mean_height_target",
    "capped_params",
]


@dataclass
class ProblemData:
    """Source field and model constants of one stationary problem."""

    f: NodeField
    params: ModelParams


@dataclass
class PicardConfig:
    """Outer fixed-point iteration controls.

    The relaxation weight is adapted: halved when the combined equation
    residual grows, grown by 1.2 (capped at 1) when it shrinks.
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
    """Converged height, density, and total-variation subgradient selection."""

    u: NodeField
    rho: NodeField
    phi: EdgeField


def mean_height_target(data: ProblemData) -> float:
    """Mean of u forced by the discrete integral of the coupled system."""
    p = data.params
    return mesh.integrate(data.f) / ((p.a + p.tau**2) * data.f.grid.volume)


def subgradient_field(u: NodeField) -> EdgeField:
    """Edgewise selection grad u / |grad u| (longitudinal components)."""
    return EdgeField(u.grid, tuple(subgradient_select(z)[..., 0] for z in mesh.edge_gradients(u)))


def limit_flux(u: NodeField, params: ModelParams) -> EdgeField:
    """Sharp-limit flux |grad u|^(p-2) grad u + beta0 grad u/|grad u| at edges.

    Evaluated with tau = 0 and the zero selection where the gradient
    vanishes; longitudinal components per edge family.
    """
    comps = []
    for z in mesh.edge_gradients(u):
        s = np.sum(z * z, axis=-1)
        pos = s > 0.0
        coef = np.where(pos, np.where(pos, s, 1.0) ** (0.5 * (params.p - 2.0)), 0.0)
        comps.append(coef * z[..., 0] + params.beta0 * subgradient_select(z)[..., 0])
    return EdgeField(u.grid, tuple(comps))


def picard_map(
    v: NodeField,
    data: ProblemData,
    newton_cfg: NewtonConfig | None = None,
    rho0: NodeField | None = None,
    u0: NodeField | None = None,
) -> tuple[NodeField, NodeField]:
    """One composition step: density solve with source f - a v, then height solve.

    ``rho0`` and ``u0`` warm-start the two inner solves (cold when None).
    Solver failures are re-raised tagged with the stage that failed.
    """
    p = data.params
    if p.tau <= 0.0:
        raise ValueError("the coupled map requires tau > 0")
    g = NodeField(data.f.grid, data.f.values - p.a * v.values)
    try:
        rho, _ = solve_rho(g, p.tau, newton_cfg, rho0=rho0)
    except SolverError as err:
        raise SolverError(str(err), err.report, stage="rho-stage") from err
    rhs = NodeField(data.f.grid, np.log(rho.values))
    try:
        u, _ = solve_u(rhs, p, newton_cfg, u0=u0)
    except SolverError as err:
        raise SolverError(str(err), err.report, stage="u-stage") from err
    return u, rho


def coupled_residuals(u: NodeField, rho: NodeField, data: ProblemData) -> tuple[float, float]:
    """Relative residuals of the density and height equations for a pair."""
    p = data.params
    grid = u.grid
    log_rho = np.log(rho.values)
    r1 = NodeField(
        grid,
        -mesh.laplacian(rho).values + p.tau * log_rho - (data.f.values - p.a * u.values),
    )
    r2 = NodeField(grid, apply_height_operator(u, p).values - log_rho)
    s1 = mesh.norm_l2(r1) / (1.0 + mesh.norm_l2(data.f))
    s2 = mesh.norm_l2(r2) / (1.0 + mesh.norm_l2(NodeField(grid, log_rho)))
    return s1, s2


def _pin_mean(u: NodeField, target: float) -> NodeField:
    grid = u.grid
    return NodeField(grid, u.values + (target - mesh.integrate(u) / grid.volume))


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
    """Solve the coupled stationary system by mean-projected damped iteration.

    The height viscosity is first capped at ``PicardConfig.delta_polish``;
    the returned triple solves that capped system. ``u0`` is the first
    outer iterate (default: the constant with the known mean). ``rho0``
    warm-starts the first density solve, e.g. from the density of a
    nearby problem; each later outer step warm-starts its inner solves
    from the previous step's density and height map. An inner Newton
    solve whose warm start fails is retried in the same loop from its
    cold start (s = ln rho - mean(g)/tau = 0 for the density, the
    constant for the height), so warm starts change cost, not the
    solution beyond solver tolerance.
    """
    cfg = picard_cfg or PicardConfig()
    if data.params.tau <= 0.0:
        raise ValueError("the coupled solve requires tau > 0")
    data = ProblemData(data.f, capped_params(data.params, cfg))
    report = SolveReport()
    ubar = mean_height_target(data)
    u = _pin_mean(u0 if u0 is not None else NodeField.constant(data.f.grid, ubar), ubar)
    rho, u_map = rho0, None
    omega = cfg.relaxation
    prev_res = np.inf
    for _ in range(cfg.max_outer):
        u_map, rho = picard_map(u, data, newton_cfg, rho0=rho, u0=u_map)
        u_new = _pin_mean(
            NodeField(u.grid, (1.0 - omega) * u.values + omega * u_map.values), ubar
        )
        change = mesh.norm_l2(NodeField(u.grid, u_new.values - u.values))
        r1, r2 = coupled_residuals(u_new, rho, data)
        res = max(r1, r2)
        report.iterations += 1
        report.residual_history.append(res)
        u = u_new
        if change <= cfg.tol_fixed_point and res <= cfg.tol_residual:
            report.converged = True
            return WeakSolutionTriple(u, rho, subgradient_field(u)), report
        omega = min(1.0, omega * 1.2) if res < prev_res else max(1e-3, 0.5 * omega)
        prev_res = res
    raise SolverError(
        f"coupled iteration did not converge in {cfg.max_outer} outer steps", report
    )


@dataclass
class TauStage:
    tau: float
    triple: WeakSolutionTriple
    estimates: "EstimateReport"  # noqa: F821  (analysis imports lazily, see below)
    report: SolveReport


@dataclass
class ContinuationResult:
    stages: list[TauStage]
    completed: bool
    failure: str | None = None

    @property
    def final(self) -> WeakSolutionTriple | None:
        return self.stages[-1].triple if self.stages else None


def continuation_tau(
    data: ProblemData,
    tau_schedule,
    picard_cfg: PicardConfig | None = None,
    newton_cfg: NewtonConfig | None = None,
) -> ContinuationResult:
    """Warm-started sweep of the coupled solve over a decreasing tau schedule.

    Each stage starts from the previous stage's height and density and
    is audited (estimate report attached); a stage failure halts the
    sweep and the completed prefix is returned.
    """
    from .analysis import apriori_audit  # local import to avoid a cycle

    schedule = [float(t) for t in tau_schedule]
    if not schedule or any(t <= 0.0 for t in schedule) or any(
        b >= a for a, b in zip(schedule, schedule[1:])
    ):
        raise ValueError("tau schedule must be strictly decreasing and positive")
    stages: list[TauStage] = []
    prev: WeakSolutionTriple | None = None
    for tau in schedule:
        stage_data = ProblemData(data.f, replace(data.params, tau=tau))
        try:
            triple, rep = solve_coupled(
                stage_data,
                picard_cfg,
                newton_cfg,
                u0=None if prev is None else prev.u,
                rho0=None if prev is None else prev.rho,
            )
        except SolverError as err:
            return ContinuationResult(stages, False, failure=f"tau={tau:g}: {err}")
        stages.append(
            TauStage(tau, triple, apriori_audit(triple.u, triple.rho, stage_data), rep)
        )
        prev = triple
    return ContinuationResult(stages, True)


@dataclass
class EvolveStep:
    index: int
    time: float
    u: NodeField
    rho: NodeField | None
    surface_energy: float
    l2_height: float
    mean_height: float
    converged: bool
    residuals: tuple[float, float] | None = None
    estimates: "EstimateReport | None" = None  # noqa: F821


@dataclass
class Trajectory:
    steps: list[EvolveStep]
    completed: bool
    failure: str | None = None

    @property
    def energy_nonincreasing(self) -> bool:
        e = [s.surface_energy for s in self.steps]
        return all(b <= a + 1e-12 * max(1.0, abs(a)) for a, b in zip(e, e[1:]))


def evolve(
    u0: NodeField,
    dt: float,
    nsteps: int,
    params: ModelParams,
    picard_cfg: PicardConfig | None = None,
    newton_cfg: NewtonConfig | None = None,
) -> Trajectory:
    """Implicit (backward Euler) evolution of the relaxation law.

    Each step solves the stationary system with rate coefficient 1/dt
    and source u^n/dt; per the mean identity the discrete mass satisfies
    int u^{n+1} = int u^n / (1 + tau^2 dt) exactly. Each step starts
    from the previous step's height and density. The recorded residuals
    are those of the system solved, at the capped viscosity of
    ``solve_coupled``. The surface energy is recorded per step as a
    diagnostic; a step failure terminates the trajectory and returns
    the prefix.
    """
    from .analysis import apriori_audit  # local import to avoid a cycle

    if dt <= 0.0 or nsteps < 1:
        raise ValueError("need dt > 0 and nsteps >= 1")
    if params.tau <= 0.0:
        raise ValueError("evolution requires tau > 0")
    grid = u0.grid
    cfg = picard_cfg or PicardConfig()
    step_params = capped_params(replace(params, a=1.0 / dt), cfg)
    u = u0
    rho = None
    steps = [
        EvolveStep(
            0,
            0.0,
            u0,
            None,
            surface_energy(u0, params),
            mesh.norm_l2(u0),
            mesh.integrate(u0) / grid.volume,
            True,
        )
    ]
    for n in range(1, nsteps + 1):
        data = ProblemData(NodeField(grid, u.values / dt), step_params)
        try:
            triple, rep = solve_coupled(data, cfg, newton_cfg, u0=u, rho0=rho)
        except SolverError as err:
            return Trajectory(steps, False, failure=f"step {n}: {err}")
        u, rho = triple.u, triple.rho
        steps.append(
            EvolveStep(
                n,
                n * dt,
                u,
                triple.rho,
                surface_energy(u, params),
                mesh.norm_l2(u),
                mesh.integrate(u) / grid.volume,
                rep.converged,
                residuals=coupled_residuals(u, triple.rho, data),
                estimates=apriori_audit(u, triple.rho, data),
            )
        )
    return Trajectory(steps, True)
