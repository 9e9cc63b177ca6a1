"""Fixed-point solution of the coupled system, continuation, time stepping.

The stationary system couples the density and height equations

    -lap rho + tau ln rho = f - a u
    -div(F(|grad u|^2) grad u) - delta lap u + tau u = ln rho

with homogeneous Neumann conditions. ``picard_map`` evaluates the
composition map B: given a height iterate v, solve the density equation
with source f - a v (Newton in ln rho), then the height equation with
source ln rho, each by the single damped Newton core of ``solvers`` and
optionally warm-started from a previous density and height.

A 2D ``solve_coupled`` runs a fixed-point iteration on B with one structural
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
relaxation as mixing weight, 1 (undamped) by default; when the combined
residual grows the weight is halved and the history is dropped, so the
next update is the plain damped step pin(u + w F). The loop can run
undamped because ``solve_rho`` holds the mean of ln rho to tol_residual
(1 + |ln rho|_w): tau times the pin's shift is minus the W-mean of the
density residual, so R2 (below) carries that mean unscaled, and a warm
density start within the density Newton target, which grows like 1/tau,
could leave R2 just above tol_residual at every outer step. The height
viscosity is capped at ``PicardConfig.delta_polish`` and the capped
system solved in one pass.

Each outer step is decided, in its stopping test and in the adaptation
of the weight, on the coupled residual at the map's own output
(pin(B(u)), rho), which the inner solves have already evaluated: with
r_rho and r_h the density (in units of ln rho) and height residuals at
the fields they return, R1 below is tau r_rho + a F and R2 is r_h plus
tau times the pin's constant shift (``_map_residuals``), so a step
costs no edge pass beyond its inner Newton points. Once that residual and
the step's change pass, the residual of the pair the loop returns, the
mixed update and rho, is evaluated directly once; it must pass too, and
it is the triple's. Every later height solve starts at the field the
previous one returned and takes its first residual and Newton matrix
from that solve's last edge pass (``solvers.solve_u``'s ``u0_report``).
The outer report records the map-output residual of each outer step,
then the returned pair's; the inner Newton loops keep their own
iteration counts.

The coupled residuals are written once, in the fluctuations
v = u - ubar and s = ln rho - tau ubar about the known mean height ubar:

    R1 = c K expm1(s)/w + tau s + a v - (f - mean_w(f)),   R2 = A(v) - s,

with c = e^(tau ubar) and A the height operator. ``coupled_residuals``
normalizes them, and the Anderson loop accepts its result on it with v
and s formed from its u and rho. A ``WeakSolutionTriple`` carries
(ubar, v, s), so rounding in u = ubar + v sets no floor under a residual.

A 1D solve is ``_joint_newton``, the damped Newton core of ``solvers``
on (v, s), whose merit interleaves R1 and R2: from a warm start (a
positive ``rho0``, as in every ``continuation_tau`` stage and ``evolve``
step after the first), or from a cold one after one ``picard_map`` (from
the cold start itself the joint Newton needs many damped steps). W times
the Jacobian, [[aW, c K diag(e^s) + tau W], [H(v), -W]] with H the
height Newton matrix, is banded with (v_i, s_i) interleaved
(kl = ku = 3); each step is one LAPACK ``dgbsv``. The result is accepted
only if its own mean-pinned v and its s pass the Anderson loop's
stopping test: ``coupled_residuals`` within ``tol_residual`` and a last
step in v within ``tol_fixed_point`` (one more full step is taken to
measure it when needed). A failing map or joint Newton fails the solve
with its own SolverError. In 1D the Anderson loop is only the tests'
reference; in 2D a joint Jacobian would need a nonsymmetric sparse solve.

The drivers of ``solve_coupled`` live here too: ``continuation_tau``,
``evolve`` and the manufactured-solution study ``mms_convergence``.
The first two are generators of the completed stages or steps that end
with the failing solve's own tagged SolverError; what becomes of the
completed prefix is the caller's decision (the CLI writes it, then fails).
"""

from __future__ import annotations

import functools
import math
from collections.abc import Iterator
from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg import lapack

from . import analysis, mesh, solvers
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
    plain damped step's weight when the mixing history is empty; the
    default 1 starts undamped. It is adapted: grown by 1.2 (capped at 1)
    when the combined equation residual shrinks; halved when it grows,
    and then the mixing history is dropped.
    ``delta_polish`` caps the height viscosity: the coupled solve runs
    at min(params.delta, delta_polish), or at params.delta when it is
    None (as the manufactured-solution study needs, whose analytic
    operator carries params.delta).
    """

    relaxation: float = 1.0
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
    """A converged solution as (ubar, v, s) and the coupled_residuals of
    (v, s); u = ubar + v, rho = e^(tau ubar + s) and the TV selection ``phi``
    are built on first read (an Anderson triple keeps the loop's u and rho)."""

    ubar: float
    v: NodeField
    s: NodeField
    tau: float
    residuals: tuple[float, float]

    @functools.cached_property
    def u(self) -> NodeField:
        return NodeField(self.v.grid, self.ubar + self.v.values)

    @functools.cached_property
    def rho(self) -> NodeField:
        return NodeField(self.s.grid, np.exp(self.tau * self.ubar + self.s.values))

    @functools.cached_property
    def phi(self) -> EdgeField:
        return subgradient_field(self.u)


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
    reports: list | None = None,
) -> tuple[NodeField, NodeField]:
    """One composition step: density solve with source f - a v, then height solve.

    ``rho0`` and ``u0`` warm-start the two inner solves (cold when None);
    ``factors`` is their shared linear-solve cache (``solvers._linear_solve``).
    ``reports``, when a list, ends holding this call's density and height
    SolveReports, whose ``residual`` is each solve's residual at the
    field it returned; a height report it already holds is passed on as
    ``solve_u``'s ``u0_report``, so a ``u0`` that the previous call
    returned costs its warm start no edge pass.
    Solver failures are re-raised tagged with the stage that failed.
    """
    p = data.params
    if p.tau <= 0.0:
        raise ValueError("the coupled map requires tau > 0")
    g = NodeField(data.f.grid, data.f.values - p.a * v.values)
    try:
        rho, rep_rho = solve_rho(g, p.tau, newton_cfg, rho0=rho0, factors=factors)
    except SolverError as err:
        raise SolverError(f"rho-stage: {err}", err.report) from err
    rhs = NodeField(data.f.grid, np.log(rho.values))
    try:
        u, rep_u = solve_u(rhs, p, newton_cfg, u0=u0, factors=factors, u0_report=reports[1] if reports else None)
    except SolverError as err:
        raise SolverError(f"u-stage: {err}", err.report) from err
    if reports is not None:
        reports[:] = rep_rho, rep_u
    return u, rho


def _residual_fields(ops: mesh.GridOperators, data: ProblemData, ubar: float, v: np.ndarray, s: np.ndarray) -> tuple:
    """R1 and R2 (module docstring) at the flat fluctuations v and s, and
    the height operator's edge pass at v (``apply_height_operator``)."""
    p = data.params
    fluct = data.f.flat - (p.a + p.tau**2) * ubar  # f - mean_w(f), by the mean identity
    r1 = np.exp(p.tau * ubar) * (ops.k @ np.expm1(s)) / ops.w + p.tau * s + p.a * v - fluct
    height, edges = apply_height_operator((ops, v), p)
    return r1, height - s, edges


def coupled_residuals(v: NodeField, s: NodeField, data: ProblemData) -> tuple[float, float]:
    """|R1| / (1 + |f|) and |R2| / (1 + |ln rho|), weighted L2, at v = u - ubar
    and s = ln rho - tau ubar, with ubar = ``mean_height_target(data)``."""
    return _coupled_residuals(mesh.operators(v.grid), data, mean_height_target(data), v.flat, s.flat)


def _coupled_residuals(ops: mesh.GridOperators, data: ProblemData, ubar: float, v: np.ndarray, s: np.ndarray) -> tuple:
    """``coupled_residuals`` at the flat fluctuations v and s about the
    caller's ubar, which must be ``mean_height_target(data)``."""
    r1, r2, _ = _residual_fields(ops, data, ubar, v, s)
    return _residual_norms(ops, data, r1, r2, data.params.tau * ubar + s)


def _residual_norms(ops: mesh.GridOperators, data: ProblemData, r1: np.ndarray, r2: np.ndarray, log_rho) -> tuple:
    """The normalized norms of ``coupled_residuals`` of the fields R1 and
    R2 at a density whose logarithm is ``log_rho``."""
    s1 = ops.norm_lp(r1, 2.0) / (1.0 + ops.norm_lp(data.f.flat, 2.0))
    s2 = ops.norm_lp(r2, 2.0) / (1.0 + ops.norm_lp(log_rho, 2.0))
    return s1, s2


def _map_residuals(ops: mesh.GridOperators, data: ProblemData, fmap, shift: float, reports: list, log_rho) -> tuple:
    """``coupled_residuals`` at (pin(B(u)), rho) from the inner solves of
    the map that gave them (``picard_map``'s ``reports``), with no edge
    pass: R1 = tau r_rho + a F and R2 = r_h + tau shift, with r_rho (in
    units of ln rho) and r_h the density and height residuals at the
    returned fields, F = pin(B(u)) - u (``fmap``) and ``shift`` the pin's
    constant pin(B(u)) - B(u): A(v + const) = A(v) + tau const."""
    p = data.params
    r1 = p.tau * reports[0].residual + p.a * fmap
    r2 = reports[1].residual + p.tau * shift
    return _residual_norms(ops, data, r1, r2, log_rho)


def _pin_mean(u: np.ndarray, ops: mesh.GridOperators, target: float) -> np.ndarray:
    """The flat heights u shifted to the mean ``target``."""
    return u + (target - ops.integral(u) / ops.grid.volume)


def capped_params(params: ModelParams, cfg: PicardConfig) -> ModelParams:
    """The parameters the coupled solve actually solves at: ``params`` with
    the height viscosity capped at ``cfg.delta_polish``."""
    if cfg.delta_polish is None:
        return params
    return replace(params, delta=min(params.delta, cfg.delta_polish))


def _joint_newton(
    data: ProblemData,
    cfg: PicardConfig,
    newton_cfg: NewtonConfig | None,
    ubar: float,
    uf: np.ndarray,
    rho0: NodeField,
) -> tuple[WeakSolutionTriple, SolveReport]:
    """The joint Newton of a 1D solve (see the module docstring) from the
    pinned heights ``uf`` and the positive density ``rho0``: the triple of
    its mean-pinned v and its s and a report that counts the joint steps,
    or a SolverError, which for a refused result names the check it failed.
    The report's history holds the joint merit before each damped step and
    at the core's end, then the larger ``coupled_residuals`` of (v, s)."""
    p = data.params
    grid = data.f.grid
    ops = mesh.operators(grid)
    w, n = ops.w, grid.node_count
    kd, ke = ops.k.data[::3], ops.k.data[1::3]
    # the latest residual, its point and its edge pass (the core evaluates
    # the residual last at the point it steps from or returns), and the
    # latest point a step was solved at
    last = {}

    def residual(x):
        r = np.empty_like(x)
        r[0::2], r[1::2], last["edges"] = _residual_fields(ops, data, ubar, x[0::2], x[1::2])
        last["r"], last["at"] = r, x
        return r

    def solve(x, b, eta=None):  # dgbsv is direct: no forcing term
        last["x"] = x
        edges = last["edges"] if x is last["at"] else None
        hd, he = solvers._height_newton_matrices(ops, x[0::2], p, edges)  # the tridiagonal Hessian
        rho = np.exp(p.tau * ubar + x[1::2])
        ab = np.zeros((10, 2 * n))  # A[i, j] at ab[6 + i - j, j]; rows 0-2 hold the LU fill
        ab[6, 0::2], ab[7, 0::2] = p.a * w, hd
        ab[9, 0:-2:2] = ab[5, 2::2] = he
        ab[6, 1::2], ab[5, 1::2] = -w, kd * rho + p.tau * w
        ab[7, 1:-2:2], ab[3, 3::2] = ke * rho[:-1], ke * rho[1:]
        step, info = lapack.dgbsv(3, 3, ab, b, overwrite_ab=1)[2:]
        if info != 0:
            raise SolverError(f"coupled Newton matrix is singular (dgbsv info {info})")
        return step

    x = np.column_stack([uf - ubar, np.log(rho0.flat) - p.tau * ubar]).ravel()
    source, ww = np.column_stack([data.f.flat, np.zeros(n)]).ravel(), np.repeat(w, 2)
    with np.errstate(all="ignore"):  # a non-finite iterate is refused below
        x, report = solvers._damped_newton([x], residual, solve, ww, source, newton_cfg, "coupled")
        report.converged = False  # until the result is accepted
        change = ops.norm_lp(x[0::2] - last["x"][0::2], 2.0) if report.iterations else np.inf
        if not change <= cfg.tol_fixed_point:  # one more full step, whose size the test bounds
            try:
                step = solve(x, -ww * last["r"])
            except SolverError as err:
                raise SolverError(str(err), report) from err
            x, change = x + step, ops.norm_lp(step[0::2], 2.0)
            report.iterations += 1
        log_rho = p.tau * ubar + x[1::2]
        rho = np.exp(log_rho)  # the triple's density must be positive and finite
    if not (np.isfinite(x).all() and np.isfinite(rho).all()):
        refusal = "the iterate is not finite"
    elif not np.min(rho) > 0.0:  # solve_rho's wording
        nz = np.count_nonzero(rho == 0.0)
        refusal = f"density underflows: rho = e^{np.min(log_rho):.6g} is below the smallest float at {nz} of {n} nodes"
    elif not change <= cfg.tol_fixed_point:
        refusal = f"last step in v {change:.3g} exceeds tol_fixed_point {cfg.tol_fixed_point:g}"
    else:
        v = _pin_mean(x[0::2], ops, 0.0)
        r1, r2 = _coupled_residuals(ops, data, ubar, v, x[1::2])
        report.residual_history.append(max(r1, r2))
        if max(r1, r2) <= cfg.tol_residual:
            report.converged = True
            v, s = NodeField.from_flat(grid, v), NodeField.from_flat(grid, x[1::2])
            return WeakSolutionTriple(ubar, v, s, p.tau, (r1, r2)), report
        refusal = f"coupled residual {max(r1, r2):.3g} exceeds tol_residual {cfg.tol_residual:g}"
    raise SolverError(f"coupled Newton result fails the outer stopping test: {refusal}", report)


def solve_coupled(
    data: ProblemData,
    picard_cfg: PicardConfig | None = None,
    newton_cfg: NewtonConfig | None = None,
    u0: NodeField | None = None,
    rho0: NodeField | None = None,
) -> tuple[WeakSolutionTriple, SolveReport]:
    """Solve the coupled stationary system: in 1D by the joint Newton on
    (v, s), in 2D by the Anderson loop (see the module docstring).

    The height viscosity is first capped at ``PicardConfig.delta_polish``;
    the returned triple solves that capped system. ``u0`` is the first
    iterate (default: the constant with the known mean), pinned to that
    mean; ``rho0`` warm-starts the first density solve. In 1D a strictly
    positive ``rho0`` and the pinned ``u0`` are the joint Newton's start;
    otherwise its start is one ``picard_map`` of the first iterate, which
    an accepted result's report counts as one step ahead of the joint
    steps. In 1D every inner step is one ``dptsv`` solve and every joint
    step one ``dgbsv``; in 2D the inner solves share one linear-solve
    cache for the call (``solvers._linear_solve``).
    """
    cfg = picard_cfg or PicardConfig()
    if data.params.tau <= 0.0:
        raise ValueError("the coupled solve requires tau > 0")
    data = ProblemData(data.f, capped_params(data.params, cfg))
    grid = data.f.grid
    ops = mesh.operators(grid)
    ubar = mean_height_target(data)
    uf = _pin_mean(u0.flat if u0 is not None else np.full(grid.node_count, ubar), ops, ubar)
    if grid.dim != 1:
        return _anderson_loop(data, cfg, newton_cfg, ubar, uf, rho0)
    if rho0 is not None and np.min(rho0.values) > 0.0:
        return _joint_newton(data, cfg, newton_cfg, ubar, uf, rho0)
    u_map, rho_map = picard_map(NodeField.from_flat(grid, uf), data, newton_cfg, rho0=rho0)
    triple, report = _joint_newton(data, cfg, newton_cfg, ubar, _pin_mean(u_map.flat, ops, ubar), rho_map)
    report.iterations += 1
    return triple, report


def _anderson_loop(data: ProblemData, cfg: PicardConfig, newton_cfg, ubar: float, uf: np.ndarray, rho0) -> tuple:
    """The Anderson loop (see the module docstring) on the capped ``data``
    from the pinned heights ``uf`` and the density ``rho0`` (cold when None).
    Each later outer step warm-starts its inner solves from the previous
    step's density and height map, and its height solve from that map's
    end point. The mixing history, the linear-solve cache and the latest
    map's inner reports live for this call. A non-finite outer iterate is a ValueError,
    as NodeField raises, before the mean pin spreads it to every node."""
    grid = data.f.grid
    ops = mesh.operators(grid)
    report = SolveReport()
    u = NodeField.from_flat(grid, uf)
    rho, u_map = rho0, None
    factors, inner = {}, []  # the linear-solve cache; the latest map's inner reports
    omega = cfg.relaxation
    prev_res = np.inf
    sqrt_w = np.sqrt(ops.w)
    us, fs = [], []  # the last iterates and their residuals pin(B(u)) - u, flat
    for _ in range(cfg.max_outer):
        u_map, rho = picard_map(u, data, newton_cfg, rho0=rho, u0=u_map, factors=factors, reports=inner)
        shift = ubar - ops.integral(u_map.flat) / grid.volume  # pin(B(u)) = B(u) + shift
        us.append(uf)
        fs.append(u_map.flat + shift - uf)
        log_rho = np.log(rho.flat)
        res = max(_map_residuals(ops, data, fs[-1], shift, inner, log_rho))
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
        report.iterations += 1
        report.residual_history.append(res)
        if change <= cfg.tol_fixed_point and res <= cfg.tol_residual:
            v, s = uf - ubar, log_rho - data.params.tau * ubar
            r1, r2 = _coupled_residuals(ops, data, ubar, v, s)  # of the pair returned
            if max(r1, r2) <= cfg.tol_residual:
                report.converged = True
                report.residual_history.append(max(r1, r2))
                v, s = NodeField.from_flat(grid, v), NodeField.from_flat(grid, s)
                triple = WeakSolutionTriple(ubar, v, s, data.params.tau, (r1, r2))
                triple.u, triple.rho = u, rho  # the loop's own fields, not rebuilt from (v, s)
                return triple, report
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
    are those ``solve_coupled`` evaluated on the pair it returned, of the
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
