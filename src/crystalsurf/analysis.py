"""Numerical audits, singularity detection, and verification oracles.

``apriori_audit`` evaluates the quantities that stay bounded along the
tau continuation (Dirichlet integral of sqrt(rho), W^{1,p} norm of the
height, L^1 norm of ln rho, the log-source norm pairs, the mean
identity defect, and sup bounds of the height split by sign) in one
pass over the fields. No thresholds are enforced here; tests assert
uniformity across stages.

``vanishing_order`` and ``classify_points`` implement the ball-mass
scaling probe: the mass M(R) of the density over shrinking balls is fit
to a power law, and a point is flagged suspect when M(R)/R^(N+2-eps)
decays toward zero across the probed window for every eps in (0,2).

``degiorgi_sequence_check`` iterates the recursion y_{n+1} = c b^n
y_n^(1+alpha), whose limit is zero whenever y_0 <= c^(-1/alpha)
b^(-1/alpha^2).

``manufactured_problem`` assembles sources with the same discrete
operators the solvers use, so round trips are exact by construction;
``cosine_mms`` builds smooth analytic solution/source triples (via
sympy) for measuring real discretization orders; the study that solves
against them is ``coupled.mms_convergence``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from . import mesh
from .energy import ModelParams
from .mesh import Grid, NodeField
from .solvers import apply_height_operator

if TYPE_CHECKING:
    from .coupled import ProblemData

__all__ = [
    "EstimateReport",
    "ProbeResult",
    "SingularityReport",
    "apriori_audit",
    "vanishing_order",
    "classify_points",
    "degiorgi_sequence_check",
    "degiorgi_threshold",
    "manufactured_problem",
    "CosineMms",
    "cosine_mms",
    "DEFAULT_EPS_LIST",
]

# Probed exponent offsets for the ball-mass classifier. The lower end is
# limited by the resolvable dyadic radius window: detecting decay at rate
# R^(N+2-eps) against the 1e-3 ratio floor needs window^(eps) >= 1e3 head
# room, and desk-scale grids support windows of about 16 to 32.
DEFAULT_EPS_LIST = (0.5, 1.0, 1.5)

@dataclass
class EstimateReport:
    """Audited a priori quantities of one converged coupled solve."""

    dirichlet_sqrt_rho: float
    w1p_u: float
    l1_log_rho: float
    tau_log_vs_f: dict[str, dict[str, float]]
    mean_identity_residual: float
    sup_u_plus: float
    sup_u_minus: float
    sup_bound_ratio_plus: float
    sup_bound_ratio_minus: float

    def to_dict(self) -> dict:
        """The fields as ``dataclasses.asdict`` gives them, without its deep copy."""
        out = dict(vars(self))
        out["tau_log_vs_f"] = {lam: dict(pair) for lam, pair in self.tau_log_vs_f.items()}
        return out


def apriori_audit(u: NodeField, rho: NodeField, data: ProblemData) -> EstimateReport:
    """Evaluate the audited quantities with the mesh quadrature, in one pass.

    Each array is formed once: ln rho, the source f - a u, |u|^p, the
    sign parts of u and f, and per axis family the edge gradients of u
    and sqrt(rho); the norms of tau ln rho are tau times those of ln rho.
    Every node integral is then one row of a single matrix-vector product
    with W, and every edge integral one dot product with the family's
    edge weights. The quadratures are those of
    ``mesh.norm_lp``, ``mesh.w1p_norm`` (its gradient term that of
    ``solvers.surface_energy``) and ``mesh.dirichlet_integral``. A sup
    ratio is sup part / (int part + |f part|_2^(1/(p-1)) + sqrt(tau)),
    0 when the part vanishes; the integrability exponent 2 of the f part
    may be any fixed value above N/p at desk scale in one and two
    dimensions."""
    if np.min(rho.values) <= 0.0:
        raise ValueError("audit requires a strictly positive density")
    p = data.params
    ops = mesh.operators(u.grid)
    uf, f = u.flat, data.f.flat
    log_rho = np.log(rho.flat)
    source = f - p.a * uf
    u_plus, u_minus = np.maximum(uf, 0.0), np.maximum(-uf, 0.0)
    f_plus, f_minus = np.maximum(f, 0.0), np.maximum(-f, 0.0)
    rows = (
        np.abs(log_rho), log_rho * log_rho, np.abs(source), source * source, np.abs(uf) ** p.p,
        uf, f, u_plus, u_minus, f_plus * f_plus, f_minus * f_minus,
    )
    l1_log, l2_log, src1, src2, up, int_u, int_f, int_plus, int_minus, fp2, fm2 = (np.array(rows) @ ops.w).tolist()
    grad_p = dirichlet = 0.0
    u_and_sqrt_rho = np.column_stack([uf, np.sqrt(rho.flat)])
    for stencil, we in zip(ops.stencils, ops.edge_weights):
        both = stencil[0] @ u_and_sqrt_rho  # D_l of u and of sqrt(rho)
        z = [both[:, 0], *(d @ uf for d in stencil[1:])]
        grad_p += float(we @ sum(zi * zi for zi in z) ** (0.5 * p.p))
        dirichlet += float(we @ (both[:, 1] * both[:, 1]))
    sup_plus, sup_minus = max(float(np.max(uf)), 0.0), max(-float(np.min(uf)), 0.0)

    def sup_ratio(sup: float, integral: float, f_square: float) -> float:
        if sup == 0.0:
            return 0.0
        denom = integral + math.sqrt(f_square) ** (1.0 / (p.p - 1.0)) + math.sqrt(p.tau)
        return sup / denom if denom > 0.0 else math.inf

    return EstimateReport(
        dirichlet_sqrt_rho=dirichlet,
        w1p_u=(up + grad_p / ops.grid.dim) ** (1.0 / p.p),
        l1_log_rho=l1_log,
        tau_log_vs_f={
            "1": {"tau_log_rho": p.tau * l1_log, "source": src1},
            "2": {"tau_log_rho": p.tau * math.sqrt(l2_log), "source": math.sqrt(src2)},
        },
        mean_identity_residual=abs((p.a + p.tau**2) * int_u - int_f),
        sup_u_plus=sup_plus,
        sup_u_minus=sup_minus,
        sup_bound_ratio_plus=sup_ratio(sup_plus, int_plus, fp2),
        sup_bound_ratio_minus=sup_ratio(sup_minus, int_minus, fm2),
    )


# ---------------------------------------------------------------------------
# ball-mass scaling probe
# ---------------------------------------------------------------------------


@dataclass
class ProbeResult:
    """Ball-mass power-law fit around one probe point."""

    point: tuple[float, ...]
    radii: list[float]
    masses: list[float]
    theta: float
    degenerate: bool
    per_epsilon: dict[str, bool]  # eps -> consistent with critical-order vanishing
    regular: bool

    @property
    def label(self) -> str:
        if self.degenerate:
            return "degenerate"
        return "regular" if self.regular else "suspect"

    def to_dict(self) -> dict:
        return {
            "point": [float(c) for c in self.point],
            "radii": [float(r) for r in self.radii],
            "masses": [float(m) for m in self.masses],
            "theta": float(self.theta) if math.isfinite(self.theta) else "inf",
            "degenerate": bool(self.degenerate),
            "per_epsilon": {k: bool(v) for k, v in self.per_epsilon.items()},
            "label": self.label,
        }


@dataclass
class SingularityReport:
    probes: list[ProbeResult] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {"probes": [p.to_dict() for p in self.probes]}


# operational form of "bounded away from zero": the dyadic window ratio
# min M(R)/R^q over max of the same must not collapse below this factor
_VANISH_RATIO = 1e-3
# a radius enclosing fewer nodes ends the window: its mass is quadrature noise
_MIN_BALL_NODES = 10


def _ball_masses(rho: NodeField, x0, r_max: float, levels: int) -> tuple[list[float], list[float], bool]:
    grid = rho.grid
    x0 = np.asarray(x0, dtype=float)
    if x0.size != grid.dim:
        raise ValueError("probe point dimension does not match the grid")
    coords = np.stack([m.reshape(-1) for m in grid.meshgrid()], axis=1)
    dist = np.sqrt(np.sum((coords - x0[None, :]) ** 2, axis=1))
    w = mesh.mass_vector(grid)
    vals = rho.flat
    radii, masses = [], []
    for j in range(levels + 1):
        r = r_max * 0.5**j
        if np.any(x0 - r < -1e-12) or np.any(x0 + r > np.asarray(grid.extents) + 1e-12):
            raise ValueError(f"ball of radius {r:g} around {tuple(x0.tolist())} leaves the domain")
        inside = dist < r
        if int(np.sum(inside)) < _MIN_BALL_NODES:  # the radii shrink, so no later ball qualifies
            break
        radii.append(r)
        masses.append(float(np.sum(w[inside] * vals[inside])))
    degenerate = any(m <= 0.0 for m in masses)
    return radii, masses, degenerate


def vanishing_order(
    rho: NodeField,
    x0,
    r_max: float,
    levels: int,
    eps_list=DEFAULT_EPS_LIST,
) -> tuple[float, ProbeResult]:
    """Fit M(R) = int_{B_R(x0)} rho to R^theta over a dyadic radius window.

    theta is the least-squares slope of log M against log R; radii
    enclosing fewer than ``_MIN_BALL_NODES`` nodes are discarded to keep the
    fit above quadrature noise. A zero mass marks the probe degenerate
    (theta = +inf sentinel). Classification: the point is regular when,
    for some eps in the list, M(R)/R^(N+2-eps) stays bounded away from
    zero over the window.
    """
    if levels < 3:
        raise ValueError("need at least 3 dyadic levels")
    if np.min(rho.values) < 0.0:
        raise ValueError("density must be nonnegative")
    grid = rho.grid
    radii, masses, degenerate = _ball_masses(rho, x0, r_max, levels)
    if len(radii) < 2:
        raise ValueError("too few usable radii; enlarge r_max or refine the grid")
    per_eps: dict[str, bool] = {}
    if degenerate:
        theta = math.inf
        for eps in eps_list:
            per_eps[f"{eps:g}"] = True
        regular = False
    else:
        slope = np.polyfit(np.log(radii), np.log(masses), 1)[0]
        theta = float(slope)
        n = grid.dim
        for eps in eps_list:
            q = np.asarray(masses) / np.asarray(radii) ** (n + 2.0 - eps)
            per_eps[f"{eps:g}"] = bool(np.min(q) < _VANISH_RATIO * np.max(q))
        regular = not all(per_eps.values())
    result = ProbeResult(
        point=tuple(float(c) for c in np.atleast_1d(x0)),
        radii=radii,
        masses=masses,
        theta=theta,
        degenerate=degenerate,
        per_epsilon=per_eps,
        regular=regular,
    )
    return theta, result


def classify_points(
    rho: NodeField,
    probes,
    eps_list=DEFAULT_EPS_LIST,
    r_max: float = 0.25,
    levels: int = 5,
) -> SingularityReport:
    """Run ``vanishing_order`` over a probe set; degenerate fits become labels.

    The outer radius is clipped per probe to the largest ball that fits
    inside the domain, so probes near the boundary use a narrower window
    instead of failing.
    """
    grid = rho.grid
    report = SingularityReport()
    for x0 in probes:
        x0 = np.asarray(x0, dtype=float)
        fit = float(
            min(min(c, e - c) for c, e in zip(x0, grid.extents))
        )
        if fit <= 0.0:
            raise ValueError(f"probe {tuple(x0.tolist())} lies on or outside the boundary")
        _, row = vanishing_order(rho, x0, min(r_max, (1.0 - 1e-12) * fit), levels, eps_list)
        report.probes.append(row)
    return report


# ---------------------------------------------------------------------------
# recursive-sequence checker
# ---------------------------------------------------------------------------


def degiorgi_threshold(c: float, b: float, alpha: float) -> float:
    """Largest starting value guaranteed to drive the recursion to zero."""
    return c ** (-1.0 / alpha) * b ** (-1.0 / alpha**2)


_DEGIORGI_STEPS = 200


def degiorgi_sequence_check(y0: float, c: float, b: float, alpha: float) -> tuple[bool, np.ndarray]:
    """Iterate y_{n+1} = c b^n y_n^(1+alpha) ``_DEGIORGI_STEPS`` times and
    test collapse to zero.

    Returns (converged, trace); converged means the final iterate fell
    below 1e-30. Overflow is reported as divergence.
    """
    if b <= 1.0 or c <= 0.0 or alpha <= 0.0 or y0 <= 0.0:
        raise ValueError("need b > 1, c > 0, alpha > 0, y0 > 0")
    trace = np.empty(_DEGIORGI_STEPS + 1)
    trace[0] = y0
    y = float(y0)
    for n in range(_DEGIORGI_STEPS):
        try:
            y = c * b**n * y ** (1.0 + alpha)
        except OverflowError:
            y = math.inf
        if not math.isfinite(y) or y > 1e200:
            trace[n + 1 :] = math.inf
            return False, trace
        trace[n + 1] = y
    return bool(trace[-1] < 1e-30), trace


# ---------------------------------------------------------------------------
# manufactured problems
# ---------------------------------------------------------------------------


def manufactured_problem(
    u_star: NodeField, rho_star: NodeField, params: ModelParams
) -> tuple[NodeField, NodeField]:
    """Assemble sources from exact fields with the solvers' own operators.

    Returns (f, rhs) with f = -lap rho* + tau ln rho* + a u* for the
    density equation and rhs the height operator applied to u*. Feeding
    them back recovers the exact fields at solver tolerance. For a
    coupled round trip the pair must satisfy ln rho* = rhs; use
    rho* = exp(rhs) built from the same operator.
    """
    if np.min(rho_star.values) <= 0.0:
        raise ValueError("manufactured density must be strictly positive")
    grid = u_star.grid
    f = NodeField(
        grid,
        -mesh.laplacian(rho_star).values
        + params.tau * np.log(rho_star.values)
        + params.a * u_star.values,
    )
    rhs = apply_height_operator(u_star, params)
    return f, rhs


@dataclass
class CosineMms:
    """Analytic manufactured solution triple built from a cosine height."""

    u: NodeField
    rho: NodeField
    f: NodeField


def cosine_mms(grid: Grid, params: ModelParams, amplitude: float = 0.06) -> CosineMms:
    """Smooth analytic solution of the coupled system on [0,L]^dim.

    The height is amplitude * prod_k cos(pi x_k / L_k), the density is
    exp of the analytic height operator, and the source closes the
    density equation; all reflection-symmetric at the boundary so the
    Neumann stencils keep their full order. Keep the amplitude small
    enough that the exponential stays in a sane range. The symbolic
    solution depends on the grid only through its dimension and extents,
    so it is built once per (dim, extents, params, amplitude) and reused
    across the grids of a convergence study. A field that overflows or
    turns NaN raises FloatingPointError.
    """
    fns = _cosine_mms_functions(grid.dim, grid.extents, params, amplitude)
    with np.errstate(over="raise", invalid="raise"):
        return CosineMms(*(NodeField.from_function(grid, fn) for fn in fns))


@functools.lru_cache(maxsize=16)
def _cosine_mms_functions(dim: int, extents: tuple, params: ModelParams, amplitude: float) -> tuple:
    """Lambdified (u, rho, f) of ``cosine_mms``."""
    import sympy as sy

    syms = sy.symbols("x y")[:dim]
    u_expr = amplitude
    for s, length in zip(syms, extents):
        u_expr = u_expr * sy.cos(sy.pi * s / length)
    grads = [sy.diff(u_expr, s) for s in syms]
    w = sum(g**2 for g in grads)
    fcoef = (w + params.tau) ** sy.Float(0.5 * (params.p - 2.0)) + params.beta0 * (
        w + params.tau
    ) ** sy.Rational(-1, 2)
    lap_u = sum(sy.diff(u_expr, s, 2) for s in syms)
    log_rho = (
        -sum(sy.diff(fcoef * g, s) for g, s in zip(grads, syms))
        - params.delta * lap_u
        + params.tau * u_expr
    )
    rho_expr = sy.exp(log_rho)
    f_expr = (
        -sum(sy.diff(rho_expr, s, 2) for s in syms)
        + params.tau * log_rho
        + params.a * u_expr
    )
    return tuple(sy.lambdify(syms, e, "numpy") for e in (u_expr, rho_expr, f_expr))
