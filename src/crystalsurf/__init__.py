"""Solvers and analysis tools for a regularized crystal-surface PDE system.

The stationary model couples an adatom density rho and a surface height u,

    -lap rho + tau ln rho = f - a u,
    -div(F(|grad u|^2) grad u) - delta lap u + tau u = ln rho,

on a rectangle with homogeneous Neumann conditions, where F is the flux
coefficient of the smoothed p plus total-variation surface energy. The
package provides mimetic finite-difference operators, Newton solvers for
both scalar problems, a damped fixed-point solver for the coupled system,
continuation in the smoothing strength tau, implicit time stepping of the
induced relaxation flow, and an audit/diagnostic suite (a priori estimate
tracking, ball-mass vanishing-order probes, manufactured solutions).
"""

from .energy import (
    ModelParams,
    energy_density,
    energy_gradient,
    energy_hessian,
    flux_coefficient,
    log_barrier,
    subgradient_select,
)
from .mesh import EdgeField, Grid, NodeField
from .solvers import NewtonConfig, SolveReport, SolverError, solve_rho, solve_rho_delta, solve_u
from .coupled import (
    PicardConfig,
    ProblemData,
    WeakSolutionTriple,
    continuation_tau,
    evolve,
    picard_map,
    solve_coupled,
)
from .analysis import (
    EstimateReport,
    SingularityReport,
    apriori_audit,
    classify_points,
    degiorgi_sequence_check,
    manufactured_problem,
    vanishing_order,
)

__version__ = "0.1.0"

__all__ = [
    "ModelParams",
    "Grid",
    "NodeField",
    "EdgeField",
    "NewtonConfig",
    "SolveReport",
    "SolverError",
    "PicardConfig",
    "ProblemData",
    "WeakSolutionTriple",
    "EstimateReport",
    "SingularityReport",
    "energy_density",
    "energy_gradient",
    "energy_hessian",
    "flux_coefficient",
    "log_barrier",
    "subgradient_select",
    "solve_rho",
    "solve_rho_delta",
    "solve_u",
    "picard_map",
    "solve_coupled",
    "continuation_tau",
    "evolve",
    "apriori_audit",
    "vanishing_order",
    "classify_points",
    "degiorgi_sequence_check",
    "manufactured_problem",
    "__version__",
]
