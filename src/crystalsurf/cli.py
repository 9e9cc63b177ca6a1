"""Command-line entry point.

Usage: ``crystalsurf <mode> --config <path> [--out <dir>]`` with modes

    stationary  solve the coupled system; writes u.csv, rho.csv, phi.csv,
                report.json
    evolve      implicit time stepping; writes per-checkpoint fields and
                manifest.json
    audit       tau continuation with per-stage estimate reports;
                writes estimates.json
    singular    ball-mass vanishing-order probes of a density field;
                writes singularity.json
    mms         manufactured-solution convergence study; writes mms.csv

Configuration is a single JSON document; unknown keys are rejected so
typos in sweep scripts fail closed, as does a solver section (``newton``,
``picard``) the mode does not read. Exit codes: 0 success, 2 config
error, 3 solver non-convergence or numerical breakdown, 4 I/O error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np

from .analysis import (
    DEFAULT_EPS_LIST,
    apriori_audit,
    classify_points,
    mms_convergence,
)
from .coupled import (
    PicardConfig,
    ProblemData,
    capped_params,
    continuation_tau,
    evolve,
    limit_flux,
    solve_coupled,
)
from .energy import ModelParams
from .mesh import Grid, NodeField, read_node_csv, write_edge_csv, write_node_csv
from .solvers import NewtonConfig, SolverError

__all__ = ["ConfigError", "run", "main"]

MODES = ("stationary", "evolve", "audit", "singular", "mms")
# Largest grid a config may request: 80 MB per node field, far beyond
# what the sparse direct solves can factor.
MAX_NODES = 10**7


class ConfigError(ValueError):
    pass


def _check_keys(section: dict, allowed: set[str], required: set[str], context: str) -> None:
    for key in section:
        if key not in allowed:
            raise ConfigError(f"unknown key '{key}' in {context}")
    for key in sorted(required):
        if key not in section:
            raise ConfigError(f"missing key '{key}' in {context}")


def _number(value, context: str, kind=float):
    """Convert one config entry, a JSON number (not a bool), to a finite
    float (or an integral int), else ConfigError."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{context} must be a finite number")
    try:
        out = float(value)
    except OverflowError as err:  # an integer beyond the float range
        raise ConfigError(f"{context} must be a finite number") from err
    if not np.isfinite(out):
        raise ConfigError(f"{context} must be a finite number")
    if kind is int:
        if out != int(out):
            raise ConfigError(f"{context} must be an integer")
        return int(out)
    return out


def _numbers(value, context: str, kind=float) -> list:
    """Convert a nonempty config list to finite floats (or ints), else ConfigError."""
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{context} must be a nonempty list")
    return [_number(v, f"{context} entry", kind) for v in value]


def _build_grid(section) -> Grid:
    if not isinstance(section, dict):
        raise ConfigError("'grid' must be an object")
    _check_keys(section, {"dim", "extents", "cells"}, {"dim", "extents", "cells"}, "'grid'")
    dim = _number(section["dim"], "'grid.dim'", int)
    extents = _numbers(section["extents"], "'grid.extents'")
    cells = _numbers(section["cells"], "'grid.cells'", int)
    return _make_grid(dim, extents, cells, "'grid'")


def _make_grid(dim: int, extents, cells, context: str) -> Grid:
    try:
        grid = Grid(dim, tuple(extents), tuple(cells))
    except ValueError as err:
        raise ConfigError(f"invalid {context}: {err}") from err
    if math.prod(cells) > MAX_NODES:
        raise ConfigError(f"invalid {context}: more than {MAX_NODES} nodes")
    return grid


def _build_params(section) -> ModelParams:
    if not isinstance(section, dict):
        raise ConfigError("'params' must be an object")
    allowed = {"p", "beta0", "a", "tau", "delta"}
    _check_keys(section, allowed, {"p"}, "'params'")
    values = {k: _number(v, f"'params.{k}'") for k, v in section.items()}
    try:
        return ModelParams(**values)
    except (TypeError, ValueError) as err:
        raise ConfigError(f"invalid 'params': {err}") from err


def _build_solve_params(section) -> ModelParams:
    """Model constants of a mode that solves at params.tau, which must be > 0."""
    params = _build_params(section)
    if params.tau <= 0.0:
        raise ConfigError("invalid 'params': tau must be positive to solve")
    return params


def _build_field(section, grid: Grid, context: str) -> NodeField:
    if isinstance(section, (int, float)) and not isinstance(section, bool):
        return NodeField.constant(grid, _number(section, context))
    if not isinstance(section, dict):
        raise ConfigError(f"{context} must be a number or an object")
    kind = section.get("kind")
    if kind == "constant":
        _check_keys(section, {"kind", "value"}, {"value"}, context)
        return NodeField.constant(grid, _number(section["value"], f"{context}.value"))
    if kind == "csv":
        _check_keys(section, {"kind", "path"}, {"path"}, context)
        try:
            return read_node_csv(section["path"], grid)
        except ValueError as err:
            raise ConfigError(f"{context}: {err}") from err
    if kind == "patches":
        _check_keys(section, {"kind", "background", "patches"}, {"patches"}, context)
        values = np.full(grid.shape, _number(section.get("background", 0.0), f"{context}.background"))
        coords = grid.meshgrid()
        if not isinstance(section["patches"], list):
            raise ConfigError(f"{context}.patches must be a list")
        for i, patch in enumerate(section["patches"]):
            where = f"{context}.patches[{i}]"
            if not isinstance(patch, dict):
                raise ConfigError(f"{where} must be an object")
            _check_keys(patch, {"box", "value"}, {"box", "value"}, where)
            box = patch["box"]
            if not isinstance(box, list) or len(box) != grid.dim or not all(
                isinstance(pair, list) and len(pair) == 2 for pair in box
            ):
                raise ConfigError(f"{where}: box needs one [lo,hi] pair per axis")
            mask = np.ones(grid.shape, dtype=bool)
            for axis, (lo, hi) in enumerate(box):
                lo, hi = _number(lo, f"{where}.box"), _number(hi, f"{where}.box")
                mask &= (coords[axis] >= lo) & (coords[axis] <= hi)
            values[mask] = _number(patch["value"], f"{where}.value")
        return NodeField(grid, values)
    raise ConfigError(f"{context}: 'kind' must be constant, csv, or patches")


def _build_dataclass(section, cls, context: str):
    if section is None:
        return cls()
    if not isinstance(section, dict):
        raise ConfigError(f"{context} must be an object")
    fields = {f.name: f.default for f in dataclasses.fields(cls)}
    _check_keys(section, set(fields), set(), context)
    for name, value in section.items():  # numeric fields take JSON numbers (or None where allowed)
        if isinstance(fields[name], (int, float)) and value is not None:
            _number(value, f"{context} entry '{name}'")
    try:
        return cls(**section)
    except (TypeError, ValueError) as err:
        raise ConfigError(f"invalid {context}: {err}") from err


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    raise TypeError(f"not JSON serializable: {type(obj)}")


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=_json_default)
        fh.write("\n")


_SOLVER_KEYS = {"newton", "picard"}


def _validate_mode_keys(config: dict, mode: str, required: set[str], optional=frozenset()) -> None:
    required = {"grid", "params"} | required
    _check_keys(config, {"mode"} | required | optional, required, "the config")
    if "mode" in config and config["mode"] != mode:
        raise ConfigError(f"config declares mode '{config['mode']}' but '{mode}' was requested")


def _run_stationary(config: dict, out: Path) -> None:
    _validate_mode_keys(config, "stationary", {"source"}, _SOLVER_KEYS)
    grid = _build_grid(config["grid"])
    params = _build_solve_params(config["params"])
    newton = _build_dataclass(config.get("newton"), NewtonConfig, "'newton'")
    picard = _build_dataclass(config.get("picard"), PicardConfig, "'picard'")
    f = _build_field(config["source"], grid, "'source'")
    data = ProblemData(f, params)
    triple, report = solve_coupled(data, picard, newton)
    write_node_csv(triple.u, out / "u.csv")
    write_node_csv(triple.rho, out / "rho.csv")
    write_edge_csv(triple.phi, out / "phi.csv")
    estimates = apriori_audit(triple.u, triple.rho, data)
    _write_json(
        out / "report.json",
        {
            "mode": "stationary",
            "grid": {"dim": grid.dim, "extents": list(grid.extents), "cells": list(grid.cells)},
            "params": dataclasses.asdict(capped_params(params, picard)),
            "solve": report.to_dict(),
            "estimates": estimates.to_dict(),
        },
    )


def _run_evolve(config: dict, out: Path) -> None:
    _validate_mode_keys(config, "evolve", {"u0", "dt", "nsteps"}, {"checkpoint_every"} | _SOLVER_KEYS)
    grid = _build_grid(config["grid"])
    params = _build_solve_params(config["params"])
    newton = _build_dataclass(config.get("newton"), NewtonConfig, "'newton'")
    picard = _build_dataclass(config.get("picard"), PicardConfig, "'picard'")
    u0 = _build_field(config["u0"], grid, "'u0'")
    dt = _number(config["dt"], "'dt'")
    nsteps = _number(config["nsteps"], "'nsteps'", int)
    every = _number(config.get("checkpoint_every", 1), "'checkpoint_every'", int)
    if dt <= 0 or nsteps < 1 or every < 1:
        raise ConfigError("'dt' must be positive and 'nsteps'/'checkpoint_every' at least 1")
    traj = evolve(u0, dt, nsteps, params, picard, newton)
    manifest_steps = []
    for step in traj.steps:
        entry = {
            "index": step.index,
            "time": step.time,
            "surface_energy": step.surface_energy,
            "l2_height": step.l2_height,
            "mean_height": step.mean_height,
            "converged": step.converged,
            "residuals": list(step.residuals) if step.residuals is not None else None,
            "estimates": step.estimates.to_dict() if step.estimates is not None else None,
        }
        if step.index % every == 0 or step.index == len(traj.steps) - 1:
            u_name = f"u_{step.index:05d}.csv"
            write_node_csv(step.u, out / u_name)
            entry["u_csv"] = u_name
            if step.rho is not None:
                rho_name = f"rho_{step.index:05d}.csv"
                write_node_csv(step.rho, out / rho_name)
                entry["rho_csv"] = rho_name
        manifest_steps.append(entry)
    _write_json(
        out / "manifest.json",
        {
            "mode": "evolve",
            "dt": dt,
            "nsteps": nsteps,
            "params": dataclasses.asdict(capped_params(params, picard)),
            "completed": traj.completed,
            "failure": traj.failure,
            "energy_nonincreasing": traj.energy_nonincreasing,
            "steps": manifest_steps,
        },
    )
    if not traj.completed:
        raise SolverError(traj.failure or "trajectory terminated early")


def _run_audit(config: dict, out: Path) -> None:
    _validate_mode_keys(config, "audit", {"source", "tau_schedule"}, _SOLVER_KEYS)
    grid = _build_grid(config["grid"])
    params = _build_params(config["params"])
    newton = _build_dataclass(config.get("newton"), NewtonConfig, "'newton'")
    picard = _build_dataclass(config.get("picard"), PicardConfig, "'picard'")
    f = _build_field(config["source"], grid, "'source'")
    schedule = _numbers(config["tau_schedule"], "'tau_schedule'")
    if any(t <= 0.0 for t in schedule) or any(b >= a for a, b in zip(schedule, schedule[1:])):
        raise ConfigError("'tau_schedule' must be strictly decreasing and positive")
    result = continuation_tau(ProblemData(f, params), schedule, picard, newton)
    payload = {
        "mode": "audit",
        "completed": result.completed,
        "failure": result.failure,
        "stages": [
            {
                "tau": st.tau,
                "estimates": st.estimates.to_dict(),
                "iterations": st.report.iterations,
            }
            for st in result.stages
        ],
    }
    _write_json(out / "estimates.json", payload)
    if result.final is not None:
        write_node_csv(result.final.u, out / "u.csv")
        write_node_csv(result.final.rho, out / "rho.csv")
        write_edge_csv(limit_flux(result.final.u, params), out / "limit_flux.csv")
    if not result.completed:
        raise SolverError(result.failure or "continuation terminated early")


def _run_singular(config: dict, out: Path) -> None:
    _validate_mode_keys(config, "singular", {"rho", "probes"}, {"eps_list", "r_max", "levels"})
    grid = _build_grid(config["grid"])
    _build_params(config["params"])  # validated for consistency even though unused
    rho = _build_field(config["rho"], grid, "'rho'")
    if np.min(rho.values) < 0.0:
        raise ConfigError("'rho' must be nonnegative")
    if not isinstance(config["probes"], list):
        raise ConfigError("'probes' must be a list of points")
    probes = [tuple(_numbers(pt, "'probes' point")) for pt in config["probes"]]
    eps_list = tuple(_numbers(config.get("eps_list", list(DEFAULT_EPS_LIST)), "'eps_list'"))
    if any(not (0.0 < e < 2.0) for e in eps_list):
        raise ConfigError("'eps_list' entries must lie in (0,2)")
    r_max = _number(config.get("r_max", 0.25 * min(grid.extents)), "'r_max'")
    levels = _number(config.get("levels", 5), "'levels'", int)
    try:
        report = classify_points(rho, probes, eps_list, r_max, levels)
    except ValueError as err:
        raise ConfigError(str(err)) from err
    _write_json(out / "singularity.json", {"mode": "singular", **report.to_dict()})


def _run_mms(config: dict, out: Path) -> None:
    _validate_mode_keys(config, "mms", {"cells_list"}, {"amplitude", "extent", "newton"})
    grid = _build_grid(config["grid"])
    params = _build_solve_params(config["params"])
    newton = _build_dataclass(config.get("newton"), NewtonConfig, "'newton'")
    cells_list = _numbers(config["cells_list"], "'cells_list'", int)
    amplitude = _number(config.get("amplitude", 0.06), "'amplitude'")
    if amplitude == 0.0:
        raise ConfigError("'amplitude' must be nonzero (errors are relative to the exact height)")
    extent = _number(config.get("extent", grid.extents[0]), "'extent'")
    for cells in cells_list:
        _make_grid(grid.dim, (extent,) * grid.dim, (cells,) * grid.dim, "'cells_list' or 'extent'")
    rows = mms_convergence(grid.dim, cells_list, params, amplitude, extent, newton)
    with open(out / "mms.csv", "w", encoding="utf-8", newline="\n") as fh:
        fh.write("h,err_u,order_u,err_rho,order_rho\n")
        for r in rows:
            ou = "" if r.order_u is None else f"{r.order_u:.17g}"
            orho = "" if r.order_rho is None else f"{r.order_rho:.17g}"
            fh.write(f"{r.h:.17g},{r.err_u:.17g},{ou},{r.err_rho:.17g},{orho}\n")


_RUNNERS = {
    "stationary": _run_stationary,
    "evolve": _run_evolve,
    "audit": _run_audit,
    "singular": _run_singular,
    "mms": _run_mms,
}


def run(mode: str, config: dict, out_dir) -> None:
    """Validate the config and execute one mode, writing files into out_dir."""
    if mode not in MODES:
        raise ConfigError(f"unknown mode '{mode}'")
    if not isinstance(config, dict):
        raise ConfigError("the config document must be a JSON object")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _RUNNERS[mode](config, out)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="crystalsurf",
        description="Finite-difference solvers for a regularized crystal-surface model",
    )
    sub = parser.add_subparsers(dest="mode", required=True)
    for mode in MODES:
        mp = sub.add_parser(mode)
        mp.add_argument("--config", required=True, help="path to a JSON config document")
        mp.add_argument("--out", default=".", help="output directory (default: current)")
    args = parser.parse_args(argv)
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            config = json.load(fh)
    except OSError as err:
        print(f"i/o error: {err}", file=sys.stderr)
        return 4
    except json.JSONDecodeError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    try:
        run(args.mode, config, args.out)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except SolverError as err:
        print(f"solver error: {err}", file=sys.stderr)
        if err.report is not None:
            print(json.dumps(err.report.to_dict(), sort_keys=True), file=sys.stderr)
        return 3
    except (ArithmeticError, ValueError) as err:
        # overflow, division by zero or a non-finite field inside the solve
        # of an accepted config (config errors were caught above)
        print(f"solver error: numerical breakdown: {err!r}", file=sys.stderr)
        return 3
    except OSError as err:
        print(f"i/o error: {err}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
