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
``picard``) the mode does not read. ``parse`` validates the whole document
(reading its CSV fields) before ``run`` creates the output directory or
starts a solver. Exit codes: 0 success, 2 config error (nothing written),
3 solver non-convergence or numerical breakdown, 4 I/O error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from collections.abc import Callable
from pathlib import Path

import numpy as np

from .analysis import (
    DEFAULT_EPS_LIST,
    apriori_audit,
    classify_points,
)
from .coupled import (
    PicardConfig,
    ProblemData,
    capped_params,
    continuation_tau,
    energy_nonincreasing,
    evolve,
    limit_flux,
    mms_convergence,
    solve_coupled,
    validate_tau_schedule,
)
from .energy import ModelParams
from .mesh import Grid, NodeField, read_node_csv, write_edge_csv, write_node_csv
from .solvers import NewtonConfig, SolverError

__all__ = ["ConfigError", "parse", "run", "main"]

# Largest grid a config may request: 80 MB per node field, far beyond
# what the sparse direct solves can factor.
MAX_NODES = 10**7


class ConfigError(ValueError):
    pass


def _check_keys(section, allowed: set[str], required: set[str], context: str) -> None:
    if not isinstance(section, dict):
        raise ConfigError(f"{context} must be an object")
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
    allowed = {"p", "beta0", "a", "tau", "delta"}
    _check_keys(section, allowed, {"p"}, "'params'")
    values = {k: _number(v, f"'params.{k}'") for k, v in section.items()}
    try:
        return ModelParams(**values)
    except (TypeError, ValueError) as err:
        raise ConfigError(f"invalid 'params': {err}") from err


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
        if not isinstance(section["path"], str):
            raise ConfigError(f"{context}.path must be a string")
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
    text = json.dumps(payload, indent=2, sort_keys=True, default=_json_default)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def _parse_inputs(config: dict, mode: str, required, optional=(), solvers=("newton", "picard"), solves=True):
    """Check the keys of a ``mode`` config and build the entries modes share:
    the grid, the params (tau > 0 if the mode ``solves`` at params.tau), the
    ``solvers`` sections it reads (else None) and its field entry, if any."""
    allowed = {"mode", "grid", "params", *required, *optional, *solvers}
    _check_keys(config, allowed, {"grid", "params", *required}, "the config")
    if config.get("mode", mode) != mode:
        raise ConfigError(f"config declares mode '{config['mode']}' but '{mode}' was requested")
    grid = _build_grid(config["grid"])
    params = _build_params(config["params"])
    if solves and params.tau <= 0.0:
        raise ConfigError("invalid 'params': tau must be positive to solve")
    newton = _build_dataclass(config.get("newton"), NewtonConfig, "'newton'") if "newton" in solvers else None
    picard = _build_dataclass(config.get("picard"), PicardConfig, "'picard'") if "picard" in solvers else None
    field = None
    for key in {"source", "u0", "rho"} & set(required):
        field = _build_field(config[key], grid, f"'{key}'")
    return grid, params, newton, picard, field


def _stationary(config: dict) -> Callable[[Path], None]:
    grid, params, newton, picard, f = _parse_inputs(config, "stationary", {"source"})

    def execute(out: Path) -> None:
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

    return execute


def _evolve(config: dict) -> Callable[[Path], None]:
    required = {"u0", "dt", "nsteps"}
    _, params, newton, picard, u0 = _parse_inputs(config, "evolve", required, {"checkpoint_every"})
    dt = _number(config["dt"], "'dt'")
    nsteps = _number(config["nsteps"], "'nsteps'", int)
    every = _number(config.get("checkpoint_every", 1), "'checkpoint_every'", int)
    if not (dt > 0 and math.isfinite(1.0 / dt)) or nsteps < 1 or every < 1:
        raise ConfigError("'dt' must be positive with 1/dt finite, 'nsteps'/'checkpoint_every' at least 1")

    def checkpoint(step, entry: dict, out: Path) -> None:
        entry["u_csv"] = f"u_{step.index:05d}.csv"
        write_node_csv(step.u, out / entry["u_csv"])
        if step.rho is not None:
            entry["rho_csv"] = f"rho_{step.index:05d}.csv"
            write_node_csv(step.rho, out / entry["rho_csv"])

    def execute(out: Path) -> None:
        # each step's checkpoint is written as it arrives; the last step
        # received is always written, also when a later step fails
        entries, step, failure = [], None, None
        try:
            for step in evolve(u0, dt, nsteps, params, picard, newton):
                entries.append(
                    {
                        "index": step.index,
                        "time": step.time,
                        "surface_energy": step.surface_energy,
                        "l2_height": step.l2_height,
                        "mean_height": step.mean_height,
                        "converged": True,
                        "residuals": list(step.residuals) if step.residuals is not None else None,
                        "estimates": step.estimates.to_dict() if step.estimates is not None else None,
                    }
                )
                if step.index % every == 0:
                    checkpoint(step, entries[-1], out)
        except (SolverError, ArithmeticError, ValueError) as err:  # exit 3, after the prefix is written
            failure = err
        if step is not None and "u_csv" not in entries[-1]:
            checkpoint(step, entries[-1], out)
        _write_json(
            out / "manifest.json",
            {
                "mode": "evolve",
                "dt": dt,
                "nsteps": nsteps,
                "params": dataclasses.asdict(capped_params(params, picard)),
                "completed": failure is None,
                "failure": None if failure is None else str(failure),
                "energy_nonincreasing": energy_nonincreasing([e["surface_energy"] for e in entries]),
                "steps": entries,
            },
        )
        if failure is not None:
            raise failure

    return execute


def _audit(config: dict) -> Callable[[Path], None]:
    # the schedule, not params.tau, sets the smoothing of every stage
    _, params, newton, picard, f = _parse_inputs(config, "audit", {"source", "tau_schedule"}, solves=False)
    schedule = _numbers(config["tau_schedule"], "'tau_schedule'")
    try:
        validate_tau_schedule(schedule)
    except ValueError as err:
        raise ConfigError("'tau_schedule' must be strictly decreasing and positive") from err

    def execute(out: Path) -> None:
        stages, failure = [], None
        try:
            for stage in continuation_tau(ProblemData(f, params), schedule, picard, newton):
                stages.append(stage)
        except (SolverError, ArithmeticError, ValueError) as err:  # exit 3, after the prefix is written
            failure = err
        payload = {
            "mode": "audit",
            "completed": failure is None,
            "failure": None if failure is None else str(failure),
            "stages": [
                {
                    "tau": st.tau,
                    "estimates": st.estimates.to_dict(),
                    "iterations": st.report.iterations,
                }
                for st in stages
            ],
        }
        _write_json(out / "estimates.json", payload)
        if stages:
            final = stages[-1].triple
            write_node_csv(final.u, out / "u.csv")
            write_node_csv(final.rho, out / "rho.csv")
            write_edge_csv(limit_flux(final.u, params), out / "limit_flux.csv")
        if failure is not None:
            raise failure

    return execute


def _singular(config: dict) -> Callable[[Path], None]:
    # params is validated even though unused; the probes do no solve, so
    # they run here and reject a negative rho or an unusable probe window
    optional = {"eps_list", "r_max", "levels"}
    grid, _, _, _, rho = _parse_inputs(config, "singular", {"rho", "probes"}, optional, (), solves=False)
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
    payload = {"mode": "singular", **report.to_dict()}
    return lambda out: _write_json(out / "singularity.json", payload)


def _mms(config: dict) -> Callable[[Path], None]:
    grid, params, newton, _, _ = _parse_inputs(config, "mms", {"cells_list"}, {"amplitude"}, ("newton",))
    cells_list = _numbers(config["cells_list"], "'cells_list'", int)
    amplitude = _number(config.get("amplitude", 0.06), "'amplitude'")
    if amplitude == 0.0:
        raise ConfigError("'amplitude' must be nonzero (errors are relative to the exact height)")
    for cells in cells_list:
        _make_grid(grid.dim, grid.extents, (cells,) * grid.dim, "'cells_list'")

    def execute(out: Path) -> None:
        rows = mms_convergence(grid.extents, cells_list, params, amplitude, newton)
        with open(out / "mms.csv", "w", encoding="utf-8", newline="\n") as fh:
            fh.write("h,err_u,order_u,err_rho,order_rho\n")
            for r in rows:
                ou = "" if r.order_u is None else f"{r.order_u:.17g}"
                orho = "" if r.order_rho is None else f"{r.order_rho:.17g}"
                fh.write(f"{r.h:.17g},{r.err_u:.17g},{ou},{r.err_rho:.17g},{orho}\n")

    return execute


# each mode's parser: validates its config and returns its execute step
MODES = {"stationary": _stationary, "evolve": _evolve, "audit": _audit, "singular": _singular, "mms": _mms}


def parse(mode: str, config) -> Callable[[Path], None]:
    """Validate a whole config document for one mode and return its execute
    step, a callable of the output directory. Reads only the CSV fields the
    document names; raises ConfigError, or OSError for an unreadable CSV."""
    if mode not in MODES:
        raise ConfigError(f"unknown mode '{mode}'")
    return MODES[mode](config)


def run(mode: str, config, out_dir) -> None:
    """Parse the config, then create out_dir and execute the mode into it,
    so a config error creates no file or directory."""
    execute = parse(mode, config)
    Path(out_dir).mkdir(parents=True, exist_ok=True)
    execute(Path(out_dir))


def main(argv=None) -> int:
    """Run one mode from the command line and return the exit code: 2 (4 for
    an unreadable file) for an error while reading and parsing the config,
    before anything is written; 3 for solver non-convergence or numerical
    breakdown and 4 for an I/O error while executing."""
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
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                execute = parse(args.mode, json.load(fh))
        except (ValueError, RecursionError) as err:  # while reading or parsing: a ConfigError or bad JSON
            print(f"config error: {err}", file=sys.stderr)
            return 2
        Path(args.out).mkdir(parents=True, exist_ok=True)
        execute(Path(args.out))
    except SolverError as err:
        print(f"solver error: {err}", file=sys.stderr)
        print(json.dumps(err.report.to_dict(), sort_keys=True), file=sys.stderr)
        return 3
    except (ArithmeticError, ValueError) as err:
        # overflow, division by zero or a non-finite field inside the solve
        print(f"solver error: numerical breakdown: {err!r}", file=sys.stderr)
        return 3
    except OSError as err:
        print(f"i/o error: {err}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
