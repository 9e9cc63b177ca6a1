"""Benchmark workloads: seeded inputs, per-op output checks, fingerprints.

Every input is a smooth Neumann-compatible cosine series whose
coefficients are a fixed base spectrum scaled by seeded factors within
+-10%. Different seeds therefore give different inputs (and different
output fingerprints) that cost about the same solver work, so the spread
of a timing across seeds measures the machine and the program, not the
luck of the draw. Fields are written to CSV during set-up and passed to
the CLI as ``{"kind": "csv"}`` so its read path runs on every op.

Imported only after ``crystalsurf`` is importable (see ``run.py``).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from crystalsurf import mesh
from crystalsurf.mesh import Grid, NodeField

# Model constants shared by every workload; Newton and Picard controls
# stay at their defaults.
PARAMS = {"p": 1.5, "beta0": 1.0, "a": 1.0, "delta": 1e-6}
PERTURBATION = 0.1
# Tier-1 bound on the discrete mean identity (a + tau^2) int u = int f.
MEAN_IDENTITY_TOL = 1e-9
MASS_FACTOR_TOL = 1e-9


@dataclass(frozen=True)
class Workload:
    name: str
    mode: str
    grid: Grid
    pool: int  # distinct seeded inputs per run; a pass runs each once
    tau: float
    field_key: str  # config key of the CSV-backed field
    base: tuple  # base cosine coefficients per axis
    offset: float = 0.0
    extra: tuple = ()  # extra config entries, as (key, value) pairs


def _grid_doc(grid: Grid) -> dict:
    return {"dim": grid.dim, "extents": list(grid.extents), "cells": list(grid.cells)}


def _series(grid: Grid, coefs, offset: float) -> NodeField:
    """offset + sum_k c_k cos(k pi x / L) summed over each axis."""
    values = np.full(grid.shape, offset)
    for axis, coords in enumerate(grid.meshgrid()):
        for k, c in enumerate(coefs[axis], start=1):
            values = values + c * np.cos(k * np.pi * coords / grid.extents[axis])
    return NodeField(grid, values)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="stationary_2d",
            mode="stationary",
            grid=Grid.rectangle((1.0, 1.0), (65, 65)),
            pool=1,
            tau=0.05,
            field_key="source",
            base=((0.8, -0.4, 0.25, -0.15), (-0.6, 0.3, -0.2, 0.1)),
        ),
        Workload(
            name="evolve_1d",
            mode="evolve",
            grid=Grid.interval(1.0, 129),
            pool=2,
            tau=1e-3,
            field_key="u0",
            base=((0.2, -0.1, 0.06, -0.04),),
            offset=1.0,
            extra=(("dt", 0.05), ("nsteps", 50), ("checkpoint_every", 1)),
        ),
        Workload(
            name="audit_1d",
            mode="audit",
            grid=Grid.interval(1.0, 129),
            pool=8,
            tau=1e-1,
            field_key="source",
            base=((0.8, -0.4, 0.25, -0.15),),
            offset=0.5,
            extra=(("tau_schedule", [1e-1, 1e-2, 1e-3, 1e-4]),),
        ),
    )
}


def make_inputs(workload: Workload, seed: int, work_dir: Path, grid: Grid | None = None) -> list[dict]:
    """Write the seeded input fields and return one config document each.

    ``grid`` overrides the workload's grid (the known-failure probes use
    this); the source family stays the same.
    """
    grid = grid or workload.grid
    rng = np.random.default_rng(seed)
    work_dir.mkdir(parents=True, exist_ok=True)
    configs = []
    for i in range(workload.pool):
        coefs = [
            np.asarray(b) * (1.0 + PERTURBATION * rng.uniform(-1.0, 1.0, len(b)))
            for b in workload.base
        ]
        field = _series(grid, coefs, workload.offset)
        path = work_dir / f"{workload.field_key}_{i:02d}.csv"
        mesh.write_node_csv(field, path)
        configs.append(
            {
                "grid": _grid_doc(grid),
                "params": {**PARAMS, "tau": workload.tau},
                workload.field_key: {"kind": "csv", "path": str(path)},
                **dict(workload.extra),
            }
        )
    return configs


def fingerprint(out_dir: Path) -> str:
    """sha256 over the names and bytes of every file an op wrote."""
    digest = hashlib.sha256()
    for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
        digest.update(path.relative_to(out_dir).as_posix().encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()


def _read_values(path: Path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)[:, -1]


def _integral(path: Path, grid: Grid) -> float:
    return float(np.sum(_read_values(path) * grid.node_weights().reshape(-1)))


def _check_rho(out_dir: Path) -> list[str]:
    problems = []
    for path in sorted(out_dir.glob("rho*.csv")):
        if not np.min(_read_values(path)) > 0.0:
            problems.append(f"{path.name}: density not strictly positive")
    return problems


def _check_mean_identity(residual: float, int_f: float, where: str) -> list[str]:
    limit = MEAN_IDENTITY_TOL * (1.0 + abs(int_f))
    if not residual <= limit:
        return [f"{where}: mean identity residual {residual:.3e} > {limit:.3e}"]
    return []


def check_outputs(workload: Workload, config: dict, out_dir: Path) -> list[str]:
    """Tier-1 output bounds for one op; returns the problems found."""
    doc = config["grid"]
    grid = Grid(doc["dim"], tuple(doc["extents"]), tuple(doc["cells"]))
    problems = _check_rho(out_dir)
    if workload.mode == "stationary":
        report = json.loads((out_dir / "report.json").read_text())
        if not report["solve"]["converged"]:
            problems.append("stationary solve not converged")
        int_f = _integral(Path(config["source"]["path"]), grid)
        problems += _check_mean_identity(
            report["estimates"]["mean_identity_residual"], int_f, "stationary"
        )
    elif workload.mode == "evolve":
        manifest = json.loads((out_dir / "manifest.json").read_text())
        if not manifest["completed"]:
            problems.append(f"trajectory not completed: {manifest['failure']}")
        factor = 1.0 / (1.0 + config["params"]["tau"] ** 2 * config["dt"])
        steps = manifest["steps"]
        for prev, step in zip(steps, steps[1:]):
            ratio = step["mean_height"] / prev["mean_height"]
            if not abs(ratio - factor) <= MASS_FACTOR_TOL * factor:
                problems.append(f"step {step['index']}: mass factor {ratio!r} != {factor!r}")
            int_f = prev["mean_height"] * grid.volume / config["dt"]
            problems += _check_mean_identity(
                step["estimates"]["mean_identity_residual"], int_f, f"step {step['index']}"
            )
    elif workload.mode == "audit":
        payload = json.loads((out_dir / "estimates.json").read_text())
        if not payload["completed"]:
            problems.append(f"tau sweep not completed: {payload['failure']}")
        int_f = _integral(Path(config["source"]["path"]), grid)
        for stage in payload["stages"]:
            problems += _check_mean_identity(
                stage["estimates"]["mean_identity_residual"], int_f, f"tau={stage['tau']:g}"
            )
    return problems
