import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import crystalsurf
from crystalsurf import coupled, solvers
from crystalsurf.cli import main, parse, run
from crystalsurf.mesh import Grid, NodeField, read_node_csv, write_node_csv
from crystalsurf.solvers import SolveReport, SolverError
from conftest import failing_dgbsv


def write_config(path, payload):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
    return str(path)


BASE = {
    "grid": {"dim": 1, "extents": [1.0], "cells": [33]},
    "params": {"p": 1.5, "beta0": 1.0, "a": 1.0, "tau": 0.1, "delta": 1e-6},
}


def test_stationary_constant_run(tmp_path):
    cfg = write_config(tmp_path / "c.json", {**BASE, "source": {"kind": "constant", "value": 3.0}})
    out = tmp_path / "out"
    assert main(["stationary", "--config", cfg, "--out", str(out)]) == 0
    grid = Grid.interval(1.0, 33)
    u = read_node_csv(out / "u.csv", grid)
    assert np.abs(u.values - 3.0 / 1.01).max() <= 1e-8
    report = json.loads((out / "report.json").read_text())
    assert report["solve"]["converged"] is True
    assert (out / "phi.csv").exists() and (out / "rho.csv").exists()


def test_config_error_bad_p(tmp_path):
    cfg = write_config(
        tmp_path / "c.json",
        {"grid": BASE["grid"], "params": {"p": 0.5}, "source": 1.0},
    )
    assert main(["stationary", "--config", cfg, "--out", str(tmp_path)]) == 2


def test_config_error_message_names_p(tmp_path, capsys):
    cfg = write_config(
        tmp_path / "c.json",
        {"grid": BASE["grid"], "params": {"p": 0.5}, "source": 1.0},
    )
    main(["stationary", "--config", cfg, "--out", str(tmp_path)])
    assert "p must lie in (1,2]" in capsys.readouterr().err


def test_missing_config_file_is_io_error(tmp_path):
    assert main(["stationary", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)]) == 4


def test_malformed_json_is_config_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["stationary", "--config", str(bad), "--out", str(tmp_path)]) == 2
    # nesting too deep for the JSON decoder and bytes that are not UTF-8
    for content in [b"[" * 100000 + b"]" * 100000, b"\xff\xfe"]:
        bad.write_bytes(content)
        assert main(["stationary", "--config", str(bad), "--out", str(tmp_path / "out")]) == 2
        assert "Traceback" not in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


def test_deterministic_outputs(tmp_path):
    cfg = write_config(
        tmp_path / "c.json",
        {
            **BASE,
            "source": {
                "kind": "patches",
                "background": 0.5,
                "patches": [{"box": [[0.2, 0.6]], "value": 1.5}],
            },
        },
    )
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert main(["stationary", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["stationary", "--config", cfg, "--out", str(out2)]) == 0
    for name in ("u.csv", "rho.csv", "phi.csv", "report.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_2d_stationary_runs_share_no_factor(tmp_path, monkeypatch):
    # a 2D solve preconditions with what its own call builds only: a
    # preconditioner kept from an earlier op would change the next op's
    # bytes. No op factors: every op's first height solve finds a fresh,
    # empty cache and seeds it with its own flat-state cosine solve, which
    # the op's later height solves reuse, and the density family runs CG
    # with the cosine solve
    def config(value):
        patch = {"box": [[0.2, 0.6], [0.1, 0.4]], "value": value}
        return {
            **BASE,
            "grid": {"dim": 2, "extents": [1.0, 1.0], "cells": [17, 17]},
            "source": {"kind": "patches", "background": 0.5, "patches": [patch]},
        }

    factored = []
    real = solvers.spla.splu
    monkeypatch.setattr(solvers.spla, "splu", lambda a, **kw: factored.append(a) or real(a, **kw))
    caches = []  # the cache of every height solve, and whether it held "u" on entry
    real_solve_u = coupled.solve_u

    def solve_u(*args, factors, **kwargs):
        caches.append((factors, "u" in factors))
        return real_solve_u(*args, factors=factors, **kwargs)

    monkeypatch.setattr(coupled, "solve_u", solve_u)
    counts, seeds = [], []
    for name, value in (("o1", 1.5), ("other", 1.6), ("o2", 1.5)):
        factored.clear()
        caches.clear()
        run("stationary", config(value), tmp_path / name)
        counts.append(len(factored))
        cache = caches[0][0]
        assert [held for _, held in caches] == [False] + [True] * (len(caches) - 1)
        assert len(caches) > 1 and all(c is cache for c, _ in caches)
        seeds.append(cache["u"])
    assert counts == [0, 0, 0]
    assert len({id(seed) for seed in seeds}) == 3
    for name in ("u.csv", "rho.csv", "phi.csv", "report.json"):
        assert (tmp_path / "o1" / name).read_bytes() == (tmp_path / "o2" / name).read_bytes()


def test_cli_import_leaves_scipy_fft_out():
    # the cosine solve uses numpy.fft: importing scipy.fft costs a one-shot
    # run about 90 ms and 5 MB of resident memory
    src = str(Path(crystalsurf.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = "import sys, crystalsurf.cli; print(sorted(m for m in sys.modules if m.startswith('scipy.fft')))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_csv_source_round_trip(tmp_path):
    grid = Grid.interval(1.0, 33)
    f = NodeField.from_function(grid, lambda x: 0.5 + 0.2 * np.cos(np.pi * x))
    write_node_csv(f, tmp_path / "f.csv")
    cfg = write_config(
        tmp_path / "c.json", {**BASE, "source": {"kind": "csv", "path": str(tmp_path / "f.csv")}}
    )
    out = tmp_path / "out"
    assert main(["stationary", "--config", cfg, "--out", str(out)]) == 0
    # mean identity from the emitted report
    report = json.loads((out / "report.json").read_text())
    assert report["estimates"]["mean_identity_residual"] <= 1e-9


def test_csv_source_grid_mismatch(tmp_path, capsys):
    grid = Grid.interval(1.0, 17)
    write_node_csv(NodeField.constant(grid, 1.0), tmp_path / "f.csv")
    cfg = write_config(
        tmp_path / "c.json", {**BASE, "source": {"kind": "csv", "path": str(tmp_path / "f.csv")}}
    )
    assert main(["stationary", "--config", cfg, "--out", str(tmp_path)]) == 2


def test_evolve_writes_manifest(tmp_path):
    cfg = write_config(
        tmp_path / "c.json",
        {
            "grid": BASE["grid"],
            "params": {"p": 1.5, "beta0": 1.0, "tau": 1e-3, "delta": 1e-6},
            "u0": {"kind": "constant", "value": 0.7},
            "dt": 0.1,
            "nsteps": 3,
        },
    )
    out = tmp_path / "out"
    assert main(["evolve", "--config", cfg, "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["completed"] is True
    assert len(manifest["steps"]) == 4
    assert (out / "u_00003.csv").exists()
    last = manifest["steps"][-1]
    assert last["residuals"] is not None and max(last["residuals"]) <= 1e-8
    assert last["estimates"]["mean_identity_residual"] <= 1e-9


def test_audit_mode(tmp_path):
    cfg = write_config(
        tmp_path / "c.json",
        {**BASE, "source": 2.0, "tau_schedule": [0.1, 0.01]},
    )
    out = tmp_path / "out"
    assert main(["audit", "--config", cfg, "--out", str(out)]) == 0
    payload = json.loads((out / "estimates.json").read_text())
    assert payload["completed"] is True
    assert [st["tau"] for st in payload["stages"]] == [0.1, 0.01]
    assert (out / "limit_flux.csv").exists()


def test_audit_at_1025_nodes_clears_the_former_residual_floor(tmp_path):
    # the audit_1d benchmark's source family (seed 2, input 1) on 1025
    # nodes: the tau = 1e-4 stage's joint Newton reached a merit near 1e-11,
    # but its result was refused because the height residual of u = ubar + v
    # read 1.2e-8, and the Anderson fallback stalled on that floor (exit 3)
    grid = Grid.interval(1.0, 1025)
    source = np.full(grid.shape, 0.5)
    coefs = (0.8160160841545047, -0.41828484214494355, 0.23439505366833016, -0.13665439881999203)
    for k, c in enumerate(coefs, start=1):
        source = source + c * np.cos(k * np.pi * grid.meshgrid()[0])
    write_node_csv(NodeField(grid, source), tmp_path / "f.csv")
    cfg = write_config(
        tmp_path / "c.json",
        {
            "grid": {"dim": 1, "extents": [1.0], "cells": [1025]},
            "params": {**BASE["params"], "tau": 0.1},
            "source": {"kind": "csv", "path": str(tmp_path / "f.csv")},
            "tau_schedule": [1e-1, 1e-2, 1e-3, 1e-4],
        },
    )
    out = tmp_path / "out"
    assert main(["audit", "--config", cfg, "--out", str(out)]) == 0
    payload = json.loads((out / "estimates.json").read_text())
    assert payload["completed"] is True
    assert [st["tau"] for st in payload["stages"]] == [1e-1, 1e-2, 1e-3, 1e-4]


SMALLEST_RUNS = {
    "stationary": ({"tau": 0.1}, {}),
    "audit": ({"tau": 0.1}, {"tau_schedule": [0.1, 0.01, 1e-3]}),
    "evolve": ({"tau": 1e-3}, {"dt": 0.05, "nsteps": 5}),
}


@pytest.mark.parametrize("mode", list(SMALLEST_RUNS))
@pytest.mark.parametrize(
    "grid",
    [Grid.interval(1.0, 3), Grid.rectangle((1.0, 1.0), (3, 3)), Grid.rectangle((1.0, 2.0), (3, 5))],
    ids=["3", "3x3", "1x2-3x5"],
)
def test_smallest_grids_run_every_solving_mode(tmp_path, monkeypatch, grid, mode):
    # three nodes per axis: the least a grid may have, the boundary of the
    # 1D paths (dptsv, and the joint Newton's band at n = 3) and of the 2D
    # cosine preconditioner's DCT-I at N = 2
    f = NodeField.from_function(grid, lambda *xs: 0.5 + sum(0.2 * np.cos(np.pi * x) for x in xs))
    write_node_csv(f, tmp_path / "f.csv")
    params, entries = SMALLEST_RUNS[mode]
    field = {"kind": "csv", "path": str(tmp_path / "f.csv")}
    config = {
        "grid": {"dim": grid.dim, "extents": list(grid.extents), "cells": list(grid.cells)},
        "params": {"p": 1.5, "beta0": 1.0, "a": 1.0, "delta": 1e-6, **params},
        "u0" if mode == "evolve" else "source": field,
        **entries,
    }
    accepted = []
    real_joint = coupled._joint_newton

    def joint(*args, **kwargs):
        try:
            out = real_joint(*args, **kwargs)
        except SolverError:
            accepted.append(False)
            raise
        accepted.append(True)
        return out

    monkeypatch.setattr(coupled, "_joint_newton", joint)
    out = tmp_path / "out"
    assert main([mode, "--config", write_config(tmp_path / "c.json", config), "--out", str(out)]) == 0
    if mode == "stationary":
        solves = [(json.loads((out / "report.json").read_text())["estimates"], f.values, "rho.csv")]
    elif mode == "audit":
        stages = json.loads((out / "estimates.json").read_text())["stages"]
        solves = [(st["estimates"], f.values, "rho.csv") for st in stages]
    else:
        steps = json.loads((out / "manifest.json").read_text())["steps"]
        solves = [
            (st["estimates"], read_node_csv(out / prev["u_csv"], grid).values / 0.05, st["rho_csv"])
            for prev, st in zip(steps, steps[1:])
        ]
    for estimates, source, rho_csv in solves:
        # (a + tau^2) int u = int f to rounding
        assert estimates["mean_identity_residual"] <= 1e-13 * (1.0 + np.abs(source).max() * grid.volume)
        assert np.min(read_node_csv(out / rho_csv, grid).values) > 0.0
    # every 1D solve is the joint Newton's: a warm stage or step from its
    # start, a cold one after one Picard map
    assert accepted == ([True] * len(solves) if grid.dim == 1 else [])


# a run whose solve_coupled call FAIL_CALL fails: evolve steps 0..2 and the
# audit stages 0.1 and 0.05 complete, then the next solve raises
FAIL_CALL = 3
PATCH = {"kind": "patches", "background": 1.0, "patches": [{"box": [[0.25, 0.5]], "value": 1.2}]}
FAILING_RUNS = {
    "evolve": ({**BASE, "u0": PATCH, "dt": 0.05, "nsteps": 6, "checkpoint_every": 5}, "step 3: "),
    "audit": ({**BASE, "source": 2.0, "tau_schedule": [0.1, 0.05, 0.02, 0.01]}, "tau=0.02: "),
}


def fail_on_call(monkeypatch, k, error, before=None):
    """Make coupled.solve_coupled raise ``error`` on its k-th call (on none
    when k is None); ``before`` runs at the start of every call with the
    call's number."""
    solve, calls = coupled.solve_coupled, []

    def failing(*args, **kwargs):
        calls.append(None)
        if before is not None:
            before(len(calls))
        if len(calls) == k:
            raise error
        return solve(*args, **kwargs)

    monkeypatch.setattr(coupled, "solve_coupled", failing)


@pytest.mark.parametrize("mode", ["evolve", "audit"])
@pytest.mark.parametrize("kind", ["solver", "arithmetic", "value"])
def test_failed_solve_writes_prefix_and_exits_3(tmp_path, capsys, monkeypatch, mode, kind):
    report = SolveReport(iterations=2, residual_history=[1.0, 0.5], converged=False)
    error = {
        "solver": SolverError("forced", report),
        "arithmetic": FloatingPointError("forced"),
        "value": ValueError("forced"),
    }[kind]
    fail_on_call(monkeypatch, FAIL_CALL, error)
    config, tag = FAILING_RUNS[mode]
    out = tmp_path / "out"
    assert main([mode, "--config", write_config(tmp_path / "c.json", config), "--out", str(out)]) == 3
    err = capsys.readouterr().err.splitlines()
    failure = tag + "forced" if kind == "solver" else "forced"
    if kind == "solver":
        # the failing solve's own report reaches main, which prints it
        assert err[0] == f"solver error: {failure}"
        assert json.loads(err[1]) == report.to_dict()
    else:
        assert err == [f"solver error: numerical breakdown: {error!r}"]
    if mode == "evolve":
        manifest = json.loads((out / "manifest.json").read_text())
        assert [st["index"] for st in manifest["steps"]] == [0, 1, 2]
        # checkpoint_every = 5: step 0, then the last completed step
        assert sorted(p.name for p in out.glob("*.csv")) == ["rho_00002.csv", "u_00000.csv", "u_00002.csv"]
        assert manifest["steps"][-1]["u_csv"] == "u_00002.csv"
    else:
        manifest = json.loads((out / "estimates.json").read_text())
        assert [st["tau"] for st in manifest["stages"]] == [0.1, 0.05]
        assert all((out / name).exists() for name in ("u.csv", "rho.csv", "limit_flux.csv"))
    assert manifest["completed"] is False and manifest["failure"] == failure


@pytest.mark.parametrize("schedule", [[0.1, 0.01], [0.1, 1e-8]], ids=["then-0.01", "then-1e-8"])
def test_dgbsv_failure_exits_3_with_the_joint_newtons_error_and_report(tmp_path, capsys, monkeypatch, schedule):
    # every 1D stage is the joint Newton, the cold first one after one
    # Picard map: when its banded solve fails, the run exits 3 with that
    # error and the joint Newton's report, after that one map, with no
    # stage written, whatever the later stages of the schedule
    cfg = write_config(tmp_path / "c.json", {**BASE, "source": 2.0, "tau_schedule": schedule})
    maps, real_map = [], coupled.picard_map
    monkeypatch.setattr(coupled, "picard_map", lambda *a, **k: maps.append(None) or real_map(*a, **k))
    monkeypatch.setattr(coupled.lapack, "dgbsv", failing_dgbsv)
    out = tmp_path / "out"
    assert main(["audit", "--config", cfg, "--out", str(out)]) == 3
    err = capsys.readouterr().err.splitlines()
    assert err[0] == "solver error: tau=0.1: coupled Newton matrix is singular (dgbsv info 1)" and len(err) == 2
    report = json.loads(err[1])
    assert report["converged"] is False and report["iterations"] == 0 and len(report["residual_history"]) == 1
    assert len(maps) == 1
    payload = json.loads((out / "estimates.json").read_text())
    assert payload["completed"] is False and payload["stages"] == []
    assert payload["failure"] == "tau=0.1: coupled Newton matrix is singular (dgbsv info 1)"


def test_evolve_step_whose_density_underflows_exits_3_naming_it(tmp_path, capsys):
    # step 1 of the evolve_1d benchmark's seed-1 input at dt 0.005 on 513
    # nodes: ln rho = -div(...) reaches -975 at x = 1 and scales like -1/h.
    # The joint Newton converges, to a density below the float range, and
    # the result is refused with solve_rho's wording
    grid = Grid.interval(1.0, 513)
    coefs = (0.20047286498801029, -0.10900927392651871, 0.055729915352635606, -0.04358919557709795)
    u0 = 1.0 + sum(c * np.cos(k * np.pi * grid.meshgrid()[0]) for k, c in enumerate(coefs, 1))
    write_node_csv(NodeField(grid, u0), tmp_path / "u0.csv")
    cfg = write_config(
        tmp_path / "c.json",
        {
            "grid": {"dim": 1, "extents": [1.0], "cells": [513]},
            "params": {**BASE["params"], "tau": 1e-3},
            "u0": {"kind": "csv", "path": str(tmp_path / "u0.csv")},
            "dt": 0.005,
            "nsteps": 1,
        },
    )
    out = tmp_path / "out"
    assert main(["evolve", "--config", cfg, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    lines = err.splitlines()
    assert len(lines) == 2 and "Traceback" not in err
    assert lines[0].startswith(
        "solver error: step 1: coupled Newton result fails the outer stopping test: density underflows: rho = e^-975."
    )
    assert lines[0].endswith(" is below the smallest float at 1 of 513 nodes")
    # the joint Newton's own report: its merit converged (3.4e-10 after 18
    # joint steps), its result refused
    report = json.loads(lines[1])
    assert report["converged"] is False and report["iterations"] <= 30
    assert report["residual_history"][-1] <= 1e-9
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["completed"] is False and [st["index"] for st in manifest["steps"]] == [0]


def test_evolve_checkpoint_written_before_the_next_step(tmp_path, monkeypatch):
    # the checkpoint of step k - 1 is on disk when the solve of step k starts
    out = tmp_path / "out"
    on_disk = []
    fail_on_call(monkeypatch, None, None, lambda k: on_disk.append((out / f"u_{k - 1:05d}.csv").exists()))
    config = {**FAILING_RUNS["evolve"][0], "checkpoint_every": 1}
    assert main(["evolve", "--config", write_config(tmp_path / "c.json", config), "--out", str(out)]) == 0
    assert on_disk == [True] * config["nsteps"]


def test_singular_mode(tmp_path, capsys):
    grid = Grid.rectangle((1.0, 1.0), (65, 65))
    rho = NodeField.from_function(grid, lambda x, y: ((x - 0.5) ** 2 + (y - 0.5) ** 2) ** 2)
    write_node_csv(rho, tmp_path / "rho.csv")
    doc = {
        "grid": {"dim": 2, "extents": [1.0, 1.0], "cells": [65, 65]},
        "params": {"p": 1.5},
        "rho": {"kind": "csv", "path": str(tmp_path / "rho.csv")},
        "probes": [[0.5, 0.5], [0.25, 0.25]],
        "eps_list": [1.5],
        "r_max": 0.49,
        "levels": 5,
    }
    cfg = write_config(tmp_path / "c.json", doc)
    out = tmp_path / "out"
    assert main(["singular", "--config", cfg, "--out", str(out)]) == 0
    payload = json.loads((out / "singularity.json").read_text())
    labels = {tuple(p["point"]): p["label"] for p in payload["probes"]}
    assert labels[(0.5, 0.5)] == "suspect"
    assert labels[(0.25, 0.25)] == "regular"
    # a probe on the boundary is a config error that names the point in plain floats
    cfg = write_config(tmp_path / "c.json", {**doc, "probes": [[0.0, 0.5]]})
    assert main(["singular", "--config", cfg, "--out", str(tmp_path / "out2")]) == 2
    err = capsys.readouterr().err
    assert "probe (0.0, 0.5) lies on or outside the boundary" in err
    assert "np.float64" not in err


def test_mms_mode(tmp_path):
    cfg = write_config(
        tmp_path / "c.json",
        {
            "grid": {"dim": 1, "extents": [1.0], "cells": [17]},
            "params": {"p": 1.5, "beta0": 0.5, "a": 1.0, "tau": 0.1, "delta": 1e-6},
            "cells_list": [17, 33, 65],
            "amplitude": 0.06,
        },
    )
    out = tmp_path / "out"
    assert main(["mms", "--config", cfg, "--out", str(out)]) == 0
    lines = (out / "mms.csv").read_text().strip().splitlines()
    assert lines[0] == "h,err_u,order_u,err_rho,order_rho"
    last = lines[-1].split(",")
    assert abs(float(last[2]) - 2.0) <= 0.2
    assert abs(float(last[4]) - 2.0) <= 0.2


def test_mms_studies_the_configured_extents(tmp_path, monkeypatch):
    # grid.extents sets the domain on every axis; grid.cells is ignored
    grids = []
    cosine_mms = coupled.analysis.cosine_mms
    monkeypatch.setattr(coupled.analysis, "cosine_mms", lambda grid, *a: grids.append(grid) or cosine_mms(grid, *a))
    cfg = write_config(
        tmp_path / "c.json",
        {
            "grid": {"dim": 2, "extents": [1.0, 2.0], "cells": [33, 33]},
            "params": {"p": 1.5, "beta0": 0.5, "a": 1.0, "tau": 0.1, "delta": 1e-6},
            "cells_list": [5, 9],
        },
    )
    out = tmp_path / "out"
    assert main(["mms", "--config", cfg, "--out", str(out)]) == 0
    assert [(g.extents, g.cells) for g in grids] == [((1.0, 2.0), (5, 5)), ((1.0, 2.0), (9, 9))]
    rows = (out / "mms.csv").read_text().splitlines()[1:]
    assert [float(r.split(",")[0]) for r in rows] == [0.5, 0.25]


def test_mms_extent_key_is_a_config_error(tmp_path, capsys):
    err = assert_config_error(tmp_path, capsys, "mms", {**BASE, "cells_list": [5, 9], "extent": 1.0})
    assert "unknown key 'extent'" in err


def test_mode_mismatch_rejected(tmp_path):
    cfg = write_config(tmp_path / "c.json", {**BASE, "source": 1.0, "mode": "evolve"})
    assert main(["stationary", "--config", cfg, "--out", str(tmp_path)]) == 2


# ---------------------------------------------------------------------------
# exit-code contract: malformed values are config errors (exit 2), not tracebacks
# ---------------------------------------------------------------------------


def assert_config_error(tmp_path, capsys, mode, payload):
    path = tmp_path / "c.json"
    # json.dump writes NaN as the bare token that json.load accepts back
    cfg = write_config(path, payload)
    assert main([mode, "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert "Traceback" not in err
    # the config is parsed in full before the output directory is created
    assert not (tmp_path / "out").exists()
    return err


@pytest.mark.parametrize("tau", [0.0, float("nan"), float("inf")])
def test_config_error_nonpositive_or_nonfinite_tau(tmp_path, capsys, tau):
    params = {**BASE["params"], "tau": tau}
    assert_config_error(tmp_path, capsys, "stationary", {**BASE, "params": params, "source": 1.0})


def test_config_error_tau_zero_in_evolve_and_mms(tmp_path, capsys):
    params = {**BASE["params"], "tau": 0.0}
    assert_config_error(
        tmp_path, capsys, "evolve", {**BASE, "params": params, "u0": 1.0, "dt": 0.1, "nsteps": 2}
    )
    assert_config_error(tmp_path, capsys, "mms", {**BASE, "params": params, "cells_list": [17, 33]})


@pytest.mark.parametrize(
    "source",
    [
        float("nan"),
        {"kind": "constant", "value": float("nan")},
        {"kind": "patches", "patches": [{"box": [[0.2, 0.6]], "value": float("inf")}]},
    ],
)
def test_config_error_nonfinite_source(tmp_path, capsys, source):
    assert_config_error(tmp_path, capsys, "stationary", {**BASE, "source": source})


def test_config_error_nonfinite_csv_source(tmp_path, capsys):
    path = tmp_path / "f.csv"
    write_node_csv(NodeField.constant(Grid.interval(1.0, 33), 1.0), path)
    path.write_text(path.read_text().replace(",1\n", ",nan\n", 1))
    assert "nan" in path.read_text()
    source = {"kind": "csv", "path": str(path)}
    assert_config_error(tmp_path, capsys, "stationary", {**BASE, "source": source})


@pytest.mark.parametrize("path", [["x,value", "0,1", "0.5,2", "1,3"], 7, None])
def test_config_error_csv_path_not_a_string(tmp_path, capsys, path):
    # a list of strings would otherwise be read by np.loadtxt as inline CSV lines
    grid = {"dim": 1, "extents": [1.0], "cells": [3]}
    source = {"kind": "csv", "path": path}
    err = assert_config_error(tmp_path, capsys, "stationary", {**BASE, "grid": grid, "source": source})
    assert "'source'.path" in err


@pytest.mark.parametrize(
    "patches",
    [[3], 3, [{"box": 3, "value": 1.0}], [{"box": [0.2], "value": 1.0}], [{"box": [[0.2, "x"]], "value": 1.0}]],
)
def test_config_error_malformed_patches(tmp_path, capsys, patches):
    source = {"kind": "patches", "patches": patches}
    assert_config_error(tmp_path, capsys, "stationary", {**BASE, "source": source})


@pytest.mark.parametrize("cells_list", [[2, 5], [], 17, [17, "x"]])
def test_config_error_mms_cells_list(tmp_path, capsys, cells_list):
    assert_config_error(tmp_path, capsys, "mms", {**BASE, "cells_list": cells_list})


@pytest.mark.parametrize("schedule", [[0.1, 0], [0.1, 0.2], [], [0.1, float("nan")], 0.1])
def test_config_error_audit_tau_schedule(tmp_path, capsys, schedule):
    assert_config_error(tmp_path, capsys, "audit", {**BASE, "source": 1.0, "tau_schedule": schedule})


def test_audit_accepts_zero_params_tau(tmp_path):
    # the schedule, not params.tau, sets the smoothing of every audit stage
    params = {**BASE["params"], "tau": 0.0}
    cfg = write_config(
        tmp_path / "c.json", {**BASE, "params": params, "source": 2.0, "tau_schedule": [0.1]}
    )
    assert main(["audit", "--config", cfg, "--out", str(tmp_path / "out")]) == 0


@pytest.mark.parametrize(
    "section, overrides",
    [
        ("picard", {"tol_fixed_point": -1}),
        ("picard", {"tol_residual": 0}),
        ("picard", {"delta_polish": -1e-10}),
        ("picard", {"max_outer": 2.5}),
        ("newton", {"tol_residual": 0}),
        ("newton", {"tol_residual": -1e-10}),
        ("newton", {"tol_residual": float("inf")}),
        ("newton", {"max_iter": 0}),
        ("newton", {"max_iter": 2.5}),
        ("newton", {"tol_residual": float("nan")}),
    ],
)
def test_config_error_solver_controls(tmp_path, capsys, section, overrides):
    assert_config_error(tmp_path, capsys, "stationary", {**BASE, "source": 1.0, section: overrides})


def test_solver_controls_accept_boundaries(tmp_path):
    cfg = write_config(
        tmp_path / "c.json",
        {
            **BASE,
            "source": 1.0,
            "picard": {"delta_polish": None},
        },
    )
    assert main(["stationary", "--config", cfg, "--out", str(tmp_path / "out")]) == 0


@pytest.mark.parametrize(
    "mode, payload",
    [
        ("stationary", {**BASE, "grid": {"dim": 1, "extents": [1.0], "cells": [33.9]}, "source": 1.0}),
        ("evolve", {**BASE, "u0": 1.0, "dt": 0.1, "nsteps": 2.7}),
        ("evolve", {**BASE, "u0": 1.0, "dt": 0.1, "nsteps": 2, "checkpoint_every": 1.5}),
        ("stationary", {**BASE, "grid": {"dim": 1.5, "extents": [1.0], "cells": [33]}, "source": 1.0}),
        ("mms", {**BASE, "cells_list": [17, 33.5]}),
    ],
)
def test_config_error_non_integral_counts(tmp_path, capsys, mode, payload):
    # integer entries are not truncated: 33.9 nodes or 2.7 steps is a config error
    assert_config_error(tmp_path, capsys, mode, payload)


def test_integral_float_counts_accepted(tmp_path):
    cfg = write_config(
        tmp_path / "c.json",
        {**BASE, "grid": {"dim": 1.0, "extents": [1.0], "cells": [17.0]}, "u0": 0.7, "dt": 0.1, "nsteps": 2.0},
    )
    assert main(["evolve", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    assert len(json.loads((tmp_path / "out" / "manifest.json").read_text())["steps"]) == 3


def test_singular_jacobian_is_solver_error(tmp_path, capsys):
    # on 5 nodes the p = 1.2 manufactured source drives the density to ~1e8,
    # where tau/rho vanishes beside the singular Laplacian and SuperLU
    # reports an exactly singular factor
    params = {"p": 1.2, "beta0": 1.0, "a": 1.0, "tau": 0.05, "delta": 1e-6}
    cfg = write_config(
        tmp_path / "c.json",
        {"grid": {"dim": 1, "extents": [1.0], "cells": [5]}, "params": params, "cells_list": [5, 9]},
    )
    assert main(["mms", "--config", cfg, "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("solver error:") and "Traceback" not in err
    # the density stays positive; the message names the failed factorization
    assert "sparse factorization failed" in err
    assert "source too negative" not in err


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("weight", [np.nan, np.inf])
def test_non_finite_outer_iterate_is_numerical_breakdown(tmp_path, capsys, monkeypatch, weight):
    # an Anderson mixing whose least-squares weights come back NaN or inf
    # makes the next outer iterate non-finite: the outer loop stops it with
    # the error a NodeField raises, before the mean pin sums inf - inf
    # (warnings are errors here), and the CLI exits 3 without a traceback.
    # A 2D solve runs the loop

    def lstsq(a, b, rcond=None):
        return np.full(a.shape[1], weight), np.empty(0), a.shape[1], np.ones(a.shape[1])

    monkeypatch.setattr(np.linalg, "lstsq", lstsq)
    source = {"kind": "patches", "background": 0.5, "patches": [{"box": [[0.25, 0.5], [0.0, 1.0]], "value": 1.0}]}
    grid = {"dim": 2, "extents": [1.0, 1.0], "cells": [17, 17]}
    cfg = write_config(tmp_path / "c.json", {**BASE, "grid": grid, "source": source})
    assert main(["stationary", "--config", cfg, "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert err == "solver error: numerical breakdown: ValueError('node values must be finite')\n"


@pytest.mark.filterwarnings("error")
def test_density_overflow_is_named(tmp_path, capsys):
    # the first density source has mean ~100 at tau = 0.1, so mean ln rho
    # ~1000 lies beyond ln(max float); the solve says so before any
    # exponential overflows (warnings are errors here)
    source = {"kind": "patches", "patches": [{"box": [[0.0, 0.5]], "value": 2e4}]}
    cfg = write_config(tmp_path / "c.json", {**BASE, "source": source})
    assert main(["stationary", "--config", cfg, "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("solver error: rho-stage: density overflows")
    assert "RuntimeWarning" not in err and "Traceback" not in err
    # the failure precedes any Newton iteration, so its report is empty
    assert json.loads(err.splitlines()[1]) == {"converged": False, "iterations": 0, "residual_history": []}


VALID_BY_MODE = {
    "stationary": {**BASE, "source": 1.0},
    "evolve": {**BASE, "u0": 1.0, "dt": 0.1, "nsteps": 2},
    "audit": {**BASE, "source": 1.0, "tau_schedule": [0.1]},
    "singular": {**BASE, "rho": 1.0, "probes": [[0.5]]},
    "mms": {**BASE, "cells_list": [5, 9]},
}
REQUIRED_BY_MODE = {
    "stationary": ["grid", "params", "source"],
    "evolve": ["grid", "params", "u0", "dt", "nsteps"],
    "audit": ["grid", "params", "source", "tau_schedule"],
    "singular": ["grid", "params", "rho", "probes"],
    "mms": ["grid", "params", "cells_list"],
}


@pytest.mark.parametrize(
    "mode, payload, key",
    [
        ("stationary", {**VALID_BY_MODE["stationary"], "sorce": 2.0}, "sorce"),
        # the line search constants and the linear solver are not settable
        ("stationary", {**VALID_BY_MODE["stationary"], "newton": {"armijo_factor": 1.5}}, "armijo_factor"),
        ("stationary", {**VALID_BY_MODE["stationary"], "newton": {"armijo_factor": 0}}, "armijo_factor"),
        ("stationary", {**VALID_BY_MODE["stationary"], "newton": {"armijo_decrease": 1.0}}, "armijo_decrease"),
        ("stationary", {**VALID_BY_MODE["stationary"], "newton": {"max_backtracks": -1}}, "max_backtracks"),
        ("stationary", {**VALID_BY_MODE["stationary"], "newton": {"pcg_tol": 0}}, "pcg_tol"),
        # a mode rejects the solver sections it does not read
        ("mms", {**VALID_BY_MODE["mms"], "picard": {"max_outer": 1}}, "picard"),
        ("singular", {**VALID_BY_MODE["singular"], "newton": {"max_iter": 1}}, "newton"),
        ("singular", {**VALID_BY_MODE["singular"], "picard": {"max_outer": 1}}, "picard"),
    ],
)
def test_config_error_unknown_key(tmp_path, capsys, mode, payload, key):
    err = assert_config_error(tmp_path, capsys, mode, payload)
    assert f"unknown key '{key}'" in err


@pytest.mark.parametrize(
    "mode, key", [(mode, key) for mode, keys in REQUIRED_BY_MODE.items() for key in keys]
)
def test_config_error_missing_required_key(tmp_path, capsys, mode, key):
    payload = {k: v for k, v in VALID_BY_MODE[mode].items() if k != key}
    err = assert_config_error(tmp_path, capsys, mode, payload)
    assert f"missing key '{key}' in the config" in err


def test_singular_many_levels_parse_quickly(tmp_path):
    # the dyadic radii shrink, so the probe stops at the first ball with
    # too few nodes: a huge level count costs what its useful levels cost
    grid = Grid.rectangle((1.0, 1.0), (33, 33))
    rho = NodeField.from_function(grid, lambda x, y: 0.5 + (x - 0.5) ** 2 + (y - 0.5) ** 2)
    write_node_csv(rho, tmp_path / "rho.csv")
    doc = {
        "grid": {"dim": 2, "extents": [1.0, 1.0], "cells": [33, 33]},
        "params": {"p": 1.5},
        "rho": {"kind": "csv", "path": str(tmp_path / "rho.csv")},
        "probes": [[0.5, 0.5], [0.25, 0.25]],
        "r_max": 0.24,
    }
    start = time.process_time()
    execute = parse("singular", {**doc, "levels": 10**5})
    assert time.process_time() - start < 1.0
    execute(tmp_path)
    run("singular", {**doc, "levels": 40}, tmp_path / "few")
    assert (tmp_path / "singularity.json").read_bytes() == (tmp_path / "few" / "singularity.json").read_bytes()


@pytest.mark.parametrize(
    "mode, payload",
    [
        ("stationary", {**BASE, "grid": {"dim": 2, "extents": [1.0, 0.5], "cells": [1e300, 3]}, "source": 0.0}),
        ("stationary", {**BASE, "grid": {"dim": 1, "extents": [1.0], "cells": [10**8]}, "source": 0.0}),
        ("mms", {**BASE, "cells_list": [17, 10**8]}),
        ("mms", {**BASE, "cells_list": [5, 9], "amplitude": 0.0}),
        ("singular", {**BASE, "rho": 1.0, "probes": [[0.5]], "levels": 2}),
        ("singular", {**BASE, "rho": 1.0, "probes": [[0.0]]}),
        ("singular", {**BASE, "rho": 1.0, "probes": [[0.5]], "r_max": 0.01}),
        ("evolve", {**BASE, "u0": 1.0, "dt": 1e-320, "nsteps": 2}),
    ],
)
def test_config_error_unusable_sizes(tmp_path, capsys, mode, payload):
    # oversized grids are refused before any field is allocated; a zero
    # mms amplitude leaves the relative errors undefined; a probe window
    # needs 3 levels, an interior point and 2 radii holding enough nodes;
    # a dt of 1e-320 has no finite rate 1/dt
    assert_config_error(tmp_path, capsys, mode, payload)


@pytest.mark.parametrize(
    "mode, overrides",
    [
        ("stationary", {"params": {**BASE["params"], "tau": 1e300}, "source": 1.0}),
        ("mms", {"params": {**BASE["params"], "beta0": 1e300}, "cells_list": [5, 9]}),
    ],
)
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_numerical_overflow_is_solver_error(tmp_path, capsys, mode, overrides):
    # tau**2 overflows in the mean target; beta0 = 1e300 overflows the
    # manufactured density, which raises rather than warns
    cfg = write_config(tmp_path / "c.json", {**BASE, **overrides})
    assert main([mode, "--config", cfg, "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("solver error:") and "Traceback" not in err
    if mode == "mms":
        assert "FloatingPointError('overflow encountered in exp')" in err


@pytest.mark.parametrize(
    "mode, payload",
    [
        ("evolve", {**BASE, "u0": 1.0, "dt": 0.1, "nsteps": True}),
        ("stationary", {**BASE, "params": {**BASE["params"], "tau": True}, "source": 1.0}),
        ("evolve", {**BASE, "u0": True, "dt": 0.1, "nsteps": 2}),
        ("stationary", {**BASE, "source": True}),
        ("evolve", {**BASE, "u0": 1.0, "dt": "0.05", "nsteps": 2}),
        ("stationary", {**BASE, "source": 1.0, "picard": {"relaxation": True, "delta_polish": False}}),
        ("stationary", {**BASE, "source": 1.0, "newton": {"tol_residual": True}}),
    ],
)
def test_config_error_numeric_entries_need_json_numbers(tmp_path, capsys, mode, payload):
    # booleans and numeric strings are not numbers: true is not 1, "0.05" is not 0.05
    assert_config_error(tmp_path, capsys, mode, payload)


@pytest.mark.parametrize("picard, delta", [({}, 1e-10), ({"delta_polish": None}, 1e-6)])
def test_outputs_record_the_solved_params(tmp_path, picard, delta):
    # params.delta is 1e-6; the default delta_polish caps the solved system at 1e-10
    runs = [
        ("stationary", {**BASE, "source": 1.0, "picard": picard}, "report.json"),
        ("evolve", {**BASE, "u0": 1.0, "dt": 0.1, "nsteps": 1, "picard": picard}, "manifest.json"),
    ]
    for mode, payload, name in runs:
        out = tmp_path / mode
        cfg = write_config(tmp_path / f"{mode}.json", payload)
        assert main([mode, "--config", cfg, "--out", str(out)]) == 0
        params = json.loads((out / name).read_text())["params"]
        assert params == {**BASE["params"], "delta": delta}
