import json

import numpy as np
import pytest

from crystalsurf.cli import main
from crystalsurf.mesh import Grid, NodeField, read_node_csv, write_node_csv


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


def test_malformed_json_is_config_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["stationary", "--config", str(bad), "--out", str(tmp_path)]) == 2


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


def test_singular_mode(tmp_path):
    grid = Grid.rectangle((1.0, 1.0), (65, 65))
    rho = NodeField.from_function(grid, lambda x, y: ((x - 0.5) ** 2 + (y - 0.5) ** 2) ** 2)
    write_node_csv(rho, tmp_path / "rho.csv")
    cfg = write_config(
        tmp_path / "c.json",
        {
            "grid": {"dim": 2, "extents": [1.0, 1.0], "cells": [65, 65]},
            "params": {"p": 1.5},
            "rho": {"kind": "csv", "path": str(tmp_path / "rho.csv")},
            "probes": [[0.5, 0.5], [0.25, 0.25]],
            "eps_list": [1.5],
            "r_max": 0.49,
            "levels": 5,
        },
    )
    out = tmp_path / "out"
    assert main(["singular", "--config", cfg, "--out", str(out)]) == 0
    payload = json.loads((out / "singularity.json").read_text())
    labels = {tuple(p["point"]): p["label"] for p in payload["probes"]}
    assert labels[(0.5, 0.5)] == "suspect"
    assert labels[(0.25, 0.25)] == "regular"


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


@pytest.mark.parametrize(
    "mode, payload",
    [
        ("stationary", {**BASE, "grid": {"dim": 2, "extents": [1.0, 0.5], "cells": [1e300, 3]}, "source": 0.0}),
        ("stationary", {**BASE, "grid": {"dim": 1, "extents": [1.0], "cells": [10**8]}, "source": 0.0}),
        ("mms", {**BASE, "cells_list": [17, 10**8]}),
        ("mms", {**BASE, "cells_list": [5, 9], "amplitude": 0.0}),
    ],
)
def test_config_error_unusable_sizes(tmp_path, capsys, mode, payload):
    # oversized grids are refused before any field is allocated; a zero
    # mms amplitude leaves the relative errors undefined
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
