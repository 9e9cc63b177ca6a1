"""Exit-code contract of the CLI over generated config documents.

Valid documents for every mode on grids of at most 9 nodes, and the same
documents with one entry replaced by a junk value, deleted, or joined by
an unknown key. Whatever the document, ``main`` must return 0, 2, 3 or
4 and write no traceback to stderr, and a config error (2) must leave no
``--out`` path behind. ``parse`` alone must return an execute step or
raise ``ConfigError`` or ``OSError``.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from crystalsurf.cli import ConfigError, main, parse

JUNK = [
    None,
    True,
    -1,
    0,
    2.5,
    1e300,
    -1e300,
    float("nan"),
    float("inf"),
    "x",
    [],
    {},
    [1.0],
    [[0.5]],
    {"kind": "constant"},
    {"kind": "csv", "path": "missing.csv"},
    {"kind": "csv", "path": ["x,value"]},
]


@st.composite
def grids(draw):
    if draw(st.booleans()):
        return {"dim": 1, "extents": [draw(st.sampled_from([0.5, 1.0, 2.0]))], "cells": [draw(st.integers(3, 9))]}
    return {"dim": 2, "extents": [1.0, draw(st.sampled_from([0.5, 1.0, 2.0]))], "cells": [3, 3]}


def fields(grid, low=-1.0):
    dim = grid["dim"]
    value = st.floats(low, 2.0, allow_nan=False)
    patch = st.fixed_dictionaries(
        {"box": st.just([[0.0, 0.5]] * dim), "value": value}
    )
    return st.one_of(
        value,
        st.fixed_dictionaries({"kind": st.just("constant"), "value": value}),
        st.fixed_dictionaries(
            {"kind": st.just("patches"), "background": value, "patches": st.lists(patch, max_size=2)}
        ),
    )


@st.composite
def documents(draw):
    """(mode, config) with every entry valid."""
    mode = draw(st.sampled_from(["stationary", "evolve", "audit", "singular", "mms"]))
    grid = draw(grids()) if mode != "mms" else {"dim": 1, "extents": [1.0], "cells": [5]}
    params = {
        "p": draw(st.sampled_from([1.2, 1.5, 2.0])),
        "beta0": draw(st.sampled_from([0.5, 1.0])),
        "a": draw(st.sampled_from([0.5, 1.0])),
        "tau": draw(st.sampled_from([0.05, 0.1, 0.5])),
        "delta": 1e-6,
    }
    doc = {"grid": grid, "params": params}
    if draw(st.booleans()):
        doc["mode"] = mode
    if mode in ("stationary", "audit"):
        doc["source"] = draw(fields(grid))
    if mode == "stationary" and draw(st.booleans()):
        doc["newton"] = {"max_iter": draw(st.integers(1, 50))}
        doc["picard"] = {"relaxation": draw(st.sampled_from([0.5, 1.0])), "max_outer": draw(st.integers(1, 50))}
    if mode == "evolve":
        doc.update(u0=draw(fields(grid)), dt=draw(st.sampled_from([0.05, 0.5])), nsteps=draw(st.integers(1, 2)))
        if draw(st.booleans()):
            doc["checkpoint_every"] = draw(st.integers(1, 3))
    if mode == "audit":
        doc["tau_schedule"] = draw(st.sampled_from([[0.1], [0.1, 0.05]]))
    if mode == "singular":
        doc["rho"] = draw(fields(grid, low=0.0))
        doc["probes"] = [[0.25 * e for e in grid["extents"]]]
        doc["levels"] = draw(st.integers(2, 4))
    if mode == "mms":
        doc["cells_list"] = [5, 9]
    return mode, doc


def _paths(node, prefix=()):
    """Paths to every entry of a nested config document."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


@st.composite
def mutated_documents(draw):
    """A valid document with one entry replaced, deleted, or one unknown key added."""
    mode, doc = draw(documents())
    path = draw(st.sampled_from(list(_paths(doc))))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    action = draw(st.sampled_from(["replace", "delete", "add"]))
    if action == "replace":
        parent[path[-1]] = draw(st.sampled_from(JUNK))
    elif action == "delete":
        del parent[path[-1]]
    elif isinstance(parent, dict):
        parent["unknown"] = 1.0
    else:
        parent.append(draw(st.sampled_from(JUNK)))
    return mode, doc


def run_cli(mode, doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "c.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main([mode, "--config", str(path), "--out", str(Path(tmp) / "out")])
        wrote = (Path(tmp) / "out").exists()
    return code, err.getvalue(), wrote


def contract(examples):
    """Deterministic, bounded example budget: the suite runs this on every change."""
    return settings(
        max_examples=examples,
        deadline=None,
        derandomize=True,
        database=None,
        suppress_health_check=[HealthCheck.too_slow],
    )


@contract(30)
@given(documents())
def test_valid_documents_keep_exit_contract(case):
    code, err, wrote = run_cli(*case)
    assert code in (0, 2, 3, 4), err
    assert "Traceback" not in err
    assert not (code == 2 and wrote), err


@contract(80)
@given(mutated_documents())
def test_mutated_documents_keep_exit_contract(case):
    code, err, wrote = run_cli(*case)
    assert code in (0, 2, 3, 4), err
    assert "Traceback" not in err
    assert not (code == 2 and wrote), err


@contract(1000)
@given(mutated_documents())
def test_parse_returns_an_execute_step_or_a_config_error(case):
    # parsing runs no solve, so it affords a larger budget than the end-to-end tests
    try:
        execute = parse(*case)
    except (ConfigError, OSError):
        return
    assert callable(execute)
