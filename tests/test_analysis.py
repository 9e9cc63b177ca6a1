import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crystalsurf.energy import ModelParams
from crystalsurf.mesh import Grid, NodeField, integrate, norm_lp
from crystalsurf.coupled import PicardConfig, ProblemData, mms_convergence, solve_coupled
from crystalsurf.solvers import apply_height_operator, solve_rho, solve_u
from crystalsurf.analysis import (
    apriori_audit,
    classify_points,
    cosine_mms,
    degiorgi_sequence_check,
    degiorgi_threshold,
    manufactured_problem,
    vanishing_order,
)
from conftest import smooth_field


@pytest.fixture
def grid():
    return Grid.interval(1.0, 65)


def params_with(**kw):
    base = dict(p=1.5, beta0=1.0, a=1.0, tau=0.1, delta=1e-6)
    base.update(kw)
    return ModelParams(**base)


# ---------------------------------------------------------------------------
# a priori audit
# ---------------------------------------------------------------------------


def test_audit_trivial_solution(grid):
    data = ProblemData(NodeField.zeros(grid), params_with())
    rep = apriori_audit(NodeField.zeros(grid), NodeField.constant(grid, 1.0), data)
    assert rep.dirichlet_sqrt_rho == 0.0
    assert rep.w1p_u == 0.0
    assert rep.l1_log_rho == 0.0
    assert rep.mean_identity_residual == 0.0
    assert rep.sup_u_plus == 0.0 and rep.sup_u_minus == 0.0


def test_audit_constant_solution(grid):
    c, p = 2.0, params_with()
    data = ProblemData(NodeField.constant(grid, c), p)
    triple, _ = solve_coupled(data)
    rep = apriori_audit(triple.u, triple.rho, data)
    assert rep.dirichlet_sqrt_rho <= 1e-12
    expect_l1 = grid.volume * p.tau * abs(c) / (p.a + p.tau**2)
    assert rep.l1_log_rho == pytest.approx(expect_l1, rel=1e-8)


def test_audit_rejects_nonpositive_density(grid):
    data = ProblemData(NodeField.zeros(grid), params_with())
    with pytest.raises(ValueError):
        apriori_audit(NodeField.zeros(grid), NodeField.zeros(grid), data)


def test_audit_matches_independent_summation(grid, rng):
    # straightforward re-summation with plain loops over the trapezoid rule
    p = params_with()
    data = ProblemData(smooth_field(grid, rng, offset=0.3), p)
    triple, _ = solve_coupled(data)
    rep = apriori_audit(triple.u, triple.rho, data)

    x = grid.axis_coords(0)
    w = np.full(x.size, grid.h[0])
    w[0] = w[-1] = grid.h[0] / 2
    sqrt_rho = np.sqrt(triple.rho.values)
    dirichlet = sum(
        (sqrt_rho[i + 1] - sqrt_rho[i]) ** 2 / grid.h[0] for i in range(x.size - 1)
    )
    assert rep.dirichlet_sqrt_rho == pytest.approx(dirichlet, rel=1e-10, abs=1e-14)
    l1 = sum(w[i] * abs(math.log(triple.rho.values[i])) for i in range(x.size))
    assert rep.l1_log_rho == pytest.approx(l1, rel=1e-10, abs=1e-14)
    lam2 = math.sqrt(
        sum(w[i] * (p.tau * math.log(triple.rho.values[i])) ** 2 for i in range(x.size))
    )
    assert rep.tau_log_vs_f["2"]["tau_log_rho"] == pytest.approx(lam2, rel=1e-10)


def test_audit_log_source_bound(grid, rng):
    p = params_with()
    data = ProblemData(smooth_field(grid, rng, offset=-0.2), p)
    triple, _ = solve_coupled(data)
    rep = apriori_audit(triple.u, triple.rho, data)
    for lam in ("1", "2"):
        assert rep.tau_log_vs_f[lam]["tau_log_rho"] <= 1.05 * rep.tau_log_vs_f[lam]["source"]


def test_estimate_report_dict_is_asdict_without_sharing_state(grid, rng):
    # to_dict builds the dict directly; the JSON the CLI writes must not change
    data = ProblemData(smooth_field(grid, rng, offset=0.5), params_with())
    triple, _ = solve_coupled(data)
    rep = apriori_audit(triple.u, triple.rho, data)
    out = rep.to_dict()
    assert out == dataclasses.asdict(rep)
    assert json.dumps(out, sort_keys=True) == json.dumps(dataclasses.asdict(rep), sort_keys=True)
    assert list(out) == [f.name for f in dataclasses.fields(rep)]
    out["tau_log_vs_f"]["1"]["source"] = -1.0
    out["w1p_u"] = -1.0
    assert rep.to_dict() == dataclasses.asdict(rep) != out


# ---------------------------------------------------------------------------
# vanishing order and classification
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def grid2d():
    return Grid.rectangle((1.0, 1.0), (129, 129))


def test_vanishing_order_constant_density(grid2d):
    theta, row = vanishing_order(NodeField.constant(grid2d, 1.0), (0.5, 0.5), 0.49, 5)
    assert abs(theta - 2.0) <= 0.05 * 2.0
    assert row.label == "regular"


def test_vanishing_order_quadratic_profile(grid2d):
    rho = NodeField.from_function(grid2d, lambda x, y: (x - 0.5) ** 2 + (y - 0.5) ** 2)
    theta, row = vanishing_order(rho, (0.5, 0.5), 0.49, 5)
    assert abs(theta - 4.0) <= 0.10 * 4.0


def test_vanishing_order_from_coupled_solve(grid):
    data = ProblemData(NodeField.constant(grid, 1.0), params_with())
    triple, _ = solve_coupled(data)
    theta, row = vanishing_order(triple.rho, (0.5,), 0.45, 4)
    assert abs(theta - 1.0) <= 0.05
    assert row.label == "regular"


def test_vanishing_order_degenerate_mass(grid2d):
    rho = NodeField.zeros(grid2d)
    theta, row = vanishing_order(rho, (0.5, 0.5), 0.45, 4)
    assert math.isinf(theta)
    assert row.label == "degenerate"


def test_vanishing_order_validates(grid2d):
    rho = NodeField.constant(grid2d, 1.0)
    with pytest.raises(ValueError):
        vanishing_order(rho, (0.5, 0.5), 0.45, 2)
    with pytest.raises(ValueError):
        vanishing_order(rho, (0.05, 0.5), 0.45, 4)  # ball leaves the domain


def test_classify_quartic_center_and_far_point(grid2d):
    rho = NodeField.from_function(grid2d, lambda x, y: ((x - 0.5) ** 2 + (y - 0.5) ** 2) ** 2)
    rep = classify_points(rho, [(0.5, 0.5), (0.25, 0.25)], r_max=0.49, levels=5)
    labels = {tuple(r.point): r.label for r in rep.probes}
    assert labels[(0.5, 0.5)] == "suspect"
    assert labels[(0.25, 0.25)] == "regular"


def test_classify_floored_density_regular(grid2d):
    rho = NodeField.from_function(
        grid2d, lambda x, y: np.maximum(((x - 0.5) ** 2 + (y - 0.5) ** 2) ** 2, 0.1)
    )
    rep = classify_points(rho, [(0.5, 0.5), (0.7, 0.3)], r_max=0.49, levels=5)
    assert all(r.label == "regular" for r in rep.probes)


def test_singularity_report_serializes(grid2d):
    import json

    rho = NodeField.constant(grid2d, 1.0)
    rep = classify_points(rho, [(0.5, 0.5)], r_max=0.4, levels=4)
    payload = json.dumps(rep.to_dict(), sort_keys=True)
    assert "regular" in payload


# ---------------------------------------------------------------------------
# recursion checker
# ---------------------------------------------------------------------------


def test_degiorgi_boundary_case():
    assert degiorgi_threshold(1.0, 2.0, 1.0) == pytest.approx(0.5)
    ok, trace = degiorgi_sequence_check(0.5, 1.0, 2.0, 1.0)
    assert ok
    # the threshold start follows the exact geometric law y_n = y0 b^(-n/alpha)
    assert trace[10] == pytest.approx(0.5 * 2.0**-10, rel=1e-12)


def test_degiorgi_below_threshold():
    ok, _ = degiorgi_sequence_check(0.1, 1.0, 2.0, 1.0)
    assert ok


def test_degiorgi_divergence_above():
    ok, trace = degiorgi_sequence_check(10.0, 1.0, 2.0, 1.0)
    assert not ok
    assert np.isinf(trace[-1])


def test_degiorgi_validates():
    with pytest.raises(ValueError):
        degiorgi_sequence_check(0.5, 1.0, 0.9, 1.0)
    with pytest.raises(ValueError):
        degiorgi_sequence_check(-0.5, 1.0, 2.0, 1.0)


@settings(max_examples=100, deadline=None)
@given(
    b=st.floats(2.0, 8.0),
    alpha=st.floats(0.5, 1.5),
    c=st.floats(0.25, 4.0),
    frac=st.floats(0.01, 0.95),
)
def test_degiorgi_hypothesis_region_converges(b, alpha, c, frac):
    # frac stays a hair below 1: exactly at the threshold the recursion is
    # neutrally stable and rounding noise is amplified doubly exponentially
    y0 = frac * degiorgi_threshold(c, b, alpha)
    ok, _ = degiorgi_sequence_check(y0, c, b, alpha)
    assert ok


# ---------------------------------------------------------------------------
# manufactured problems
# ---------------------------------------------------------------------------


def test_manufactured_trivial(grid):
    p = params_with()
    f, rhs = manufactured_problem(NodeField.zeros(grid), NodeField.constant(grid, 1.0), p)
    assert np.abs(f.values).max() <= 1e-14
    assert np.abs(rhs.values).max() <= 1e-14


def test_manufactured_constants(grid):
    p = params_with()
    k, m = 1.3, 2.0
    f, rhs = manufactured_problem(NodeField.constant(grid, k), NodeField.constant(grid, m), p)
    assert np.allclose(f.values, p.tau * np.log(m) + p.a * k)
    assert np.allclose(rhs.values, p.tau * k)


def test_manufactured_round_trip(grid):
    p = params_with()
    exact_u = NodeField.from_function(grid, lambda x: 0.5 * np.cos(np.pi * x))
    exact_rho = NodeField.from_function(grid, lambda x: 1.5 + 0.5 * np.cos(2 * np.pi * x))
    f, rhs = manufactured_problem(exact_u, exact_rho, p)
    u, _ = solve_u(rhs, p)
    assert np.abs(u.values - exact_u.values).max() <= 1e-9
    g = NodeField(grid, f.values - p.a * exact_u.values)
    rho, _ = solve_rho(g, p.tau)
    assert np.abs(rho.values - exact_rho.values).max() <= 1e-9


def test_manufactured_requires_positive_density(grid):
    with pytest.raises(ValueError):
        manufactured_problem(NodeField.zeros(grid), NodeField.zeros(grid), params_with())


def test_cosine_mms_consistency(grid):
    # the analytic triple satisfies the discrete equations up to O(h^2)
    p = params_with(beta0=0.5)
    exact = cosine_mms(grid, p, amplitude=0.06)
    assert np.min(exact.rho.values) > 0.0
    r2 = apply_height_operator(exact.u, p).values - np.log(exact.rho.values)
    assert np.abs(r2).max() <= 5e-3


def test_mms_convergence_1d_order_two():
    p = params_with(beta0=0.5)
    rows = mms_convergence((1.0,), [17, 33, 65], p, amplitude=0.06)
    assert rows[-1].order_u == pytest.approx(2.0, abs=0.2)
    assert rows[-1].order_rho == pytest.approx(2.0, abs=0.2)


def test_mms_study_builds_the_symbolic_solution_once(monkeypatch):
    import sympy

    from crystalsurf import analysis

    calls = []
    lambdify = sympy.lambdify
    monkeypatch.setattr(sympy, "lambdify", lambda *a, **k: calls.append(a) or lambdify(*a, **k))
    analysis._cosine_mms_functions.cache_clear()
    rows = mms_convergence((1.0,), [9, 17], params_with(beta0=0.5), amplitude=0.06)
    assert len(rows) == 2
    assert len(calls) == 3  # u, rho and f, shared by both grids
