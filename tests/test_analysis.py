import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crystalsurf.energy import ModelParams
from crystalsurf.mesh import Grid, NodeField, edge_gradients, edge_weight_vectors, gradient_matrices, integrate, norm_lp
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


def multipass_audit(u, rho, data):
    """The audit as a separate reduction per quantity, with the multi-pass
    formulas of norm_lp, w1p_norm, dirichlet_integral and _sup_ratio that
    the one-pass audit replaced (sums over w times the integrand)."""
    p, grid = data.params, u.grid
    w = grid.node_weights().reshape(-1)
    uf, f = u.flat, data.f.flat

    def norm(v, lam):
        return float(np.sum(w * np.abs(v) ** lam) ** (1.0 / lam))

    def sup_ratio(part, fpart):
        sup = float(np.max(part))
        if sup == 0.0:
            return 0.0
        denom = float(np.sum(part * w)) + norm(fpart, 2.0) ** (1.0 / (p.p - 1.0)) + math.sqrt(p.tau)
        return sup / denom if denom > 0.0 else math.inf

    log_rho = np.log(rho.flat)
    grad_p = sum(
        float(np.sum(we * np.linalg.norm(z, axis=-1).ravel() ** p.p)) for z, we in zip(edge_gradients(u), edge_weight_vectors(grid))
    ) / grid.dim
    sqrt_rho = np.sqrt(rho.flat)
    dirichlet = sum(float(np.sum(we * (d @ sqrt_rho) ** 2)) for d, we in zip(gradient_matrices(grid), edge_weight_vectors(grid)))
    u_plus, u_minus = np.maximum(uf, 0.0), np.maximum(-uf, 0.0)
    return {
        "dirichlet_sqrt_rho": dirichlet,
        "w1p_u": float((np.sum(w * np.abs(uf) ** p.p) + grad_p) ** (1.0 / p.p)),
        "l1_log_rho": float(np.sum(np.abs(log_rho) * w)),
        "tau_log_vs_f": {
            str(int(lam)): {"tau_log_rho": norm(p.tau * log_rho, lam), "source": norm(f - p.a * uf, lam)} for lam in (1.0, 2.0)
        },
        "mean_identity_residual": abs((p.a + p.tau**2) * float(np.sum(uf * w)) - float(np.sum(f * w))),
        "sup_u_plus": float(np.max(u_plus)),
        "sup_u_minus": float(np.max(u_minus)),
        "sup_bound_ratio_plus": sup_ratio(u_plus, np.maximum(f, 0.0)),
        "sup_bound_ratio_minus": sup_ratio(u_minus, np.maximum(-f, 0.0)),
    }


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    cells=st.one_of(st.tuples(st.integers(17, 257)), st.tuples(st.integers(5, 33), st.integers(5, 33))),
    u_sign=st.sampled_from(["mixed", "negative", "positive"]),
    f_sign=st.sampled_from(["mixed", "negative", "positive"]),
    p=st.sampled_from([1.1, 1.5, 2.0]),
    tau=st.sampled_from([1e-4, 0.05, 1.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_one_pass_audit_matches_the_multipass_formulas(cells, u_sign, f_sign, p, tau, seed):
    # random fields on 1D grids of 17-257 nodes and 2D grids up to 33^2;
    # u < 0 everywhere takes the sup_u_plus = 0 branch, f of one sign
    # leaves one sup ratio's f part zero
    grid = Grid(len(cells), (1.0,) * len(cells), cells)
    rng = np.random.default_rng(seed)

    def field(sign):
        values = rng.standard_normal(grid.shape)
        shifted = {"mixed": values, "negative": -np.abs(values) - 0.1, "positive": np.abs(values) + 0.1}[sign]
        return NodeField(grid, shifted)

    u, f = field(u_sign), field(f_sign)
    rho = NodeField(grid, np.exp(2.0 * rng.standard_normal(grid.shape)))
    data = ProblemData(f, params_with(p=p, tau=tau, a=rng.uniform(0.1, 10.0)))
    got = apriori_audit(u, rho, data).to_dict()
    expected = multipass_audit(u, rho, data)
    assert (got["sup_u_plus"] == 0.0) == (u_sign == "negative")
    # the residual is a difference of two integrals: bound it by their size
    a = data.params.a + tau**2
    scale = a * abs(integrate(u)) + abs(integrate(f))
    assert abs(got.pop("mean_identity_residual") - expected.pop("mean_identity_residual")) <= 1e-13 * scale
    for lam, pair in expected.pop("tau_log_vs_f").items():
        for key, value in pair.items():
            assert got["tau_log_vs_f"][lam][key] == pytest.approx(value, rel=1e-13, abs=0.0)
    del got["tau_log_vs_f"]
    assert set(got) == set(expected)
    for key, value in expected.items():
        assert got[key] == pytest.approx(value, rel=1e-13, abs=0.0), key


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
