import numpy as np
import pytest
import scipy.sparse as sp

from crystalsurf import solvers
from crystalsurf.energy import ModelParams, log_barrier
from crystalsurf.mesh import (
    Grid,
    NodeField,
    integrate,
    laplacian,
    mass_vector,
    norm_l2,
    norm_lp,
    stiffness_matrix,
)
from crystalsurf.solvers import (
    NewtonConfig,
    SolverError,
    apply_height_operator,
    pcg,
    solve_rho,
    solve_rho_delta,
    solve_u,
    surface_energy,
)
from conftest import smooth_field


@pytest.fixture
def grid():
    return Grid.interval(1.0, 65)


# ---------------------------------------------------------------------------
# linear solver
# ---------------------------------------------------------------------------


def test_pcg_solves_spd_system(rng):
    n = 40
    m = rng.standard_normal((n, n))
    a = m @ m.T + n * np.eye(n)
    b = rng.standard_normal(n)
    x, its = pcg(lambda v: a @ v, b, np.diag(a), tol=1e-12, maxiter=1000)
    assert np.linalg.norm(a @ x - b) <= 1e-10 * np.linalg.norm(b)
    assert 0 < its <= n + 5


def test_pcg_rejects_indefinite_matrix():
    a = np.diag(np.array([1.0, -1.0, 2.0]))
    with pytest.raises(SolverError, match="curvature"):
        pcg(lambda v: a @ v, np.array([0.0, 1.0, 0.0]), np.ones(3), tol=1e-12, maxiter=100)


# ---------------------------------------------------------------------------
# density solves
# ---------------------------------------------------------------------------


def test_rho_delta_zero_source(grid):
    rho, rep = solve_rho_delta(NodeField.zeros(grid), tau=1.0, delta=1e-8)
    assert rep.converged
    assert np.abs(rho.values - 1.0).max() <= 1e-6  # zero point of the barrier, 1 - O(delta)
    assert rep.residual_history[-1] <= 1e-10 * 2


def test_rho_delta_rejects_ill_posed(grid):
    with pytest.raises(ValueError):
        solve_rho_delta(NodeField.zeros(grid), tau=0.0, delta=0.0)


def test_rho_delta_manufactured(grid):
    tau, delta = 0.7, 0.01
    exact = NodeField.from_function(grid, lambda x: 2.0 + np.cos(np.pi * x))
    g = NodeField(
        grid,
        -laplacian(exact).values + delta * exact.values + tau * log_barrier(exact.values, delta),
    )
    rho, rep = solve_rho_delta(g, tau, delta)
    assert rep.converged
    assert np.abs(rho.values - exact.values).max() <= 1e-9


def test_rho_delta_estimate_bound(grid, rng):
    # ||tau psi_delta(rho)||_lam <= 1.05 ||g - delta s_z||_lam
    tau, delta = 0.5, 1e-3
    for _ in range(5):
        g = smooth_field(grid, rng)
        rho, _ = solve_rho_delta(g, tau, delta)
        for lam in (1.0, 2.0):
            lhs = norm_lp(NodeField(grid, tau * log_barrier(rho.values, delta)), lam)
            rhs = norm_lp(NodeField(grid, g.values - delta * (1.0 - delta)), lam)
            assert lhs <= 1.05 * rhs


def test_rho_constant_sources(grid):
    rho, rep = solve_rho(NodeField.zeros(grid), tau=1.0)
    assert np.abs(rho.values - 1.0).max() <= 1e-10
    rho, rep = solve_rho(NodeField.constant(grid, -2.0), tau=1.0)
    assert rep.converged
    assert np.abs(rho.values - np.exp(-2.0)).max() <= 1e-10


def test_rho_positivity_and_log_estimate(grid, rng):
    tau = 0.5
    for _ in range(5):
        g = smooth_field(grid, rng)
        rho, rep = solve_rho(g, tau)
        assert rep.converged
        assert np.min(rho.values) > 0.0
        for lam in (1.0, 2.0):
            lhs = norm_lp(NodeField(grid, tau * np.log(rho.values)), lam)
            assert lhs <= 1.05 * norm_lp(g, lam)


def test_rho_log_estimate_sweep(rng):
    # 100 random sources across tau and lambda, within the 5 percent slack
    grid = Grid.interval(1.0, 49)
    count = 0
    for tau in (0.1, 1.0):
        for _ in range(50):
            g = smooth_field(grid, rng, amplitude=1.5)
            rho, _ = solve_rho(g, tau)
            for lam in (1.0, 2.0):
                lhs = norm_lp(NodeField(grid, tau * np.log(rho.values)), lam)
                assert lhs <= 1.05 * norm_lp(g, lam)
            count += 1
    assert count == 100


def test_rho_zero_mean_log_integral(grid, rng):
    g = smooth_field(grid, rng)
    g = NodeField(grid, g.values - integrate(g) / grid.volume)
    assert abs(integrate(g)) < 1e-14
    rho, _ = solve_rho(g, tau=0.5)
    assert abs(integrate(NodeField(grid, 0.5 * np.log(rho.values)))) <= 1e-8


def test_rho_comparison_monotonicity(grid, rng):
    tau = 1.0
    g1 = smooth_field(grid, rng)
    bump = np.abs(smooth_field(grid, rng).values)
    g2 = NodeField(grid, g1.values + bump)
    rho1, _ = solve_rho(g1, tau)
    rho2, _ = solve_rho(g2, tau)
    assert np.all(rho1.values <= rho2.values + 1e-10)


def test_rho_continuation_stage_stability(grid, rng):
    # consecutive barrier stages agree once delta is small
    g = smooth_field(grid, rng)
    rho_a, _ = solve_rho(g, tau=0.5, delta_schedule=np.geomspace(1e-1, 1e-7, 7))
    rho_b, _ = solve_rho(g, tau=0.5, delta_schedule=np.geomspace(1e-1, 1e-8, 8))
    assert norm_l2(NodeField(grid, rho_a.values - rho_b.values)) <= 1e-6


def test_rho_jacobian_is_spd_via_pcg(grid, rng, monkeypatch):
    # the pcg path asserts positive curvature on every inner solve
    calls = []
    real_pcg = solvers.pcg

    def counting_pcg(*args, **kwargs):
        calls.append(1)
        return real_pcg(*args, **kwargs)

    monkeypatch.setattr(solvers, "pcg", counting_pcg)
    cfg = NewtonConfig(linear_solver="pcg")
    g = smooth_field(grid, rng)
    rho, rep = solve_rho(g, tau=0.5, cfg=cfg)
    assert rep.converged
    assert len(calls) >= 1


def test_rho_rejects_tau_zero(grid):
    with pytest.raises(ValueError):
        solve_rho(NodeField.zeros(grid), tau=0.0)


def count_stages(monkeypatch, fail_first_exact_log=False):
    """Record the delta of every solve_rho_delta call; optionally make the
    first exact-logarithm stage fail after two iterations."""
    deltas = []
    original = solvers.solve_rho_delta

    def counted(g, tau, delta, cfg=None, rho0=None):
        deltas.append(delta)
        if fail_first_exact_log and delta == 0.0 and deltas.count(0.0) == 1:
            raise SolverError("forced", solvers.SolveReport(iterations=2, residual_history=[9.0, 8.0, 7.0]))
        return original(g, tau, delta, cfg, rho0)

    monkeypatch.setattr(solvers, "solve_rho_delta", counted)
    return deltas


def test_rho_warm_matches_cold(grid, rng, monkeypatch):
    g = smooth_field(grid, rng)
    nearby = NodeField(grid, g.values + 0.05 * smooth_field(grid, rng).values)
    rho_cold, rep_cold = solve_rho(g, tau=0.3)
    rho_near, _ = solve_rho(nearby, tau=0.3)
    deltas = count_stages(monkeypatch)
    rho_warm, rep_warm = solve_rho(g, tau=0.3, rho0=rho_near)
    assert deltas == [0.0]  # exact-logarithm stage only, no fallback
    assert rep_warm.converged
    assert rep_warm.iterations < rep_cold.iterations
    # both stop once the merit is below 1e-10 (1 + |g|); the mean mode then
    # carries an error of order merit / tau
    assert np.abs(rho_warm.values - rho_cold.values).max() <= 1e-9


def test_rho_warm_start_at_tolerance_converges_without_fallback(grid, rng, monkeypatch):
    g = smooth_field(grid, rng)
    rho_cold, _ = solve_rho(g, tau=0.3)
    deltas = count_stages(monkeypatch)
    rho, rep = solve_rho(g, tau=0.3, rho0=rho_cold)
    assert deltas == [0.0]
    assert rep.converged
    assert rep.iterations == 1  # the start meets the tolerance, one polishing step is still taken
    assert np.abs(rho.values - rho_cold.values).max() <= 1e-9


def test_rho_warm_start_at_rounding_floor_returns_start(grid, rng, monkeypatch):
    # a step from a start at the rounding floor cannot cut the merit by the
    # factor this Armijo constant demands; the line search then fails on an
    # iterate already within tolerance, which is returned as converged
    g = smooth_field(grid, rng)
    rho_cold, _ = solve_rho(g, tau=0.3)
    rho_floor, _ = solve_rho(g, tau=0.3, rho0=rho_cold)
    deltas = count_stages(monkeypatch)
    cfg = NewtonConfig(armijo_decrease=1.0 - 1e-9, max_backtracks=2)
    rho, rep = solve_rho(g, tau=0.3, cfg=cfg, rho0=rho_floor)
    assert deltas == [0.0]
    assert rep.converged and rep.iterations == 1
    assert len(rep.residual_history) == 1  # no step was accepted
    np.testing.assert_array_equal(rho.values, rho_floor.values)


def test_rho_warm_failure_falls_back_to_cold_schedule(grid, rng, monkeypatch):
    g = smooth_field(grid, rng)
    rho_cold, rep_cold = solve_rho(g, tau=0.3)
    deltas = count_stages(monkeypatch, fail_first_exact_log=True)
    rho, rep = solve_rho(g, tau=0.3, rho0=NodeField.constant(grid, 2.0))
    assert deltas == [0.0, *solvers.default_delta_schedule(), 0.0]
    np.testing.assert_array_equal(rho.values, rho_cold.values)
    # the failed attempt is part of the report
    assert rep.iterations == rep_cold.iterations + 2
    assert rep.residual_history == [9.0, 8.0, 7.0, *rep_cold.residual_history]


def test_rho_nonpositive_start_runs_cold(grid, rng, monkeypatch):
    g = smooth_field(grid, rng)
    rho_cold, _ = solve_rho(g, tau=0.3)
    deltas = count_stages(monkeypatch)
    rho, _ = solve_rho(g, tau=0.3, rho0=NodeField.zeros(grid))
    assert deltas == [*solvers.default_delta_schedule(), 0.0]
    np.testing.assert_array_equal(rho.values, rho_cold.values)


# ---------------------------------------------------------------------------
# height solves
# ---------------------------------------------------------------------------


@pytest.fixture
def params():
    return ModelParams(p=1.5, beta0=1.0, a=1.0, tau=0.1, delta=1e-6)


def test_u_constant_and_zero(grid, params):
    u, rep = solve_u(NodeField.constant(grid, 0.3), params)
    assert np.abs(u.values - 3.0).max() <= 1e-12
    u, rep = solve_u(NodeField.zeros(grid), params)
    assert np.abs(u.values).max() <= 1e-12


def test_u_manufactured_recovery(grid, params):
    exact = NodeField.from_function(grid, lambda x: np.cos(np.pi * x))
    rhs = apply_height_operator(exact, params)
    u, rep = solve_u(rhs, params)
    assert rep.converged
    assert np.abs(u.values - exact.values).max() <= 1e-9


def test_u_energy_monotone_and_quadratic(grid, params):
    exact = NodeField.from_function(grid, lambda x: np.cos(np.pi * x) + 0.5 * np.cos(2 * np.pi * x))
    rhs = apply_height_operator(exact, params)
    cfg = NewtonConfig(tol_residual=1e-13)
    u, rep = solve_u(rhs, params, cfg)
    # accepted steps shrink the residual (Armijo merit)
    assert all(b <= a for a, b in zip(rep.residual_history, rep.residual_history[1:]))
    # quadratic tail: r_{k+1} <= 10 r_k^2 once the iteration enters the basin
    hist = rep.residual_history
    checked = 0
    for rk, rk1 in zip(hist, hist[1:]):
        if 1e-8 < rk < 1e-2:
            assert rk1 <= 10.0 * rk * rk or rk1 <= 1e-12
            checked += 1
    assert checked >= 1


def test_u_initial_guess_independence(params):
    grid = Grid.rectangle((1.0, 1.0), (17, 17))
    exact = NodeField.from_function(grid, lambda x, y: 0.4 * np.cos(np.pi * x) * np.cos(np.pi * y))
    rhs = apply_height_operator(exact, params)
    u1, _ = solve_u(rhs, params)
    u2, _ = solve_u(rhs, params, u0=NodeField.constant(grid, 7.0))
    assert norm_l2(NodeField(grid, u1.values - u2.values)) <= 1e-8


def test_u_warm_matches_cold(grid, params):
    exact = NodeField.from_function(grid, lambda x: 0.5 + 0.1 * np.cos(np.pi * x))
    rhs = apply_height_operator(exact, params)
    u_cold, rep_cold = solve_u(rhs, params)
    start = NodeField(grid, u_cold.values + 1e-3 * np.cos(2 * np.pi * grid.meshgrid()[0]))
    u_warm, rep_warm = solve_u(rhs, params, u0=start)
    assert rep_warm.converged
    assert rep_warm.iterations < rep_cold.iterations
    assert np.abs(u_warm.values - u_cold.values).max() <= 1e-11


def test_u_warm_failure_falls_back_to_constant_start(grid, params, monkeypatch):
    exact = NodeField.from_function(grid, lambda x: np.cos(np.pi * x))
    rhs = apply_height_operator(exact, params)
    u_cold, rep_cold = solve_u(rhs, params)
    starts = []
    original = solvers._height_newton

    def failing_first(rhs, params, cfg, start, report):
        starts.append(start.copy())
        if len(starts) == 1:
            report.iterations += 2
            report.residual_history += [9.0, 8.0]
            raise SolverError("forced", report)
        return original(rhs, params, cfg, start, report)

    monkeypatch.setattr(solvers, "_height_newton", failing_first)
    u, rep = solve_u(rhs, params, u0=NodeField.constant(grid, 7.0))
    assert np.all(starts[0] == 7.0) and np.ptp(starts[1]) == 0.0
    np.testing.assert_array_equal(u.values, u_cold.values)
    assert rep.converged
    assert rep.iterations == rep_cold.iterations + 2
    assert rep.residual_history == [9.0, 8.0, *rep_cold.residual_history]


@pytest.mark.parametrize(
    "hess_grid", [Grid.interval(2.0, 11), Grid.rectangle((1.0, 2.0), (9, 7))], ids=["1d", "2d"]
)
def test_height_hessian_matches_operator_jacobian(hess_grid, params, rng):
    # the assembled Newton matrix is W times the Jacobian of the nodewise operator
    g = hess_grid
    u = NodeField(g, 0.3 * rng.standard_normal(g.shape))
    w = mass_vector(g)
    hess = (
        solvers._energy_hessian_matrix(u, params)
        + params.delta * stiffness_matrix(g)
        + sp.diags(params.tau * w)
    ).toarray()
    eps = 1e-6
    jac = np.empty_like(hess)
    for j in range(g.node_count):
        e = np.zeros(g.node_count)
        e[j] = eps
        plus = apply_height_operator(NodeField.from_flat(g, u.flat + e), params).flat
        minus = apply_height_operator(NodeField.from_flat(g, u.flat - e), params).flat
        jac[:, j] = (plus - minus) / (2.0 * eps)
    np.testing.assert_allclose(w[:, None] * jac, hess, rtol=0.0, atol=1e-7 * np.abs(hess).max())
    np.testing.assert_allclose(hess, hess.T, rtol=0.0, atol=1e-14 * np.abs(hess).max())


def test_u_2d_manufactured(params):
    grid = Grid.rectangle((1.0, 1.0), (25, 25))
    exact = NodeField.from_function(grid, lambda x, y: 0.3 * np.cos(np.pi * x) * np.cos(2 * np.pi * y))
    rhs = apply_height_operator(exact, params)
    u, _ = solve_u(rhs, params)
    assert np.abs(u.values - exact.values).max() <= 1e-9


def test_u_rejects_tau_zero(grid):
    # flux coefficient is singular at flat states without the tau smoothing
    params = ModelParams(p=1.5, beta0=1.0, tau=0.0, delta=1e-6)
    with pytest.raises(SolverError, match="tau > 0"):
        solve_u(NodeField.constant(grid, 1.0), params)


def test_u_operator_mean_is_conserved(grid, params, rng):
    # weighted node sum of the divergence-form part vanishes identically,
    # so the operator integral reduces to the zeroth-order term
    u = smooth_field(grid, rng)
    lhs = integrate(apply_height_operator(u, params))
    assert lhs == pytest.approx(params.tau * integrate(u), abs=1e-12)


def test_surface_energy_of_flat_states(grid, params):
    flat = surface_energy(NodeField.constant(grid, 2.0), params)
    expect = (1.0 / params.p) * params.tau ** (0.5 * params.p) + params.beta0 * params.tau**0.5
    assert flat == pytest.approx(expect * grid.volume)
    tilted = surface_energy(NodeField.from_function(grid, lambda x: x), params)
    assert tilted > flat
