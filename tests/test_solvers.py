import numpy as np
import pytest
import scipy.sparse as sp

from crystalsurf import solvers
from crystalsurf.coupled import ProblemData, picard_map
from crystalsurf.energy import ModelParams, energy_hessian, log_barrier
from crystalsurf.mesh import (
    Grid,
    NodeField,
    edge_gradients,
    edge_stencil,
    edge_weight_vectors,
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


def test_rho_continuation_stage_stability(rng):
    # the barrier-regularized density tends to the limit density as delta -> 0;
    # for a constant density the relative gap is (delta/tau)(rho + tau/rho)
    # to first order, and these densities near 1 keep it below 2 delta/tau
    for grid in (Grid.interval(1.0, 65), Grid.rectangle((1.0, 1.0), (17, 17))):
        g = smooth_field(grid, rng)
        for tau in (0.5, 0.05, 1e-3):
            rho, _ = solve_rho(g, tau)
            gaps = []
            for delta in (1e-6, 1e-8):
                rho_delta, _ = solve_rho_delta(g, tau, delta)
                gaps.append(np.max(np.abs(rho_delta.values - rho.values) / rho.values))
                assert gaps[-1] <= 2.0 * delta / tau
            assert 50.0 <= gaps[0] / gaps[1] <= 200.0


def newton_matrices(monkeypatch) -> list:
    """Record every matrix the Newton solves pass to the linear solve."""
    matrices = []
    real = solvers._linear_solve

    def recording(a, b, report):
        matrices.append(a)
        return real(a, b, report)

    monkeypatch.setattr(solvers, "_linear_solve", recording)
    return matrices


def assert_spd_via_pcg(matrices, rng):
    # pcg raises on nonpositive curvature, so it converging on a random
    # right-hand side checks positive definiteness along its Krylov space
    assert matrices
    for a in matrices:
        b = rng.standard_normal(a.shape[0])
        x, its = pcg(a.dot, b, a.diagonal(), tol=1e-10, maxiter=10 * a.shape[0])
        assert its > 0
        assert np.linalg.norm(a @ x - b) <= 1e-9 * np.linalg.norm(b)


def test_rho_jacobian_is_spd_via_pcg(grid, rng, monkeypatch):
    matrices = newton_matrices(monkeypatch)
    rho, rep = solve_rho(smooth_field(grid, rng), tau=0.5)
    assert rep.converged
    assert_spd_via_pcg(matrices, rng)


def test_rho_rejects_tau_zero(grid):
    with pytest.raises(ValueError):
        solve_rho(NodeField.zeros(grid), tau=0.0)


def test_rho_warm_matches_cold(grid, rng):
    g = smooth_field(grid, rng)
    # Newton in ln rho converges quadratically from the cold start, so the
    # warm start saves a step once the nearby source is within ~1% of g
    nearby = NodeField(grid, g.values + 0.005 * smooth_field(grid, rng).values)
    rho_cold, rep_cold = solve_rho(g, tau=0.3)
    rho_near, _ = solve_rho(nearby, tau=0.3)
    rho_warm, rep_warm = solve_rho(g, tau=0.3, rho0=rho_near)
    assert rep_warm.converged
    assert rep_warm.iterations < rep_cold.iterations
    # both stop once the merit is below 1e-10 (1 + |g|); the mean mode then
    # carries an error of order merit / tau
    assert np.abs(rho_warm.values - rho_cold.values).max() <= 1e-9


def test_rho_warm_start_at_tolerance_converges_without_fallback(grid, rng):
    g = smooth_field(grid, rng)
    rho_cold, _ = solve_rho(g, tau=0.3)
    rho, rep = solve_rho(g, tau=0.3, rho0=rho_cold)
    assert rep.converged
    assert rep.iterations == 0 and len(rep.residual_history) == 1
    np.testing.assert_array_equal(rho.values, rho_cold.values)


def test_rho_warm_failure_falls_back_to_cold_schedule(grid, rng, monkeypatch):
    # a failed warm start is retried from s = ln rho - sigma0 = 0 in the same loop
    g = smooth_field(grid, rng)
    rho_cold, rep_cold = solve_rho(g, tau=0.3)
    starts = []
    original = solvers._damped_newton

    def failing_first(x, residual, solve, w, target, cfg, report, name):
        starts.append(x.copy())
        if len(starts) == 1:
            report.iterations += 2
            report.residual_history += [9.0, 8.0]
            raise SolverError("forced", report)
        return original(x, residual, solve, w, target, cfg, report, name)

    monkeypatch.setattr(solvers, "_damped_newton", failing_first)
    rho, rep = solve_rho(g, tau=0.3, rho0=NodeField.constant(grid, 2.0))
    assert np.ptp(starts[0]) == 0.0 and starts[0][0] != 0.0
    assert np.all(starts[1] == 0.0)
    np.testing.assert_array_equal(rho.values, rho_cold.values)
    # the failed attempt is part of the report
    assert rep.converged
    assert rep.iterations == rep_cold.iterations + 2
    assert rep.residual_history == [9.0, 8.0, *rep_cold.residual_history]


def test_rho_nonpositive_start_runs_cold(grid, rng):
    g = smooth_field(grid, rng)
    rho_cold, rep_cold = solve_rho(g, tau=0.3)
    rho, rep = solve_rho(g, tau=0.3, rho0=NodeField.zeros(grid))
    np.testing.assert_array_equal(rho.values, rho_cold.values)
    assert rep.residual_history == rep_cold.residual_history


def test_rho_cold_start_far_from_solution(grid, rng):
    # g = f - v spans [-0.27, 1.22] at tau = 0.05, so the density reaches
    # ~2.2e4 = e^10 against the start exp(mean g / tau); a barrier schedule
    # from that start stalled in its line search
    f = smooth_field(grid, rng, offset=0.5)
    v = smooth_field(grid, rng, amplitude=0.1)
    tau = 0.05
    rho, rep = solve_rho(NodeField(grid, f.values - v.values), tau)
    assert rep.converged and rep.iterations <= 5
    assert np.min(rho.values) > 0.0 and np.max(rho.values) > 1e4
    params = ModelParams(p=1.5, beta0=1.0, a=1.0, tau=tau, delta=1e-6)
    _, rho_map = picard_map(v, ProblemData(f, params))
    np.testing.assert_array_equal(rho_map.values, rho.values)


@pytest.mark.filterwarnings("error")
def test_rho_overflowing_trial_steps_are_backtracked_quietly(grid):
    # the density spans ~1e-201..1; full Newton steps in ln rho overshoot
    # into exp overflow, which the line search rejects without warnings
    g = NodeField.from_function(grid, lambda x: 5.0 * np.cos(np.pi * x) - 0.05)
    rho, rep = solve_rho(g, tau=0.01)
    assert rep.converged
    assert 0.0 < np.min(rho.values) < 1e-150


def test_rho_out_of_range_mean_fails_before_exp(grid):
    # mean(g)/tau = +-1000 puts exp(mean ln rho) outside the float range
    with np.errstate(all="raise"):
        with pytest.raises(SolverError, match="density overflows"):
            solve_rho(NodeField.constant(grid, 100.0), tau=0.1)
        with pytest.raises(SolverError, match="density underflows"):
            solve_rho(NodeField.constant(grid, -100.0), tau=0.1)


@pytest.mark.filterwarnings("error")
def test_rho_underflowing_solution_is_named():
    # ln rho reaches -886 at one node, below the smallest float; Newton in s
    # converges with the Jacobian floored where rho = c e^s underflows (no
    # divide-by-zero warnings or NaN steps) and the solve names the underflow
    grid = Grid.interval(1.0, 257)
    g = smooth_field(grid, np.random.default_rng(2), amplitude=2.0, offset=-5e-3)
    with pytest.raises(SolverError, match="density underflows") as err:
        solve_rho(g, tau=1e-3)
    assert err.value.report.converged


@pytest.mark.filterwarnings("error")
def test_rho_transient_underflow_converges():
    # iterates underflow on the way to a subnormal but positive density
    grid = Grid.rectangle((1.0, 1.0), (17, 17))
    g = smooth_field(grid, np.random.default_rng(0), amplitude=1.0, offset=-5e-3)
    rho, rep = solve_rho(g, tau=1e-3)
    assert rep.converged
    assert 0.0 < np.min(rho.values) < np.finfo(float).tiny


def test_rho_newton_matrix_is_stiffness_plus_diagonal(grid, rng, monkeypatch):
    # every step factors K + diag(tau W / rho); the first cold one has rho = c
    matrices = newton_matrices(monkeypatch)
    g = smooth_field(grid, rng)
    tau = 0.3
    solve_rho(g, tau)
    k = stiffness_matrix(grid)
    w = mass_vector(grid)
    c = np.exp(float(np.sum(w * g.flat) / np.sum(w)) / tau)
    np.testing.assert_array_equal(matrices[0].toarray(), (k + sp.diags(tau * w / c)).toarray())
    off_k = (k - sp.diags(k.diagonal())).toarray()
    for a in matrices[1:]:
        np.testing.assert_array_equal((a - sp.diags(a.diagonal())).toarray(), off_k)


# ---------------------------------------------------------------------------
# height solves
# ---------------------------------------------------------------------------


@pytest.fixture
def params():
    return ModelParams(p=1.5, beta0=1.0, a=1.0, tau=0.1, delta=1e-6)


HESS_GRIDS = pytest.mark.parametrize(
    "hess_grid", [Grid.interval(2.0, 11), Grid.rectangle((1.0, 2.0), (9, 7))], ids=["1d", "2d"]
)


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


@HESS_GRIDS
def test_height_hessian_matches_operator_jacobian(hess_grid, params, rng):
    # the assembled Newton matrix is W times the Jacobian of the nodewise operator
    g = hess_grid
    u = NodeField(g, 0.3 * rng.standard_normal(g.shape))
    w = mass_vector(g)
    hess = solvers._height_newton_matrix(u, params).toarray()
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


@HESS_GRIDS
@pytest.mark.parametrize("tau", [0.1, 1e-3])
def test_height_newton_matrices_are_spd_via_pcg(hess_grid, tau, rng, monkeypatch):
    # the exact Hessian is positive definite at every Newton iterate
    params = ModelParams(p=1.5, beta0=1.0, a=1.0, tau=tau, delta=1e-6)
    matrices = newton_matrices(monkeypatch)
    u, rep = solve_u(smooth_field(hess_grid, rng, amplitude=0.5), params)
    assert rep.converged and rep.iterations >= 2
    assert_spd_via_pcg(matrices, rng)


@HESS_GRIDS
def test_height_newton_matrix_matches_product_formula(hess_grid, params, rng):
    # the fixed-pattern assembly equals sum_ij D_i^T diag(W h_ij) D_j / dim + delta K + tau W
    g = hess_grid
    u = NodeField(g, 0.3 * rng.standard_normal(g.shape))
    ref = params.delta * stiffness_matrix(g) + sp.diags(params.tau * mass_vector(g))
    for axis, (z, wvec) in enumerate(zip(edge_gradients(u), edge_weight_vectors(g))):
        h = energy_hessian(z, params)
        ops = edge_stencil(g, axis)
        for i, d_i in enumerate(ops):
            for j, d_j in enumerate(ops):
                ref = ref + d_i.T @ sp.diags(wvec * h[..., i, j].ravel()) @ d_j / g.dim
    ref = ref.toarray()
    mat = solvers._height_newton_matrix(u, params).toarray()
    np.testing.assert_allclose(mat, ref, rtol=0.0, atol=1e-14 * np.abs(ref).max())


def test_newton_solves_leave_cached_operators_unchanged(params, rng):
    # both assemblies copy into fresh data arrays, never into a cached one
    g = Grid.rectangle((1.0, 2.0), (9, 7))
    k = stiffness_matrix(g)
    pat = solvers._hessian_pattern(g)
    cached = [k.data, k.indices, k.indptr, solvers._stiffness_diagonal(g), pat.indptr, pat.indices]
    cached += [pat.scatter.data, pat.scatter.indices, pat.scatter.indptr, pat.k_pos, pat.diag]
    before = [a.copy() for a in cached]
    solve_rho(smooth_field(g, rng), 0.3)
    solve_u(smooth_field(g, rng), params)
    assert stiffness_matrix(g) is k and solvers._hessian_pattern(g) is pat
    for a, b in zip(cached, before):
        np.testing.assert_array_equal(a, b)


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
