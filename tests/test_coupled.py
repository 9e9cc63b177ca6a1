import numpy as np
import pytest

from crystalsurf.energy import ModelParams
from crystalsurf.mesh import Grid, NodeField, integrate, norm_l2
from crystalsurf.coupled import (
    PicardConfig,
    ProblemData,
    coupled_residuals,
    continuation_tau,
    evolve,
    limit_flux,
    mean_height_target,
    picard_map,
    solve_coupled,
    subgradient_field,
)
from crystalsurf.solvers import apply_height_operator
from crystalsurf.analysis import manufactured_problem
from conftest import smooth_field


@pytest.fixture
def grid():
    return Grid.interval(1.0, 65)


def params_with(tau=0.1, a=1.0, p=1.5, beta0=1.0, delta=1e-6):
    return ModelParams(p=p, beta0=beta0, a=a, tau=tau, delta=delta)


def test_picard_map_zero_source(grid):
    data = ProblemData(NodeField.zeros(grid), params_with())
    u, rho = picard_map(NodeField.zeros(grid), data)
    assert np.abs(u.values).max() <= 1e-10
    assert np.abs(rho.values - 1.0).max() <= 1e-10


def test_picard_map_constant_chain(grid):
    # v = f/a makes the density source vanish, so rho = 1 and u = 0
    data = ProblemData(NodeField.constant(grid, 2.0), params_with(a=0.5))
    u, rho = picard_map(NodeField.constant(grid, 4.0), data)
    assert np.abs(rho.values - 1.0).max() <= 1e-10
    assert np.abs(u.values).max() <= 1e-10


def test_picard_map_constant_fixed_point(grid):
    p = params_with(tau=0.3, a=1.0)
    c = 1.5
    v = NodeField.constant(grid, c / (p.a + p.tau**2))
    data = ProblemData(NodeField.constant(grid, c), p)
    u, rho = picard_map(v, data)
    assert np.abs(u.values - v.values).max() <= 1e-9


@pytest.mark.parametrize("c", [-2.0, 0.0, 3.0])
@pytest.mark.parametrize("a", [0.5, 1.0])
def test_constant_closed_form(grid, c, a):
    for tau in (1e-1, 1e-2):
        p = params_with(tau=tau, a=a)
        triple, rep = solve_coupled(ProblemData(NodeField.constant(grid, c), p))
        assert rep.converged
        u_exact = c / (a + tau**2)
        rho_exact = np.exp(tau * c / (a + tau**2))
        assert np.abs(triple.u.values - u_exact).max() <= 1e-8
        assert np.abs(triple.rho.values - rho_exact).max() <= 1e-8


def test_zero_source_solution(grid):
    triple, _ = solve_coupled(ProblemData(NodeField.zeros(grid), params_with()))
    assert np.abs(triple.u.values).max() <= 1e-10
    assert np.abs(triple.rho.values - 1.0).max() <= 1e-10
    assert all(np.abs(c).max() <= 1e-12 for c in triple.phi.components)


def test_mean_identity_on_random_sources(grid, rng):
    for tau in (0.1, 0.02):
        p = params_with(tau=tau, a=0.7)
        f = smooth_field(grid, rng, offset=0.4)
        triple, _ = solve_coupled(ProblemData(f, p))
        res = abs((p.a + tau**2) * integrate(triple.u) - integrate(f))
        assert res <= 1e-9 * (1.0 + abs(integrate(f)))


def test_coupled_residuals_small_at_convergence(grid, rng):
    p = params_with()
    data = ProblemData(smooth_field(grid, rng), p)
    triple, _ = solve_coupled(data)
    r1, r2 = coupled_residuals(triple.u, triple.rho, data)
    assert r1 <= 1e-8 and r2 <= 1e-8


def test_fixed_point_residual(grid, rng):
    # applying the raw map to the converged height reproduces it
    p = params_with(tau=0.3)
    cfg = PicardConfig(tol_fixed_point=1e-11)
    data = ProblemData(smooth_field(grid, rng), p)
    triple, _ = solve_coupled(data, cfg)
    u_again, _ = picard_map(triple.u, data)
    assert norm_l2(NodeField(grid, u_again.values - triple.u.values)) <= 10 * 1e-9


def test_initial_guess_independence(grid, rng):
    p = params_with(tau=0.2)
    f = smooth_field(grid, rng)
    data = ProblemData(f, p)
    t1, _ = solve_coupled(data, u0=NodeField.zeros(grid))
    t2, _ = solve_coupled(data, u0=NodeField(grid, f.values / p.a))
    assert norm_l2(NodeField(grid, t1.u.values - t2.u.values)) <= 1e-7


def test_density_warm_start_matches_cold(grid, rng):
    p = params_with(tau=0.05)
    f = smooth_field(grid, rng, offset=0.5)
    nearby = NodeField(grid, 1.05 * f.values)
    cold, _ = solve_coupled(ProblemData(f, p))
    guess, _ = solve_coupled(ProblemData(nearby, p))
    warm, _ = solve_coupled(ProblemData(f, p), rho0=guess.rho)
    assert np.abs(warm.u.values - cold.u.values).max() <= 1e-10
    assert np.abs(warm.rho.values - cold.rho.values).max() <= 1e-9


def test_phi_bounds_and_selection(grid, rng):
    data = ProblemData(smooth_field(grid, rng), params_with())
    triple, _ = solve_coupled(data)
    for comp in triple.phi.components:
        assert np.abs(comp).max() <= 1.0 + 1e-12
    again = subgradient_field(triple.u)
    for c1, c2 in zip(triple.phi.components, again.components):
        assert np.array_equal(c1, c2)


def test_manufactured_coupled_round_trip(grid):
    p = params_with()
    exact_u = NodeField.from_function(grid, lambda x: 0.03 * np.cos(np.pi * x))
    log_rho = apply_height_operator(exact_u, p)
    exact_rho = NodeField(grid, np.exp(log_rho.values))
    f, _ = manufactured_problem(exact_u, exact_rho, p)
    cfg = PicardConfig(tol_fixed_point=1e-12, delta_polish=None)
    triple, _ = solve_coupled(ProblemData(f, p), cfg)
    assert np.abs(triple.u.values - exact_u.values).max() <= 1e-9
    assert np.abs(triple.rho.values - exact_rho.values).max() <= 1e-9


def test_solve_coupled_2d(rng):
    grid = Grid.rectangle((1.0, 1.0), (17, 17))
    p = params_with()
    f = smooth_field(grid, rng, offset=0.5)
    data = ProblemData(f, p)
    triple, rep = solve_coupled(data)
    assert rep.converged
    res = abs((p.a + p.tau**2) * integrate(triple.u) - integrate(f))
    assert res <= 1e-9 * (1.0 + abs(integrate(f)))


def test_viscosity_cap_is_one_pass(rng):
    # the default config caps delta = 1e-6 at delta_polish = 1e-10 and
    # solves that system once: the same floating-point work as asking for
    # delta = 1e-10 with no cap
    grid = Grid.rectangle((1.0, 1.0), (17, 17))
    f = smooth_field(grid, rng, offset=0.5)
    capped, rep_c = solve_coupled(ProblemData(f, params_with(delta=1e-6)))
    direct, rep_d = solve_coupled(
        ProblemData(f, params_with(delta=1e-10)), PicardConfig(delta_polish=None)
    )
    for x, y in zip((capped.u, capped.rho), (direct.u, direct.rho)):
        assert np.array_equal(x.values, y.values)
    for x, y in zip(capped.phi.components, direct.phi.components):
        assert np.array_equal(x, y)
    assert rep_c.iterations == rep_d.iterations
    assert rep_c.residual_history == rep_d.residual_history


def test_mean_height_target(grid):
    data = ProblemData(NodeField.constant(grid, 3.0), params_with(tau=0.1, a=1.0))
    assert mean_height_target(data) == pytest.approx(3.0 / 1.01)


def test_rejects_tau_zero(grid):
    with pytest.raises(ValueError):
        solve_coupled(ProblemData(NodeField.zeros(grid), ModelParams(p=1.5, tau=0.0)))


def test_limit_flux_zero_selection(grid):
    p = params_with()
    flat = limit_flux(NodeField.constant(grid, 2.0), p)
    assert np.all(flat.components[0] == 0.0)
    tilted = limit_flux(NodeField.from_function(grid, lambda x: x), p)
    # slope 1 everywhere: flux = 1^(p-2) * 1 + beta0 * 1
    assert np.allclose(tilted.components[0], 1.0 + p.beta0)


# ---------------------------------------------------------------------------
# continuation
# ---------------------------------------------------------------------------


def test_continuation_constant_source(grid):
    c = 2.0
    p = params_with()
    res = continuation_tau(ProblemData(NodeField.constant(grid, c), p), [1e-1, 1e-2, 1e-3])
    assert res.completed
    for st in res.stages:
        expect = c / (p.a + st.tau**2)
        assert np.abs(st.triple.u.values - expect).max() <= 1e-8


def test_continuation_zero_source(grid):
    p = params_with()
    res = continuation_tau(ProblemData(NodeField.zeros(grid), p), [1e-1, 1e-2])
    for st in res.stages:
        assert np.abs(st.triple.u.values).max() <= 1e-9
        assert np.abs(st.triple.rho.values - 1.0).max() <= 1e-9


def test_continuation_mean_decay(grid, rng):
    # zero-mean source: mean height follows int f / (a + tau^2) = 0
    f = smooth_field(grid, rng)
    f = NodeField(grid, f.values - integrate(f) / grid.volume)
    res = continuation_tau(ProblemData(f, params_with()), [1e-1, 1e-2, 1e-3])
    assert res.completed
    for st in res.stages:
        assert abs(integrate(st.triple.u)) <= 1e-9


def test_continuation_validates_schedule(grid):
    data = ProblemData(NodeField.zeros(grid), params_with())
    with pytest.raises(ValueError):
        continuation_tau(data, [1e-2, 1e-1])
    with pytest.raises(ValueError):
        continuation_tau(data, [])


def test_continuation_estimates_attached(grid, rng):
    f = smooth_field(grid, rng, offset=0.2)
    res = continuation_tau(ProblemData(f, params_with()), [1e-1, 1e-2])
    assert res.completed
    for st in res.stages:
        assert st.estimates.mean_identity_residual <= 1e-12
        assert st.estimates.w1p_u > 0.0


# ---------------------------------------------------------------------------
# evolution
# ---------------------------------------------------------------------------


def test_evolve_zero_initial(grid):
    traj = evolve(NodeField.zeros(grid), dt=0.1, nsteps=3, params=params_with(tau=1e-3))
    assert traj.completed
    for step in traj.steps:
        assert np.abs(step.u.values).max() <= 1e-9


def test_evolve_constant_mass_factor(grid):
    p = params_with(tau=1e-3)
    dt = 0.1
    traj = evolve(NodeField.constant(grid, 0.7), dt=dt, nsteps=8, params=p)
    assert traj.completed
    factor = 1.0 / (1.0 + p.tau**2 * dt)
    for s0, s1 in zip(traj.steps, traj.steps[1:]):
        assert abs(s1.mean_height - s0.mean_height * factor) <= 1e-12
        # constant stays constant
        assert np.ptp(s1.u.values) <= 1e-10


def test_evolve_cosine_decay(grid):
    p = params_with(tau=1e-3)
    u0 = NodeField.from_function(grid, lambda x: 0.05 * np.cos(np.pi * x))
    traj = evolve(u0, dt=0.05, nsteps=12, params=p)
    assert traj.completed
    l2 = [s.l2_height for s in traj.steps]
    assert all(b <= a + 1e-12 for a, b in zip(l2, l2[1:]))
    assert l2[-1] < 0.5 * l2[0]
    assert traj.energy_nonincreasing


def test_evolve_residuals_of_the_solved_system(grid):
    # each step is solved at the capped viscosity, so its residuals meet the
    # coupled tolerance although params.delta = 1e-4 is far above the cap
    u0 = NodeField.from_function(grid, lambda x: 1.0 + 0.2 * np.cos(np.pi * x))
    traj = evolve(u0, dt=0.05, nsteps=3, params=params_with(tau=1e-2, delta=1e-4))
    assert traj.completed
    for step in traj.steps[1:]:
        assert max(step.residuals) <= PicardConfig().tol_residual


def test_evolve_validates_inputs(grid):
    with pytest.raises(ValueError):
        evolve(NodeField.zeros(grid), dt=-1.0, nsteps=2, params=params_with())
    with pytest.raises(ValueError):
        evolve(NodeField.zeros(grid), dt=0.1, nsteps=0, params=params_with())


# ---------------------------------------------------------------------------
# rounding floor of the height Newton: small tau, fine grids, larger means
# ---------------------------------------------------------------------------
#
# Evaluating the height operator on u ~ 0.5 leaves rounding noise of order
# eps |u| F / h^2 in the residual, which at tau = 1e-4 or 1025 nodes sits
# just above the 1e-10 (1 + |rhs|) Newton target. These inputs made the
# height line search fail before the operator was evaluated on the
# fluctuation u - mean(u).


FLOOR_COEFS = (0.75, -0.45, 0.2, -0.1)
FLOOR_SCHEDULE = [1e-1, 1e-2, 1e-3, 1e-4]


def floor_source(nodes: int, offset: float) -> NodeField:
    grid = Grid.interval(1.0, nodes)
    return NodeField.from_function(
        grid,
        lambda x: offset + sum(c * np.cos(k * np.pi * x) for k, c in enumerate(FLOOR_COEFS, 1)),
    )


def assert_mean_identity(u: NodeField, f: NodeField, p: ModelParams) -> None:
    int_f = integrate(f)
    assert abs((p.a + p.tau**2) * integrate(u) - int_f) <= 1e-9 * (1.0 + abs(int_f))


def test_rounding_floor_stationary_1025_nodes():
    f = floor_source(1025, offset=0.5)
    p = params_with(tau=0.1)
    triple, rep = solve_coupled(ProblemData(f, p))
    assert rep.converged
    assert np.min(triple.rho.values) > 0.0
    assert_mean_identity(triple.u, f, p)


@pytest.mark.parametrize("amplitude, tau", [(0.3, 0.05), (0.3, 0.01), (1.0, 0.05)])
def test_rounding_floor_density_1025_nodes(amplitude, tau):
    # (K rho)/w cancels terms of size rho/h^2; a density Newton on rho itself
    # stalled above its target here, one on ln rho - mean differences only
    # the fluctuation
    grid = Grid.interval(1.0, 1025)
    f = smooth_field(grid, np.random.default_rng(1), amplitude=amplitude, offset=0.5)
    p = params_with(tau=tau)
    triple, rep = solve_coupled(ProblemData(f, p))
    assert rep.converged
    assert np.min(triple.rho.values) > 0.0
    assert_mean_identity(triple.u, f, p)


@pytest.mark.parametrize("nodes, offset", [(257, 0.5), (129, 1.0)])
def test_rounding_floor_tau_continuation(nodes, offset):
    f = floor_source(nodes, offset)
    result = continuation_tau(ProblemData(f, params_with(tau=0.1)), FLOOR_SCHEDULE)
    assert result.completed, result.failure
    assert [st.tau for st in result.stages] == FLOOR_SCHEDULE
    for st in result.stages:
        assert np.min(st.triple.rho.values) > 0.0
        assert_mean_identity(st.triple.u, f, params_with(tau=st.tau))
        assert st.estimates.mean_identity_residual <= 1e-9 * (1.0 + abs(integrate(f)))
