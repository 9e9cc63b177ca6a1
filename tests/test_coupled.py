import collections
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp

from crystalsurf import coupled, solvers
from crystalsurf.energy import ModelParams
from crystalsurf.mesh import Grid, NodeField, integrate, norm_l2, operators
from crystalsurf.coupled import (
    PicardConfig,
    ProblemData,
    capped_params,
    coupled_residuals,
    continuation_tau,
    energy_nonincreasing,
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


def counted_linear_solves(monkeypatch, direct: bool) -> dict:
    """Count the linear solves of each Newton family, the SuperLU factors
    and the preconditioned CG iterations, and keep the last factor cache
    (key "factors"); with ``direct`` every solve factors its own full
    Newton matrix, built as CSC from its data, and solves with that factor."""
    counts = {"rho": 0, "u": 0, "splu": 0, "pcg": 0, "factors": {}}
    real_solve, real_splu, real_pcg = solvers._linear_solve, solvers.spla.splu, solvers.pcg

    def linear_solve(a, b, factors, family, *rest):
        counts[family] += 1
        counts["factors"] = factors
        if direct:
            return splu(a.csc(), permc_spec="MMD_AT_PLUS_A").solve(b)
        return real_solve(a, b, factors, family, *rest)

    def splu(a, **kwargs):
        counts["splu"] += 1
        return real_splu(a, **kwargs)

    def pcg(*args):
        x, its = real_pcg(*args)
        counts["pcg"] += its
        return x, its

    monkeypatch.setattr(solvers, "_linear_solve", linear_solve)
    monkeypatch.setattr(solvers.spla, "splu", splu)
    monkeypatch.setattr(solvers, "pcg", pcg)
    return counts


@pytest.mark.parametrize(
    "grid",
    [Grid.interval(1.0, 65), Grid.rectangle((1.0, 1.0), (17, 17)), Grid.rectangle((1.0, 1.0), (33, 33))],
    ids=["1d", "2d", "2d-33"],
)
@pytest.mark.parametrize("tau", [0.1, 1e-3, 1e-4])
def test_lagged_factors_match_direct_solves(grid, tau, rng, monkeypatch):
    # in 2D each Newton family is factored at most once per solve_coupled
    # call and later steps run CG preconditioned with that factor: the
    # height family factors the longitudinal part of its Newton matrix and
    # the density family factors nothing, its CG runs with the cosine
    # solve; in 1D every Newton matrix is tridiagonal and solved with
    # dptsv, so nothing is factored and CG never runs
    data = ProblemData(smooth_field(grid, rng, offset=0.5), params_with(tau=tau))
    results = {}
    for direct in (True, False):
        with monkeypatch.context() as m:
            counts = counted_linear_solves(m, direct)
            results[direct] = (*solve_coupled(data), counts)
    (t_d, rep_d, c_d), (t_l, rep_l, c_l) = results[True], results[False]
    assert rep_l.converged and rep_l.iterations <= rep_d.iterations
    assert c_l["rho"] <= c_d["rho"] and c_l["u"] <= c_d["u"]
    assert c_d["splu"] == c_d["rho"] + c_d["u"] and c_d["pcg"] == 0
    if grid.dim == 1:
        assert c_l["splu"] == 0 and c_l["pcg"] == 0 and c_l["factors"] == {}
    else:
        assert c_l["splu"] <= 2 and c_l["pcg"] > 0
        assert "rho" not in c_l["factors"] and "u" in c_l["factors"]
    for x, y in zip((t_l.u, t_l.rho), (t_d.u, t_d.rho)):
        assert np.max(np.abs(x.values - y.values)) <= 1e-10 * np.max(np.abs(y.values))


def test_1d_coupled_solve_builds_no_csc_and_no_node_field_per_newton_step(monkeypatch):
    # below the NodeField API the outer and Newton loops run on flat arrays:
    # every 1D Newton matrix reaches dptsv as data on its cached pattern, so
    # no CSC matrix is built, and the NodeFields are those of the public
    # calls of each outer step (picard_map's source, density, log-density
    # and height, and the mixed iterate), however many Newton steps and
    # residual evaluations the inner solves take
    grid = Grid.interval(1.0, 129)
    f = NodeField.from_function(
        grid, lambda x: 0.5 + 0.8 * np.cos(np.pi * x) - 0.4 * np.cos(2 * np.pi * x) + 0.25 * np.cos(3 * np.pi * x)
    )
    data = ProblemData(f, params_with(tau=1e-3))
    solve_coupled(data)  # builds the per-grid operator caches
    counts = collections.Counter()
    real_init, real_post_init = sp.csc_matrix.__init__, NodeField.__post_init__

    def csc_init(self, *args, **kwargs):
        counts["csc"] += 1
        real_init(self, *args, **kwargs)

    def post_init(self):
        counts["node_fields"] += 1
        real_post_init(self)

    def counting(name):
        real = getattr(coupled, name)

        def solve(*args, **kwargs):
            out = real(*args, **kwargs)
            counts["newton"] += out[1].iterations
            return out

        return solve

    monkeypatch.setattr(sp.csc_matrix, "__init__", csc_init)
    monkeypatch.setattr(NodeField, "__post_init__", post_init)
    for name in ("solve_rho", "solve_u"):
        monkeypatch.setattr(coupled, name, counting(name))
    triple, rep = solve_coupled(data)
    assert rep.converged and counts["csc"] == 0
    # the first iterate, then five per outer step, whose two inner solves
    # take more than one Newton step each on average
    assert counts["node_fields"] == 1 + 5 * rep.iterations
    assert counts["newton"] > 2 * rep.iterations


@pytest.mark.parametrize("grid", [Grid.interval(1.0, 65), Grid.rectangle((1.0, 1.0), (17, 17))], ids=["1d", "2d"])
def test_outer_residuals_are_the_public_coupled_residuals(grid, rng):
    # the flat outer loop records exactly what the public function gives on
    # the returned pair, for the system solved at the capped viscosity
    data = ProblemData(smooth_field(grid, rng, offset=0.5), params_with(tau=1e-3))
    triple, rep = solve_coupled(data)
    solved = ProblemData(data.f, capped_params(data.params, PicardConfig()))
    assert rep.converged
    assert triple.residuals == coupled_residuals(triple.u, triple.rho, solved)
    assert rep.residual_history[-1] == max(triple.residuals)


def plain_damped_outer_steps(data: ProblemData, cfg: PicardConfig = PicardConfig()) -> int:
    """Outer steps of the relaxed update u <- pin((1 - w) u + w B(u)) with
    the adaptation and stopping test of ``solve_coupled``: the reference."""
    data = ProblemData(data.f, capped_params(data.params, cfg))
    ubar = mean_height_target(data)
    u, rho, u_map, factors = NodeField.constant(data.f.grid, ubar), None, None, {}
    omega, prev_res = cfg.relaxation, np.inf
    for step in range(1, cfg.max_outer + 1):
        u_map, rho = picard_map(u, data, rho0=rho, u0=u_map, factors=factors)
        mixed = (1.0 - omega) * u.flat + omega * u_map.flat
        u_new = NodeField.from_flat(u.grid, coupled._pin_mean(mixed, operators(u.grid), ubar))
        change = norm_l2(NodeField(u.grid, u_new.values - u.values))
        res = max(coupled_residuals(u_new, rho, data))
        if change <= cfg.tol_fixed_point and res <= cfg.tol_residual:
            return step
        omega = min(1.0, omega * 1.2) if res < prev_res else max(1e-3, 0.5 * omega)
        u, prev_res = u_new, res
    raise AssertionError("the plain damped iteration did not converge")


@pytest.mark.parametrize(
    "dim, tau, a",
    [
        *((dim, tau, a) for dim in ("1d", "2d") for tau in (0.1, 1e-3) for a in (1.0, 20.0)),
        ("2d", 0.1, 1000.0),
    ],
)
def test_anderson_matches_the_plain_damped_iteration(dim, tau, a, rng, monkeypatch):
    # with an empty history the update is the plain damped step, so depth 0
    # is the reference; at a = 1000 the plain residual oscillates
    grid = Grid.interval(1.0, 65) if dim == "1d" else Grid.rectangle((1.0, 1.0), (17, 17))
    f = smooth_field(grid, rng, offset=0.5)
    data = ProblemData(f, params_with(tau=tau, a=a))
    mixed, rep = solve_coupled(data)
    monkeypatch.setattr(coupled, "_ANDERSON_DEPTH", 0)
    plain, rep_plain = solve_coupled(data)
    assert rep_plain.iterations == plain_damped_outer_steps(data)
    assert rep.converged and rep.iterations <= rep_plain.iterations
    if a == 1000.0:
        history = rep_plain.residual_history
        assert any(r1 >= r0 for r0, r1 in zip(history, history[1:]))
        assert rep.iterations < rep_plain.iterations
    for x, y in zip((mixed.u, mixed.rho), (plain.u, plain.rho)):
        assert np.max(np.abs(x.values - y.values)) <= 1e-8 * np.max(np.abs(y.values))
    assert_mean_identity(mixed.u, f, data.params)


def test_anderson_history_is_cleared_when_the_residual_grows(grid, rng, monkeypatch):
    # the second map evaluation, the first one mixed with an earlier step, is
    # pushed off, so the residual grows: the weight is halved and the next
    # update is the plain damped step pin(u + w (pin(B(u)) - u)) from the
    # same iterate, with no mixing of older steps
    data = ProblemData(smooth_field(grid, rng, offset=0.5), params_with(tau=0.1))
    ubar = mean_height_target(data)
    real_map, calls = coupled.picard_map, []

    def picard_map(v, *args, **kwargs):
        u_map, rho = real_map(v, *args, **kwargs)
        if len(calls) == 1:
            u_map = NodeField(grid, u_map.values + 0.1 * np.cos(np.pi * grid.meshgrid()[0]))
        calls.append((v, u_map))
        return u_map, rho

    monkeypatch.setattr(coupled, "picard_map", picard_map)
    _, rep = solve_coupled(data)
    history = rep.residual_history
    assert rep.converged
    assert history[1] > history[0]
    (u2, b2), (u3, _) = calls[2], calls[3]
    omega = 0.5 * (0.5 * 1.2)
    ops = operators(grid)
    residual = coupled._pin_mean(b2.flat, ops, ubar) - u2.flat
    plain = coupled._pin_mean(u2.flat + omega * residual, ops, ubar)
    assert np.allclose(u3.flat, plain, rtol=1e-14, atol=1e-15)


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
    stages = list(continuation_tau(ProblemData(NodeField.constant(grid, c), p), [1e-1, 1e-2, 1e-3]))
    assert len(stages) == 3
    for st in stages:
        expect = c / (p.a + st.tau**2)
        assert np.abs(st.triple.u.values - expect).max() <= 1e-8


def test_continuation_zero_source(grid):
    p = params_with()
    stages = list(continuation_tau(ProblemData(NodeField.zeros(grid), p), [1e-1, 1e-2]))
    for st in stages:
        assert np.abs(st.triple.u.values).max() <= 1e-9
        assert np.abs(st.triple.rho.values - 1.0).max() <= 1e-9


def test_continuation_mean_decay(grid, rng):
    # zero-mean source: mean height follows int f / (a + tau^2) = 0
    f = smooth_field(grid, rng)
    f = NodeField(grid, f.values - integrate(f) / grid.volume)
    stages = list(continuation_tau(ProblemData(f, params_with()), [1e-1, 1e-2, 1e-3]))
    assert len(stages) == 3
    for st in stages:
        assert abs(integrate(st.triple.u)) <= 1e-9


def test_continuation_validates_schedule(grid):
    data = ProblemData(NodeField.zeros(grid), params_with())
    # a generator validates at its first next()
    with pytest.raises(ValueError):
        next(continuation_tau(data, [1e-2, 1e-1]))
    with pytest.raises(ValueError):
        next(continuation_tau(data, []))


def test_continuation_estimates_attached(grid, rng):
    f = smooth_field(grid, rng, offset=0.2)
    stages = list(continuation_tau(ProblemData(f, params_with()), [1e-1, 1e-2]))
    assert len(stages) == 2
    for st in stages:
        assert st.estimates.mean_identity_residual <= 1e-12
        assert st.estimates.w1p_u > 0.0


# ---------------------------------------------------------------------------
# evolution
# ---------------------------------------------------------------------------


def test_evolve_zero_initial(grid):
    steps = list(evolve(NodeField.zeros(grid), dt=0.1, nsteps=3, params=params_with(tau=1e-3)))
    assert [s.index for s in steps] == [0, 1, 2, 3]
    for step in steps:
        assert np.abs(step.u.values).max() <= 1e-9


def test_evolve_constant_mass_factor(grid):
    p = params_with(tau=1e-3)
    dt = 0.1
    steps = list(evolve(NodeField.constant(grid, 0.7), dt=dt, nsteps=8, params=p))
    assert len(steps) == 9
    factor = 1.0 / (1.0 + p.tau**2 * dt)
    for s0, s1 in zip(steps, steps[1:]):
        assert abs(s1.mean_height - s0.mean_height * factor) <= 1e-12
        # constant stays constant
        assert np.ptp(s1.u.values) <= 1e-10


def test_evolve_cosine_decay(grid):
    p = params_with(tau=1e-3)
    u0 = NodeField.from_function(grid, lambda x: 0.05 * np.cos(np.pi * x))
    steps = list(evolve(u0, dt=0.05, nsteps=12, params=p))
    assert len(steps) == 13
    l2 = [s.l2_height for s in steps]
    assert all(b <= a + 1e-12 for a, b in zip(l2, l2[1:]))
    assert l2[-1] < 0.5 * l2[0]
    assert energy_nonincreasing([s.surface_energy for s in steps])


def test_evolve_residuals_of_the_solved_system(grid):
    # each step is solved at the capped viscosity, so its residuals meet the
    # coupled tolerance although params.delta = 1e-4 is far above the cap
    u0 = NodeField.from_function(grid, lambda x: 1.0 + 0.2 * np.cos(np.pi * x))
    steps = list(evolve(u0, dt=0.05, nsteps=3, params=params_with(tau=1e-2, delta=1e-4)))
    assert len(steps) == 4
    for step in steps[1:]:
        assert max(step.residuals) <= PicardConfig().tol_residual


def test_evolve_reuses_the_last_outer_residuals(grid, monkeypatch):
    # each step records the pair that solve_coupled's last outer step
    # evaluated, so the residuals run once per outer step and no more
    calls, outer = [], []
    residuals, solve = coupled.coupled_residuals, coupled.solve_coupled

    def solved(*args, **kwargs):
        triple, report = solve(*args, **kwargs)
        outer.append(report.iterations)
        return triple, report

    monkeypatch.setattr(coupled, "coupled_residuals", lambda *args: calls.append(args) or residuals(*args))
    monkeypatch.setattr(coupled, "solve_coupled", solved)
    u0 = NodeField.from_function(grid, lambda x: 1.0 + 0.2 * np.cos(np.pi * x))
    p, dt = params_with(tau=1e-2), 0.05
    steps = list(coupled.evolve(u0, dt=dt, nsteps=3, params=p))
    assert len(steps) == 4 and len(calls) == sum(outer) > 3
    # the recorded pair is exactly what a fresh evaluation of the solved system gives
    prev, last = steps[-2:]
    data = ProblemData(NodeField(grid, prev.u.values / dt), capped_params(replace(p, a=1.0 / dt), PicardConfig()))
    assert last.residuals == residuals(last.u, last.rho, data)


def test_evolve_constant_height_keeps_converging():
    # the density Newton stops on its residual in units of ln rho; measured
    # in the units of tau ln rho it admitted an ln rho error of 1e-10/tau,
    # which outer steps accepted as a warm start until the height residual,
    # growing by tau du each step, failed the coupled solve at step 12
    grid = Grid.interval(1.0, 9)
    steps = list(evolve(NodeField.constant(grid, 1.0), dt=1.0, nsteps=30, params=ModelParams(p=1.5, tau=1e-3)))
    assert len(steps) == 31
    assert max(st.residuals[1] for st in steps[1:]) <= 1e-12


def test_evolve_validates_inputs(grid):
    # a generator validates at its first next()
    with pytest.raises(ValueError):
        next(evolve(NodeField.zeros(grid), dt=-1.0, nsteps=2, params=params_with()))
    with pytest.raises(ValueError):
        next(evolve(NodeField.zeros(grid), dt=0.1, nsteps=0, params=params_with()))


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
    stages = list(continuation_tau(ProblemData(f, params_with(tau=0.1)), FLOOR_SCHEDULE))
    assert [st.tau for st in stages] == FLOOR_SCHEDULE
    for st in stages:
        assert np.min(st.triple.rho.values) > 0.0
        assert_mean_identity(st.triple.u, f, params_with(tau=st.tau))
        assert st.estimates.mean_identity_residual <= 1e-9 * (1.0 + abs(integrate(f)))
