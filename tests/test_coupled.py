import collections
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

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
from crystalsurf.solvers import SolverError, apply_height_operator
from crystalsurf.analysis import manufactured_problem
from conftest import anderson_loop, failing_dgbsv, smooth_field


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
    r1, r2 = coupled_residuals(triple.v, triple.s, data)
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
    Newton matrix, built as CSC from its data, and solves with that factor.
    A density solve whose right-hand side is a multiple of W is
    ``solve_rho``'s mean-mode correction, not a Newton step: it is counted
    under "rho_mean", not "rho"."""
    counts = {"rho": 0, "rho_mean": 0, "u": 0, "splu": 0, "pcg": 0, "factors": {}}
    real_solve, real_splu, real_pcg = solvers._linear_solve, solvers.spla.splu, solvers.pcg

    def linear_solve(a, b, factors, family, *rest):
        ratio = b / a.ops.w if family == "rho" else None
        mean_mode = ratio is not None and np.allclose(ratio, ratio[0], rtol=1e-12, atol=0.0)
        counts["rho_mean" if mean_mode else family] += 1
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
    # dptsv, so nothing is factored and CG never runs. In 2D each linear
    # solve other than a density mean-mode correction is one Newton step,
    # and CG to the forcing term takes exactly the direct path's Newton
    # steps in each family and its outer steps. A correction follows a
    # density solve that ends within its Newton target but not within the
    # bound on the mean of ln rho, at most one per outer step; the two paths
    # may end on either side of that bound (at tau 1e-3 in 2D the CG path
    # takes one, the direct path none)
    data = ProblemData(smooth_field(grid, rng, offset=0.5), params_with(tau=tau))
    results = {}
    for direct in (True, False):
        with monkeypatch.context() as m:
            counts = counted_linear_solves(m, direct)
            results[direct] = (*solve_coupled(data), counts)
    (t_d, rep_d, c_d), (t_l, rep_l, c_l) = results[True], results[False]
    assert rep_l.converged and rep_l.iterations <= rep_d.iterations
    assert c_l["rho"] <= c_d["rho"] and c_l["u"] <= c_d["u"]
    assert c_d["splu"] == c_d["rho"] + c_d["rho_mean"] + c_d["u"] and c_d["pcg"] == 0
    assert c_l["rho_mean"] <= rep_l.iterations and c_d["rho_mean"] <= rep_d.iterations
    if grid.dim == 1:
        assert c_l["splu"] == 0 and c_l["pcg"] == 0 and c_l["factors"] == {}
    else:
        assert c_l["splu"] <= 2 and c_l["pcg"] > 0
        assert "rho" not in c_l["factors"] and "u" in c_l["factors"]
        assert (c_l["rho"], c_l["u"], rep_l.iterations) == (c_d["rho"], c_d["u"], rep_d.iterations)
    for x, y in zip((t_l.u, t_l.rho), (t_d.u, t_d.rho)):
        assert np.max(np.abs(x.values - y.values)) <= 1e-10 * np.max(np.abs(y.values))


def stationary_2d_source(grid: Grid) -> NodeField:
    """The stationary_2d benchmark's cosine source, without its seeded perturbation."""
    base = ((0.8, -0.4, 0.25, -0.15), (-0.6, 0.3, -0.2, 0.1))
    return NodeField(
        grid,
        sum(c * np.cos(k * np.pi * x) for x, coefs in zip(grid.meshgrid(), base) for k, c in enumerate(coefs, 1)),
    )


def test_forced_cg_cuts_the_iterations_of_fixed_tolerance_cg_in_the_same_newton_steps(monkeypatch):
    # the stationary_2d family at 33^2: CG to each step's forcing term
    # against CG to the fixed relative residual 1e-10 (every forcing term
    # at its floor) and against direct solves of every Newton matrix. All
    # three take the same outer and per-family Newton steps, neither CG run
    # factors (the height family preconditions with the flat-state cosine
    # solve), the forced one takes at most 60% of the fixed one's CG
    # iterations and agrees with the direct fields. The subject is the
    # forcing term, so the outer loop runs at the weight 0.5 of its four
    # outer steps; at the default weight 1 (three outer steps) the ratio
    # reads 28/46
    grid = Grid.rectangle((1.0, 1.0), (33, 33))
    data = ProblemData(stationary_2d_source(grid), params_with(tau=0.05))
    cfg = PicardConfig(relaxation=0.5)
    runs = {}
    for name in ("forced", "fixed", "direct"):
        with monkeypatch.context() as m:
            counts = counted_linear_solves(m, direct=name == "direct")
            if name == "fixed":
                m.setattr(solvers, "_forcing", lambda merit, target: 1e-10)
            runs[name] = (*solve_coupled(data, cfg), counts)
    steps = {name: (rep.iterations, c["rho"], c["u"]) for name, (_, rep, c) in runs.items()}
    assert runs["forced"][1].converged and steps["forced"] == steps["fixed"] == steps["direct"]
    forced, fixed = runs["forced"][2], runs["fixed"][2]
    assert forced["splu"] == fixed["splu"] == 0
    assert 0 < forced["pcg"] <= 0.6 * fixed["pcg"]  # 33 against 61
    (t, _, _), (t_d, _, _) = runs["forced"], runs["direct"]
    for x, y in zip((t.u, t.rho), (t_d.u, t_d.rho)):
        assert np.max(np.abs(x.values - y.values)) <= 1e-10 * np.max(np.abs(y.values))


def test_undamped_loop_converges_on_a_steep_input_in_three_outer_steps():
    # the stationary_2d spectrum x5 with the benchmark's seed-0 factors,
    # 33^2, tau 1e-3: a warm density start within its Newton target, which
    # grows like 1/tau, but with its log mean 4e-8 off would come back
    # unchanged every outer step, and the pin's shift carries that mean
    # into R2 (1.25e-8 at every step, against tol_residual 1e-8). With
    # solve_rho holding the log mean to its bound, the default undamped
    # loop converges in 3 outer steps, the mean identity to rounding
    grid = Grid.rectangle((1.0, 1.0), (33, 33))
    factors = np.random.default_rng(0)
    base = ((0.8, -0.4, 0.25, -0.15), (-0.6, 0.3, -0.2, 0.1))
    coefs = [5.0 * np.asarray(b) * (1.0 + 0.1 * factors.uniform(-1.0, 1.0, len(b))) for b in base]
    f = NodeField(grid, sum(c * np.cos(k * np.pi * x) for x, cs in zip(grid.meshgrid(), coefs) for k, c in enumerate(cs, 1)))
    data = ProblemData(f, params_with(tau=1e-3))
    triple, rep = solve_coupled(data)
    assert PicardConfig().relaxation == 1.0
    assert rep.converged and rep.iterations == 3
    assert max(coupled_residuals(triple.v, triple.s, data)) <= PicardConfig().tol_residual
    assert_mean_identity(triple.u, f, data.params)


def test_flat_state_seed_matches_the_path_that_factors_p(monkeypatch):
    # the stationary_2d family at 33^2: every 2D solve_coupled takes its
    # first height Newton step at the flat heights, whose P the height
    # family's seed inverts by the cosine solve; the reference forces the
    # seed empty, so that step factors P instead. The seeded path factors
    # nothing, the reference once, and both take the same outer and
    # per-family Newton steps, CG iterations within 1 and fields within 1e-10
    grid = Grid.rectangle((1.0, 1.0), (33, 33))
    data = ProblemData(stationary_2d_source(grid), params_with(tau=0.05))
    runs = {}
    for name in ("seeded", "factored"):
        with monkeypatch.context() as m:
            counts = counted_linear_solves(m, direct=False)
            if name == "factored":
                m.setattr(solvers, "_flat_height_preconditioner", lambda ops, params: None)
            runs[name] = (*solve_coupled(data), counts)
    (t, rep, c), (t_f, rep_f, c_f) = runs["seeded"], runs["factored"]
    assert rep.converged and rep_f.converged
    assert (rep.iterations, c["rho"], c["u"]) == (rep_f.iterations, c_f["rho"], c_f["u"])
    assert c["splu"] == 0 and c_f["splu"] == 1
    assert abs(c["pcg"] - c_f["pcg"]) <= 1
    for x, y in zip((t.u, t.rho), (t_f.u, t_f.rho)):
        assert np.max(np.abs(x.values - y.values)) <= 1e-10 * np.max(np.abs(y.values))


def test_1d_coupled_solve_builds_no_csc_and_no_node_field_per_newton_step(monkeypatch):
    # below the NodeField API the outer and Newton loops run on flat arrays:
    # every 1D Newton matrix reaches dptsv (inner steps) or dgbsv (joint
    # steps) as data on its cached pattern, so no CSC matrix is built, and
    # the NodeFields are those of the public calls (picard_map's source,
    # density, log-density and height, and an iterate) and the accepted
    # fluctuations v and s, however many Newton steps and residual
    # evaluations the inner solves and the joint Newton take
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
    # the joint path: the first iterate and the four of its one map, then
    # the accepted fluctuations v and s, over more than one joint step
    joint = joint_calls(monkeypatch)
    triple, rep = solve_coupled(data)
    assert joint == [rep] and rep.converged and rep.iterations > 2 and counts["csc"] == 0
    assert counts["node_fields"] == 1 + 4 + 2
    # the Anderson loop, the 1D reference: its first iterate, five per
    # outer step, whose two inner solves take more than one Newton step
    # each on average, and the accepted v and s
    counts.clear()
    triple, rep = anderson_loop(data)
    assert rep.converged and counts["csc"] == 0
    assert counts["node_fields"] == 1 + 5 * rep.iterations + 2
    assert counts["newton"] > 2 * rep.iterations


def test_triple_carries_the_mean_height_and_the_fluctuations(grid, rng):
    # a joint triple forms u and rho from its mean-pinned v and its s; an
    # Anderson triple keeps the loop's own u and rho and formed v and s from them
    data = ProblemData(smooth_field(grid, rng, offset=0.5), params_with(tau=1e-2))
    ubar = mean_height_target(ProblemData(data.f, capped_params(data.params, PicardConfig())))
    joint, _ = solve_coupled(data)
    assert joint.ubar == ubar and joint.tau == data.params.tau
    assert abs(integrate(joint.v)) <= 1e-15
    assert np.array_equal(joint.u.values, ubar + joint.v.values)
    assert np.array_equal(joint.rho.values, np.exp(data.params.tau * ubar + joint.s.values))
    loop, _ = anderson_loop(data)
    assert loop.ubar == ubar
    assert np.array_equal(loop.v.values, loop.u.values - ubar)
    assert np.array_equal(loop.s.values, np.log(loop.rho.values) - data.params.tau * ubar)
    assert np.abs(joint.u.values - loop.u.values).max() <= 1e-9


@pytest.mark.parametrize("grid", [Grid.interval(1.0, 65), Grid.rectangle((1.0, 1.0), (17, 17))], ids=["1d", "2d"])
def test_outer_residuals_are_the_public_coupled_residuals(grid, rng):
    # the flat outer loop records exactly what the public function gives on
    # the returned pair, for the system solved at the capped viscosity
    data = ProblemData(smooth_field(grid, rng, offset=0.5), params_with(tau=1e-3))
    triple, rep = solve_coupled(data)
    solved = ProblemData(data.f, capped_params(data.params, PicardConfig()))
    assert rep.converged
    assert triple.residuals == coupled_residuals(triple.v, triple.s, solved)
    assert rep.residual_history[-1] == max(triple.residuals)


# |derived - direct| of each normalized (R1, R2) norm at the map output, per
# dimension. Measured on the inputs below: at most 5.4e-16 on the two 2D
# grids and 2.3e-13 in 1D, where the 65-node TV flux at tau = 1e-3 magnifies
# the rounding of the edge gradients. Dropping a F moves R1 by 1.2e-3 to
# 2.4e-3 on all three; dropping tau c moves the 2D R2 by 6.2e-10, and in 1D
# tau c lies below that rounding
MAP_RESIDUAL_BOUND = {1: 3e-12, 2: 1e-13}


@pytest.mark.parametrize(
    "grid",
    [Grid.interval(1.0, 65), Grid.rectangle((1.0, 1.0), (17, 17)), Grid.rectangle((1.0, 1.0), (9, 17))],
    ids=["1d", "2d", "2d-9x17-unequal-h"],
)
def test_outer_steps_decide_on_the_map_outputs_residuals(grid, rng, monkeypatch):
    # every outer step is decided on coupled_residuals at the map output
    # (pin(B(u)), rho), derived from the inner solves' own residuals: each
    # norm agrees with a direct evaluation there, the history records their
    # larger one per step, then the returned pair's. In 1D the loop runs as
    # the reference. a = 20 makes the pin's shift c large enough to see
    data = ProblemData(smooth_field(grid, rng, offset=0.5), params_with(tau=1e-3, a=20.0))
    solved = ProblemData(data.f, capped_params(data.params, PicardConfig()))
    ubar, ops = mean_height_target(solved), operators(grid)
    real_map, real_derived, direct, derived = coupled.picard_map, coupled._map_residuals, [], []

    def picard_map(*args, **kwargs):
        u_map, rho = real_map(*args, **kwargs)
        v = NodeField.from_flat(grid, coupled._pin_mean(u_map.flat, ops, ubar) - ubar)
        s = NodeField(grid, np.log(rho.values) - solved.params.tau * ubar)
        direct.append(coupled_residuals(v, s, solved))
        return u_map, rho

    monkeypatch.setattr(coupled, "picard_map", picard_map)
    monkeypatch.setattr(coupled, "_map_residuals", lambda *args: derived.append(real_derived(*args)) or derived[-1])
    triple, rep = anderson_loop(data)
    assert rep.converged and len(derived) == len(direct) == rep.iterations > 2
    assert rep.residual_history == [max(d) for d in derived] + [max(triple.residuals)]
    gap = np.abs(np.subtract(derived, direct))
    assert gap.max() <= MAP_RESIDUAL_BOUND[grid.dim]


def test_warm_height_solves_start_from_the_previous_height_solves_end(rng, monkeypatch):
    # every later outer step's height solve starts at the field the previous
    # one returned and takes its first residual and Newton matrix from that
    # solve's end: one apply_height_operator call fewer per warm height
    # solve than when each start is evaluated afresh, the same Newton steps,
    # and a first merit equal to a direct evaluation at the start, to the
    # rounding of the residual's terms, in the units of the Newton target
    # tol (1 + |rhs|_w)
    grid = Grid.rectangle((1.0, 1.0), (17, 17))
    data = ProblemData(smooth_field(grid, rng, offset=0.5), params_with(tau=1e-3, a=20.0))
    real_apply, real_solve_u, runs = solvers.apply_height_operator, coupled.solve_u, {}
    for reuse in (True, False):
        evals, solves = [], []

        def solve_u(rhs, params, cfg=None, u0=None, factors=None, u0_report=None):
            out = real_solve_u(rhs, params, cfg, u0, factors, u0_report if reuse else None)
            solves.append((rhs, u0, u0_report, out))
            return out

        with monkeypatch.context() as m:
            m.setattr(solvers, "apply_height_operator", lambda *args: evals.append(None) or real_apply(*args))
            m.setattr(coupled, "solve_u", solve_u)
            triple, rep = solve_coupled(data)
        runs[reuse] = triple, rep, len(evals), solves
    (triple, rep, evals, solves), (fresh, rep_fresh, evals_fresh, solves_fresh) = runs[True], runs[False]
    assert rep.converged and rep.iterations == rep_fresh.iterations == len(solves) > 2
    assert solves[0][1] is None and solves[0][2] is None
    for (_, _, _, returned), (_, u0, u0_report, _) in zip(solves, solves[1:]):
        assert u0 is returned[0] and u0_report is returned[1]
    assert evals == evals_fresh - (len(solves) - 1)
    assert [s[3][1].iterations for s in solves] == [s[3][1].iterations for s in solves_fresh]
    for x, y in zip((triple.u, triple.rho), (fresh.u, fresh.rho)):
        assert np.max(np.abs(x.values - y.values)) <= 1e-12 * np.max(np.abs(y.values))
    w, tau, solved = operators(grid).w, data.params.tau, capped_params(data.params, PicardConfig())
    for rhs, u0, _, (_, report) in solves[1:]:
        ubar = float(np.sum(w * rhs.flat) / np.sum(w)) / tau
        start = real_apply(NodeField.from_flat(grid, u0.flat - ubar), solved).flat + tau * ubar - rhs.flat
        merit, scale = np.sqrt(np.sum(w * start**2)), 1.0 + np.sqrt(np.sum(w * rhs.flat**2))
        assert abs(report.residual_history[0] - merit) <= 1e-14 * scale  # measured 1.1e-16 scale


def plain_damped_outer_steps(data: ProblemData, cfg: PicardConfig = PicardConfig()) -> int:
    """Outer steps of the relaxed update u <- pin((1 - w) u + w B(u)) with
    the adaptation and stopping test of ``solve_coupled``: the reference.
    Each step is decided on the public residual at the map output
    (pin(B(u)), rho) and accepted only when that of the returned pair
    (u_new, rho) passes too."""
    data = ProblemData(data.f, capped_params(data.params, cfg))
    ubar = mean_height_target(data)
    ops = operators(data.f.grid)
    u, rho, u_map, factors = NodeField.constant(data.f.grid, ubar), None, None, {}
    omega, prev_res = cfg.relaxation, np.inf
    for step in range(1, cfg.max_outer + 1):
        u_map, rho = picard_map(u, data, rho0=rho, u0=u_map, factors=factors)
        mixed = (1.0 - omega) * u.flat + omega * u_map.flat
        u_new = NodeField.from_flat(u.grid, coupled._pin_mean(mixed, ops, ubar))
        change = norm_l2(NodeField(u.grid, u_new.values - u.values))
        s = NodeField(u.grid, np.log(rho.values) - data.params.tau * ubar)
        v_map = NodeField.from_flat(u.grid, coupled._pin_mean(u_map.flat, ops, ubar) - ubar)
        res = max(coupled_residuals(v_map, s, data))
        v = NodeField(u.grid, u_new.values - ubar)
        if change <= cfg.tol_fixed_point and res <= cfg.tol_residual:
            if max(coupled_residuals(v, s, data)) <= cfg.tol_residual:
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
    # is the reference; at a = 1000 the plain residual oscillates. A 2D
    # solve is the Anderson loop; in 1D the loop runs as the reference
    grid = Grid.interval(1.0, 65) if dim == "1d" else Grid.rectangle((1.0, 1.0), (17, 17))
    solve = anderson_loop if dim == "1d" else solve_coupled
    f = smooth_field(grid, rng, offset=0.5)
    data = ProblemData(f, params_with(tau=tau, a=a))
    mixed, rep = solve(data)
    monkeypatch.setattr(coupled, "_ANDERSON_DEPTH", 0)
    plain, rep_plain = solve(data)
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
    # the second map evaluation of the loop, the first one mixed with an
    # earlier step, is pushed off, so the residual grows: the weight is
    # halved and the next update is the plain damped step
    # pin(u + w (pin(B(u)) - u)) from the same iterate, with no mixing of
    # older steps. The loop runs as the 1D reference
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
    _, rep = anderson_loop(data)
    history = rep.residual_history
    assert rep.converged
    assert history[1] > history[0]
    (u2, b2), (u3, _) = calls[2], calls[3]
    omega = 0.5 * min(1.0, 1.2 * PicardConfig().relaxation)  # grown after step 1, halved after step 2
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


def evolve_residual_calls(grid, monkeypatch) -> tuple[list, list]:
    """Evolve three steps, and check that each records the pair that
    solve_coupled evaluated last, and that the residuals run once per
    accepted solve, joint Newton or Anderson loop, with no evaluation by
    evolve itself; return the accepted joint reports and the outer steps
    of each solve (0 for a joint one)."""
    calls, outer, triples = [], [], []
    flat_residuals, solve = coupled._coupled_residuals, coupled.solve_coupled
    joint = joint_calls(monkeypatch)

    def solved(*args, **kwargs):
        accepted = len(joint)
        triple, report = solve(*args, **kwargs)
        outer.append(0 if len(joint) > accepted else report.iterations)
        triples.append(triple)
        return triple, report

    monkeypatch.setattr(coupled, "_coupled_residuals", lambda *args: calls.append(args) or flat_residuals(*args))
    monkeypatch.setattr(coupled, "solve_coupled", solved)
    u0 = NodeField.from_function(grid, lambda x, *y: 1.0 + 0.2 * np.cos(np.pi * x))
    p, dt = params_with(tau=1e-2), 0.05
    steps = list(coupled.evolve(u0, dt=dt, nsteps=3, params=p))
    assert len(steps) == 4 and None not in joint
    assert len(calls) == len(outer) == 3
    # the recorded pair is exactly what a fresh evaluation of the solved
    # system gives on the solve's fluctuations
    prev, last = steps[-2:]
    data = ProblemData(NodeField(grid, prev.u.values / dt), capped_params(replace(p, a=1.0 / dt), PicardConfig()))
    assert last.u is triples[-1].u and last.residuals == coupled_residuals(triples[-1].v, triples[-1].s, data)
    return joint, outer


def test_evolve_reuses_the_last_outer_residuals(grid, monkeypatch):
    # every 1D step is one accepted joint Newton solve
    joint, outer = evolve_residual_calls(grid, monkeypatch)
    assert len(joint) == 3 and outer == [0, 0, 0]


def test_2d_evolve_reuses_the_last_outer_residuals(monkeypatch):
    # every 2D step is the Anderson loop, of more than one outer step
    joint, outer = evolve_residual_calls(Grid.rectangle((1.0, 1.0), (17, 17)), monkeypatch)
    assert joint == [] and min(outer) > 1


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


# ---------------------------------------------------------------------------
# the joint Newton on (u, ln rho) of warm-started 1D solves
# ---------------------------------------------------------------------------


def joint_calls(monkeypatch) -> list:
    """Record every ``_joint_newton`` call: its report when accepted, None
    when it raised."""
    real, calls = coupled._joint_newton, []

    def joint(*args, **kwargs):
        try:
            out = real(*args, **kwargs)
        except SolverError:
            calls.append(None)
            raise
        calls.append(out[1])
        return out

    monkeypatch.setattr(coupled, "_joint_newton", joint)
    return calls


@pytest.mark.parametrize(
    "nodes, tau, a",
    [(17, 1e-1, 1.0), (33, 1e-2, 0.1), (65, 1e-3, 20.0), (100, 1e-4, 1.0), (129, 1e-3, 5.0), (200, 1e-2, 20.0), (257, 1e-4, 0.5)],
)
def test_joint_newton_matches_the_anderson_loop_from_the_same_warm_start(nodes, tau, a, rng, monkeypatch):
    # a continuation stage: warm-started from the solution at 2 tau, the
    # joint Newton is accepted and reaches the Anderson loop's fixed point
    grid = Grid.interval(1.0, nodes)
    f = smooth_field(grid, rng, offset=0.5)
    start, _ = solve_coupled(ProblemData(f, params_with(tau=2 * tau, a=a)))
    data = ProblemData(f, params_with(tau=tau, a=a))
    calls = joint_calls(monkeypatch)
    joint, rep = solve_coupled(data, u0=start.u, rho0=start.rho)
    # Newton from a warm start: quadratic convergence, no more steps than
    # the Anderson loop takes here (3 or 4)
    assert calls == [rep] and rep.converged and 1 <= rep.iterations <= 4
    solved = ProblemData(f, capped_params(data.params, PicardConfig()))
    assert joint.residuals == coupled_residuals(joint.v, joint.s, solved)
    assert rep.residual_history[-1] == max(joint.residuals) <= PicardConfig().tol_residual
    assert_mean_identity(joint.u, f, data.params)
    ref, _ = anderson_loop(data, u0=start.u, rho0=start.rho)
    assert np.abs(joint.u.values - ref.u.values).max() <= 1e-10
    assert np.abs(np.log(joint.rho.values) - np.log(ref.rho.values)).max() <= 1e-9


def test_evolve_joint_steps_match_the_anderson_loop(monkeypatch):
    # late in a relaxation each step starts within the Newton target, and
    # the one full step taken to measure the change still moves ln rho by
    # about 2e-9: without it the step would return its start. Step 1, cold,
    # runs the joint Newton after one Picard map
    grid = Grid.interval(1.0, 129)
    u0 = NodeField.from_function(grid, lambda x: 1.0 + 0.2 * np.cos(np.pi * x) - 0.1 * np.cos(2 * np.pi * x))
    solve, gaps, reports = coupled.solve_coupled, [], []

    def compared(data, picard_cfg, newton_cfg, u0=None, rho0=None):
        triple, rep = solve(data, picard_cfg, newton_cfg, u0=u0, rho0=rho0)
        ref, _ = anderson_loop(data, picard_cfg, newton_cfg, u0=u0, rho0=rho0)
        gaps.append((np.abs(triple.u.values - ref.u.values).max(), np.abs(np.log(triple.rho.values / ref.rho.values)).max()))
        reports.append(rep)
        return triple, rep

    monkeypatch.setattr(coupled, "solve_coupled", compared)
    calls = joint_calls(monkeypatch)
    steps = list(evolve(u0, dt=0.05, nsteps=40, params=params_with(tau=1e-3)))
    assert len(steps) == 41 and calls == reports and len(reports) == 40
    # starts within the Newton target: one merit, one step, then the residual
    assert sum(len(r.residual_history) == 2 and r.iterations == 1 for r in reports) > 20
    assert max(du for du, _ in gaps) <= 1e-10 and max(dl for _, dl in gaps[1:]) <= 1e-9
    # the cold step 1 within the bound of the cold sweep (measured 1.9e-9)
    assert gaps[0][1] <= 1e-8


def counted_maps(monkeypatch) -> list:
    """Record the start of every ``picard_map`` call."""
    real, calls = coupled.picard_map, []
    monkeypatch.setattr(coupled, "picard_map", lambda v, *a, **k: calls.append(v) or real(v, *a, **k))
    return calls


def test_warm_dgbsv_failure_raises_the_joint_newtons_error(grid, rng, monkeypatch):
    # a warm 1D solve is the joint Newton alone: a banded solve that fails
    # fails the solve with the joint Newton's own error and report, and no
    # Picard map runs
    f = smooth_field(grid, rng, offset=0.5)
    start, _ = solve_coupled(ProblemData(f, params_with(tau=0.02)))
    data = ProblemData(f, params_with(tau=0.01))
    solved = ProblemData(f, capped_params(data.params, PicardConfig()))
    ubar = mean_height_target(solved)
    uf = coupled._pin_mean(start.u.flat, operators(grid), ubar)
    monkeypatch.setattr(coupled.lapack, "dgbsv", failing_dgbsv)
    with pytest.raises(SolverError) as direct:
        coupled._joint_newton(solved, PicardConfig(), None, ubar, uf, start.rho)
    calls, maps = joint_calls(monkeypatch), counted_maps(monkeypatch)
    with pytest.raises(SolverError) as err:
        solve_coupled(data, u0=start.u, rho0=start.rho)
    assert calls == [None] and maps == []
    assert str(err.value) == str(direct.value) == "coupled Newton matrix is singular (dgbsv info 1)"
    # the merit at the start, and no step taken
    report = err.value.report
    assert report.to_dict() == direct.value.report.to_dict()
    assert not report.converged and report.iterations == 0 and len(report.residual_history) == 1


@pytest.mark.parametrize(
    "cfg, refusal",
    [
        (PicardConfig(tol_residual=1e-16), r"coupled residual \S+ exceeds tol_residual 1e-16$"),
        (PicardConfig(tol_fixed_point=1e-30), r"last step in v \S+ exceeds tol_fixed_point 1e-30$"),
    ],
    ids=["residual", "change"],
)
def test_joint_result_outside_the_stopping_test_is_refused(grid, rng, monkeypatch, cfg, refusal):
    # no solve reaches a residual of 1e-16 or a last step of 1e-30: the
    # joint result is refused with the check it failed and the joint
    # Newton's report, and no Picard map runs
    f = smooth_field(grid, rng, offset=0.5)
    start, _ = solve_coupled(ProblemData(f, params_with(tau=0.02)))
    calls, maps = joint_calls(monkeypatch), counted_maps(monkeypatch)
    with pytest.raises(SolverError, match="^coupled Newton result fails the outer stopping test: " + refusal) as err:
        solve_coupled(ProblemData(f, params_with(tau=0.01)), cfg, u0=start.u, rho0=start.rho)
    report = err.value.report
    assert calls == [None] and maps == []
    assert not report.converged and 1 <= report.iterations <= 4


def test_2d_solves_never_enter_the_joint_path_and_1d_cold_solves_enter_after_one_map(rng, monkeypatch):
    with monkeypatch.context() as m:
        calls = joint_calls(m)
        square = Grid.rectangle((1.0, 1.0), (17, 17))
        f = smooth_field(square, rng, offset=0.5)
        start, _ = solve_coupled(ProblemData(f, params_with(tau=0.1)))
        _, rep = solve_coupled(ProblemData(f, params_with(tau=0.05)), u0=start.u, rho0=start.rho)
        assert rep.converged and calls == []
    # a cold 1D solve (no density, or one that is not strictly positive)
    # runs one Picard map from the caller's start, then the joint Newton
    # from the pinned map and its density
    line = Grid.interval(1.0, 33)
    f = smooth_field(line, rng, offset=0.5)
    data = ProblemData(f, params_with(tau=0.05))
    ops, ubar = operators(line), mean_height_target(data)
    real_map, real_joint, events = coupled.picard_map, coupled._joint_newton, []

    def picard_map(v, *args, **kwargs):
        out = real_map(v, *args, **kwargs)
        events.append(("map", v, kwargs, out))
        return out

    def joint(data, cfg, newton_cfg, ubar, uf, rho0):
        out = real_joint(data, cfg, newton_cfg, ubar, uf, rho0)
        events.append(("joint", uf, rho0, out[1].iterations))
        return out

    monkeypatch.setattr(coupled, "picard_map", picard_map)
    monkeypatch.setattr(coupled, "_joint_newton", joint)
    for u0, rho0 in ((None, None), (NodeField(line, f.values), None), (None, NodeField.zeros(line))):
        events.clear()
        _, rep = solve_coupled(data, u0=u0, rho0=rho0)
        assert [e[0] for e in events] == ["map", "joint"] and rep.converged
        (_, v, kwargs, (u_map, rho)), (_, uf, rho_start, joint_steps) = events
        start = u0.flat if u0 is not None else np.full(line.node_count, ubar)
        assert np.array_equal(v.flat, coupled._pin_mean(start, ops, ubar))
        assert kwargs["rho0"] is rho0 and kwargs.get("u0") is None
        assert np.array_equal(uf, coupled._pin_mean(u_map.flat, ops, ubar)) and rho_start is rho
        # the report counts the map as one step ahead of the joint steps
        assert rep.iterations == 1 + joint_steps and joint_steps >= 1
    # an evolve step 1 has a height but no density to start from
    events.clear()
    assert len(list(evolve(NodeField(line, 1.0 + 0.1 * f.values), dt=0.05, nsteps=1, params=params_with()))) == 2
    assert [e[0] for e in events] == ["map", "joint"]


COLD_SWEEP = [(nodes, tau, a) for nodes in (33, 129, 257) for tau in (1e-1, 1e-3) for a in (1.0, 20.0)]


@pytest.mark.parametrize("nodes, tau, a", COLD_SWEEP)
def test_cold_1d_solves_are_the_joint_newtons_and_match_the_anderson_loop(nodes, tau, a, rng, monkeypatch):
    # a cold 1D solve runs one Picard map, then the joint Newton, which is
    # accepted; the Anderson loop from the same start reaches the same answer
    grid = Grid.interval(1.0, nodes)
    calls = joint_calls(monkeypatch)
    for offset, amplitude in ((0.5, 0.3), (0.5, 1.0), (1.0, 3.0)):
        f = smooth_field(grid, rng, amplitude=amplitude, offset=offset)
        data = ProblemData(f, params_with(tau=tau, a=a))
        calls.clear()
        joint, rep = solve_coupled(data)
        assert calls == [rep] and rep.converged and rep.iterations >= 2
        ref, _ = anderson_loop(data)
        assert rep.residual_history[-1] == max(joint.residuals) <= PicardConfig().tol_residual
        assert_mean_identity(joint.u, f, data.params)
        # the Anderson loop stops on an absolute change of 1e-9, so u is
        # compared relative to its size or to 1, whichever is larger: at
        # a = 20 u is near 0.025 and the gap reads up to 3.7e-11
        assert np.abs(joint.u.values - ref.u.values).max() <= 1e-9 * max(1.0, np.abs(ref.u.values).max())
        assert np.abs(np.log(joint.rho.values / ref.rho.values)).max() <= 1e-8


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    nodes=st.integers(17, 257),
    log_tau=st.floats(-4.0, -1.0),
    log_a=st.floats(-2.0, np.log10(200.0)),
    mean=st.floats(0.2, 2.0),
    coefs=st.tuples(*[st.floats(-3.0, 3.0)] * 3),
)
def test_the_1d_solve_loses_no_answer_of_the_anderson_loop(nodes, log_tau, log_a, mean, coefs):
    # wherever the Anderson loop converges from solve_coupled's start, the
    # 1D solve (one map, then the joint Newton) converges too, to the same
    # answer within the cold sweep's bounds
    grid = Grid.interval(1.0, nodes)
    f = NodeField.from_function(grid, lambda x: mean + sum(c * np.cos(k * np.pi * x) for k, c in enumerate(coefs, 1)))
    data = ProblemData(f, params_with(tau=10.0**log_tau, a=10.0**log_a))
    try:
        ref, _ = anderson_loop(data)
    except (SolverError, ValueError):
        return
    triple, rep = solve_coupled(data)
    assert rep.converged
    assert np.abs(triple.u.values - ref.u.values).max() <= 1e-9 * max(1.0, np.abs(ref.u.values).max())
    assert np.abs(np.log(triple.rho.values / ref.rho.values)).max() <= 1e-8


def test_cold_first_map_failure_raises_the_anderson_loops_error(monkeypatch):
    # the singular density case of the solver tests, mean(g)/tau = 30 on 65
    # nodes, as the first map of a cold solve: g = f - a ubar with a = tau^2
    # leaves g = 0.03 + 1e-3 cos(pi x). The map's error is raised unchanged
    # and the joint Newton never runs
    grid = Grid.interval(1.0, 65)
    f = NodeField.from_function(grid, lambda x: 0.06 + 1e-3 * np.cos(np.pi * x))
    data = ProblemData(f, params_with(tau=1e-3, a=1e-6))
    solved = ProblemData(f, capped_params(data.params, PicardConfig()))
    ubar = mean_height_target(solved)
    with pytest.raises(SolverError) as direct:
        picard_map(NodeField.constant(grid, ubar), solved, factors={})
    calls = joint_calls(monkeypatch)
    with pytest.raises(SolverError) as err:
        solve_coupled(data)
    assert str(err.value) == str(direct.value)
    assert str(err.value).startswith("rho-stage: sparse factorization failed: Factor is exactly singular")
    assert err.value.report.to_dict() == direct.value.report.to_dict() and calls == []


def test_cold_dgbsv_failure_raises_the_joint_newtons_error_after_one_map(grid, rng, monkeypatch):
    # a banded solve that fails in the joint Newton after the cold map
    # fails the solve with the joint Newton's error and report; the map is
    # not evaluated again
    data = ProblemData(smooth_field(grid, rng, offset=0.5), params_with(tau=0.01))
    calls, maps = joint_calls(monkeypatch), counted_maps(monkeypatch)
    monkeypatch.setattr(coupled.lapack, "dgbsv", failing_dgbsv)
    with pytest.raises(SolverError) as err:
        solve_coupled(data)
    assert str(err.value) == "coupled Newton matrix is singular (dgbsv info 1)"
    assert calls == [None] and len(maps) == 1
    report = err.value.report
    assert not report.converged and report.iterations == 0 and len(report.residual_history) == 1


# ---------------------------------------------------------------------------
# the coupled residual in fluctuation form: cold 1D solves up to ubar = 200
# ---------------------------------------------------------------------------
#
# Evaluated on u = ubar + v, the height residual kept a floor from the bits
# of v that the addition rounds away (1.2e-8 at ubar = 49.5 on 513 nodes,
# against a tolerance of 1e-8), so joint results with merits near 1e-11
# were refused and the Anderson loop stalled on the same floor.


def cosine_source(nodes: int, mean: float, amplitude: float) -> NodeField:
    grid = Grid.interval(1.0, nodes)
    return NodeField.from_function(
        grid, lambda x: mean + amplitude * (0.8 * np.cos(np.pi * x) - 0.4 * np.cos(2 * np.pi * x) + 0.25 * np.cos(3 * np.pi * x))
    )


def assert_accepted_on_the_joint_path(monkeypatch, cases) -> None:
    """Each (nodes, mean, amplitude, tau, a) case solves cold without an
    error, on the joint Newton, within the outer tolerance and with the
    mean identity holding to rounding."""
    calls, failures = joint_calls(monkeypatch), []
    for nodes, mean, amplitude, tau, a in cases:
        f = cosine_source(nodes, mean, amplitude)
        data = ProblemData(f, params_with(tau=tau, a=a))
        calls.clear()
        try:
            triple, rep = solve_coupled(data)
        except SolverError as err:
            failures.append(((nodes, mean, amplitude, tau, a), str(err)))
            continue
        assert calls == [rep] and rep.converged, (nodes, mean, amplitude, tau, a)
        assert max(triple.residuals) <= PicardConfig().tol_residual
        int_f = integrate(f)
        assert abs((data.params.a + tau**2) * integrate(triple.u) - int_f) <= 1e-12 * (1.0 + abs(int_f))
    assert not failures, failures


@pytest.mark.parametrize("nodes", [33, 129, 513, 1025])
def test_cold_1d_sweep_is_accepted_on_the_joint_path(nodes, monkeypatch):
    # 96 inputs per grid, 384 in all: the coupled residual of (v, s) has no
    # rounding floor, so every joint result is accepted (51 of these inputs
    # ended "did not converge in 200 outer steps" with the residual of u)
    cases = [
        (nodes, mean, amplitude, tau, a)
        for tau in (1e-1, 1e-2, 1e-3, 1e-4)
        for a in (0.01, 1.0, 20.0, 200.0)
        for mean in (0.5, 2.0)
        for amplitude in (0.3, 1.0, 3.0)
    ]
    assert_accepted_on_the_joint_path(monkeypatch, cases)


@pytest.mark.parametrize(
    "nodes, mean, tau, a",
    [(513, 0.5, 1e-2, 1e-2), (1025, 0.5, 1e-2, 1e-3), (257, 0.5, 1e-3, 1e-4), (257, 2.0, 1e-1, 1e-2), (257, 3.0, 0.1, 0.01)],
)
def test_former_outer_floor_cases_converge_on_the_joint_path(nodes, mean, tau, a, monkeypatch):
    # these stalled at residuals of 1.1e-8 to 7.4e-6, with ubar from 49.5 to 4950
    assert_accepted_on_the_joint_path(monkeypatch, [(nodes, mean, 1.0, tau, a)])
