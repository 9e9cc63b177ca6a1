"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.
"""

import itertools
import time

import numpy as np
import pytest

from crystalsurf.energy import ModelParams, energy_density, energy_gradient, energy_hessian, flux_coefficient
from crystalsurf.mesh import (
    EdgeField,
    Grid,
    NodeField,
    divergence,
    edge_weight_vectors,
    gradient,
    integrate,
    norm_lp,
)
from crystalsurf.coupled import PicardConfig, ProblemData, evolve, mms_convergence, solve_coupled
from crystalsurf.analysis import (
    degiorgi_sequence_check,
    degiorgi_threshold,
    apriori_audit,
    vanishing_order,
)
from conftest import smooth_field


def report(number: int, description: str, passed: bool) -> None:
    print(f"[{'PASS' if passed else 'FAIL'}] criterion {number}: {description}")
    assert passed, f"criterion {number} failed: {description}"


# ---------------------------------------------------------------------------
# 1. pointwise math
# ---------------------------------------------------------------------------


def test_criterion_1_pointwise_math():
    t0 = time.time()
    rng = np.random.default_rng(11)
    ok = True
    for p, beta0, tau in itertools.product((1.2, 1.5, 2.0), (0.5, 1.0, 2.0), (1e-4, 1e-1)):
        params = ModelParams(p=p, beta0=beta0, tau=tau)
        z = rng.uniform(-5.0, 5.0, size=(10_000, 2))
        y = rng.uniform(-5.0, 5.0, size=(10_000, 2))
        fz = flux_coefficient(np.sum(z * z, axis=1), params)[:, None] * z
        fy = flux_coefficient(np.sum(y * y, axis=1), params)[:, None] * y
        lhs = np.sum((fz - fy) * (z - y), axis=1)
        rhs = (
            (p - 1.0)
            * (1.0 + np.sum(y * y, axis=1) + np.sum(z * z, axis=1)) ** (0.5 * (p - 2.0))
            * np.sum((z - y) ** 2, axis=1)
        )
        ok = ok and bool(np.all(lhs - rhs >= -1e-12))
    # finite-difference consistency of gradient and Hessian
    h = 1e-5
    for p, tau in itertools.product((1.2, 1.5, 2.0), (1e-4, 1e-1)):
        params = ModelParams(p=p, beta0=1.0, tau=tau)
        for _ in range(10):
            direction = rng.standard_normal(2)
            z = rng.uniform(0.5, 10.0) * direction / np.linalg.norm(direction)
            fd_g = np.zeros(2)
            fd_h = np.zeros((2, 2))
            for i in range(2):
                e = np.zeros(2)
                e[i] = h
                fd_g[i] = (energy_density(z + e, params) - energy_density(z - e, params)) / (2 * h)
                fd_h[:, i] = (energy_gradient(z + e, params) - energy_gradient(z - e, params)) / (2 * h)
            grad = energy_gradient(z, params)
            hess = energy_hessian(z, params)
            ok = ok and np.abs(grad - fd_g).max() <= 1e-6 * np.abs(grad).max()
            ok = ok and np.abs(hess - fd_h).max() <= 1e-5 * np.abs(hess).max()
    elapsed = time.time() - t0
    report(1, f"pointwise math suite (monotonicity + FD consistency, {elapsed:.1f}s < 5s)", ok and elapsed < 5.0)


# ---------------------------------------------------------------------------
# 2. mesh adjointness
# ---------------------------------------------------------------------------


def test_criterion_2_mesh_adjointness():
    t0 = time.time()
    rng = np.random.default_rng(12)
    ok = True
    for grid in (Grid.interval(1.0, 1025), Grid.rectangle((1.0, 1.0), (129, 129))):
        comps = tuple(
            rng.standard_normal(tuple(n - 1 if j == k else n for j, n in enumerate(grid.cells)))
            for k in range(grid.dim)
        )
        q = EdgeField(grid, comps)
        v = NodeField(grid, rng.standard_normal(grid.shape))
        gv = gradient(v)
        wv = edge_weight_vectors(grid)
        lhs = float(np.sum(divergence(q).values * v.values * grid.node_weights()))
        rhs = -sum(
            float(np.sum(wv[k].reshape(comps[k].shape) * comps[k] * gv.components[k]))
            for k in range(grid.dim)
        )
        ok = ok and abs(lhs - rhs) <= 1e-13 * (abs(rhs) + 1.0)
    elapsed = time.time() - t0
    report(2, f"mimetic adjointness 1D/2D ({elapsed:.1f}s < 5s)", ok and elapsed < 5.0)


# ---------------------------------------------------------------------------
# 3. constant closed form
# ---------------------------------------------------------------------------


def test_criterion_3_constant_closed_form():
    t0 = time.time()
    grid = Grid.interval(1.0, 65)
    ok = True
    for c, a, tau in itertools.product((-2.0, 0.0, 3.0), (0.5, 1.0), (1e-1, 1e-2)):
        params = ModelParams(p=1.5, beta0=1.0, a=a, tau=tau, delta=1e-6)
        triple, _ = solve_coupled(ProblemData(NodeField.constant(grid, c), params))
        u_exact = c / (a + tau**2)
        rho_exact = np.exp(tau * c / (a + tau**2))
        ok = ok and np.abs(triple.u.values - u_exact).max() <= 1e-8
        ok = ok and np.abs(triple.rho.values - rho_exact).max() <= 1e-8
    elapsed = time.time() - t0
    report(3, f"constant closed forms over c, a, tau grid ({elapsed:.1f}s < 30s)", ok and elapsed < 30.0)


# ---------------------------------------------------------------------------
# 4 and 5 share twenty random solves
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def random_solves():
    rng = np.random.default_rng(13)
    cases = []
    start = time.time()
    for i in range(20):
        if i < 14:
            grid = Grid.interval(1.0, 129)
        else:
            grid = Grid.rectangle((1.0, 1.0), (33, 33))
        a = float(rng.choice([0.5, 1.0]))
        tau = float(rng.choice([0.1, 0.05, 0.02]))
        params = ModelParams(p=1.5, beta0=1.0, a=a, tau=tau, delta=1e-6)
        f = smooth_field(grid, rng, amplitude=1.0, offset=float(rng.uniform(-0.5, 0.5)))
        data = ProblemData(f, params)
        triple, rep = solve_coupled(data)
        cases.append((data, triple, rep))
    return cases, time.time() - start


def test_criterion_4_mean_identity(random_solves):
    cases, elapsed = random_solves
    ok = True
    for data, triple, rep in cases:
        p = data.params
        res = abs((p.a + p.tau**2) * integrate(triple.u) - integrate(data.f))
        ok = ok and rep.converged and res <= 1e-9 * (1.0 + abs(integrate(data.f)))
    report(4, f"mean identity on 20 random smooth sources ({elapsed:.1f}s < 300s)", ok and elapsed < 300.0)


def test_criterion_5_log_density_estimate(random_solves):
    cases, _ = random_solves
    ok = True
    for data, triple, _ in cases:
        p = data.params
        grid = data.f.grid
        tau_log = NodeField(grid, p.tau * np.log(triple.rho.values))
        source = NodeField(grid, data.f.values - p.a * triple.u.values)
        for lam in (1.0, 2.0):
            ok = ok and norm_lp(tau_log, lam) <= 1.05 * norm_lp(source, lam)
    report(5, "log-density estimate, lambda in {1,2}, 5 percent slack, same 20 solves", ok)


# ---------------------------------------------------------------------------
# 6. manufactured-solution convergence
# ---------------------------------------------------------------------------


def test_criterion_6_mms_convergence():
    t0 = time.time()
    params = ModelParams(p=1.5, beta0=0.5, a=1.0, tau=0.1, delta=1e-6)
    rows1 = mms_convergence((1.0,), [33, 65, 129, 257], params, amplitude=0.06)
    lh = np.log([r.h for r in rows1])
    slope_u = np.polyfit(lh, np.log([r.err_u for r in rows1]), 1)[0]
    slope_rho = np.polyfit(lh, np.log([r.err_rho for r in rows1]), 1)[0]
    ok = abs(slope_u - 2.0) <= 0.2 and abs(slope_rho - 2.0) <= 0.2
    rows2 = mms_convergence((1.0, 1.0), [65, 129], params, amplitude=0.06)
    ratio_u = rows2[0].err_u / rows2[1].err_u
    ratio_rho = rows2[0].err_rho / rows2[1].err_rho
    ok = ok and ratio_u >= 3.2 and ratio_rho >= 3.2
    elapsed = time.time() - t0
    report(
        6,
        f"MMS orders 1D u/rho {slope_u:.2f}/{slope_rho:.2f}, 2D ratios {ratio_u:.2f}/{ratio_rho:.2f} ({elapsed:.0f}s < 600s)",
        ok and elapsed < 600.0,
    )


# ---------------------------------------------------------------------------
# 7. tau-uniformity of the audited estimates
# ---------------------------------------------------------------------------


def test_criterion_7_tau_uniformity():
    t0 = time.time()
    rng = np.random.default_rng(17)
    grid = Grid.interval(1.0, 129)
    params = ModelParams(p=1.5, beta0=1.0, a=1.0, tau=0.1, delta=1e-6)
    f = smooth_field(grid, rng, amplitude=0.6, offset=0.3)
    ok = True
    first = None
    u_start = None
    for tau in (1e-1, 1e-2, 1e-3, 1e-4):
        stage_params = ModelParams(p=params.p, beta0=params.beta0, a=params.a, tau=tau, delta=params.delta)
        data = ProblemData(f, stage_params)
        triple, _ = solve_coupled(data, u0=u_start)
        u_start = triple.u
        est = apriori_audit(triple.u, triple.rho, data)
        values = (est.dirichlet_sqrt_rho, est.w1p_u, est.l1_log_rho)
        if first is None:
            first = values
        else:
            ok = ok and all(v <= 10.0 * v0 + 1e-12 for v, v0 in zip(values, first))
    elapsed = time.time() - t0
    report(7, f"tau-uniform estimates over schedule 1e-1..1e-4 ({elapsed:.0f}s < 900s)", ok and elapsed < 900.0)


# ---------------------------------------------------------------------------
# 8. vanishing-order detector
# ---------------------------------------------------------------------------


def test_criterion_8_vanishing_order():
    t0 = time.time()
    grid = Grid.rectangle((1.0, 1.0), (129, 129))
    ok = True
    labels = {}
    for gamma in (0, 1, 2, 4):
        if gamma == 0:
            rho = NodeField.constant(grid, 1.0)
        else:
            rho = NodeField.from_function(
                grid, lambda x, y, g=gamma: np.sqrt((x - 0.5) ** 2 + (y - 0.5) ** 2) ** g
            )
        theta, row = vanishing_order(rho, (0.5, 0.5), r_max=0.49, levels=5)
        target = 2.0 + gamma
        ok = ok and abs(theta - target) <= 0.10 * target
        labels[gamma] = row.label
    ok = ok and labels[4] == "suspect" and labels[0] == "regular" and labels[1] == "regular"
    elapsed = time.time() - t0
    report(8, f"vanishing orders within 10 percent, labels {labels} ({elapsed:.1f}s < 60s)", ok and elapsed < 60.0)


# ---------------------------------------------------------------------------
# 9. recursive-sequence checker
# ---------------------------------------------------------------------------


def test_criterion_9_recursion_checker():
    t0 = time.time()
    rng = np.random.default_rng(19)
    ok, _ = degiorgi_sequence_check(0.5, 1.0, 2.0, 1.0)
    for _ in range(100):
        b = rng.uniform(2.0, 8.0)
        alpha = rng.uniform(0.5, 1.5)
        c = rng.uniform(0.25, 4.0)
        y0 = rng.uniform(0.01, 0.95) * degiorgi_threshold(c, b, alpha)
        conv, _ = degiorgi_sequence_check(y0, c, b, alpha)
        ok = ok and conv
    elapsed = time.time() - t0
    report(9, f"recursion checker, boundary case plus 100 random tuples ({elapsed:.2f}s < 1s)", ok and elapsed < 1.0)


# ---------------------------------------------------------------------------
# 10. evolution sanity
# ---------------------------------------------------------------------------


def test_criterion_10_evolution():
    t0 = time.time()
    params = ModelParams(p=1.5, beta0=1.0, a=1.0, tau=1e-3, delta=1e-6)
    grid = Grid.interval(1.0, 65)
    dt = 0.05
    steps = list(evolve(NodeField.constant(grid, 0.7), dt=dt, nsteps=20, params=params))
    factor = 1.0 / (1.0 + params.tau**2 * dt)
    ok = len(steps) == 21
    for s0, s1 in zip(steps, steps[1:]):
        ok = ok and abs(s1.mean_height - s0.mean_height * factor) <= 1e-9 * (1.0 + abs(s0.mean_height))
    u0 = NodeField.from_function(grid, lambda x: 0.05 * np.cos(np.pi * x))
    l2 = [s.l2_height for s in evolve(u0, dt=dt, nsteps=50, params=params)]
    ok = ok and len(l2) == 51 and all(b <= a + 1e-12 for a, b in zip(l2, l2[1:]))
    elapsed = time.time() - t0
    report(10, f"evolution mass factor and monotone cosine decay ({elapsed:.0f}s < 300s)", ok and elapsed < 300.0)
