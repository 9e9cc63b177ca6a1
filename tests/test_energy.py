import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crystalsurf.energy import (
    ModelParams,
    energy_density,
    energy_gradient,
    energy_hessian,
    flux_coefficient,
    log_barrier,
    log_barrier_slope,
    subgradient_select,
)


def test_params_validation():
    with pytest.raises(ValueError, match=r"p must lie in \(1,2\]"):
        ModelParams(p=0.5)
    with pytest.raises(ValueError, match=r"p must lie in \(1,2\]"):
        ModelParams(p=2.5)
    with pytest.raises(ValueError, match="beta0"):
        ModelParams(p=1.5, beta0=0.0)
    with pytest.raises(ValueError, match="a must"):
        ModelParams(p=1.5, a=-1.0)
    with pytest.raises(ValueError, match="tau"):
        ModelParams(p=1.5, tau=-0.1)
    ModelParams(p=2.0, tau=0.0, delta=0.0)  # boundary values are legal


def test_density_closed_forms():
    assert energy_density(np.zeros(2), ModelParams(p=2.0, beta0=1.0, tau=0.0)) == 0.0
    assert energy_density(np.zeros(2), ModelParams(p=2.0, beta0=1.0, tau=1.0)) == pytest.approx(1.5)
    assert energy_density(np.array([3.0, 4.0]), ModelParams(p=2.0, beta0=1.0, tau=0.0)) == pytest.approx(17.5)


def test_flux_coefficient_closed_forms():
    assert flux_coefficient(0.0, ModelParams(p=2.0, beta0=1.0, tau=1.0)) == pytest.approx(2.0)
    assert flux_coefficient(3.0, ModelParams(p=2.0, beta0=2.0, tau=1.0)) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        flux_coefficient(0.0, ModelParams(p=1.5, beta0=1.0, tau=0.0))


def test_flux_coefficient_nonincreasing():
    params = ModelParams(p=1.5, beta0=1.0, tau=0.1)
    s = np.linspace(0.0, 50.0, 500)
    f = flux_coefficient(s, params)
    assert np.all(np.diff(f) <= 0.0)
    assert np.all(f > 0.0)


def test_gradient_closed_forms():
    assert np.all(energy_gradient(np.zeros(2), ModelParams(p=2.0, tau=1.0)) == 0.0)
    g = energy_gradient(np.array([3.0, 4.0]), ModelParams(p=2.0, beta0=1.0, tau=0.0))
    assert np.allclose(g, [3.6, 4.8])
    # zero selection at the unsmoothed origin
    assert np.all(energy_gradient(np.zeros(2), ModelParams(p=1.5, tau=0.0)) == 0.0)


@pytest.mark.parametrize("tau", [1e-4, 1e-1])
@pytest.mark.parametrize("p", [1.2, 1.5, 2.0])
def test_gradient_matches_finite_differences(p, tau, rng):
    params = ModelParams(p=p, beta0=1.0, tau=tau)
    h = 1e-5
    for _ in range(25):
        direction = rng.standard_normal(2)
        direction /= np.linalg.norm(direction)
        z = rng.uniform(0.5, 10.0) * direction
        fd = np.zeros(2)
        for i in range(2):
            e = np.zeros(2)
            e[i] = h
            fd[i] = (energy_density(z + e, params) - energy_density(z - e, params)) / (2 * h)
        grad = energy_gradient(z, params)
        assert np.abs(grad - fd).max() <= 1e-6 * np.abs(grad).max()


@pytest.mark.parametrize("tau", [1e-1, 1e-2])
@pytest.mark.parametrize("p", [1.2, 1.5, 2.0])
def test_hessian_matches_finite_differences(p, tau, rng):
    params = ModelParams(p=p, beta0=1.0, tau=tau)
    h = 1e-5
    for _ in range(25):
        z = rng.uniform(0.3, 5.0) * rng.standard_normal(2)
        z = z if np.linalg.norm(z) > 0.3 else z + 0.5
        fd = np.zeros((2, 2))
        for i in range(2):
            e = np.zeros(2)
            e[i] = h
            fd[:, i] = (energy_gradient(z + e, params) - energy_gradient(z - e, params)) / (2 * h)
        hess = energy_hessian(z, params)
        assert np.abs(hess - fd).max() <= 1e-5 * np.abs(hess).max()


def test_hessian_closed_form_at_origin():
    params = ModelParams(p=2.0, beta0=0.7, tau=1.0)
    assert np.allclose(energy_hessian(np.zeros(2), params), (1.0 + 0.7) * np.eye(2))
    params = ModelParams(p=1.5, beta0=0.7, tau=0.3)
    expect = (0.3 ** (-0.25) + 0.7 * 0.3 ** (-0.5)) * np.eye(2)
    assert np.allclose(energy_hessian(np.zeros(2), params), expect)
    with pytest.raises(ValueError):
        energy_hessian(np.zeros(2), ModelParams(p=1.5, tau=0.0))


def test_hessian_coercivity_and_norm_bounds(rng):
    for p, beta0, tau in [(1.2, 0.5, 0.1), (1.5, 1.0, 0.1), (2.0, 2.0, 1e-3)]:
        params = ModelParams(p=p, beta0=beta0, tau=tau)
        z = rng.standard_normal((200, 2)) * 3.0
        hess = energy_hessian(z, params)
        eigs = np.linalg.eigvalsh(hess)
        m = np.sum(z * z, axis=1) + tau
        lower = (p - 1.0) * m ** (0.5 * (p - 2.0))
        upper = m ** (0.5 * (p - 2.0)) + beta0 / np.sqrt(m)
        assert np.all(eigs[:, 0] >= lower - 1e-12)
        assert np.all(eigs[:, -1] <= upper + 1e-12)


def test_monotonicity_inequality(rng):
    # vector-flux monotonicity with the explicit coercive lower bound
    for p in (1.2, 1.5, 2.0):
        for tau in (1e-4, 1e-1):
            params = ModelParams(p=p, beta0=1.0, tau=tau)
            z = rng.uniform(-5, 5, size=(2000, 2))
            y = rng.uniform(-5, 5, size=(2000, 2))
            fz = flux_coefficient(np.sum(z * z, axis=1), params)[:, None] * z
            fy = flux_coefficient(np.sum(y * y, axis=1), params)[:, None] * y
            lhs = np.sum((fz - fy) * (z - y), axis=1)
            rhs = (
                (p - 1.0)
                * (1.0 + np.sum(y * y, axis=1) + np.sum(z * z, axis=1)) ** (0.5 * (p - 2.0))
                * np.sum((z - y) ** 2, axis=1)
            )
            assert np.all(lhs - rhs >= -1e-12)


@settings(max_examples=200, deadline=None)
@given(
    z=st.tuples(st.floats(-8, 8), st.floats(-8, 8)),
    y=st.tuples(st.floats(-8, 8), st.floats(-8, 8)),
    p=st.floats(1.05, 2.0),
)
def test_convexity_midpoint(z, y, p):
    params = ModelParams(p=p, beta0=1.0, tau=1e-2)
    z = np.asarray(z)
    y = np.asarray(y)
    mid = energy_density(0.5 * (z + y), params)
    assert mid <= 0.5 * energy_density(z, params) + 0.5 * energy_density(y, params) + 1e-12


def test_barrier_values():
    assert log_barrier(0.9, 0.1) == pytest.approx(0.0)  # the root s = 1 - delta
    assert log_barrier(-5.0, 0.1) == pytest.approx(np.log(0.1))
    assert log_barrier(np.e - 0.01, 0.01) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        log_barrier(1.0, 0.0)


@settings(max_examples=100, deadline=None)
@given(delta=st.floats(1e-6, 0.99), s=st.floats(-10, 10), t=st.floats(0, 5))
def test_barrier_monotone(delta, s, t):
    assert log_barrier(s + t, delta) >= log_barrier(s, delta)
    assert log_barrier(s, delta) >= np.log(delta)


def test_barrier_pointwise_limit():
    s = 0.37
    for delta in (1e-2, 1e-4, 1e-6, 1e-8):
        assert abs(log_barrier(s, delta) - np.log(s)) <= abs(np.log(s + delta) - np.log(s)) + 1e-15


def test_barrier_slope():
    assert log_barrier_slope(2.0, 0.1) == pytest.approx(1.0 / 2.1)
    assert log_barrier_slope(-1.0, 0.1) == 0.0
    assert log_barrier_slope(0.0, 0.1) == 0.0


def test_subgradient_select():
    assert np.all(subgradient_select(np.zeros(2)) == 0.0)
    assert np.allclose(subgradient_select(np.array([3.0, 4.0])), [0.6, 0.8])
    assert np.allclose(subgradient_select(np.array([-2.0, 0.0])), [-1.0, 0.0])
    batch = subgradient_select(np.array([[1.0, 0.0], [0.0, 0.0]]))
    assert np.allclose(batch, [[1.0, 0.0], [0.0, 0.0]])
