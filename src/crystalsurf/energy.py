"""Pointwise energy functions for the regularized crystal-surface model.

The smoothed surface energy density is

    e(z) = (1/p) (|z|^2 + tau)^(p/2) + beta0 (|z|^2 + tau)^(1/2),

a tau-regularization of (1/p)|z|^p + beta0 |z| that removes the gradient
degeneracy of the p-term and the kink of the total-variation term. Its
gradient factors through the scalar flux coefficient

    F(s) = (s + tau)^((p-2)/2) + beta0 (s + tau)^(-1/2),   grad e(z) = F(|z|^2) z.

This module also provides the logarithmic barrier used by the regularized
density solver and the subgradient selection for the total-variation term
at the multivalued point z = 0. All functions are pure, stateless, and safe to
call concurrently; they broadcast over leading array dimensions (``z``
has shape (..., N), scalars have shape (...)).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "ModelParams",
    "energy_density",
    "flux_coefficient",
    "energy_gradient",
    "energy_hessian",
    "log_barrier",
    "log_barrier_slope",
    "subgradient_select",
]


@dataclass(frozen=True)
class ModelParams:
    """Physical and regularization constants of the surface model.

    p      gradient-energy exponent, 1 < p <= 2
    beta0  weight of the total-variation term, > 0
    a      zeroth-order rate coefficient (inverse time), > 0
    tau    gradient-smoothing strength, >= 0
    delta  viscosity / barrier regularization, >= 0

    ``tau = 0`` is only meaningful when reporting sharp-limit quantities;
    the solvers require ``tau > 0`` (or an explicit viscosity) to stay
    well posed.
    """

    p: float
    beta0: float = 1.0
    a: float = 1.0
    tau: float = 0.1
    delta: float = 1e-6

    def __post_init__(self) -> None:
        for name in ("p", "beta0", "a", "tau", "delta"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if not (1.0 < self.p <= 2.0):
            raise ValueError("p must lie in (1,2]")
        if not self.beta0 > 0.0:
            raise ValueError("beta0 must be positive")
        if not self.a > 0.0:
            raise ValueError("a must be positive")
        if self.tau < 0.0:
            raise ValueError("tau must be nonnegative")
        if self.delta < 0.0:
            raise ValueError("delta must be nonnegative")


def energy_density(z, params: ModelParams):
    """Smoothed energy density e(z); strictly convex, e >= 0."""
    z = np.asarray(z, dtype=float)
    m = np.sum(z * z, axis=-1) + params.tau
    return (1.0 / params.p) * m ** (0.5 * params.p) + params.beta0 * np.sqrt(m)


def flux_coefficient(s, params: ModelParams):
    """Scalar coefficient F(s) with grad e(z) = F(|z|^2) z.

    ``s`` is a squared gradient magnitude, s >= 0. Positive and, for
    p <= 2, nonincreasing in s. Raises when s + tau = 0, where the
    total-variation part is singular; solvers must pass tau > 0.
    """
    s = np.asarray(s, dtype=float)
    m = s + params.tau
    if np.any(m <= 0.0):
        raise ValueError("flux coefficient requires s + tau > 0")
    return m ** (0.5 * (params.p - 2.0)) + params.beta0 / np.sqrt(m)


def energy_gradient(z, params: ModelParams):
    """Gradient of ``energy_density``; returns 0 at z = 0 when tau = 0.

    The zero value at the origin is the canonical selection from the
    subdifferential of the unsmoothed density.
    """
    z = np.asarray(z, dtype=float)
    s = np.sum(z * z, axis=-1)
    m = s + params.tau
    pos = m > 0.0
    m_safe = np.where(pos, m, 1.0)
    coef = m_safe ** (0.5 * (params.p - 2.0)) + params.beta0 / np.sqrt(m_safe)
    coef = np.where(pos, coef, 0.0)
    return coef[..., None] * z


def energy_hessian(z, params: ModelParams):
    """Hessian of ``energy_density``, shape (..., N, N).

    Symmetric positive definite with smallest eigenvalue at least
    (p - 1) (|z|^2 + tau)^((p-2)/2). Requires |z|^2 + tau > 0.
    """
    z = np.asarray(z, dtype=float)
    n = z.shape[-1]
    s = np.sum(z * z, axis=-1)
    m = s + params.tau
    if np.any(m <= 0.0):
        raise ValueError("energy hessian requires |z|^2 + tau > 0")
    eye = np.eye(n)
    outer = z[..., :, None] * z[..., None, :] / m[..., None, None]
    a_p = m ** (0.5 * (params.p - 2.0))
    a_tv = params.beta0 / np.sqrt(m)
    return (
        a_p[..., None, None] * (eye + (params.p - 2.0) * outer)
        + a_tv[..., None, None] * (eye - outer)
    )


def log_barrier(s, delta: float):
    """Shifted logarithm ln(s + delta) for s > 0, frozen at ln(delta) for s <= 0.

    Nondecreasing, continuous, bounded below by ln(delta), and vanishing
    at s = 1 - delta. Requires 0 < delta < 1.
    """
    if not (0.0 < delta < 1.0):
        raise ValueError("delta must lie in (0,1)")
    s = np.asarray(s, dtype=float)
    return np.log(np.where(s > 0.0, s, 0.0) + delta)


def log_barrier_slope(s, delta: float):
    """Almost-everywhere derivative of ``log_barrier``: 1/(s+delta) for s > 0, else 0."""
    s = np.asarray(s, dtype=float)
    pos = s > 0.0
    return np.where(pos, 1.0 / (np.where(pos, s, 0.0) + delta), 0.0)


def subgradient_select(z):
    """Selection z/|z| from the total-variation subdifferential, 0 at z = 0.

    Any vector in beta0 [-1,1]^N is a valid selection at the origin; the zero
    selection is fixed for determinism and symmetry.
    """
    z = np.asarray(z, dtype=float)
    mag = np.sqrt(np.sum(z * z, axis=-1))
    pos = mag > 0.0
    return np.where(pos[..., None], z / np.where(pos, mag, 1.0)[..., None], 0.0)
