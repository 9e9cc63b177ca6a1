import numpy as np
import pytest

from crystalsurf import coupled
from crystalsurf.mesh import Grid, NodeField
from crystalsurf.solvers import SolverError


@pytest.fixture
def rng():
    return np.random.default_rng(20260809)


def smooth_field(grid: Grid, rng, n_modes: int = 4, amplitude: float = 1.0, offset: float = 0.0) -> NodeField:
    """Random low-order cosine series, Neumann-compatible on the rectangle."""
    coef = amplitude * rng.standard_normal(n_modes) / np.arange(1, n_modes + 1)
    if grid.dim == 1:
        fn = lambda x: offset + sum(
            c * np.cos((k + 1) * np.pi * x / grid.extents[0]) for k, c in enumerate(coef)
        )
    else:
        coef2 = amplitude * rng.standard_normal(n_modes) / np.arange(1, n_modes + 1)
        fn = lambda x, y: offset + sum(
            c * np.cos((k + 1) * np.pi * x / grid.extents[0])
            + d * np.cos((k + 1) * np.pi * y / grid.extents[1])
            for k, (c, d) in enumerate(zip(coef, coef2))
        )
    return NodeField.from_function(grid, fn)


def anderson_only(monkeypatch) -> None:
    """Make every joint Newton fail, so solve_coupled runs the Anderson loop."""

    def fail(*args, **kwargs):
        raise SolverError("joint Newton switched off")

    monkeypatch.setattr(coupled, "_joint_newton", fail)


def failing_dgbsv(kl, ku, ab, b, **kwargs):
    """LAPACK's dgbsv reporting an exactly singular U (info > 0)."""
    return ab, np.zeros(b.size, dtype=np.int32), b, 1
