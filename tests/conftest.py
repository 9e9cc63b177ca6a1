import numpy as np
import pytest

from crystalsurf import coupled
from crystalsurf.mesh import Grid, NodeField, operators


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


def anderson_loop(data, picard_cfg=None, newton_cfg=None, u0=None, rho0=None):
    """The Anderson loop from solve_coupled's start (the capped viscosity and
    the pinned first iterate), in any dimension: a 1D solve's reference."""
    cfg = picard_cfg or coupled.PicardConfig()
    data = coupled.ProblemData(data.f, coupled.capped_params(data.params, cfg))
    ubar, grid = coupled.mean_height_target(data), data.f.grid
    start = u0.flat if u0 is not None else np.full(grid.node_count, ubar)
    uf = coupled._pin_mean(start, operators(grid), ubar)
    return coupled._anderson_loop(data, cfg, newton_cfg, ubar, uf, rho0)


def failing_dgbsv(kl, ku, ab, b, **kwargs):
    """LAPACK's dgbsv reporting an exactly singular U (info > 0)."""
    return ab, np.zeros(b.size, dtype=np.int32), b, 1
