import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crystalsurf.mesh import (
    EdgeField,
    Grid,
    NodeField,
    divergence,
    edge_gradients,
    edge_weight_vectors,
    dirichlet_integral,
    gradient,
    gradient_power_integral,
    integrate,
    laplacian,
    norm_lp,
    operators,
    read_node_csv,
    stiffness_matrix,
    w1p_norm,
    write_edge_csv,
    write_node_csv,
)


def edge_inner(q1: EdgeField, q2: EdgeField) -> float:
    g = q1.grid
    wv = edge_weight_vectors(g)
    return sum(
        float(np.sum(wv[k].reshape(q1.components[k].shape) * q1.components[k] * q2.components[k]))
        for k in range(g.dim)
    )


def random_edge_field(grid: Grid, rng) -> EdgeField:
    comps = []
    for k in range(grid.dim):
        shape = tuple(n - 1 if j == k else n for j, n in enumerate(grid.cells))
        comps.append(rng.standard_normal(shape))
    return EdgeField(grid, tuple(comps))


grids = st.sampled_from(
    [
        Grid.interval(1.0, 9),
        Grid.interval(2.5, 17),
        Grid.rectangle((1.0, 1.0), (7, 9)),
        Grid.rectangle((2.0, 0.5), (11, 5)),
    ]
)


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid(3, (1.0, 1.0, 1.0), (5, 5, 5))
    with pytest.raises(ValueError):
        Grid.interval(1.0, 2)
    with pytest.raises(ValueError):
        Grid.interval(-1.0, 5)
    g = Grid.rectangle((2.0, 3.0), (5, 7))
    assert g.h == (0.5, 0.5)
    assert g.node_count == 35
    assert g.volume == 6.0


@pytest.mark.parametrize(
    "grid",
    [Grid.interval(0.7, 129), Grid.rectangle((0.3, 1.7), (9, 17)), Grid(2, (0.1, 0.7), (5.0, 3))],
    ids=["1d", "2d", "2d-float-cells"],
)
def test_grid_counts_match_the_numpy_products(grid):
    # node_count and volume are the numpy products of cells and extents,
    # bit for bit, and the count is a Python int
    assert type(grid.node_count) is int and grid.node_count == int(np.prod(grid.cells))
    assert grid.volume == float(np.prod(grid.extents))


def test_field_validation():
    g = Grid.interval(1.0, 5)
    with pytest.raises(ValueError):
        NodeField(g, np.zeros(4))
    with pytest.raises(ValueError):
        NodeField(g, np.array([0.0, 1.0, np.nan, 0.0, 0.0]))
    with pytest.raises(ValueError):
        EdgeField(g, (np.zeros(5),))


def test_gradient_exact_on_linear_fields():
    g1 = Grid.interval(1.0, 11)
    u = NodeField.from_function(g1, lambda x: x)
    assert np.allclose(gradient(u).components[0], 1.0)
    assert np.all(gradient(NodeField.constant(g1, 4.0)).components[0] == 0.0)
    g2 = Grid.rectangle((1.0, 1.0), (6, 8))
    u2 = NodeField.from_function(g2, lambda x, y: x + 2 * y)
    gx, gy = gradient(u2).components
    assert np.allclose(gx, 1.0) and np.allclose(gy, 2.0)


def test_divergence_of_quadratic_gradient():
    g = Grid.interval(1.0, 21)
    u = NodeField.from_function(g, lambda x: x * x)
    lap = divergence(gradient(u)).values
    assert np.allclose(lap[1:-1], 2.0)


@settings(max_examples=40, deadline=None)
@given(grid=grids, seed=st.integers(0, 2**31 - 1))
def test_adjointness(grid, seed):
    rng = np.random.default_rng(seed)
    q = random_edge_field(grid, rng)
    v = NodeField(grid, rng.standard_normal(grid.shape))
    lhs = float(np.sum(divergence(q).values * v.values * grid.node_weights()))
    rhs = -edge_inner(q, gradient(v))
    assert abs(lhs - rhs) <= 1e-13 * (abs(rhs) + 1.0)


@settings(max_examples=30, deadline=None)
@given(grid=grids, seed=st.integers(0, 2**31 - 1))
def test_laplacian_zero_weighted_sum(grid, seed):
    rng = np.random.default_rng(seed)
    u = NodeField(grid, rng.standard_normal(grid.shape))
    assert abs(integrate(laplacian(u))) <= 1e-12 * (1.0 + np.abs(u.values).max())


@settings(max_examples=30, deadline=None)
@given(grid=grids, seed=st.integers(0, 2**31 - 1), a=st.floats(-3, 3), b=st.floats(-3, 3))
def test_operator_linearity(grid, seed, a, b):
    rng = np.random.default_rng(seed)
    u = NodeField(grid, rng.standard_normal(grid.shape))
    v = NodeField(grid, rng.standard_normal(grid.shape))
    combo = NodeField(grid, a * u.values + b * v.values)
    for op in (lambda f: gradient(f).components[0], lambda f: laplacian(f).values):
        lin = a * op(u) + b * op(v)
        assert np.abs(op(combo) - lin).max() <= 1e-12 * (1.0 + np.abs(lin).max())


def test_integrate_exactness():
    g = Grid.rectangle((2.0, 3.0), (9, 13))
    assert integrate(NodeField.constant(g, 1.0)) == pytest.approx(6.0, abs=1e-14)
    assert integrate(NodeField.zeros(g)) == 0.0
    g1 = Grid.interval(1.0, 101)
    assert integrate(NodeField.from_function(g1, lambda x: x)) == pytest.approx(0.5, abs=1e-12)


def test_norms():
    g = Grid.interval(1.0, 101)
    assert norm_lp(NodeField.zeros(g), 2.0) == 0.0
    assert norm_lp(NodeField.constant(g, 2.0), 2.0) == pytest.approx(2.0)
    u = NodeField.from_function(g, lambda x: x)
    assert w1p_norm(u, 2.0) ** 2 == pytest.approx(4.0 / 3.0, abs=1e-3)
    # homogeneity and triangle inequality
    v = NodeField.from_function(g, lambda x: np.cos(np.pi * x))
    assert norm_lp(NodeField(g, 3.0 * u.values), 1.5) == pytest.approx(3.0 * norm_lp(u, 1.5))
    assert norm_lp(NodeField(g, u.values + v.values), 1.5) <= norm_lp(u, 1.5) + norm_lp(v, 1.5) + 1e-12


# index-stencil references: adjacent differences along each axis, and their
# negative adjoint under the trapezoid node weights
def diff_gradient(g: Grid, u: np.ndarray) -> list[np.ndarray]:
    return [np.diff(u, axis=k) / g.h[k] for k in range(g.dim)]


def diff_divergence(g: Grid, comps) -> np.ndarray:
    out = np.zeros(g.shape)
    for k, c in enumerate(comps):
        w = np.full(g.cells[k], g.h[k])
        w[[0, -1]] *= 0.5
        shape = [1] * g.dim
        shape[k] = g.cells[k]
        out += np.diff(c, axis=k, prepend=0.0, append=0.0) / w.reshape(shape)
    return out


def diff_dirichlet_integral(g: Grid, u: np.ndarray) -> float:
    return sum(
        float(np.sum(w.reshape(d.shape) * d * d)) for d, w in zip(diff_gradient(g, u), edge_weight_vectors(g))
    )


def assert_close(actual, expect, rtol):
    np.testing.assert_allclose(actual, expect, rtol=rtol, atol=rtol * np.abs(expect).max())


@pytest.mark.parametrize("g", [Grid.interval(1.0, 10), Grid.rectangle((1.0, 2.0), (7, 9))], ids=["1d", "2d"])
def test_operators_match_diff_reference(g, rng):
    # non-dyadic spacing (1/9; 1/6 and 1/4), so the sparse products round differently
    u = rng.standard_normal(g.shape)
    q = random_edge_field(g, rng)
    for got, expect in zip(gradient(NodeField(g, u)).components, diff_gradient(g, u)):
        assert_close(got, expect, 1e-13)
    assert_close(divergence(q).values, diff_divergence(g, q.components), 1e-13)
    assert_close(laplacian(NodeField(g, u)).values, diff_divergence(g, diff_gradient(g, u)), 1e-13)
    expect = diff_dirichlet_integral(g, u)
    assert dirichlet_integral(NodeField(g, u)) == pytest.approx(expect, rel=1e-13, abs=0.0)


@pytest.mark.parametrize("g", [Grid.interval(1.0, 1025), Grid.rectangle((1.0, 2.0), (65, 33))], ids=["1d", "2d"])
def test_dirichlet_integral_differences_before_squaring(g, rng):
    # a large constant plus a small fluctuation: u^T K u would lose the
    # fluctuation's digits to the constant's rounding, D u cancels it exactly
    u = 1e3 + 1e-6 * rng.standard_normal(g.shape)
    got = dirichlet_integral(NodeField(g, u))
    assert got == pytest.approx(diff_dirichlet_integral(g, u), rel=1e-12, abs=0.0)


def test_stiffness_matches_dirichlet_integral(rng):
    g = Grid.rectangle((1.0, 2.0), (8, 6))
    u = rng.standard_normal(g.shape)
    k = stiffness_matrix(g)
    quad = float(u.reshape(-1) @ (k @ u.reshape(-1)))
    assert quad == pytest.approx(diff_dirichlet_integral(g, u), rel=1e-13)


@pytest.mark.parametrize("n", [3, 4, 11, 50_001])
def test_1d_stiffness_data_holds_the_tridiagonal_at_strides_of_three(n):
    # the 1D solvers read K's diagonal at data[::3] and its off-diagonal at
    # data[1::3], the pair (d, e) that dptsv and dgbsv take
    k = operators(Grid.interval(2.0, n)).k
    np.testing.assert_array_equal(k.data[::3], k.diagonal())
    np.testing.assert_array_equal(k.data[1::3], k.diagonal(1))
    np.testing.assert_array_equal(k.data[2::3], k.diagonal(-1))


def test_edge_gradient_transverse_reconstruction():
    g = Grid.rectangle((1.0, 1.0), (9, 9))
    u = NodeField.from_function(g, lambda x, y: x + 2 * y)
    (dlx, dtx), (dly, dty) = (np.moveaxis(z, -1, 0) for z in edge_gradients(u))
    assert np.allclose(dlx, 1.0) and np.allclose(dly, 2.0)
    # interior transverse values recover the perpendicular slope, boundary rows are zero
    assert np.allclose(dtx[:, 1:-1], 2.0)
    assert np.all(dtx[:, 0] == 0.0) and np.all(dtx[:, -1] == 0.0)
    assert np.allclose(dty[1:-1, :], 1.0)


def test_edge_gradient_transverse_is_four_point_mean(rng):
    # random field on a grid with unequal extents and node counts per axis
    g = Grid.rectangle((1.0, 2.0), (9, 7))
    u = rng.standard_normal(g.shape)
    (dlx, dtx), (dly, dty) = (np.moveaxis(z, -1, 0) for z in edge_gradients(NodeField(g, u)))
    dx = np.diff(u, axis=0) / g.h[0]
    dy = np.diff(u, axis=1) / g.h[1]
    assert np.allclose(dlx, dx, rtol=1e-14, atol=0.0) and np.allclose(dly, dy, rtol=1e-14, atol=0.0)
    # x-edge (i+1/2, j) averages the y-differences at (i, j -+ 1/2) and (i+1, j -+ 1/2)
    expect_x = 0.25 * (dy[:-1, :-1] + dy[:-1, 1:] + dy[1:, :-1] + dy[1:, 1:])
    expect_y = 0.25 * (dx[:-1, :-1] + dx[:-1, 1:] + dx[1:, :-1] + dx[1:, 1:])
    assert np.allclose(dtx[:, 1:-1], expect_x, rtol=1e-13, atol=1e-13)
    assert np.allclose(dty[1:-1, :], expect_y, rtol=1e-13, atol=1e-13)
    assert np.all(dtx[:, [0, -1]] == 0.0) and np.all(dty[[0, -1], :] == 0.0)


def test_node_csv_round_trip(tmp_path, rng):
    for g in (Grid.interval(1.0, 17), Grid.rectangle((1.0, 2.0), (6, 9))):
        u = NodeField(g, rng.standard_normal(g.shape))
        path = tmp_path / f"field{g.dim}.csv"
        write_node_csv(u, path)
        back = read_node_csv(path, g)
        assert np.array_equal(back.values, u.values)
    with pytest.raises(ValueError):
        read_node_csv(path, Grid.rectangle((1.0, 2.0), (9, 6)))


CSV_GRIDS = (Grid.interval(1.0, 5), Grid.interval(3.0, 4), Grid.rectangle((1.0, 2.0), (3, 4)))


@settings(max_examples=150, deadline=None)
@given(
    which=st.integers(0, len(CSV_GRIDS) - 1),
    node=st.integers(0, 11),
    column=st.integers(0, 1),
    offset=st.one_of(
        st.sampled_from([0.0, 1e-12, -1e-12, 1.0000000000000002e-12, 2e-12, np.nan, np.inf, -np.inf]),
        st.floats(-3e-12, 3e-12),
        st.floats(allow_nan=True, allow_infinity=True),
    ),
)
def test_csv_coordinate_check_agrees_with_allclose(tmp_path_factory, which, node, column, offset):
    # read_node_csv accepts a file exactly when np.allclose(rtol=0,
    # atol=1e-12) accepts its coordinates against the grid's, NaN and inf
    # included; one coordinate of one node is moved by ``offset``
    g = CSV_GRIDS[which]
    coords = np.stack([m.reshape(-1) for m in g.meshgrid()], axis=1)
    moved = coords.copy()
    with np.errstate(invalid="ignore"):
        moved[node % g.node_count, column % g.dim] += offset
    path = tmp_path_factory.mktemp("csv") / "moved.csv"
    rows = "".join(",".join(f"{x!r}" for x in row) + ",0.5\n" for row in moved.tolist())
    path.write_text(",".join(["x", "y"][: g.dim]) + ",value\n" + rows, encoding="utf-8")
    parsed = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)[:, : g.dim]
    try:
        read_node_csv(path, g)
        accepted = True
    except ValueError:
        accepted = False
    assert accepted == np.allclose(parsed, coords, rtol=0.0, atol=1e-12)


def reference_csv(names, blocks) -> bytes:
    """Row-by-row %.17g formatting of blocks of equal-shape columns in C order."""
    row = ",".join(["%.17g"] * len(names)) + "\n"
    rows = (row % r for cols in blocks for r in zip(*(np.ravel(c).tolist() for c in cols)))
    return (",".join(names) + "\n" + "".join(rows)).encode()


def test_csv_writers_match_row_by_row_formatting(tmp_path):
    # pairs of grids with equal node counts and different extents, written in
    # turn: the cached coordinate columns must follow the grid, not its shape
    special = np.array([-0.0, 5e-324, 1e-300, 1e308, 7.0, -2.0, 1.0 / 3.0, 0.0])
    grids = [
        Grid.interval(1.0, 9),
        Grid.interval(2.5, 9),
        Grid.rectangle((1.0, 0.3), (5, 4)),
        Grid.rectangle((0.7, 2.0), (5, 4)),
    ]
    for i, g in enumerate(grids):
        coords, names = g.meshgrid(), ["x", "y"][: g.dim]
        u = NodeField(g, np.resize(special, g.shape))
        q = EdgeField(g, tuple(np.resize(special[::-1], g.edge_shape(k)) for k in range(g.dim)))
        edge_blocks = []
        for k, comp in enumerate(q.components):
            lo = (slice(None),) * k + (slice(None, -1),)
            hi = (slice(None),) * k + (slice(1, None),)
            mids = [c[lo] for c in coords]
            mids[k] = 0.5 * (coords[k][lo] + coords[k][hi])
            edge_blocks.append([*mids, np.full(comp.shape, k), comp])
        write_node_csv(u, tmp_path / f"u{i}.csv")
        write_edge_csv(q, tmp_path / f"q{i}.csv")
        assert (tmp_path / f"u{i}.csv").read_bytes() == reference_csv([*names, "value"], [[*coords, u.values]])
        assert (tmp_path / f"q{i}.csv").read_bytes() == reference_csv([*names, "axis", "value"], edge_blocks)


@pytest.mark.parametrize("p", [1.5, 2.0])
def test_gradient_power_integral_of_linear_fields(p):
    alpha, beta = 0.7, -1.3
    g1 = Grid.interval(1.0, 9)
    u1 = NodeField.from_function(g1, lambda x: alpha * x)
    assert gradient_power_integral(u1, p) == pytest.approx(abs(alpha) ** p * g1.volume, rel=1e-12, abs=0.0)
    g2 = Grid.rectangle((1.0, 2.0), (9, 7))
    (lx, ly), (hx, hy) = g2.extents, g2.h
    for a, b in ((alpha, beta), (alpha, 0.0)):
        u2 = NodeField.from_function(g2, lambda x, y: a * x + b * y)
        full = np.hypot(a, b) ** p
        # the transverse reconstruction is zero on boundary rows (reflective
        # ghosts), so those edges see only the longitudinal difference; they
        # carry weight lx * hy (x-edges) and ly * hx (y-edges) in all
        expect = 0.5 * (
            lx * (ly - hy) * full + lx * hy * abs(a) ** p
            + ly * (lx - hx) * full + ly * hx * abs(b) ** p
        )
        assert gradient_power_integral(u2, p) == pytest.approx(expect, rel=1e-12, abs=0.0)
        assert gradient_power_integral(u2, p) < full * g2.volume


def test_node_csv_golden_interval(tmp_path):
    u = NodeField(Grid.interval(1.0, 4), np.array([0.1, -2.5, 1.0 / 3.0, 1e-20]))
    write_node_csv(u, tmp_path / "u.csv")
    assert (tmp_path / "u.csv").read_bytes() == (
        b"x,value\n"
        b"0,0.10000000000000001\n"
        b"0.33333333333333331,-2.5\n"
        b"0.66666666666666663,0.33333333333333331\n"
        b"1,9.9999999999999995e-21\n"
    )


def test_edge_csv_golden_interval(tmp_path):
    q = EdgeField(Grid.interval(1.0, 4), (np.array([0.1, -2.5, 1.0 / 3.0]),))
    write_edge_csv(q, tmp_path / "q.csv")
    assert (tmp_path / "q.csv").read_bytes() == (
        b"x,axis,value\n"
        b"0.16666666666666666,0,0.10000000000000001\n"
        b"0.5,0,-2.5\n"
        b"0.83333333333333326,0,0.33333333333333331\n"
    )


def test_node_csv_golden_rectangle(tmp_path):
    # unequal extents and node counts: x has 3 nodes on [0, 1], y 4 on [0, 0.3]
    g = Grid.rectangle((1.0, 0.3), (3, 4))
    write_node_csv(NodeField(g, np.arange(12.0).reshape(3, 4) / 7), tmp_path / "u.csv")
    assert (tmp_path / "u.csv").read_text() == (
        "x,y,value\n"
        "0,0,0\n"
        "0,0.099999999999999992,0.14285714285714285\n"
        "0,0.19999999999999998,0.2857142857142857\n"
        "0,0.29999999999999999,0.42857142857142855\n"
        "0.5,0,0.5714285714285714\n"
        "0.5,0.099999999999999992,0.7142857142857143\n"
        "0.5,0.19999999999999998,0.8571428571428571\n"
        "0.5,0.29999999999999999,1\n"
        "1,0,1.1428571428571428\n"
        "1,0.099999999999999992,1.2857142857142858\n"
        "1,0.19999999999999998,1.4285714285714286\n"
        "1,0.29999999999999999,1.5714285714285714\n"
    )


def test_edge_csv_golden_rectangle(tmp_path):
    # axis-0 edges first (x midpoints, y nodes), then axis-1 edges (x nodes, y midpoints)
    g = Grid.rectangle((1.0, 0.3), (3, 4))
    q = EdgeField(g, (np.arange(8.0).reshape(2, 4) / 3, -np.arange(9.0).reshape(3, 3) / 9))
    write_edge_csv(q, tmp_path / "q.csv")
    assert (tmp_path / "q.csv").read_text() == (
        "x,y,axis,value\n"
        "0.25,0,0,0\n"
        "0.25,0.099999999999999992,0,0.33333333333333331\n"
        "0.25,0.19999999999999998,0,0.66666666666666663\n"
        "0.25,0.29999999999999999,0,1\n"
        "0.75,0,0,1.3333333333333333\n"
        "0.75,0.099999999999999992,0,1.6666666666666667\n"
        "0.75,0.19999999999999998,0,2\n"
        "0.75,0.29999999999999999,0,2.3333333333333335\n"
        "0,0.049999999999999996,1,-0\n"
        "0,0.14999999999999999,1,-0.1111111111111111\n"
        "0,0.25,1,-0.22222222222222221\n"
        "0.5,0.049999999999999996,1,-0.33333333333333331\n"
        "0.5,0.14999999999999999,1,-0.44444444444444442\n"
        "0.5,0.25,1,-0.55555555555555558\n"
        "1,0.049999999999999996,1,-0.66666666666666663\n"
        "1,0.14999999999999999,1,-0.77777777777777779\n"
        "1,0.25,1,-0.88888888888888884\n"
    )
