import dataclasses
import json
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

from crystalsurf import solvers
from crystalsurf.coupled import ProblemData, picard_map, solve_coupled
from crystalsurf.energy import ModelParams, energy_hessian, log_barrier
from crystalsurf.mesh import (
    Grid,
    NodeField,
    edge_gradients,
    edge_stencil,
    edge_weight_vectors,
    gradient_matrices,
    integrate,
    laplacian,
    mass_vector,
    norm_l2,
    norm_lp,
    operators,
    stiffness_matrix,
)
from crystalsurf.solvers import (
    NewtonConfig,
    SolveReport,
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

ONE_AND_TWO_D = pytest.mark.parametrize(
    "grid", [Grid.interval(1.0, 65), Grid.rectangle((1.0, 1.0), (17, 17))], ids=["1d", "2d"]
)


def test_pcg_solves_spd_system(rng):
    n = 40
    m = rng.standard_normal((n, n))
    a = m @ m.T + n * np.eye(n)
    b = rng.standard_normal(n)
    d = np.diag(a)
    x, its = pcg(lambda v: a @ v, b, lambda r: r / d, tol=1e-12, maxiter=1000)
    assert np.linalg.norm(a @ x - b) <= 1e-10 * np.linalg.norm(b)
    assert 0 < its <= n + 5


def test_pcg_rejects_indefinite_matrix():
    a = np.diag(np.array([1.0, -1.0, 2.0]))
    with pytest.raises(SolverError, match="curvature"):
        pcg(lambda v: a @ v, np.array([0.0, 1.0, 0.0]), lambda r: r, tol=1e-12, maxiter=100)


def reference_pcg(matvec, b, precond, tol, maxiter):
    """``pcg`` with its stopping test on np.linalg.norm(r) <= tol |b| and a
    freshly allocated search direction each iteration: the reference the
    one-dot-product test and the in-place update are checked against."""
    x = np.zeros_like(b)
    bnorm = float(np.linalg.norm(b))
    if bnorm == 0.0:
        return x, 0
    r = b.copy()
    z = precond(r)
    p = z.copy()
    rz = float(r @ z)
    for it in range(1, maxiter + 1):
        ap = matvec(p)
        pap = float(p @ ap)
        if pap <= 0.0:
            raise SolverError("conjugate gradient hit nonpositive curvature (matrix not SPD)")
        alpha = rz / pap
        x += alpha * p
        r -= alpha * ap
        if np.linalg.norm(r) <= tol * bnorm:
            return x, it
        z = precond(r)
        rz_new = float(r @ z)
        p = z + (rz_new / rz) * p
        rz = rz_new
    raise SolverError(f"conjugate gradient failed to reach tolerance in {maxiter} iterations")


@settings(max_examples=300, deadline=None)
@given(
    kind=st.sampled_from(["spd", "zero-b", "indefinite", "capped"]),
    n=st.integers(2, 60),
    seed=st.integers(0, 2**31 - 1),
    spread=st.floats(0.0, 8.0),
    tol=st.floats(1e-12, 0.1),
    jacobi=st.booleans(),
)
def test_pcg_matches_the_reference_iteration(kind, n, seed, spread, tol, jacobi):
    # random SPD systems with eigenvalues over 10^spread, b = 0, symmetric
    # matrices with a negative eigenvalue, and a cap of n/4 + 1 iterations,
    # too few for 1e-14 with eigenvalues over at least 10^4: the same
    # outcome, message, iteration count and number of products, and x
    # within 1e-13 relative
    rng = np.random.default_rng(seed)
    q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    eig = 10.0 ** rng.uniform(0.0, max(spread, 4.0) if kind == "capped" else spread, n)
    if kind == "indefinite":
        eig[rng.integers(n)] *= -1.0
    a = (q * eig) @ q.T
    b = np.zeros(n) if kind == "zero-b" else rng.standard_normal(n)
    d = np.abs(np.diag(a)) if jacobi else np.ones(n)
    tol, maxiter = (1e-14, 1 + n // 4) if kind == "capped" else (tol, 10 * n)

    def outcome(solver):
        calls = []
        try:
            x, its = solver(lambda v: calls.append(v) or a @ v, b, lambda r: r / d, tol, maxiter)
        except SolverError as err:
            return str(err), None, len(calls)
        return its, x, len(calls)

    (its, x, calls), (its_r, x_r, calls_r) = outcome(pcg), outcome(reference_pcg)
    assert its == its_r and calls == calls_r
    if kind == "capped":
        assert its == f"conjugate gradient failed to reach tolerance in {maxiter} iterations"
    if kind == "zero-b":
        assert its == 0 and not x.any()
    if x_r is not None:
        assert np.linalg.norm(x - x_r) <= 1e-13 * np.linalg.norm(x_r)


def density_matrix(grid, tau):
    """K + diag(tau W), the 2D density Newton matrix at rho = 1 (the
    linear solve's argument)."""
    ops = operators(grid)
    return solvers._ShiftedStiffness(ops, tau * ops.w)


def tridiagonal_csc(d, e):
    """The symmetric tridiagonal matrix with diagonal d and off-diagonal e, as CSC."""
    return sp.diags([e, d, e], [-1, 0, 1], format="csc")


def height_newton_matrices(u, params):
    """The height Newton matrices at the field u: in 1D the pair (d, e) of
    the tridiagonal Hessian, in 2D the Hessian and its longitudinal part."""
    return solvers._height_newton_matrices(operators(u.grid), u.flat, params)


def hessian_csc(u, params):
    """The height Newton matrix at the field u, assembled as CSC."""
    a, b = height_newton_matrices(u, params)
    return tridiagonal_csc(a, b) if u.grid.dim == 1 else a.csc()


def assert_on_the_pattern_of(a, k):
    """The CSC matrix a has exactly the nonzero pattern of K."""
    a = a.sorted_indices()
    np.testing.assert_array_equal(a.indptr, k.indptr)
    np.testing.assert_array_equal(a.indices, k.indices)


def on_diagonal(k):
    """Whether each entry of the CSR (or CSC) arrays of K lies on its diagonal."""
    return k.indices == np.repeat(np.arange(k.shape[0]), np.diff(k.indptr))


def assert_built_from(csc, a):
    """The CSC matrix is K + diag(d) of the ``_ShiftedStiffness`` a: the
    pattern of a's K, K's data off the diagonal and K's diagonal plus d on it."""
    k = a.ops.k
    np.testing.assert_array_equal(csc.indptr, k.indptr)
    np.testing.assert_array_equal(csc.indices, k.indices)
    expected = k.data.copy()
    expected[on_diagonal(k)] += a.d
    np.testing.assert_array_equal(csc.data, expected)


def test_pcg_with_the_factor_of_its_own_matrix_takes_one_iteration(rng):
    a = density_matrix(Grid.rectangle((1.0, 1.0), (17, 17)), 0.1).csc()
    lu = spla.splu(a, permc_spec="MMD_AT_PLUS_A")
    b = rng.standard_normal(a.shape[0])
    x, its = pcg(a.dot, b, lu.solve, tol=1e-10, maxiter=10)
    assert its == 1
    assert np.linalg.norm(a @ x - b) <= 1e-10 * np.linalg.norm(b)


@settings(max_examples=200, deadline=None)
@given(
    target=st.floats(1e-14, 1e3),
    ratios=st.lists(st.floats(1.0, 1e20, exclude_min=True), min_size=2, max_size=2),
)
def test_forcing_term_is_bounded_and_does_not_grow_with_the_merit(target, ratios):
    # a Newton step runs only while merit > target
    near, far = sorted(ratios)
    eta_near, eta_far = solvers._forcing(near * target, target), solvers._forcing(far * target, target)
    assert 1e-10 <= eta_far <= eta_near <= 0.1
    assert solvers._forcing(1e12 * target, target) == 1e-10  # merit >> target: the tightest solve
    assert solvers._forcing(2.0 * target, target) == 0.1  # within a factor 5 of the target: the loosest
    assert solvers._forcing(1e3 * target, target) == pytest.approx(5e-4, rel=1e-14)


def test_newton_steps_pass_their_forcing_term_to_cg(rng, monkeypatch):
    # each 2D density step hands _forcing(merit before the step, target)
    # to its linear solve, which runs CG to exactly that relative residual
    grid = Grid.rectangle((1.0, 1.0), (17, 17))
    tau = 0.05
    g = NodeField(grid, tau * smooth_field(grid, rng, offset=0.5).values)
    etas, tols = [], []
    real_solve, real_pcg = solvers._linear_solve, solvers.pcg

    def linear_solve(a, b, factors, family, eta, *rest):
        etas.append(eta)
        return real_solve(a, b, factors, family, eta, *rest)

    def recording_pcg(matvec, b, precond, tol, maxiter):
        tols.append(tol)
        return real_pcg(matvec, b, precond, tol, maxiter)

    monkeypatch.setattr(solvers, "_linear_solve", linear_solve)
    monkeypatch.setattr(solvers, "pcg", recording_pcg)
    _, rep = solve_rho(g, tau)
    target = 1e-10 * (1.0 + np.sqrt(np.sum(mass_vector(grid) * (g.flat / tau) ** 2)))
    assert rep.converged and rep.iterations == len(etas) > 1
    assert etas == [solvers._forcing(m, target) for m in rep.residual_history[:-1]]
    assert tols == etas and etas[0] == 1e-10 < etas[-1]


def counting_splu(monkeypatch) -> list:
    """Record every matrix SuperLU factors."""
    factored = []
    real = spla.splu

    def counting(a, **kwargs):
        factored.append(a)
        return real(a, **kwargs)

    monkeypatch.setattr(solvers.spla, "splu", counting)
    return factored


def counting_pcg(monkeypatch) -> list:
    """Record the right-hand side of every ``pcg`` call."""
    calls = []
    real = solvers.pcg

    def counting(matvec, b, *rest):
        calls.append(b)
        return real(matvec, b, *rest)

    monkeypatch.setattr(solvers, "pcg", counting)
    return calls


def counting_builds(monkeypatch, cls=solvers._HeightHessian) -> list:
    """Record (matrix, CSC matrix) for every 2D Newton matrix that
    ``cls.csc`` assembles: the height family's Hessian or P
    (``_HeightHessian``), or the density Newton matrix (``_ShiftedStiffness``)."""
    built = []
    real = cls.csc

    def counting(self):
        built.append((self, real(self)))
        return built[-1][1]

    monkeypatch.setattr(cls, "csc", counting)
    return built


def pcg_failures(monkeypatch) -> list:
    """Record the message of every SolverError that ``pcg`` raises."""
    failures = []
    real = solvers.pcg

    def recording(*args):
        try:
            return real(*args)
        except SolverError as err:
            failures.append(str(err))
            raise

    monkeypatch.setattr(solvers, "pcg", recording)
    return failures


def direct_solve(a, b):
    return spla.splu(a, permc_spec="MMD_AT_PLUS_A").solve(b)


def solve_directly(monkeypatch, record: list | None = None) -> None:
    """Solve every Newton step's linear system, 2D (``_linear_solve``) and
    1D (``_tridiagonal_solve``), with a SuperLU factor of its CSC matrix,
    which ``record`` collects when given."""

    def direct(a, b):
        if record is not None:
            record.append(a)
        return direct_solve(a, b)

    monkeypatch.setattr(solvers, "_linear_solve", lambda a, b, *rest: direct(a.csc(), b))
    monkeypatch.setattr(solvers, "_tridiagonal_solve", lambda d, e, b, name: direct(tridiagonal_csc(d, e), b))


def test_linear_solve_refactors_when_the_lagged_factor_is_stale(rng, monkeypatch):
    # K + 1e3 W preconditions K + 1e-3 W too poorly for the iteration cap
    grid = Grid.rectangle((1.0, 1.0), (33, 33))
    b = rng.standard_normal(grid.node_count)
    factors = {}
    solvers._linear_solve(density_matrix(grid, 1e3), b, factors, "rho", 1e-10)
    stale = factors["rho"]
    a = density_matrix(grid, 1e-3)
    expected = direct_solve(a.csc(), b)
    factored, failures = counting_splu(monkeypatch), pcg_failures(monkeypatch)
    x = solvers._linear_solve(a, b, factors, "rho", 1e-10)
    assert failures == [f"conjugate gradient failed to reach tolerance in {solvers._PCG_MAX_ITER} iterations"]
    assert len(factored) == 1 and factors["rho"] is not stale
    assert_built_from(factored[0], a)
    np.testing.assert_array_equal(x, expected)


def test_linear_solve_refactors_when_the_curvature_guard_fires(rng, monkeypatch):
    # a preconditioner that returns zero makes every search direction zero
    grid = Grid.rectangle((1.0, 1.0), (17, 17))
    a = density_matrix(grid, 0.1)
    b = rng.standard_normal(grid.node_count)
    broken = SimpleNamespace(solve=np.zeros_like)
    factors = {"u": broken}
    failures = pcg_failures(monkeypatch)
    x = solvers._linear_solve(a, b, factors, "u", 1e-10)
    assert len(failures) == 1 and "nonpositive curvature" in failures[0]
    assert factors["u"] is not broken
    np.testing.assert_array_equal(x, direct_solve(a.csc(), b))


@pytest.mark.parametrize("held", [False, True], ids=["fresh", "stale"])
def test_linear_solve_factors_the_newton_matrix_when_cg_on_a_fresh_p_factor_fails(held, rng, monkeypatch):
    # CG fails with the held factor, if any, and again from a fresh factor
    # of the preconditioner P: the step factors the Newton matrix itself,
    # keeps that factor and returns its direct solution
    grid = Grid.rectangle((1.0, 1.0), (17, 17))
    params = ModelParams(p=1.5, beta0=1.0, a=1.0, tau=1e-3, delta=1e-6)
    u = smooth_field(grid, rng, amplitude=0.5)
    hess, lon = height_newton_matrices(u, params)
    b = rng.standard_normal(grid.node_count)
    factors = {"u": SimpleNamespace(solve=np.zeros_like)} if held else {}
    calls = []

    def failing(*args):
        calls.append(args)
        raise SolverError("conjugate gradient failed to reach tolerance")

    monkeypatch.setattr(solvers, "pcg", failing)
    factored = counting_splu(monkeypatch)
    x = solvers._linear_solve(hess, b, factors, "u", 1e-10, lon)
    assert len(calls) == 1 + held
    assert len(factored) == 2
    assert_on_the_pattern_of(factored[0], operators(grid).k)  # P has the 5-point pattern of K
    np.testing.assert_array_equal(factored[0].toarray(), lon.csc().toarray())
    np.testing.assert_array_equal(factored[1].toarray(), hess.csc().toarray())
    ref = hess_formula(grid, u, params).toarray()
    np.testing.assert_allclose(factored[1].toarray(), ref, rtol=0.0, atol=1e-14 * np.abs(ref).max())
    expected = direct_solve(hess.csc(), b)
    np.testing.assert_array_equal(x, expected)
    np.testing.assert_array_equal(factors["u"].solve(b), expected)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(3, 1025), seed=st.integers(0, 2**31 - 1), scale=st.sampled_from([1e-3, 1.0, 1e4]))
def test_tridiagonal_solves_use_dptsv_and_match_superlu(n, seed, scale):
    # random diagonally dominant SPD tridiagonal matrices, given as their
    # pair (d, e): no SuperLU factor, no CG, one dptsv call, and x matches
    # a SuperLU solve
    rng = np.random.default_rng(seed)
    e = rng.choice([-1.0, 1.0], n - 1) * rng.uniform(0.1, 1.0, n - 1)
    d = np.r_[np.abs(e), 0.0] + np.r_[0.0, np.abs(e)] + rng.uniform(1e-3, 1.0, n)
    a = scale * tridiagonal_csc(d, e)
    b = rng.standard_normal(n)
    expected = direct_solve(a, b)
    with pytest.MonkeyPatch.context() as m:
        factored, cg, calls = counting_splu(m), counting_pcg(m), recording_dptsv(m)
        x = solvers._tridiagonal_solve(a.diagonal(), a.diagonal(1), b, "density")
    assert factored == [] and cg == [] and len(calls) == 1
    assert np.max(np.abs(x - expected)) <= 1e-10 * np.max(np.abs(expected))


def recording_dptsv(monkeypatch) -> list:
    """Record the diagonal of every ``dptsv`` call."""
    calls = []
    real = solvers.lapack.dptsv

    def recording(d, e, b):
        calls.append(d)
        return real(d, e, b)

    monkeypatch.setattr(solvers, "lapack", SimpleNamespace(dptsv=recording))
    return calls


def test_matrices_off_the_tridiagonal_pattern_never_reach_dptsv(rng, monkeypatch):
    # 2D density and height Newton matrices go to CG or SuperLU, never to
    # dptsv; a 1D density solve reaches it at every Newton step
    plane, line = Grid.rectangle((1.0, 1.0), (17, 17)), Grid.interval(1.0, 65)
    params = ModelParams(p=1.5, beta0=1.0, a=1.0, tau=1e-3, delta=1e-6)
    hess, lon = height_newton_matrices(smooth_field(plane, rng, amplitude=0.5), params)
    calls = recording_dptsv(monkeypatch)
    for a, p in ((density_matrix(plane, 0.1), None), (hess, lon)):
        b = rng.standard_normal(a.csc().shape[0])
        x = solvers._linear_solve(a, b, {}, "u", 1e-10, p)
        assert np.linalg.norm(a.csc() @ x - b) <= 1e-9 * np.linalg.norm(b)
    assert calls == []
    _, rep = solve_rho(NodeField(line, 0.1 * smooth_field(line, rng, offset=0.5).values), 0.1)
    assert rep.converged and len(calls) >= rep.iterations > 0


def test_tridiagonal_matrix_with_a_nonpositive_pivot_is_a_named_solver_error(monkeypatch):
    # dptsv meets the negative diagonal entry of column 20, so the leading
    # minor of order 21 is not positive definite: the solve fails naming
    # the matrix family and dptsv's info, and nothing is factored
    ops = operators(Grid.interval(1.0, 65))
    d = ops.k.data[::3] + 0.1 * ops.w
    d[20] = -1.0
    calls, factored = recording_dptsv(monkeypatch), counting_splu(monkeypatch)
    message = r"^the tridiagonal height Newton matrix is not numerically positive definite \(dptsv info 21\)$"
    with pytest.raises(SolverError, match=message) as err:
        solvers._tridiagonal_solve(d, ops.k.data[1::3], np.ones(65), "height")
    assert len(calls) == 1 and factored == []
    assert err.value.report.to_dict() == SolveReport().to_dict()


def test_1d_density_solve_with_a_singular_newton_matrix_names_dptsv(monkeypatch):
    # mean(g)/tau = 30 on the 65-node interval: tau W/rho lies below the
    # rounding of K, so dptsv meets a nonpositive pivot in the last row at
    # the first Newton step, and the solve fails naming the tridiagonal
    # density Newton matrix, with no SuperLU factor
    grid = Grid.interval(1.0, 65)
    g = NodeField.from_function(grid, lambda x: 0.03 + 1e-3 * np.cos(np.pi * x))
    calls, factored = recording_dptsv(monkeypatch), counting_splu(monkeypatch)
    message = r"^the tridiagonal density Newton matrix is not numerically positive definite \(dptsv info 65\)$"
    with pytest.raises(SolverError, match=message) as err:
        solve_rho(g, 1e-3)
    assert len(calls) == 1 and factored == []
    assert err.value.report.iterations == 0 and not err.value.report.converged


def parent_tridiagonal_solves(monkeypatch) -> None:
    """Solve every 1D Newton step as the lagged-LU linear solve did before
    dptsv, on the CSC matrix of its pair (d, e): CG with the family's held
    factor, capped at 10 iterations, else a direct solve with a fresh
    factor, which one cache for the patch's lifetime keeps."""
    factors = {}

    def solve(d, e, b, family):
        a = tridiagonal_csc(d, e)
        if family in factors:
            try:
                return pcg(a.dot, b, factors[family].solve, 1e-10, 10)[0]
            except SolverError:
                pass
        factors[family] = lu = spla.splu(a, permc_spec="MMD_AT_PLUS_A")
        return lu.solve(b)

    monkeypatch.setattr(solvers, "_tridiagonal_solve", solve)


COSINE_GRIDS = pytest.mark.parametrize(
    "grid",
    [Grid.rectangle((1.0, 1.0), (17, 17)), Grid.rectangle((1.0, 2.0), (9, 17)), Grid.rectangle((1.0, 1.0), (9, 17))],
    ids=["square", "9x17", "9x17-unequal-h"],
)


def dct1(x: np.ndarray) -> np.ndarray:
    """Unnormalized DCT-I along every axis, y_k = x_0 + (-1)^k x_N +
    2 sum_0<i<N x_i cos(pi i k / N): the real FFT of the even extension
    x_0 .. x_N .. x_1, whose imaginary part vanishes. The reference for
    the matrix-product transforms of ``GridOperators.cosine_matrices``."""
    for axis in range(x.ndim):
        inner = (slice(None),) * axis + (slice(-2, 0, -1),)
        x = np.fft.rfft(np.concatenate([x, x[inner]], axis=axis), axis=axis).real
    return x


@COSINE_GRIDS
def test_cosine_solve_matches_the_fft_dct1_reference(grid, rng):
    # T0 X T1^T is the FFT DCT-I of X, T_a diag(1/w_a) folds in the
    # trapezoid weights of its own axis, and the solve's four products
    # match the FFT solve T diag(inv) T W^-1 b, inv = 1 / (scale (L + c))
    ops = operators(grid)
    (t0, s0), (t1, s1) = ops.cosine_matrices
    x = rng.standard_normal(grid.shape)
    expected = dct1(x)
    assert np.max(np.abs(t0 @ x @ t1.T - expected)) <= 1e-12 * np.max(np.abs(expected))
    w = mass_vector(grid).reshape(grid.shape)
    expected = dct1(x / w)
    assert np.max(np.abs(s0 @ x @ s1.T - expected)) <= 1e-12 * np.max(np.abs(expected))
    lam, scale = ops.cosine_spectrum
    for c in (1e-8, 1.0, 1e3):
        b = rng.standard_normal(grid.node_count)
        expected = dct1(dct1(b.reshape(grid.shape) / w) / (scale * (lam + c))).reshape(-1)
        got = solvers._cosine_solver(ops, c)(b)
        assert np.linalg.norm(got - expected) <= 1e-12 * np.linalg.norm(expected)


@COSINE_GRIDS
@pytest.mark.parametrize("c", [1e-8, 1.0, 1e3])
def test_cosine_solve_inverts_the_shifted_stiffness(grid, c, rng):
    # the fluctuation of b (zero plain sum, so no constant mode) and the
    # constant mode W, whose solution is 1/c, checked apart: at c = 1e-8 a
    # mixed b gives x ~ 1e8, whose rounding alone leaves a residual far
    # above 1e-12, and the assembled K + cW stores c W below the rounding
    # of K's diagonal
    k, w = stiffness_matrix(grid), mass_vector(grid)
    b = rng.standard_normal(grid.node_count)
    b -= b.mean()
    x = solvers._cosine_solver(operators(grid), c)(b)
    assert np.linalg.norm(k @ x + c * w * x - b) <= 1e-12 * np.linalg.norm(b)
    np.testing.assert_allclose(solvers._cosine_solver(operators(grid), c)(w), 1.0 / c, rtol=1e-12)
    # symmetric, as a CG preconditioner must be
    v = rng.standard_normal(grid.node_count)
    v -= v.mean()
    assert abs(v @ x - b @ solvers._cosine_solver(operators(grid), c)(v)) <= 1e-12 * np.linalg.norm(v) * np.linalg.norm(x)


@settings(max_examples=60, deadline=None)
@given(grid=st.sampled_from(COSINE_GRIDS.args[1]), seed=st.integers(0, 2**31 - 1), span=st.floats(0.0, 16.0))
def test_shifted_stiffness_product_matches_its_csc_matrix(grid, seed, span):
    # the 2D density Newton matrix K + diag(d), applied as K x + d x, against
    # the product with its CSC matrix, for random positive d over 10^span
    # about W; csc() builds K's pattern with K's data plus d on the diagonal
    ops = operators(grid)
    rng = np.random.default_rng(seed)
    d = ops.w * 10.0 ** rng.uniform(-0.5 * span, 0.5 * span, grid.node_count)
    x = rng.standard_normal(grid.node_count)
    op = solvers._ShiftedStiffness(ops, d)
    csc = op.csc()
    assert_built_from(csc, op)
    expected = csc @ x
    assert np.linalg.norm(op.dot(x) - expected) <= 1e-14 * np.linalg.norm(expected)


def test_cosine_preconditioner_is_2d_only_and_guards_its_shift():
    plane, line = Grid.rectangle((1.0, 1.0), (17, 17)), Grid.interval(1.0, 17)
    line_ops, plane_ops = operators(line), operators(plane)
    assert solvers._cosine_preconditioner(line_ops, mass_vector(line)) is None
    assert solvers._cosine_preconditioner(plane_ops, mass_vector(plane)) is not None
    for shift in (0.0, 1e-300, np.inf, np.nan):  # underflowed, below the rounding of K, overflowed
        assert solvers._cosine_preconditioner(plane_ops, shift * mass_vector(plane)) is None


@pytest.mark.parametrize(
    "tau, sigma0, amplitude",
    [(0.1, 60.0, 1.0), (10.0, 0.0, 10.0)],
    ids=["constant-mode-below-rounding", "cg-fails"],
)
def test_2d_density_solve_falls_back_to_the_lu_path(tau, sigma0, amplitude):
    # mean(g)/tau = 60 puts tau W/rho below the rounding of K, so the step
    # skips the cosine CG; at tau 10 the density spans 4e-5 to 6, K + cbar W
    # is far from the Newton matrix in spectrum and CG fails. Either
    # way the step factors the Newton matrix, the cache keeps that factor,
    # and the solve converges
    grid = Grid.rectangle((1.0, 1.0), (33, 33))
    g = NodeField.from_function(
        grid, lambda x, y: tau * (sigma0 + amplitude * np.cos(np.pi * x) * np.cos(np.pi * y))
    )
    factors = {}
    rho, rep = solve_rho(g, tau, factors=factors)
    assert rep.converged and set(factors) == {"rho"}
    assert np.min(rho.values) > 0.0
    # integrating the equation: tau int ln rho = int g (rho ~ e^60 is constant
    # to rounding, so its Laplacian residual measures nothing)
    mean_log = integrate(NodeField(grid, np.log(rho.values))) / grid.volume
    assert abs(mean_log - sigma0) <= 1e-10 * (1.0 + sigma0)


def test_2d_coupled_solve_is_rescued_by_the_lu_path(monkeypatch):
    # the stationary_2d benchmark's cosine spectrum x20 at tau 1, 33^2: ln rho
    # spans -40 to 1.6, CG on the cosine preconditioner hits its iteration
    # cap, and the solve converges only through SuperLU factors (6 of them
    # in 5 outer steps); with factoring disabled it fails at the density
    # stage. The mean identity (a + tau^2) int u = int f holds to rounding
    grid = Grid.rectangle((1.0, 1.0), (33, 33))
    base = ((0.8, -0.4, 0.25, -0.15), (-0.6, 0.3, -0.2, 0.1))
    f = NodeField(
        grid, 20.0 * sum(c * np.cos(k * np.pi * x) for x, cs in zip(grid.meshgrid(), base) for k, c in enumerate(cs, 1))
    )
    params = ModelParams(p=1.5, beta0=1.0, a=1.0, tau=1.0, delta=1e-6)
    with monkeypatch.context() as m:
        factored = counting_splu(m)
        triple, rep = solve_coupled(ProblemData(f, params))
    assert rep.converged and len(factored) >= 1
    int_f = integrate(f)
    assert abs((params.a + params.tau**2) * integrate(triple.u) - int_f) <= 1e-12 * (1.0 + abs(int_f))

    def no_factor(a):
        raise SolverError("factoring disabled")

    monkeypatch.setattr(solvers, "_factor", no_factor)
    with pytest.raises(SolverError, match="^rho-stage: factoring disabled$"):
        solve_coupled(ProblemData(f, params))


def test_1d_density_steps_match_the_parent_linear_solve(rng, monkeypatch):
    # 1D density steps solve their tridiagonal Newton matrix with dptsv:
    # no SuperLU factor, no CG and an empty cache, with the densities of the
    # lagged-LU linear solve to 1e-10 in as many Newton steps, which
    # factors at least once
    grid = Grid.interval(1.0, 65)
    tau = 1e-3
    sources = [NodeField(grid, tau * smooth_field(grid, rng, offset=0.5).values) for _ in range(2)]
    sources[1] = NodeField(grid, sources[0].values + 0.1 * sources[1].values)

    def solve_pair():
        factors, rho, out = {}, None, []
        for g in sources:
            rho, rep = solve_rho(g, tau, rho0=rho, factors=factors)
            out.append((rho.values, rep.iterations))
        return out, factors

    with monkeypatch.context() as m:
        factored, cg = counting_splu(m), counting_pcg(m)
        results, factors = solve_pair()
    assert factored == [] and cg == [] and factors == {}
    parent_tridiagonal_solves(monkeypatch)
    factored = counting_splu(monkeypatch)
    parent, _ = solve_pair()
    assert factored
    for (rho, its), (rho_p, its_p) in zip(results, parent):
        assert np.max(np.abs(rho - rho_p)) <= 1e-10 * np.max(np.abs(rho_p))
        assert its == its_p


@ONE_AND_TWO_D
def test_height_solves_factor_the_longitudinal_part_in_2d_only(grid, rng, monkeypatch):
    # 2D: the pair factors nothing, its CG preconditioned with the flat-state
    # cosine solve; with that seed forced empty it factors P at its first
    # step, and every height factor is of a matrix on the 5-point pattern of
    # K, none has the 21-point pattern of a Newton matrix, and the heights
    # agree with the seeded pair's to 1e-10 in as many Newton steps. 1D: the
    # tridiagonal Newton matrix is solved with dptsv, so nothing is factored
    # and CG never runs, and the heights are those of the lagged-LU linear
    # solve to 1e-10 in as many Newton steps
    params = ModelParams(p=1.5, beta0=1.0, a=1.0, tau=1e-3, delta=1e-6)
    sources = [smooth_field(grid, rng, amplitude=0.5) for _ in range(2)]
    sources[1] = NodeField(grid, sources[0].values + 0.1 * sources[1].values)

    def solve_pair():
        factors, u, out = {}, None, []
        for rhs in sources:
            u, rep = solve_u(rhs, params, u0=u, factors=factors)
            out.append((u.values, rep.iterations))
        return out, factors

    k = stiffness_matrix(grid)
    matrices = []
    real = solvers._linear_solve
    with monkeypatch.context() as m:
        m.setattr(solvers, "_linear_solve", lambda a, *rest: matrices.append(a) or real(a, *rest))
        factored, cg, tridiagonal = counting_splu(m), counting_pcg(m), recording_dptsv(m)
        results, factors = solve_pair()
    if grid.dim == 1:
        assert tridiagonal and matrices == [] and factored == [] and cg == [] and factors == {}
        with monkeypatch.context() as m:
            parent_tridiagonal_solves(m)
            factored = counting_splu(m)
            parent, _ = solve_pair()
        assert factored
        for (u, its), (u_p, its_p) in zip(results, parent):
            assert np.max(np.abs(u - u_p)) <= 1e-10 * np.max(np.abs(u_p))
            assert its == its_p
        return
    assert factored == [] and cg and set(factors) == {"u"}
    with monkeypatch.context() as m:
        m.setattr(solvers, "_linear_solve", lambda a, *rest: matrices.append(a) or real(a, *rest))
        m.setattr(solvers, "_flat_height_preconditioner", lambda ops, params: None)
        factored = counting_splu(m)
        reference, factors = solve_pair()
    assert factored and set(factors) == {"u"}
    newton_nnz = {x.csc().nnz for x in matrices}
    for a in factored:
        assert a.nnz not in newton_nnz
        assert_on_the_pattern_of(a, k)
    assert factors["u"].shape == k.shape
    for (u, its), (u_r, its_r) in zip(results, reference):
        assert np.max(np.abs(u - u_r)) <= 1e-10 * np.max(np.abs(u_r))
        assert its == its_r


@pytest.mark.parametrize("n", [17, 33])
@pytest.mark.parametrize("tau", [0.05, 1e-4])
def test_flat_height_preconditioner_is_p_at_the_flat_state(n, tau, rng):
    # the cosine solve against P, the longitudinal part of the height Newton
    # matrix at v = 0, assembled, and a SuperLU solve of it, which a 2D
    # height solve's first step factored before. The fluctuation of b (zero
    # plain sum) and the constant mode W, whose solution is 1/tau, checked
    # apart, as for the cosine solve itself: at tau 1e-4 a mixed b gives
    # x ~ 1e4, whose rounding alone leaves a residual near 1e-8, and
    # SuperLU's own solve then strays by about 1e-9 in the slowest modes
    # while leaving a residual of 1e-15. No preconditioner in 1D
    params = ModelParams(p=1.5, beta0=1.0, a=1.0, tau=tau, delta=1e-6)
    ops = operators(Grid.rectangle((1.0, 1.0), (n, n)))
    flat = solvers._flat_height_preconditioner(ops, params)
    p0 = solvers._height_newton_matrices(ops, np.zeros(ops.grid.node_count), params)[1].csc()
    lu = spla.splu(p0, permc_spec="MMD_AT_PLUS_A")
    for _ in range(3):
        b = rng.standard_normal(ops.grid.node_count)
        b -= b.mean()
        x, expected = flat.solve(b), lu.solve(b)
        for y in (x, expected):
            assert np.linalg.norm(p0 @ y - b) <= 1e-12 * np.linalg.norm(b)
        if tau == 0.05:
            assert np.max(np.abs(x - expected)) <= 1e-12 * np.max(np.abs(expected))
    np.testing.assert_allclose(flat.solve(ops.w), 1.0 / tau, rtol=1e-12)
    assert solvers._flat_height_preconditioner(operators(Grid.interval(1.0, n)), params) is None


@ONE_AND_TWO_D
def test_height_solve_builds_p_only_to_factor_it(grid, rng, monkeypatch):
    # a 2D solve whose CG converges with the flat-state seed at every step
    # assembles no P and factors nothing; a 1D step's P is its tridiagonal
    # Newton matrix, built once per step for dptsv
    params = ModelParams(p=1.5, beta0=1.0, a=1.0, tau=0.05, delta=1e-6)
    factored, failures, built = counting_splu(monkeypatch), pcg_failures(monkeypatch), counting_builds(monkeypatch)
    tridiagonal = recording_dptsv(monkeypatch)
    u, rep = solve_u(smooth_field(grid, rng, amplitude=0.5), params)
    assert rep.converged and rep.iterations >= 2
    assert factored == [] and failures == [] and built == []
    assert len(tridiagonal) == (rep.iterations if grid.dim == 1 else 0)


@ONE_AND_TWO_D
def test_density_solve_builds_its_newton_matrix_only_to_factor_it(grid, rng, monkeypatch):
    # a 2D solve whose CG converges with the cosine preconditioner at every
    # step applies K + diag(tau W/rho) as K x + d x and never assembles it;
    # a 1D step builds the pair (d, e) that dptsv reads, once per step
    tau = 0.05
    g = NodeField(grid, tau * smooth_field(grid, rng, offset=0.5).values)
    factored, failures = counting_splu(monkeypatch), pcg_failures(monkeypatch)
    built, tridiagonal = counting_builds(monkeypatch, solvers._ShiftedStiffness), recording_dptsv(monkeypatch)
    rho, rep = solve_rho(g, tau)
    assert rep.converged and rep.iterations >= 2
    assert factored == [] and failures == [] and built == []
    assert len(tridiagonal) == (rep.iterations if grid.dim == 1 else 0)


@pytest.mark.parametrize(
    "tau, sigma0, amplitude, forced, cold_step_factors",
    [(0.1, 60.0, 1.0, False, True), (10.0, 0.0, 10.0, False, False), (0.05, 0.0, 1.0, True, True)],
    ids=["constant-mode-below-rounding", "cg-fails", "cg-forced-to-fail"],
)
def test_2d_density_step_that_factors_builds_the_csc_of_its_newton_matrix_once(
    tau, sigma0, amplitude, forced, cold_step_factors, monkeypatch
):
    # the inputs of test_2d_density_solve_falls_back_to_the_lu_path, and a
    # smooth one with CG forced to fail at every step. Each step that
    # factors assembles K + diag(tau W/rho) once and factors exactly that
    # CSC matrix: K's pattern, K's data off the diagonal and K's diagonal
    # plus a positive d (below its rounding at sigma0 = 60), at the cold
    # start rho = c with d = tau W/c exactly. A step whose CG converges, on
    # the cosine solve or on the held factor, assembles nothing. With every step direct, the
    # densities are bit-equal to those of direct solves of that CSC matrix
    grid = Grid.rectangle((1.0, 1.0), (33, 33))
    g = NodeField.from_function(
        grid, lambda x, y: tau * (sigma0 + amplitude * np.cos(np.pi * x) * np.cos(np.pi * y))
    )
    with monkeypatch.context() as m:
        m.setattr(solvers, "_linear_solve", lambda a, b, *rest: direct_solve(a.csc(), b))
        expected, rep_direct = solve_rho(g, tau)
    if forced:
        def failing(*args):
            raise SolverError("conjugate gradient failed to reach tolerance")

        monkeypatch.setattr(solvers, "pcg", failing)
    factored = counting_splu(monkeypatch)
    built = counting_builds(monkeypatch, solvers._ShiftedStiffness)
    rho, rep = solve_rho(g, tau)
    assert rep.converged and rep.iterations == rep_direct.iterations
    assert len(factored) == len(built) >= 1
    assert len(built) == rep.iterations if forced else len(built) <= rep.iterations
    ops = operators(grid)
    diagonal = on_diagonal(ops.k)
    for a, (op, csc) in zip(factored, built):
        assert a is csc
        assert_built_from(a, op)
        np.testing.assert_array_equal(a.data[~diagonal], ops.k.data[~diagonal])
        assert np.all(a.data[diagonal] >= ops.k.data[diagonal])
    if cold_step_factors:
        c = np.exp(float(np.sum(ops.w * g.flat) / np.sum(ops.w)) / tau)
        np.testing.assert_array_equal(factored[0].toarray(), (ops.k + sp.diags(tau * ops.w / c)).toarray())
    if forced:
        np.testing.assert_array_equal(rho.values, expected.values)
    else:
        assert np.max(np.abs(rho.values - expected.values)) <= 1e-10 * np.max(expected.values)


def test_height_solve_factors_p_at_its_current_v_when_cg_with_the_flat_seed_fails(rng, monkeypatch):
    # a seed whose solve returns zero makes CG meet zero curvature at the
    # first step of a warm start: that step factors P at its own v, not at
    # the flat state, later steps run CG on that factor, and the solve
    # converges to the heights of a cold solve
    grid = Grid.rectangle((1.0, 1.0), (17, 17))
    params = ModelParams(p=1.5, beta0=1.0, a=1.0, tau=0.05, delta=1e-6)
    rhs = smooth_field(grid, rng, amplitude=0.5)
    expected, _ = solve_u(rhs, params)
    u0 = NodeField(grid, expected.values + 0.01 * smooth_field(grid, rng).values)
    monkeypatch.setattr(solvers, "_flat_height_preconditioner", lambda ops, p: SimpleNamespace(solve=np.zeros_like))
    preconditioners = []
    real = solvers._linear_solve
    monkeypatch.setattr(
        solvers, "_linear_solve", lambda a, b, factors, family, eta, p: preconditioners.append(p) or real(a, b, factors, family, eta, p)
    )
    factored, failures, built = counting_splu(monkeypatch), pcg_failures(monkeypatch), counting_builds(monkeypatch)
    u, rep = solve_u(rhs, params, u0=u0)
    assert rep.converged and rep.iterations == len(preconditioners) > 1
    assert len(failures) == 1 and "nonpositive curvature" in failures[0]
    assert len(factored) == 1 and len(built) == 1
    (p, csc), = built
    assert p is preconditioners[0] and factored[0] is csc
    ops = operators(grid)
    flat = solvers._height_newton_matrices(ops, np.zeros(grid.node_count), params)[1]
    assert not np.array_equal(csc.toarray(), flat.csc().toarray())
    assert np.max(np.abs(u.values - expected.values)) <= 1e-10 * np.max(np.abs(expected.values))


@ONE_AND_TWO_D
@pytest.mark.parametrize("tau", [0.1, 1e-3, 1e-4])
def test_lagged_factors_match_direct_solves(grid, tau, rng, monkeypatch):
    # two outer steps' worth of density and height solves, the second warm
    # started, with one cache against a fresh cache at every linear solve
    params = ModelParams(p=1.5, beta0=1.0, a=1.0, tau=tau, delta=1e-6)
    sources = [NodeField(grid, tau * smooth_field(grid, rng, offset=0.5).values) for _ in range(2)]
    sources[1] = NodeField(grid, sources[0].values + 0.1 * sources[1].values)

    def solve_pair(factors):
        rho = u = None
        fields, iterations = [], []
        for g in sources:
            rho, rep_rho = solve_rho(g, tau, rho0=rho, factors=factors)
            u, rep_u = solve_u(NodeField(grid, np.log(rho.values)), params, u0=u, factors=factors)
            fields += [rho.values, u.values]
            iterations += [rep_rho.iterations, rep_u.iterations]
        return fields, iterations

    factored = counting_splu(monkeypatch)
    with monkeypatch.context() as m:
        solve_directly(m)
        direct, direct_iterations = solve_pair(None)
    assert len(factored) == sum(direct_iterations)
    factored.clear()
    factors = {}
    cg = counting_pcg(monkeypatch)
    lagged, lagged_iterations = solve_pair(factors)
    if grid.dim == 1:  # every Newton matrix is tridiagonal: dptsv, no factor, no CG
        assert factored == [] and cg == [] and factors == {}
    else:  # the density family runs CG with the cosine solve and factors nothing
        assert len(factored) <= 2 and set(factors) == {"u"}
    assert all(x <= y for x, y in zip(lagged_iterations, direct_iterations))
    for x, y in zip(lagged, direct):
        assert np.max(np.abs(x - y)) <= 1e-10 * np.max(np.abs(y))


@ONE_AND_TWO_D
def test_standalone_solves_share_no_factor(grid, rng, monkeypatch):
    # a solve given no cache holds one of its own, and a repeated solve
    # builds its own preconditioners rather than reusing those of the
    # earlier call, in as many steps. In 2D the density solve preconditions
    # with the cosine solve and the height solve with the flat-state cosine
    # solve, and neither factors; the barrier density solve factors its
    # first Newton matrix and iterates on that factor. Every 1D solve is
    # direct with dptsv, with no factor, no CG and no cache
    params = ModelParams(p=1.5, beta0=1.0, a=1.0, tau=1e-3, delta=1e-6)
    f = smooth_field(grid, rng, offset=0.5)
    g = NodeField(grid, params.tau * f.values)
    rhs = smooth_field(grid, rng)
    factored, cg = counting_splu(monkeypatch), counting_pcg(monkeypatch)
    caches = []
    real = solvers._linear_solve
    monkeypatch.setattr(solvers, "_linear_solve", lambda a, b, factors, *rest: caches.append(factors) or real(a, b, factors, *rest))
    solves = (lambda: solve_rho(g, params.tau), lambda: solve_u(rhs, params), lambda: solve_rho_delta(f, 1.0, 1e-6))
    for solve in solves:
        runs, held = [], []
        for _ in range(2):
            factored.clear()
            cg.clear()
            caches.clear()
            _, rep = solve()
            runs.append((len(factored), len(cg) > 0, rep.iterations))
            if grid.dim == 1:
                assert caches == []
                continue
            assert caches and all(c is caches[0] for c in caches)
            held.append(caches[0])
        assert runs[0] == runs[1]
        if grid.dim == 1:
            assert runs[0][:2] == (0, False) and runs[0][2] > 0
            continue
        assert held[0] is not held[1] and held[0].keys() == held[1].keys()
        assert all(held[0][family] is not held[1][family] for family in held[0])
        if solve is solves[2]:
            assert 1 <= runs[0][0] < runs[0][2] and set(held[0]) == {"rho"}
        else:
            assert runs[0][:2] == (0, True) and runs[0][2] > 0
            assert set(held[0]) == (set() if solve is solves[0] else {"u"})


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
    """Record every matrix the Newton solves pass to a linear solve, as its
    CSC matrix, and solve with a factor of that matrix."""
    matrices = []
    solve_directly(monkeypatch, matrices)
    return matrices


def assert_spd_via_pcg(matrices, rng):
    # pcg raises on nonpositive curvature, so it converging on a random
    # right-hand side checks positive definiteness along its Krylov space
    assert matrices
    for a in matrices:
        b = rng.standard_normal(a.shape[0])
        d = a.diagonal()
        x, its = pcg(a.dot, b, lambda r: r / d, tol=1e-10, maxiter=10 * a.shape[0])
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


@ONE_AND_TWO_D
def test_rho_warm_start_within_target_gets_its_log_mean_corrected(grid):
    # tau int ln rho = int g, so the W-mean of the residual (in units of
    # ln rho) is mean_w(ln rho) - mean_w(g)/tau. The Newton target
    # tol (1 + |g/tau|_w) grows like 1/tau and the mean's bound
    # tol (1 + |ln rho|_w) does not: the warm start below lies within the
    # target, so Newton takes no step, with its log mean 10 bounds off, and
    # it is returned within the bound. Its residual's unweighted mean is
    # -10 bounds, so a correction by the unweighted mean would leave it 20
    # bounds off. Started again at the corrected density, the solve
    # returns it unchanged
    tau, tol = 1e-3, NewtonConfig().tol_residual
    w = operators(grid).w
    g = NodeField(grid, sum(0.4 * np.cos(np.pi * x) - 0.2 * np.cos(2 * np.pi * x) for x in grid.meshgrid()))

    def mean_w(x):
        return float(w @ x) / float(np.sum(w))

    def log_mean_error(rho):  # mean_w(ln rho) - mean_w(g)/tau and its bound
        ln = np.log(rho.flat)
        return mean_w(ln) - mean_w(g.flat) / tau, tol * (1.0 + np.sqrt(ln @ (w * ln)))

    rho, _ = solve_rho(g, tau)
    bound = log_mean_error(rho)[1]
    # the start's residual is rho's plus e, whose weighted mean is 10 bounds
    # and unweighted mean -10: e = 10 bound plus a multiple of the boundary
    # indicator less its weighted mean
    edge = np.zeros(grid.shape)
    for axis in range(grid.dim):
        edge[(slice(None),) * axis + ([0, -1],)] = 1.0
    q = edge.reshape(-1) - mean_w(edge.reshape(-1))
    e = 10.0 * bound - 20.0 * bound * q / np.mean(q)
    jac = (stiffness_matrix(grid) + sp.diags(tau * w / rho.flat)).tocsc()  # W J in rho ds
    rho0 = NodeField.from_flat(grid, rho.flat * np.exp(spla.spsolve(jac, tau * w * e) / rho.flat))
    err0, bound0 = log_mean_error(rho0)
    assert err0 > 9.0 * bound0
    out, rep = solve_rho(g, tau, rho0=rho0)
    err, bound = log_mean_error(out)
    assert rep.converged and rep.iterations == 0
    assert abs(err) <= bound
    # the report's residual is that of the corrected density
    assert abs(mean_w(rep.residual) - err) <= 1e-2 * bound
    again, rep_again = solve_rho(g, tau, rho0=out)
    assert rep_again.iterations == 0
    np.testing.assert_array_equal(again.values, out.values)


def test_rho_warm_failure_falls_back_to_cold_schedule(grid, rng, monkeypatch):
    # a failed warm start is retried from s = ln rho - sigma0 = 0 in the same loop
    g = smooth_field(grid, rng)
    rho_cold, rep_cold = solve_rho(g, tau=0.3)
    starts = []
    original = solvers._newton_attempt

    def failing_first(x, residual, solve, w, target, cfg, report, name):
        starts.append(x.copy())
        if len(starts) == 1:
            report.iterations += 2
            report.residual_history += [9.0, 8.0]
            raise SolverError("forced")
        return original(x, residual, solve, w, target, cfg, report, name)

    monkeypatch.setattr(solvers, "_newton_attempt", failing_first)
    rho, rep = solve_rho(g, tau=0.3, rho0=NodeField.constant(grid, 2.0))
    assert np.ptp(starts[0]) == 0.0 and starts[0][0] != 0.0
    assert np.all(starts[1] == 0.0)
    np.testing.assert_array_equal(rho.values, rho_cold.values)
    # the failed attempt is part of the report
    assert rep.converged
    assert rep.iterations == rep_cold.iterations + 2
    assert rep.residual_history == [9.0, 8.0, *rep_cold.residual_history]


def assert_reports_both_attempts(report, warm_merit, cold_merit):
    # one step from each start, two merits per attempt, the warm start's first
    assert not report.converged
    assert report.iterations == 2
    assert len(report.residual_history) == 4
    assert report.residual_history[0] == pytest.approx(warm_merit, rel=1e-12)
    assert report.residual_history[2] == pytest.approx(cold_merit, rel=1e-12)


def test_rho_all_attempts_failing_report_both(grid, rng):
    g = smooth_field(grid, rng)
    tau = 0.3
    with pytest.raises(SolverError, match="did not converge") as info:
        solve_rho(g, tau, cfg=NewtonConfig(max_iter=1), rho0=NodeField.constant(grid, 2.0))
    # residual at a constant rho, in units of ln rho: ln rho - g/tau
    w = mass_vector(grid)
    mean_g = float(np.sum(w * g.flat) / np.sum(w))
    warm = np.sqrt(np.sum(w * (tau * np.log(2.0) - g.flat) ** 2)) / tau
    cold = np.sqrt(np.sum(w * (mean_g - g.flat) ** 2)) / tau
    assert_reports_both_attempts(info.value.report, warm, cold)


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
    "hess_grid",
    [Grid.interval(2.0, 11), Grid.rectangle((1.0, 2.0), (9, 7)), Grid.rectangle((1.0, 2.0), (9, 17))],
    ids=["1d", "2d", "2d-9x17"],
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
    original = solvers._newton_attempt

    def failing_first(x, residual, solve, w, target, cfg, report, name):
        starts.append(x.copy())
        if len(starts) == 1:
            report.iterations += 2
            report.residual_history += [9.0, 8.0]
            raise SolverError("forced")
        return original(x, residual, solve, w, target, cfg, report, name)

    monkeypatch.setattr(solvers, "_newton_attempt", failing_first)
    u, rep = solve_u(rhs, params, u0=NodeField.constant(grid, 7.0))
    # Newton centres on ubar = mean_w(rhs)/tau: warm v = 7 - ubar, cold v = 0
    ubar = float(np.sum(mass_vector(grid) * rhs.flat) / np.sum(mass_vector(grid))) / params.tau
    assert np.all(starts[0] == 7.0 - ubar) and np.all(starts[1] == 0.0)
    np.testing.assert_array_equal(u.values, u_cold.values)
    assert rep.converged
    assert rep.iterations == rep_cold.iterations + 2
    assert rep.residual_history == [9.0, 8.0, *rep_cold.residual_history]


def test_u_all_attempts_failing_report_both(grid, params):
    rhs = apply_height_operator(NodeField.from_function(grid, lambda x: np.cos(np.pi * x)), params)
    with pytest.raises(SolverError, match="did not converge") as info:
        solve_u(rhs, params, cfg=NewtonConfig(max_iter=1), u0=NodeField.constant(grid, 7.0))
    # residual at a constant u: tau u - rhs
    w = mass_vector(grid)
    mean_rhs = float(np.sum(w * rhs.flat) / np.sum(w))
    warm = np.sqrt(np.sum(w * (params.tau * 7.0 - rhs.flat) ** 2))
    cold = np.sqrt(np.sum(w * (mean_rhs - rhs.flat) ** 2))
    assert_reports_both_attempts(info.value.report, warm, cold)


@HESS_GRIDS
def test_height_hessian_matches_operator_jacobian(hess_grid, params, rng):
    # the assembled Newton matrix is W times the Jacobian of the nodewise operator
    g = hess_grid
    u = NodeField(g, 0.3 * rng.standard_normal(g.shape))
    w = mass_vector(g)
    hess = hessian_csc(u, params).toarray()
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


def hess_formula(g, u, params):
    """sum_ij D_i^T diag(W h_ij) D_j / dim + delta K + tau W at the field u."""
    ref = params.delta * stiffness_matrix(g) + sp.diags(params.tau * mass_vector(g))
    for axis, (z, wvec) in enumerate(zip(edge_gradients(u), edge_weight_vectors(g))):
        h = energy_hessian(z, params)
        ops = edge_stencil(g, axis)
        for i, d_i in enumerate(ops):
            for j, d_j in enumerate(ops):
                ref = ref + d_i.T @ sp.diags(wvec * h[..., i, j].ravel()) @ d_j / g.dim
    return ref


def assert_same_newton_matrices(got, expected):
    """Two results of _height_newton_matrices hold the same bits: in 1D
    the tridiagonal pair (d, e), in 2D every edge array of the matrix-free
    Hessian and of its longitudinal part P."""
    for a, a_ref in zip(got, expected, strict=True):
        if isinstance(a, np.ndarray):
            np.testing.assert_array_equal(a, a_ref)
            continue
        np.testing.assert_array_equal(a.tau_w, a_ref.tau_w)
        for c, c_ref in zip(a.coef, a_ref.coef, strict=True):
            for ci, ci_ref in zip(c, c_ref, strict=True):
                for cij, cij_ref in zip(ci, ci_ref, strict=True):
                    np.testing.assert_array_equal(cij, cij_ref)


def recording_newton_matrices(monkeypatch) -> list:
    """Record (heights, edge pass given, result) of every Newton matrix build."""
    builds = []
    real = solvers._height_newton_matrices

    def recording(ops, v, params, edges=None):
        out = real(ops, v, params, edges)
        builds.append((ops, v.copy(), params, edges is not None, out))
        return out

    monkeypatch.setattr(solvers, "_height_newton_matrices", recording)
    return builds


def test_2d_height_newton_matrices_reuse_the_residuals_edge_pass(rng, monkeypatch):
    # every step of a 2D solve_u builds its Newton matrices from the edge
    # pass of the residual at the same heights, and they hold the same bits
    # as matrices built from scratch there, which heights scaled by 1.001
    # do not
    grid = Grid.rectangle((1.0, 2.0), (17, 13))
    params = ModelParams(p=1.5, beta0=1.0, a=1.0, tau=1e-3, delta=1e-6)
    fresh, builds = solvers._height_newton_matrices, recording_newton_matrices(monkeypatch)
    u, rep = solve_u(smooth_field(grid, rng, amplitude=0.5), params)
    assert rep.converged and len(builds) == rep.iterations >= 2
    for ops, v, p, shared, out in builds:
        assert shared
        assert_same_newton_matrices(out, fresh(ops, v, p))
    ops, v, p, _, out = builds[-1]
    with pytest.raises(AssertionError):
        assert_same_newton_matrices(out, fresh(ops, 1.001 * v, p))


@ONE_AND_TWO_D
def test_height_warm_start_reuses_only_the_end_of_the_solve_that_returned_it(grid, rng, monkeypatch):
    # a solve_u started at the very field an earlier solve_u returned, at the
    # same params and with that solve's report, takes its first residual from
    # the report's end, although the new source moves the mean: one
    # apply_height_operator call fewer and the same Newton steps. The end is
    # taken from the report, so it serves one start. An equal copy of the
    # field, another solve's report, a report with no end or other params
    # evaluate the start afresh and leave the report's end in place
    params = ModelParams(p=1.5, beta0=1.0, a=1.0, tau=1e-2, delta=1e-6)
    rhs = smooth_field(grid, rng, amplitude=0.5)
    rhs2 = NodeField(grid, rhs.values + 0.05 * smooth_field(grid, rng).values + 0.01)
    real_apply, evals = solvers.apply_height_operator, []
    monkeypatch.setattr(solvers, "apply_height_operator", lambda *args: evals.append(None) or real_apply(*args))

    def counted(p=params, **kwargs):
        evals.clear()
        out = solve_u(rhs2, p, **kwargs)
        return len(evals), out

    u, rep = solve_u(rhs, params)
    assert rep.end.u is u
    n_fresh, (u_fresh, rep_fresh) = counted(u0=u)
    n_end, (u_end, rep_end) = counted(u0=u, u0_report=rep)
    assert rep.end is None and rep_end.end.u is u_end
    assert rep_end.converged and rep_end.iterations == rep_fresh.iterations >= 1
    assert n_end == n_fresh - 1
    np.testing.assert_allclose(rep_end.residual_history, rep_fresh.residual_history, rtol=1e-6, atol=1e-14)
    assert np.max(np.abs(u_end.values - u_fresh.values)) <= 1e-12 * np.max(np.abs(u_fresh.values))
    assert counted(u0=u, u0_report=rep)[0] == n_fresh
    other_params = dataclasses.replace(params, beta0=2.0)
    for case in ("copy", "other report", "no end", "other params"):
        u, rep = solve_u(rhs, params)
        _, other = solve_u(NodeField(grid, rhs.values + 0.1), params)
        p, u0, u0_report = {
            "copy": (params, NodeField(grid, u.values.copy()), rep),
            "other report": (params, u, other),
            "no end": (params, u, SolveReport()),
            "other params": (other_params, u, rep),
        }[case]
        assert counted(p, u0=u0, u0_report=u0_report)[0] == counted(p, u0=u0)[0], case
        assert rep.end.u is u and other.end.u is not u


def test_1d_joint_newton_matrices_reuse_the_residuals_edge_pass(rng, monkeypatch):
    # every Newton step of a cold 1D solve (its map's height steps, then
    # the joint steps) and the extra joint step that measures the last
    # change of a warm solve started at that solution builds P from the
    # edge pass of the residual at its heights, with the same bits as P
    # built from scratch there
    grid = Grid.interval(1.0, 65)
    data = ProblemData(smooth_field(grid, rng, offset=0.5), ModelParams(p=1.5, beta0=1.0, a=1.0, tau=1e-2, delta=1e-6))
    fresh, builds = solvers._height_newton_matrices, recording_newton_matrices(monkeypatch)
    triple, rep = solve_coupled(data)
    cold = len(builds)
    _, rep_warm = solve_coupled(data, u0=triple.u, rho0=triple.rho)
    assert rep.converged and cold > rep.iterations - 1
    assert rep_warm.converged and rep_warm.iterations == 1 and len(builds) == cold + 1
    for ops, v, p, shared, out in builds:
        assert shared
        assert_same_newton_matrices(out, fresh(ops, v, p))


@HESS_GRIDS
def test_height_newton_matrix_matches_product_formula(hess_grid, params, rng):
    # the Newton matrix's CSC build and its matrix-free product equal
    # sum_ij D_i^T diag(W h_ij) D_j / dim + delta K + tau W
    g = hess_grid
    u = NodeField(g, 0.3 * rng.standard_normal(g.shape))
    ref = hess_formula(g, u, params)
    a, b = height_newton_matrices(u, params)
    if g.dim == 1:  # the pair (d, e) of the tridiagonal Hessian, which is its own longitudinal part
        hess = lon = tridiagonal_csc(a, b)
        product = hess.dot
    else:
        assert a.ops is operators(g) and b.ops is a.ops
        hess, lon, product = a.csc(), b.csc(), a.dot
    np.testing.assert_allclose(hess.toarray(), ref.toarray(), rtol=0.0, atol=1e-14 * np.abs(ref).max())
    for v in rng.standard_normal((3, g.node_count)):
        expected = ref @ v
        assert np.linalg.norm(product(v) - expected) <= 1e-14 * np.linalg.norm(expected)
    # the preconditioner keeps the (D_l, D_l) pair of each axis family only,
    # on the pattern of K; a 1D family has no other pair
    k = stiffness_matrix(g)
    ref_lon = params.delta * k + sp.diags(params.tau * mass_vector(g))
    for z, wvec, mat in zip(edge_gradients(u), edge_weight_vectors(g), gradient_matrices(g)):
        ref_lon = ref_lon + mat.T @ sp.diags(wvec * energy_hessian(z, params)[..., 0, 0].ravel()) @ mat / g.dim
    np.testing.assert_allclose(lon.toarray(), ref_lon.toarray(), rtol=0.0, atol=1e-14 * np.abs(ref).max())
    assert_on_the_pattern_of(lon, k)


def test_newton_solves_leave_cached_operators_unchanged(params, rng):
    # every Newton matrix is built in fresh arrays or applied matrix-free,
    # never written into a cached one, and no solve replaces a member of
    # the grid's record. The 1D solves read K's diagonal and off-diagonal
    # as strided views of its data, and leave them unchanged
    line = Grid.interval(1.0, 33)
    line_k = operators(line).k
    line_before = line_k.data.copy()
    solve_rho(smooth_field(line, rng), 0.3)
    solve_rho_delta(smooth_field(line, rng), 0.3, 1e-3)
    solve_u(smooth_field(line, rng), params)
    solve_coupled(ProblemData(smooth_field(line, rng, offset=0.5), params))
    np.testing.assert_array_equal(line_k.data, line_before)
    assert operators(line).k is line_k
    g = Grid.rectangle((1.0, 2.0), (9, 7))
    ops = operators(g)
    k = ops.k
    cached = [k.data, k.indices, k.indptr]
    before = [a.copy() for a in cached]
    solve_rho(smooth_field(g, rng), 0.3)
    spectrum, transforms = ops.cosine_spectrum[0], ops.cosine_matrices  # built by the 2D density solve's preconditioner
    built = [spectrum, *(t for pair in transforms for t in pair)]
    cached += built
    before += [a.copy() for a in built]
    solve_rho(smooth_field(g, rng), 0.3)
    solve_u(smooth_field(g, rng), params)
    assert operators(g) is ops and stiffness_matrix(g) is k
    assert ops.cosine_spectrum[0] is spectrum
    assert ops.cosine_matrices is transforms
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


def test_solve_report_dict_is_asdict_without_sharing_state():
    rep = SolveReport(iterations=3, residual_history=[1.0, 1e-3, 1e-9], converged=True)
    out = rep.to_dict()
    assert out == dataclasses.asdict(rep)
    assert json.dumps(out, sort_keys=True) == json.dumps(dataclasses.asdict(rep), sort_keys=True)
    assert list(out) == [f.name for f in dataclasses.fields(rep)]
    out["residual_history"].append(0.0)
    assert rep.residual_history == [1.0, 1e-3, 1e-9]
