import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subexp_lasso import geometry
from subexp_lasso.distributions import DistributionSpec
from subexp_lasso.errors import ConfigurationError
from subexp_lasso.models import (Dataset, ObservationModel, generate_dataset,
                                 sparse_vector)
from subexp_lasso.seeding import derive_seed
from subexp_lasso import solver
from subexp_lasso.solver import (BACKTRACK_DELTA, RITZ_STEPS, STEP_ROUNDING,
                                 SUBSPACE_EVERY, SUBSPACE_THRESHOLD,
                                 SolverConfig, _ritz_top, _Svec,
                                 _subspace_point, empirical_risk,
                                 excess_decomposition, excess_risk,
                                 rank1_extract, sign_invariant_error, solve,
                                 solve_lasso, solve_lifted)


def toy_dataset(X, y, seed=0):
    X = np.asarray(X, dtype=float)
    p = X.shape[1]
    return Dataset(X, np.asarray(y, dtype=float),
                   DistributionSpec("gaussian", p),
                   ObservationModel("linear", np.ones(p)), seed)


# ---------------------------------------------------------------------------
# Risk evaluation
# ---------------------------------------------------------------------------

def test_empirical_risk_examples():
    ds = toy_dataset([[1.0, 0.0]], [2.0])
    assert empirical_risk(ds, np.zeros(2)) == 4.0
    # exact interpolation
    X = np.array([[1.0, 2.0], [0.0, 1.0]])
    beta = np.array([3.0, -1.0])
    ds = toy_dataset(X, X @ beta)
    assert empirical_risk(ds, beta) == 0.0


def test_empirical_risk_duplicate_accumulation_oracle():
    rng = np.random.default_rng(1)
    for _ in range(25):
        n, p = int(rng.integers(2, 30)), int(rng.integers(1, 8))
        X = rng.standard_normal((n, p))
        y = rng.standard_normal(n)
        beta = rng.standard_normal(p)
        ds = toy_dataset(X, y)
        # independently coded accumulation: exact summation of squares
        oracle = math.fsum((float(y[i] - X[i] @ beta)) ** 2
                           for i in range(n)) / n
        assert empirical_risk(ds, beta) == pytest.approx(oracle, rel=1e-12)


def test_excess_decomposition_identity():
    rng = np.random.default_rng(2)
    for _ in range(300):
        n, p = int(rng.integers(2, 25)), int(rng.integers(1, 8))
        X = rng.standard_normal((n, p))
        y = rng.standard_normal(n)
        ds = toy_dataset(X, y)
        beta = rng.standard_normal(p)
        beta_nat = rng.standard_normal(p)
        q, m = excess_decomposition(ds, beta, beta_nat)
        direct = empirical_risk(ds, beta) - empirical_risk(ds, beta_nat)
        scale = 1.0 + abs(empirical_risk(ds, beta)) + abs(empirical_risk(ds, beta_nat))
        assert q >= 0.0
        assert abs(q + m - direct) <= 1e-10 * scale


def test_excess_decomposition_trivial_cases():
    rng = np.random.default_rng(3)
    X = rng.standard_normal((10, 3))
    beta0 = np.array([1.0, -1.0, 0.5])
    ds = toy_dataset(X, X @ beta0)
    q, m = excess_decomposition(ds, beta0, beta0)
    assert (q, m) == (0.0, 0.0)
    # noiseless data: the cross term vanishes identically at beta_nat = beta0
    beta = rng.standard_normal(3)
    q, m = excess_decomposition(ds, beta, beta0)
    assert m == 0.0
    assert q == pytest.approx(empirical_risk(ds, beta) - empirical_risk(ds, beta0),
                              rel=1e-12)


# ---------------------------------------------------------------------------
# Vector solver
# ---------------------------------------------------------------------------

def test_solve_matches_normal_equations_on_unconstrained_instances():
    rng = np.random.default_rng(4)
    cfg = SolverConfig(max_iters=100_000, tol=1e-14)
    for i in range(50):
        n, p = 80, 8
        X = rng.standard_normal((n, p))
        y = rng.standard_normal(n)
        ds = toy_dataset(X, y, seed=i)
        oracle = np.linalg.solve(X.T @ X, X.T @ y)
        res = solve_lasso(ds, geometry.l2_ball(1e6, p), cfg)
        assert np.linalg.norm(res.estimate - oracle) < 1e-6


def test_solve_orthonormal_design_is_projection():
    # constrained LS with orthonormal rows equals projecting the data vector
    X = np.eye(2)
    y = np.array([1.0, 2.0])
    ds = toy_dataset(X, y)
    res = solve_lasso(ds, geometry.l1_ball(1.0, 2),
                      SolverConfig(max_iters=5_000, tol=1e-14))
    assert np.allclose(res.estimate, [0.0, 1.0], atol=1e-8)


def test_noiseless_sparse_recovery_small():
    p, k, n = 50, 3, 200
    beta0 = sparse_vector(p, k, seed=6)
    model = ObservationModel("linear", beta0)
    spec = DistributionSpec("laplace", p)
    ds = generate_dataset(model, spec, n, 7)
    s = geometry.l1_ball(float(np.abs(beta0).sum()), p)
    res = solve_lasso(ds, s, SolverConfig(max_iters=20_000, tol=1e-12))
    assert np.linalg.norm(res.estimate - beta0) < 1e-5


def test_monotone_trace_and_feasibility_and_certificate():
    rng = np.random.default_rng(8)
    X = rng.standard_normal((60, 10))
    y = rng.standard_normal(60)
    ds = toy_dataset(X, y)
    s = geometry.l1_ball(0.8, 10)
    cfg = SolverConfig(max_iters=50_000, tol=1e-13, track_trace=True)
    res = solve_lasso(ds, s, cfg)
    trace = np.array(res.objective_trace)
    assert np.all(np.diff(trace) <= 1e-12 * np.maximum(trace[:-1], 1.0))
    assert geometry.contains(s, res.estimate)
    assert res.objective == pytest.approx(empirical_risk(ds, res.estimate),
                                          abs=1e-12)
    # fixed-point optimality certificate
    assert res.fixed_point_residual < 10 * math.sqrt(cfg.tol) * \
        (1.0 + np.linalg.norm(res.estimate))


def test_exact_step_solves_identity_design_in_one_iteration():
    # X = I with n = 2 gives L = 1 exactly; one step of 1/L from 0 lands on y,
    # and the next iteration makes no progress
    y = np.array([0.3, -0.2])
    ds = toy_dataset(np.eye(2), y)
    res = solve_lasso(ds, geometry.l2_ball(10.0, 2),
                      SolverConfig(max_iters=100, tol=1e-14))
    assert res.converged and res.iterations == 2
    assert np.array_equal(res.estimate, y)
    assert res.objective == 0.0


def lipschitz_constant(X):
    """The exact Lipschitz constant 2 lambda_max(X^T X) / n of the risk
    gradient, from one eigvalsh of the smaller Gram matrix: X^T X when
    n >= d, else X X^T."""
    n, d = X.shape
    gram = X.T @ X if n >= d else X @ X.T
    return 2.0 * max(float(np.linalg.eigvalsh(gram)[-1]), 0.0) / n


def _svd_lipschitz(X):
    return 2.0 * np.linalg.svd(X, compute_uv=False)[0] ** 2 / X.shape[0]


@pytest.mark.parametrize("n,d", [(7, 20), (20, 20), (60, 9), (1, 5), (5, 1)])
def test_lipschitz_constant_matches_svd_oracle(n, d):
    rng = np.random.default_rng(n * 100 + d)
    X = rng.standard_normal((n, d))
    assert lipschitz_constant(X) == pytest.approx(_svd_lipschitz(X), rel=1e-12)


@pytest.mark.parametrize("n", [20, 40])
def test_lipschitz_constant_lifted_design_matches_svd_oracle(n):
    # p = 5 lifts flatten to d = 25 columns: both sides of n = d
    model = ObservationModel("lifted_view", np.eye(5)[0])
    ds = generate_dataset(model, DistributionSpec("gaussian", 5), n, 31)
    X = ds.lifts().reshape(n, -1)
    assert lipschitz_constant(X) == pytest.approx(_svd_lipschitz(X), rel=1e-12)


def test_lipschitz_constant_zero_design_and_unit_step():
    assert lipschitz_constant(np.zeros((4, 3))) == 0.0
    assert lipschitz_constant(np.zeros((3, 4))) == 0.0
    # L = 0: the solver falls back to step 1.0 and stays at project(0)
    ds = toy_dataset(np.zeros((4, 3)), np.ones(4))
    res = solve_lasso(ds, geometry.l1_ball(1.0, 3), SolverConfig(max_iters=10))
    assert res.converged and np.array_equal(res.estimate, np.zeros(3))
    assert res.objective == 1.0


def svec_gram(ds):
    V = _Svec(ds.inputs.shape[1]).lift_rows(ds.inputs, ds.centering)
    return V.T @ V / ds.n


def spy_linalg(monkeypatch):
    """The (name, shape of the first argument) of the eigh, eigvalsh and
    cholesky calls made, in order."""
    calls = []
    for name in ("eigh", "eigvalsh", "cholesky"):
        real = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name,
                            lambda a, *rest, _real=real, _name=name, **k:
                            calls.append((_name, np.shape(a)))
                            or _real(a, *rest, **k))
    return calls


# the rounding of a Ritz value or of an eigvalsh, relative
RITZ_ROUNDING = 1e-12


def test_solve_result_reports_the_step():
    rng = np.random.default_rng(3)
    # side 6 <= RITZ_STEPS: L' = L exactly, and no check fails
    X = rng.standard_normal((40, 6))
    res = solve_lasso(toy_dataset(X, rng.standard_normal(40)),
                      geometry.l1_ball(1.0, 6))
    assert res.step == pytest.approx(1.0 / lipschitz_constant(X), rel=1e-12)
    assert res.backtracks == 0
    # a lifted Gram of side 276: L' starts at 2 theta <= L, never decreases,
    # and stays at most (1 + delta) L
    ds = generate_dataset(ObservationModel("lifted_view", np.eye(23)[0]),
                          DistributionSpec("gaussian", 23), 400, 7)
    G = svec_gram(ds)
    lam = float(np.linalg.eigvalsh(G)[-1])
    theta = _ritz_top(G.__matmul__, G.shape[0])
    res = solve_lifted(ds, geometry.lifted_psd_fro(1.0, 23),
                       SolverConfig(max_iters=50))
    assert theta <= lam * (1.0 + RITZ_ROUNDING)
    assert theta * (1.0 - RITZ_ROUNDING) <= 0.5 / res.step
    assert 0.5 / res.step <= (1.0 + BACKTRACK_DELTA) * lam * (1.0 + RITZ_ROUNDING)
    if res.backtracks == 0:
        assert 0.5 / res.step == pytest.approx(theta, rel=RITZ_ROUNDING)
    # L = 0 (zero lifts at side 276): the step falls back to 1.0
    zero = Dataset(np.zeros((300, 23)), np.ones(300), ds.spec, ds.model, 0,
                   centering=np.zeros((23, 23)))
    res = solve_lifted(zero, geometry.lifted_psd_fro(1.0, 23),
                       SolverConfig(max_iters=10))
    assert res.step == 1.0 and np.array_equal(res.estimate, np.zeros((23, 23)))
    assert res.backtracks == 0


def test_ritz_start_is_the_one_eigen_solve_of_a_solve(monkeypatch):
    # the start of L' is one eigvalsh of the RITZ_STEPS x RITZ_STEPS
    # tridiagonal matrix, in both forms: no eigvalsh of X X^T or of G and no
    # Cholesky factorisation (a hypercube takes no subspace steps)
    rng = np.random.default_rng(4)
    calls = spy_linalg(monkeypatch)
    for n, d in ((140, 200), (300, 40)):
        X = rng.standard_normal((n, d))
        calls.clear()
        solve_lasso(toy_dataset(X, X @ geometry.project(
            geometry.hypercube(0.5, d), rng.standard_normal(d))),
            geometry.hypercube(0.5, d), SolverConfig(max_iters=30))
        assert calls == [("eigvalsh", (RITZ_STEPS, RITZ_STEPS))]


def test_ritz_top_edge_cases():
    d = 40
    # G = 0: theta = 0 at the first step's breakdown
    assert _ritz_top(np.zeros((d, d)).__matmul__, d) == 0.0
    # G = c I: one step, theta = c to rounding
    assert _ritz_top((2.5 * np.eye(d)).__matmul__, d) == pytest.approx(2.5, rel=1e-14)
    # a Wishart Gram: theta is a lower bound on lambda_max
    X = np.random.default_rng(6).standard_normal((60, d)) + 0.3
    G = X.T @ X / 60
    assert _ritz_top(G.__matmul__, d) <= np.linalg.eigvalsh(G)[-1] * (1 + RITZ_ROUNDING)


def test_the_lanczos_start_is_drawn_once_per_d_and_read_only():
    for d in (1, 9, 465):
        q = solver._lanczos_start(d)
        fresh = np.random.default_rng(0).standard_normal(d)
        fresh = fresh / math.sqrt(float(fresh @ fresh))
        assert solver._lanczos_start(d) is q
        assert np.array_equal(q.view(np.uint64), fresh.view(np.uint64))
        with pytest.raises(ValueError, match="read-only"):
            q[0] = 0.0


def design_with_gram(gram, n):
    """An n x d design X (n >= d) with X^T X / n = gram."""
    w, V = np.linalg.eigh(gram)
    Q = np.linalg.qr(np.random.default_rng(n).standard_normal((n, gram.shape[0])))[0]
    return math.sqrt(n) * Q @ (V * np.sqrt(np.maximum(w, 0.0))) @ V.T


def test_a_top_eigenvector_that_the_ritz_start_misses_is_found_by_backtracking():
    # X^T X / n = I + 10 u u^T with u orthogonal to the Lanczos start: the
    # Krylov space never sees the eigenvalue 11, so L' starts at 2 (the Ritz
    # value 1) and the failed checks raise it to at most (1 + delta) L = 22
    # (1 + delta); the solve still reaches the exact-L reference
    d, n = 30, 50
    q = solver._lanczos_start(d)
    u = np.random.default_rng(5).standard_normal(d)
    u -= (u @ q) * q
    u /= np.linalg.norm(u)
    X = design_with_gram(np.eye(d) + 10.0 * np.outer(u, u), n)
    lam = float(np.linalg.eigvalsh(X.T @ X / n)[-1])
    assert _ritz_top(lambda v: X.T @ (X @ v) / n, d) == pytest.approx(1.0, rel=1e-9)
    y = X @ (3.0 * u) + 0.1 * np.random.default_rng(6).standard_normal(n)
    s = geometry.l2_ball(2.0, d)
    cfg = SolverConfig(max_iters=50_000, tol=1e-14)
    res = solve_lasso(toy_dataset(X, y), s, cfg)
    assert res.backtracks > 0 and res.converged
    assert 0.5 / res.step <= (1.0 + BACKTRACK_DELTA) * lam * (1.0 + RITZ_ROUNDING)
    oracle = residual_form_mfista(X, y, s, cfg, lip=lipschitz_constant(X))
    assert np.max(np.abs(res.estimate - oracle)) < 1e-8


def quarter_ritz(monkeypatch):
    """Make the Ritz start a fourfold underestimate: theta = lambda_max / 4."""
    def fake(apply, d):
        M = np.column_stack([apply(e) for e in np.eye(d)])
        return 0.25 * float(np.linalg.eigvalsh(0.5 * (M + M.T))[-1])
    monkeypatch.setattr(solver, "_ritz_top", fake)


@pytest.mark.parametrize("n,d", [(60, 20), (30, 60)])
def test_an_underestimated_start_backtracks_to_the_exact_step_solution(
        monkeypatch, n, d):
    # both forms (n >= d Gram, n < d residual with subspace steps),
    # noiseless, with the sparse target on the l1 ball: the solution is the
    # target, which both solves reach to rounding
    rng = np.random.default_rng(n + d)
    X = rng.standard_normal((n, d))
    beta0 = np.zeros(d)
    beta0[:4] = (1.0, -0.7, 0.5, 0.3)
    y = X @ beta0
    s = geometry.l1_ball(2.5, d)
    cfg = SolverConfig(max_iters=50_000, tol=1e-14)
    quarter_ritz(monkeypatch)
    res = solve_lasso(toy_dataset(X, y), s, cfg)
    lam = float(np.linalg.eigvalsh(X.T @ X / n)[-1])
    assert res.backtracks > 0 and res.converged
    assert 0.5 / res.step <= (1.0 + BACKTRACK_DELTA) * lam * (1.0 + RITZ_ROUNDING)
    oracle = residual_form_mfista(X, y, s, cfg, subspace=n < d,
                                  lip=lipschitz_constant(X))
    assert np.max(np.abs(res.estimate - oracle)) < 1e-8


def test_the_step_never_grows_and_each_raise_is_at_least_delta(monkeypatch):
    # a run cut at max_iters = k is the first k iterations of a longer run,
    # so the reported 1/L' after each iteration shows the whole history of
    # L': it never decreases, and each raise multiplies it by at least
    # 1 + BACKTRACK_DELTA (the curvature seen exceeded L')
    rng = np.random.default_rng(9)
    X = rng.standard_normal((40, 25))
    y = rng.standard_normal(40)
    quarter_ritz(monkeypatch)
    runs = [solve_lasso(toy_dataset(X, y), geometry.hypercube(0.3, 25),
                        SolverConfig(max_iters=k, tol=1e-14))
            for k in range(1, 41)]
    lips = [1.0 / r.step for r in runs]
    counts = [r.backtracks for r in runs]
    assert counts[-1] > 0
    for (l0, b0), (l1, b1) in zip(zip(lips, counts), zip(lips[1:], counts[1:])):
        if b1 == b0:
            assert l1 == l0
        else:
            assert b1 > b0 and l1 >= (1.0 + BACKTRACK_DELTA) ** (b1 - b0) * l0


SET_MAKERS = {"l1": geometry.l1_ball, "l2": geometry.l2_ball,
              "hypercube": geometry.hypercube}


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 30), d=st.integers(2, 30), seed=st.integers(0, 2 ** 32 - 1),
       kind=st.sampled_from(sorted(SET_MAKERS)), radius=st.floats(0.05, 3.0))
def test_objective_trace_does_not_increase(n, d, seed, kind, radius):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, d)) * rng.uniform(0.1, 10.0)
    ds = toy_dataset(X, rng.standard_normal(n))
    res = solve_lasso(ds, SET_MAKERS[kind](radius, d),
                      SolverConfig(max_iters=300, tol=1e-14, track_trace=True))
    trace = np.array(res.objective_trace)
    assert np.all(np.diff(trace) <= 1e-12 * np.maximum(trace[:-1], 1.0))


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 30), d=st.integers(2, 30), seed=st.integers(0, 2 ** 32 - 1),
       kind=st.sampled_from(sorted(SET_MAKERS)), radius=st.floats(0.05, 3.0),
       tol=st.sampled_from([1e-4, 1e-8, 1e-12]), noiseless=st.booleans())
def test_converged_means_a_short_step_or_a_flat_momentum_free_step(
        n, d, seed, kind, radius, tol, noiseless):
    # converged: the last step moved by <= tol, or a step without momentum
    # lowered the objective by <= tol relative.  The projected-gradient map T
    # is nonexpansive at any step up to 2/L, res.step among them (the step
    # of the last iteration), so an accepted step cand = T(z) with
    # ||cand - z|| <= tol leaves ||T(cand) - cand|| <= tol; either way the
    # estimate shows one of the two
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, d)) * rng.uniform(0.1, 10.0)
    s = SET_MAKERS[kind](radius, d)
    y = (X @ geometry.project(s, rng.standard_normal(d)) if noiseless
         else rng.standard_normal(n))
    ds = toy_dataset(X, y)
    res = solve_lasso(ds, s, SolverConfig(max_iters=5_000, tol=tol))
    if not res.converged:
        assert res.iterations == 5_000
        return
    b = res.estimate
    step = res.step
    after = geometry.project(s, b - step * (2.0 / n) * (X.T @ (X @ b - y)))
    obj, obj_after = empirical_risk(ds, b), empirical_risk(ds, after)
    assert (res.fixed_point_residual <= tol * (1 + 1e-6) + 1e-13
            or obj - obj_after <= tol * obj + 1e-13 * (1.0 + obj))


def test_tol_controls_the_final_fixed_point_residual():
    # noiseless n = 150 < p = 200 l1 instance: the objective falls by a fixed
    # ratio per step, so a relative-decrease stop ran the same 668 iterations
    # at every tol; the step-length stop lets tol set the final residual.  A
    # subspace step can land on the exact solution, after which a tighter tol
    # costs no further iteration, so the two tight tols may tie; they must
    # then both sit at the solution, to rounding
    beta0 = sparse_vector(200, 10, seed=0)
    ds = generate_dataset(ObservationModel("linear", beta0),
                          DistributionSpec("gaussian", 200), 150, 100)
    s = geometry.l1_ball(float(np.abs(beta0).sum()), 200)
    tols = (1e-4, 1e-8, 1e-12)
    results = [solve_lasso(ds, s, SolverConfig(max_iters=50_000, tol=tol))
               for tol in tols]
    fps = [r.fixed_point_residual for r in results]
    assert all(r.converged for r in results)
    assert all(fp <= tol for fp, tol in zip(fps, tols))
    assert fps[0] >= fps[1] >= fps[2]
    assert results[0].iterations < results[1].iterations <= results[2].iterations
    for r in results[1:]:
        assert np.linalg.norm(r.estimate - beta0) <= 1e-13
        assert r.objective <= 1e-28


def residual_start(X):
    """The solver's starting L' for the design X: exact below side
    RITZ_STEPS, else twice the top Ritz value of v -> X^T X v / n."""
    n, d = X.shape
    if min(n, d) <= RITZ_STEPS:
        return lipschitz_constant(X)
    return 2.0 * _ritz_top(lambda v: X.T @ (X @ v), d) / n


def residual_form_mfista(X, y, s, cfg, subspace=False, lip=None):
    """Reference monotone FISTA in the residual form, with the solver's
    decisions: each candidate's residual is a fresh product with X, the
    extrapolated point's residual is recombined from the two stored ones, a
    decrease is a difference of residual-form objectives, and an accepted
    momentum step with <z - cand, cand - beta> > 0 sets t = 1, so that the
    next step starts from cand itself.  Each step starts from L' =
    residual_start(X) (or `lip`) and checks the descent inequality
    ||X m||^2 / n <= (L' / 2) ||m||^2, m = cand - z, from the residuals; one
    that fails beyond the solver's rounding allowance raises L' and is
    redone from the same z.  With `subspace`, every SUBSPACE_EVERY accepted
    steps it also tries the projected least-squares point (by lstsq) on the
    thresholded support, keeps it when it lowers the objective, and then
    restarts the momentum."""
    n, d = X.shape
    shape = (s.p, s.p) if s.is_matrix_set else (d,)
    lip = residual_start(X) if lip is None else lip
    allow = STEP_ROUNDING * np.finfo(float).eps
    beta = geometry.project(s, np.zeros(shape)).ravel()
    r = X @ beta - y
    obj = float(r @ r) / n
    z, r_z, t, momentum = beta, r, 1.0, False
    accepted = 0
    for _ in range(cfg.max_iters):
        grad = (2.0 / n) * (X.T @ r_z)
        while True:
            step = 1.0 / lip if lip > 0 else 1.0
            cand = geometry.project(s, (z - step * grad).reshape(shape)).ravel()
            r_cand = X @ cand - y
            mm = float((cand - z) @ (cand - z))
            q = float((r_cand - r_z) @ (r_cand - r_z)) / n
            slack = allow * math.sqrt(q / n) * (np.linalg.norm(r_cand)
                                                + np.linalg.norm(r_z)
                                                + np.linalg.norm(y))
            if mm == 0.0 or 2.0 * q - lip * mm <= max(slack, 0.0):
                break
            lip = (1.0 + BACKTRACK_DELTA) * max(lip, (2.0 * q - slack) / mm)
        obj_cand = float(r_cand @ r_cand) / n
        if np.linalg.norm(cand - z) <= cfg.tol and (obj_cand < obj or not momentum):
            return cand if obj_cand < obj else beta
        if obj - obj_cand <= cfg.tol * max(obj, 1e-300):
            if not momentum:
                return beta
            z, r_z, t, momentum = beta, r, 1.0, False
            continue
        if momentum and float((z - cand) @ (cand - beta)) > 0.0:
            t = 1.0
        t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
        coef = (t - 1.0) / t_next
        z, r_z = cand + coef * (cand - beta), r_cand + coef * (r_cand - r)
        beta, r, obj, t, momentum = cand, r_cand, obj_cand, t_next, coef > 0.0
        accepted += 1
        if not subspace or accepted % SUBSPACE_EVERY:
            continue
        S = np.flatnonzero(np.abs(beta) >= SUBSPACE_THRESHOLD * np.abs(beta).max())
        if not 0 < S.size < n:
            continue
        u = np.zeros(d)
        u[S] = np.linalg.lstsq(X[:, S], y, rcond=None)[0]
        u = geometry.project(s, u)
        r_u = X @ u - y
        if float(r_u @ r_u) / n < obj:
            beta, r, obj = u, r_u, float(r_u @ r_u) / n
            z, r_z, t, momentum = beta, r, 1.0, False
    return beta


ORACLE_TOL = 1e-9


@settings(max_examples=80, deadline=None)
@given(d=st.integers(2, 15), offset=st.sampled_from([-1, 0, 1]),
       seed=st.integers(0, 2 ** 32 - 1), kind=st.sampled_from(sorted(SET_MAKERS)),
       radius=st.floats(0.05, 3.0), max_iters=st.integers(1, 300))
def test_gram_form_matches_residual_form_oracle(d, offset, seed, kind, radius,
                                                max_iters):
    # n = d - 1 runs the direct form, n = d and n = d + 1 the Gram form.  The
    # Gram form and the oracle round a decrease differently, so a decrease
    # within rounding of tol * obj can send them down different branches:
    # over instances drawn like these, 4 in 12,000 left the oracle by more
    # than 1e-8 at tol = 1e-12, and none in 24,000 at ORACLE_TOL.  The direct
    # form over an l1 ball also takes subspace steps, so the oracle does too
    rng = np.random.default_rng(seed)
    n = d + offset
    X = rng.standard_normal((n, d)) * rng.uniform(0.1, 10.0)
    y = rng.standard_normal(n)
    s = SET_MAKERS[kind](radius, d)
    cfg = SolverConfig(max_iters=max_iters, tol=ORACLE_TOL)
    res = solve_lasso(toy_dataset(X, y), s, cfg)
    oracle = residual_form_mfista(X, y, s, cfg, subspace=kind == "l1" and n < d)
    assert np.max(np.abs(res.estimate - oracle)) < 1e-8


# rounding of a least-squares residual, as a multiple of eps ||y|| / sqrt(n):
# over 1,500 instances drawn like those below (d up to 60), the objective of
# a solve that took subspace steps exceeded plain MFISTA's by at most
# 688 eps^2 ||y||^2 / n, each time where MFISTA had landed on the target to
# rounding or exactly (objective 0.0, for k = 1 on a vertex of the ball)
SUBSPACE_ROUNDING = 2.0 ** 8 * np.finfo(float).eps


@settings(max_examples=40, deadline=None)
@given(d=st.integers(8, 40), n_frac=st.floats(0.34, 0.99),
       k_frac=st.floats(0.0, 0.25), seed=st.integers(0, 2 ** 32 - 1))
def test_subspace_steps_reach_the_noiseless_solution(d, n_frac, k_frac, seed):
    # noiseless n < d instances with the target on the l1 ball: the direct
    # form takes subspace steps, plain MFISTA (the residual-form reference)
    # does not
    n = max(2, min(d - 1, int(n_frac * d)))
    k = max(1, int(k_frac * n))
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, d))
    beta0 = np.zeros(d)
    beta0[rng.choice(d, k, replace=False)] = rng.standard_normal(k)
    y = X @ beta0
    s = geometry.l1_ball(float(np.abs(beta0).sum()), d)
    cfg = SolverConfig(max_iters=20_000, tol=1e-14)
    res = solve_lasso(toy_dataset(X, y), s, cfg)
    r = X @ residual_form_mfista(X, y, s, cfg) - y
    floor = SUBSPACE_ROUNDING ** 2 * float(y @ y) / n
    assert res.objective <= max(float(r @ r) / n, floor)
    if res.converged:
        assert res.fixed_point_residual <= cfg.tol
    # phase-sparse-like: k <= n / 8 (k = 1 converges before the tenth step)
    if 2 <= k and 8 * k <= n:
        assert res.subspace_steps > 0


def test_noisy_subspace_steps_lower_the_objective_and_follow_the_reference():
    # noisy n < d instance: the projected least-squares point is accepted
    # early (2 steps here) and dropped later, when the iterate beats it; the
    # 60-step iterate shows the momentum restart after an accepted step
    rng = np.random.default_rng(0)
    X = rng.standard_normal((40, 80))
    beta0 = np.zeros(80)
    beta0[:5] = rng.standard_normal(5)
    y = X @ beta0 + 0.1 * rng.standard_normal(40)
    s = geometry.l1_ball(float(np.abs(beta0).sum()), 80)
    for max_iters in (60, 5_000):
        cfg = SolverConfig(max_iters=max_iters, tol=1e-12, track_trace=True)
        res = solve_lasso(toy_dataset(X, y), s, cfg)
        assert res.subspace_steps > 0
        assert np.all(np.diff(res.objective_trace) <= 0.0)
        oracle = residual_form_mfista(X, y, s, cfg, subspace=True)
        assert np.max(np.abs(res.estimate - oracle)) < 1e-8


@settings(max_examples=60, deadline=None)
@given(k=st.integers(1, 12), ratio=st.integers(4, 10), extra=st.integers(0, 30),
       seed=st.integers(0, 2 ** 32 - 1))
def test_subspace_point_is_the_least_squares_point_on_a_well_conditioned_support(
        k, ratio, extra, seed):
    # n >= 4 |S| Gaussian rows keep X_S well conditioned, so the normal
    # equations lose only a few digits; the ball is wide enough that the
    # projection is the identity
    n, d = ratio * k, ratio * k + extra + 1
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, d))
    y = rng.standard_normal(n)
    S = np.sort(rng.choice(d, k, replace=False))
    beta = np.zeros(d)
    beta[S] = rng.choice([-1.0, 1.0], k) * rng.uniform(0.5, 2.0, k)
    reference = np.zeros(d)
    reference[S] = np.linalg.lstsq(X[:, S], y, rcond=None)[0]
    s = geometry.l1_ball(10.0 * float(np.abs(reference).sum()) + 1.0, d)
    u = _subspace_point(X, y, s, beta)
    assert u is not None
    assert np.max(np.abs(u - reference)) <= 1e-12 * np.max(np.abs(reference))


def test_subspace_point_skips_a_repeated_column():
    # X_S with a repeated column: the normal equations are singular, so the
    # step is skipped (whether or not the Cholesky factorisation notices),
    # and a solve over such a design runs to the end without an error
    rng = np.random.default_rng(5)
    X = rng.standard_normal((30, 60))
    beta = np.zeros(60)
    beta[[3, 7, 11, 19]] = (1.0, -0.5, 0.8, 0.3)
    s = geometry.l1_ball(5.0, 60)
    y = X @ beta
    assert _subspace_point(X, y, s, beta) is not None
    for twin in (7, 11, 19):
        Xd = X.copy()
        Xd[:, twin] = Xd[:, 3]
        assert _subspace_point(Xd, y, s, beta) is None
        res = solve_lasso(toy_dataset(Xd, Xd @ beta), geometry.l1_ball(2.6, 60))
        assert res.converged and np.isfinite(res.objective)


def test_subspace_steps_only_in_the_direct_form_over_an_l1_ball():
    rng = np.random.default_rng(21)
    beta0 = np.zeros(12)
    beta0[:2] = (0.6, -0.4)
    X = rng.standard_normal((40, 12))
    gram = solve_lasso(toy_dataset(X, X @ beta0), geometry.l1_ball(1.0, 12))
    X = rng.standard_normal((30, 60))
    cube = solve_lasso(toy_dataset(X, X @ np.pad(beta0, (0, 48))),
                       geometry.hypercube(0.6, 60))
    u = rng.standard_normal(6)
    # p = 6 lifts have d = 21 svec coordinates: n = 15 runs the direct form
    ds = lifted_interpolation_dataset(np.outer(u, u) / (u @ u), 15, 22)
    lifted = solve_lifted(ds, geometry.lifted_psd_fro(1.0, 6))
    assert gram.iterations > SUBSPACE_EVERY and gram.subspace_steps == 0
    assert cube.iterations > SUBSPACE_EVERY and cube.subspace_steps == 0
    assert lifted.iterations > SUBSPACE_EVERY and lifted.subspace_steps == 0


def test_gram_form_noiseless_recovery_reaches_rounding_level():
    # criterion 1's design (n = 400 > d = 100, noiseless, tuned l1 ball): the
    # Gram form tracks the objective by exact decreases, so it converges to
    # rounding level; the expanded beta^T G beta - 2 c^T beta + ||y||^2 / n
    # cancels near zero risk and stops near 1e-8
    vals = np.array([1.0, 0.35, 0.2, 0.12, 0.08])
    beta0 = np.zeros(100)
    beta0[np.linspace(3, 90, 5, dtype=int)] = vals / np.linalg.norm(vals)
    model = ObservationModel("linear", beta0)
    s = geometry.l1_ball(float(np.abs(beta0).sum()), 100)
    for trial in range(3):
        ds = generate_dataset(model, DistributionSpec("laplace", 100), 400,
                              derive_seed(3, "exact", trial))
        res = solve_lasso(ds, s, SolverConfig(max_iters=50_000, tol=1e-14))
        assert np.linalg.norm(res.estimate - beta0) < 1e-12


def test_non_finite_data_rejected():
    X = np.array([[1.0, np.nan]])
    ds = toy_dataset(X, [1.0])
    with pytest.raises(ConfigurationError):
        solve_lasso(ds, geometry.l2_ball(1.0, 2))


def test_nonconvergence_is_reported_not_fatal():
    rng = np.random.default_rng(11)
    X = rng.standard_normal((50, 6))
    y = rng.standard_normal(50)
    ds = toy_dataset(X, y)
    res = solve_lasso(ds, geometry.l2_ball(1.0, 6),
                      SolverConfig(max_iters=3, tol=1e-16))
    assert not res.converged
    assert res.estimate is not None


# ---------------------------------------------------------------------------
# Lifted solver
# ---------------------------------------------------------------------------

def lifted_interpolation_dataset(B_nat, n, seed):
    p = B_nat.shape[0]
    spec = DistributionSpec("gaussian", p)
    model = ObservationModel("lifted_view", np.eye(p)[0])
    ds = generate_dataset(model, spec, n, seed)
    y = np.einsum("nij,ij->n", ds.lifts(), B_nat)
    return Dataset(ds.inputs, y, spec, model, seed, centering=ds.centering)


def test_lifted_interpolating_target_reaches_zero_objective():
    rng = np.random.default_rng(12)
    u = rng.standard_normal(4)
    u /= np.linalg.norm(u)
    B_nat = np.outer(u, u)
    ds = lifted_interpolation_dataset(B_nat, 80, 13)
    assert empirical_risk(ds, B_nat) == pytest.approx(0.0, abs=1e-20)
    s = geometry.lifted_psd_fro(1.5, 4)
    res = solve_lifted(ds, s, SolverConfig(max_iters=30_000, tol=1e-14))
    initial = empirical_risk(ds, geometry.project(s, np.zeros((4, 4))))
    assert res.objective <= 1e-6 * initial


def grid_oracle_2x2(ds, radius, lo=-1.5, hi=1.5, steps=31):
    """Dense grid search over feasible 2 x 2 symmetric PSD matrices."""
    best_obj, best_B = np.inf, None
    for a in np.linspace(0.0, hi, steps):
        for c in np.linspace(0.0, hi, steps):
            for b in np.linspace(lo / 2, hi / 2, steps):
                B = np.array([[a, b], [b, c]])
                if a * c - b * b < -1e-12:
                    continue
                if np.hypot(np.hypot(a, c), np.sqrt(2) * b) > radius:
                    continue
                obj = empirical_risk(ds, B)
                if obj < best_obj:
                    best_obj, best_B = obj, B
    return best_obj, best_B


def test_lifted_solver_matches_grid_oracle_on_quadratic_data():
    # p = 2 noiseless quadratic data: the solver must find the constrained
    # empirical minimizer located by the dense grid oracle
    p, n = 2, 50
    beta0 = np.eye(p)[0]
    model = ObservationModel("lifted_view", beta0)
    spec = DistributionSpec("gaussian", p)
    ds = generate_dataset(model, spec, n, 14)
    s = geometry.lifted_psd_fro(1.5, p)
    res = solve_lifted(ds, s, SolverConfig(max_iters=40_000, tol=1e-14))
    best_obj, best_B = grid_oracle_2x2(ds, s.radius)
    assert res.objective <= best_obj + 1e-9
    # grid resolution is 0.05 per axis
    assert np.linalg.norm(res.estimate - best_B, "fro") < 0.1


def test_lifted_recovery_with_interpolating_outputs():
    # outputs that the lifted target interpolates: exact recovery at p=2, n=50
    p, n = 2, 50
    beta0 = np.eye(p)[0]
    target = np.outer(beta0, beta0)
    model = ObservationModel("lifted_view", beta0)
    spec = DistributionSpec("gaussian", p)
    raw = generate_dataset(model, spec, n, 14)
    y = np.einsum("nij,ij->n", raw.lifts(), target)
    ds = Dataset(raw.inputs, y, spec, model, 14, centering=raw.centering)
    s = geometry.lifted_psd_fro(1.5, p)
    res = solve_lifted(ds, s, SolverConfig(max_iters=40_000, tol=1e-14))
    assert np.linalg.norm(res.estimate - target, "fro") < 1e-2


def test_lifted_objective_identity_isotropic_centering():
    # <x x^T - I, b b^T>_F = <x, b>^2 - ||b||^2
    rng = np.random.default_rng(15)
    x = rng.standard_normal(5)
    b = rng.standard_normal(5)
    lift = np.outer(x, x) - np.eye(5)
    lhs = float(np.sum(lift * np.outer(b, b)))
    assert lhs == pytest.approx(float(x @ b) ** 2 - float(b @ b), rel=1e-12)


@pytest.mark.parametrize("n", [9, 14, 15, 16, 24, 60])
def test_svec_path_matches_full_coordinate_pgd(n):
    # p = 5: svec has p(p+1)/2 = 15 coordinates (Gram form from n = 15 on),
    # the flattened lifts p^2 = 25
    p = 5
    model = ObservationModel("lifted_view", np.ones(p) / math.sqrt(p))
    ds = generate_dataset(model, DistributionSpec("gaussian", p), n, 50 + n)
    s = geometry.lifted_psd_fro(1.0, p)
    cfg = SolverConfig(max_iters=200, tol=1e-12)
    res = solve_lifted(ds, s, cfg)
    B = res.estimate
    assert np.array_equal(B, B.T)
    X = ds.lifts().reshape(n, -1)
    oracle = residual_form_mfista(X, ds.outputs, s, cfg).reshape(p, p)
    assert np.max(np.abs(B - oracle)) < 1e-8
    assert res.objective == pytest.approx(empirical_risk(ds, B), abs=1e-12)
    step = res.step
    grad = ((2.0 / n) * (X.T @ (X @ B.ravel() - ds.outputs))).reshape(p, p)
    fp = np.linalg.norm(geometry.project(s, B - step * grad) - B)
    assert res.fixed_point_residual == pytest.approx(fp, rel=1e-9)


def random_lifted_dataset(p, n, seed):
    """Laplace x scaled by a factor in [0.1, 10] and a random symmetric centering."""
    rng = np.random.default_rng(seed)
    x = rng.laplace(size=(n, p)) * rng.uniform(0.1, 10.0)
    M = rng.standard_normal((p, p))
    return Dataset(x, rng.standard_normal(n), DistributionSpec("gaussian", p),
                   ObservationModel("lifted_view", np.eye(p)[0]), seed,
                   centering=M + M.T)


# n = d - 1 .. d + 1 and far on either side of d = p(p+1)/2
lifted_shapes = st.integers(1, 6).flatmap(lambda p: st.tuples(
    st.just(p), st.sampled_from(sorted({
        max(1, p * (p + 1) // 2 + k) for k in (-8, -1, 0, 1, 8)}))))


@settings(max_examples=60, deadline=None)
@given(shape=lifted_shapes, seed=st.integers(0, 2 ** 32 - 1))
def test_lifted_operator_pair_matches_the_stored_lifts(shape, seed):
    p, n = shape
    ds = random_lifted_dataset(p, n, seed)
    rng = np.random.default_rng(seed + 1)
    B = rng.standard_normal((p, p))  # any B: the lifts need no symmetric B
    r = rng.standard_normal(n)
    L = ds.lifts().reshape(n, -1)
    ax, aS = np.abs(ds.inputs), np.abs(ds.centering)
    # entrywise bounds on the magnitudes summed, so cancellation cannot hide
    # an error behind a small result
    fwd_scale = ((ax @ np.abs(B)) * ax).sum(axis=1) + float(np.sum(aS * np.abs(B)))
    adj_scale = (ax.T * np.abs(r)) @ ax + float(np.abs(r).sum()) * aS
    fwd, adj = ds.forward(B), ds.adjoint(r)
    assert fwd.shape == (n,) and adj.shape == (p, p)
    assert np.all(np.abs(fwd - L @ B.ravel()) <= 1e-12 * fwd_scale)
    assert np.all(np.abs(adj - (L.T @ r).reshape(p, p)) <= 1e-12 * adj_scale)
    assert abs(float(fwd @ r) - float(np.sum(B * adj))) <= \
        1e-12 * float(fwd_scale @ np.abs(r))


@settings(max_examples=60, deadline=None)
@given(shape=lifted_shapes, seed=st.integers(0, 2 ** 32 - 1),
       cut=st.floats(0.0, 1.0))
def test_svec_lift_rows_are_bitwise_the_svec_of_the_lifts(shape, seed, cut):
    p, n = shape
    ds = random_lifted_dataset(p, n, seed)
    sv = _Svec(p)
    expected = sv.vec(ds.lifts())
    assert np.array_equal(sv.lift_rows(ds.inputs, ds.centering), expected)
    lo = int(cut * n)  # a row block, as the Gram form builds them
    assert np.array_equal(sv.lift_rows(ds.inputs[lo:], ds.centering),
                          expected[lo:])


def lifted_interior_dataset(p, n, seed):
    """random_lifted_dataset's x and centering, with outputs from a positive
    definite target plus noise 0.1: the solution lies inside the PSD cone"""
    ds = random_lifted_dataset(p, n, seed)
    rng = np.random.default_rng(seed + 1)
    A = rng.standard_normal((p, p))
    B_nat = A @ A.T + np.eye(p)
    y = ds.forward(B_nat) + 0.1 * rng.standard_normal(n)
    return (Dataset(ds.inputs, y, ds.spec, ds.model, seed, centering=ds.centering),
            B_nat)


@settings(max_examples=40, deadline=None)
@given(shape=lifted_shapes, seed=st.integers(0, 2 ** 32 - 1),
       interior=st.booleans(), radius=st.floats(0.05, 3.0))
def test_lifted_objective_trace_does_not_increase(shape, seed, interior, radius):
    p, n = shape
    if interior:
        ds, B_nat = lifted_interior_dataset(p, n, seed)
        radius *= float(np.linalg.norm(B_nat))
    else:
        ds = random_lifted_dataset(p, n, seed)
    res = solve_lifted(ds, geometry.lifted_psd_fro(radius, p),
                       SolverConfig(max_iters=500, tol=1e-12, track_trace=True))
    trace = np.array(res.objective_trace)
    assert len(trace) == res.iterations + 1
    assert np.all(np.diff(trace) <= 1e-12 * np.maximum(trace[:-1], 1.0))
    assert 0 <= res.restarts <= res.iterations


def test_lifted_gram_form_restarts_on_an_ill_conditioned_instance():
    # n = d + 1 just above d = p(p+1)/2 = 10 runs the Gram form with G of
    # condition number 264; the target is inside the ball, so near it the
    # problem is an ill-conditioned quadratic, where momentum overshoots
    p = 4
    ds, B_nat = lifted_interior_dataset(p, 11, 1)
    X = _Svec(p).lift_rows(ds.inputs, ds.centering)
    assert np.linalg.cond(X.T @ X) > 100.0
    res = solve_lifted(ds, geometry.lifted_psd_fro(10.0 * float(np.linalg.norm(B_nat)), p),
                       SolverConfig(max_iters=3_000, tol=1e-12, track_trace=True))
    assert res.converged and res.restarts > 0
    assert np.all(np.diff(res.objective_trace) <= 0.0)


def test_vector_operator_pair_is_the_design_and_its_transpose():
    rng = np.random.default_rng(19)
    X = rng.standard_normal((7, 4))
    ds = toy_dataset(X, np.zeros(7))
    b, r = rng.standard_normal(4), rng.standard_normal(7)
    assert np.array_equal(ds.forward(b), X @ b)
    assert np.array_equal(ds.adjoint(r), X.T @ r)


def test_solve_dispatches_on_the_dataset_kind():
    rng = np.random.default_rng(17)
    X = rng.standard_normal((10, 3))
    ds = toy_dataset(X, X @ np.ones(3))
    s = geometry.l2_ball(2.0, 3)
    assert np.array_equal(solve(ds, s).estimate, solve_lasso(ds, s).estimate)
    model = ObservationModel("lifted_view", np.eye(3)[0])
    lifted = generate_dataset(model, DistributionSpec("gaussian", 3), 20, 18)
    m = geometry.lifted_psd_fro(1.0, 3)
    assert np.array_equal(solve(lifted, m).estimate,
                          solve_lifted(lifted, m).estimate)


def test_solver_entry_points_validate_dataset_kind():
    rng = np.random.default_rng(16)
    X = rng.standard_normal((10, 3))
    ds = toy_dataset(X, X @ np.ones(3))
    with pytest.raises(ConfigurationError):
        solve_lifted(ds, geometry.lifted_psd_fro(1.0, 3))
    with pytest.raises(ConfigurationError):
        solve_lasso(ds, geometry.lifted_psd_fro(1.0, 3))


# ---------------------------------------------------------------------------
# Rank-one extraction, sign-blind error
# ---------------------------------------------------------------------------

def test_rank1_pure_rank_one():
    u = np.array([0.6, -0.8])
    lam, vec, degenerate = rank1_extract(2.0 * np.outer(u, u))
    assert not degenerate
    assert lam == pytest.approx(2.0, rel=1e-10)
    assert np.allclose(vec, -u, atol=1e-10)  # canonical sign: largest coord positive


def test_rank1_diagonal():
    lam, vec, _ = rank1_extract(np.diag([3.0, 1.0]))
    assert lam == pytest.approx(3.0, rel=1e-12)
    assert np.allclose(vec, [1.0, 0.0], atol=1e-8)


def test_rank1_matches_dense_eigendecomposition_oracle():
    rng = np.random.default_rng(17)
    for _ in range(25):
        G = rng.standard_normal((5, 5))
        B = G @ G.T
        lam, vec, _ = rank1_extract(B)
        w, V = np.linalg.eigh(B)
        assert lam == pytest.approx(w[-1], rel=1e-8)
        top = V[:, -1]
        assert min(np.linalg.norm(vec - top), np.linalg.norm(vec + top)) < 1e-6


def test_rank1_zero_matrix_flagged():
    lam, vec, degenerate = rank1_extract(np.zeros((3, 3)))
    assert degenerate and lam == 0.0
    assert np.linalg.norm(vec) == pytest.approx(1.0)


def test_sign_invariant_error_examples():
    a = np.array([1.0, 2.0])
    assert sign_invariant_error(a, -a) == 0.0
    assert sign_invariant_error(a, a) == 0.0
    assert sign_invariant_error(np.array([1.0, 0.0]), np.array([0.0, 1.0])) \
        == pytest.approx(math.sqrt(2.0))


def test_excess_risk_helper():
    rng = np.random.default_rng(18)
    X = rng.standard_normal((20, 4))
    y = rng.standard_normal(20)
    ds = toy_dataset(X, y)
    b1, b2 = rng.standard_normal(4), rng.standard_normal(4)
    assert excess_risk(ds, b1, b2) == pytest.approx(
        empirical_risk(ds, b1) - empirical_risk(ds, b2), abs=1e-10)
