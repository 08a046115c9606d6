import math
from dataclasses import replace

import numpy as np
import pytest

from subexp_lasso import geometry
from subexp_lasso.complexity import (BLOCK_VALUES, assemble_bound, dudley_sparse_bound,
                                     empirical_width, exponential_width,
                                     finite_gamma_bound, gaussian_width,
                                     polytope_complexity,
                                     small_ball_report, sparse_cone_bound)
from subexp_lasso.distributions import (ConcentrationProfile,
                                        DistributionSpec, euclidean_scaled,
                                        infinity_scaled, mixed_tail_bound,
                                        profile_for, psi_norm_estimate,
                                        sample_inputs, seminorm_rows,
                                        verify_bernstein_tail,
                                        xi_norm_concentration_check, zero_norm)
from subexp_lasso.errors import ConfigurationError
from subexp_lasso.seeding import rng_for


def origin_skeleton():
    return geometry.polytope(np.zeros((1, 3)))


# ---------------------------------------------------------------------------
# Widths
# ---------------------------------------------------------------------------

def test_widths_of_origin_are_zero():
    sk = origin_skeleton()
    assert gaussian_width(sk, 200, 0).mean == 0.0
    assert exponential_width(sk, 200, 0).mean == 0.0
    spec = DistributionSpec("gaussian", 3)
    assert empirical_width(sk, spec, 8, 200, 0).mean == 0.0


def test_gaussian_width_interval_analytic():
    # sup over [-1, 1] of g v = |g|; E|g| = sqrt(2/pi)
    est = gaussian_width(geometry.l2_ball(1.0, 1), 4_000, 1)
    assert abs(est.mean - math.sqrt(2.0 / math.pi)) <= 3 * est.std_error


def test_exponential_width_interval_analytic():
    # E|Y| = 1 for the unit-rate symmetric exponential driver
    est = exponential_width(geometry.l2_ball(1.0, 1), 4_000, 2)
    assert abs(est.mean - 1.0) <= 3 * est.std_error


def test_gaussian_width_l1_ball_matches_max_oracle():
    # independent oracle: r * E max_j |g_j| by direct MC
    p, r = 16, 1.0
    rng = np.random.default_rng(3)
    oracle_draws = np.abs(rng.standard_normal((20_000, p))).max(axis=1)
    oracle, oracle_se = oracle_draws.mean(), oracle_draws.std() / np.sqrt(20_000)
    est = gaussian_width(geometry.l1_ball(r, p), 4_000, 4)
    assert abs(est.mean - r * oracle) <= 3 * (est.std_error + r * oracle_se)


def test_exponential_width_l1_ball_matches_max_oracle():
    p, r = 16, 1.0
    rng = np.random.default_rng(5)
    draws = np.abs(rng.laplace(size=(20_000, p))).max(axis=1)
    oracle, oracle_se = draws.mean(), draws.std() / np.sqrt(20_000)
    est = exponential_width(geometry.l1_ball(r, p), 4_000, 6)
    assert abs(est.mean - r * oracle) <= 3 * (est.std_error + r * oracle_se)


def test_empirical_width_gaussian_inputs_equals_gaussian_width():
    # the normalized symmetrized sum of gaussians is exactly gaussian
    rng = np.random.default_rng(7)
    pts = rng.standard_normal((12, 6))
    sk = geometry.polytope(pts)
    spec = DistributionSpec("gaussian", 6)
    a = gaussian_width(sk, 3_000, 8)
    b = empirical_width(sk, spec, 32, 3_000, 9)
    assert abs(a.mean - b.mean) <= 3 * (a.std_error + b.std_error)


@pytest.mark.parametrize("fn, domain, draw", [
    (gaussian_width, "gaussian", lambda rng, d: rng.standard_normal(d)),
    (exponential_width, "exponential", lambda rng, d: rng.laplace(0.0, 1.0, size=d))])
@pytest.mark.parametrize("target", [geometry.l1_ball(1.5, 3_000), geometry.hypercube(0.5, 3_000),
                                    geometry.hypercube(0.5, 8)])
def test_gaussian_and_exponential_widths_equal_inline_per_trial_loop(fn, domain, draw,
                                                                     target):
    # a block of m trials draws the values of m successive per-trial draws;
    # at p = 3,000 the 101 trials fill blocks of 21 and a last one of 17
    trials = 101
    est = fn(target, trials, 3)
    rng = rng_for(3, f"width-{domain}")
    sups = np.array([geometry.support_function(target, draw(rng, target.p))
                     for _ in range(trials)])
    assert (est.mean, est.std_error) == (sups.mean(), sups.std(ddof=1) / np.sqrt(trials))


def test_empirical_width_equals_inline_stream_loop():
    # stream "width-empirical": a block of m = BLOCK_VALUES // (n p) trials
    # draws its input seed, then its m x n signs, and splits m n input rows
    # into the trials' samples; here 102 trials fill blocks of 4 and a last
    # one of 2
    p, n, trials = 5, 3_000, 102
    spec = DistributionSpec("laplace", p)
    est = empirical_width(geometry.l1_ball(1.0, p), spec, n, trials, 4)
    block = BLOCK_VALUES // (n * p)
    assert (block, trials % block) == (4, 2)
    rng = rng_for(4, "width-empirical")
    sups = []
    for start in range(0, trials, block):
        m = min(block, trials - start)
        x = sample_inputs(spec, m * n, rng.integers(2 ** 63))
        eps = 2.0 * rng.integers(0, 2, size=(m, n)) - 1.0
        sups += [np.abs((eps[i] @ x[i * n:(i + 1) * n]) / np.sqrt(n)).max()
                 for i in range(m)]
    sups = np.array(sups)
    assert (est.mean, est.std_error) == (sups.mean(),
                                         sups.std(ddof=1) / np.sqrt(trials))
    assert (est.width_kind, est.trials) == (f"empirical(n={n})", trials)
    with pytest.raises(ValueError, match="trials must be at least 100"):
        empirical_width(geometry.l1_ball(1.0, p), spec, n, 99, 4)
    with pytest.raises(ValueError, match="n must be >= 1"):
        empirical_width(geometry.l1_ball(1.0, p), spec, 0, trials, 4)
    with pytest.raises(ConfigurationError, match="spec dimension"):
        empirical_width(geometry.l1_ball(1.0, p + 1), spec, n, trials, 4)


def test_empirical_width_laplace_matches_bruteforce_oracle():
    p, n, r = 16, 64, 1.0
    spec = DistributionSpec("laplace", p)
    est = empirical_width(geometry.l1_ball(r, p), spec, n, 2_000, 10)
    # brute-force oracle: fresh MC of r * ||(1/sqrt n) sum eps x||_inf
    rng = np.random.default_rng(11)
    sups = []
    for i in range(2_000):
        x = sample_inputs(spec, n, int(rng.integers(2 ** 63)))
        eps = 2.0 * rng.integers(0, 2, size=n) - 1.0
        sups.append(r * np.abs(eps @ x / np.sqrt(n)).max())
    oracle = float(np.mean(sups))
    oracle_se = float(np.std(sups) / np.sqrt(len(sups)))
    assert abs(est.mean - oracle) <= 3 * (est.std_error + oracle_se)


def test_width_monotone_under_skeleton_inclusion():
    rng = np.random.default_rng(12)
    pts = rng.standard_normal((20, 5))
    small = geometry.polytope(pts[:8])
    big = geometry.polytope(pts)
    a = gaussian_width(small, 3_000, 13)
    b = gaussian_width(big, 3_000, 13)
    assert a.mean <= b.mean + 3 * (a.std_error + b.std_error)


def test_gaussian_width_invariant_under_convex_combinations():
    rng = np.random.default_rng(14)
    pts = rng.standard_normal((10, 4))
    sk = geometry.polytope(pts)
    # augment with sampled convex combinations: the width must not change
    combos = rng.dirichlet(np.ones(10), size=60) @ pts
    sk_aug = geometry.polytope(np.vstack([pts, combos]))
    a = gaussian_width(sk, 4_000, 15)
    b = gaussian_width(sk_aug, 4_000, 15)
    assert abs(a.mean - b.mean) <= 3 * (a.std_error + b.std_error)


def test_exponential_vs_gaussian_width_logp_factor():
    rng = np.random.default_rng(16)
    targets = [geometry.l1_ball(1.0, 16),
               geometry.l2_ball(1.0, 8),
               geometry.hypercube(0.5, 6),
               geometry.polytope(rng.standard_normal((15, 12)))]
    dims = [16, 8, 6, 12]
    for target, p in zip(targets, dims):
        g = gaussian_width(target, 3_000, 17)
        e = exponential_width(target, 3_000, 18)
        assert e.mean <= 3.0 * math.sqrt(math.log(p)) * g.mean \
            + 3 * (e.std_error + g.std_error)


def test_width_scale_equivariance_paired_seed():
    rng = np.random.default_rng(19)
    pts = rng.standard_normal((9, 5))
    c = 2.5
    for fn in (gaussian_width, exponential_width):
        a = fn(geometry.polytope(pts), 2_000, 20)
        b = fn(geometry.polytope(c * pts), 2_000, 20)
        assert abs(b.mean - c * a.mean) <= 3 * (c * a.std_error + b.std_error)
    spec = DistributionSpec("laplace", 5)
    a = empirical_width(geometry.polytope(pts), spec, 16, 2_000, 21)
    b = empirical_width(geometry.polytope(c * pts), spec, 16, 2_000, 21)
    assert abs(b.mean - c * a.mean) <= 3 * (c * a.std_error + b.std_error)


# ---------------------------------------------------------------------------
# Small-ball
# ---------------------------------------------------------------------------

def test_small_ball_gaussian_full_sphere():
    spec = DistributionSpec("gaussian", 8)
    rng = np.random.default_rng(22)
    dirs = rng.standard_normal((100, 8))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    rep = small_ball_report(spec, dirs, "paley_zygmund", 60_000, 23)
    assert rep.alpha_hat == pytest.approx(math.sqrt(2 / math.pi), abs=0.02)
    assert rep.delta_hat == pytest.approx(1.0, abs=0.05)
    assert rep.pz_bound == pytest.approx((2 / math.pi) ** 1.5 / 16, abs=0.004)
    assert rep.tau * rep.q_hat >= rep.pz_bound - rep.mc_allowance
    assert not rep.degenerate


def test_small_ball_hyperplane_support_degenerate():
    # law supported on a hyperplane probed along its normal direction
    M = np.array([[1.0], [0.0]])
    spec = DistributionSpec("mixed", 2, mixing=M, base_kind="gaussian")
    rep = small_ball_report(spec, np.array([[0.0, 1.0]]), ("fixed", 0.1),
                            5_000, 24)
    assert rep.q_hat == 0.0
    assert rep.degenerate


def test_small_ball_rademacher_axes():
    spec = DistributionSpec("rademacher", 4)
    rep = small_ball_report(spec, np.eye(4), ("fixed", 0.4), 5_000, 25)
    assert rep.q_hat == 1.0  # |<x, e_j>| = 1 >= 0.8 always


# ---------------------------------------------------------------------------
# Closed-form surrogates
# ---------------------------------------------------------------------------

def test_polytope_complexity_singleton_is_zero():
    s = geometry.polytope([[1.0, 2.0]])
    prof = profile_for(DistributionSpec("laplace", 2))
    assert polytope_complexity(s, prof, 100) == (0.0, 0.0)


def test_polytope_complexity_l1_ball_subgaussian():
    # m = Delta_g sqrt(log D) with Delta_g = 2 r c for the l1 ball's vertices
    p, r, c = 6, 1.5, 0.9
    s = geometry.l1_ball(r, p)
    prof = ConcentrationProfile(euclidean_scaled(c), zero_norm())
    q, m = polytope_complexity(s, prof, 100)
    expected_m = 2 * r * c * math.sqrt(math.log(2 * p))
    assert m == pytest.approx(expected_m, rel=1e-12)
    assert q == pytest.approx(expected_m, rel=1e-12)  # Delta_e = 0


def test_polytope_complexity_l1_ball_subexponential():
    p, r, c = 6, 1.5, 0.9
    s = geometry.l1_ball(r, p)
    prof = ConcentrationProfile(zero_norm(), euclidean_scaled(c))
    q, m = polytope_complexity(s, prof, 400)
    logd = math.log(2 * p)
    assert m == pytest.approx(2 * r * c * logd, rel=1e-12)
    assert q == pytest.approx(2 * r * c * logd / 20 + 2 * r * c * math.sqrt(logd),
                              rel=1e-12)


def _surrogates(dg, de, D, n):
    logd = math.log(D)
    return (de * logd / math.sqrt(n) + (dg + de) * math.sqrt(logd),
            de * logd + dg * math.sqrt(logd))


@pytest.mark.parametrize("kind, p, dg_factor, de_factor", [
    ("l1_ball", 400, 1.0, 1.0),        # vertices +-r e_j under both norms
    ("hypercube", 16, math.sqrt(16), 1.0),  # 2^16 vertices, cube corners
])
def test_polytope_complexity_symmetric_vertex_lists_match_closed_forms(
        kind, p, dg_factor, de_factor):
    # Delta = 2 r c, times sqrt(p) for the cube's l2 diameter; neither list is
    # within reach of the O(D^2) pair scan in test time
    r, cg, ce, n = 0.7, 1.3, 0.4, 250
    s = getattr(geometry, kind)(r, p)
    prof = ConcentrationProfile(euclidean_scaled(cg), infinity_scaled(ce))
    D = 2 * p if kind == "l1_ball" else 2 ** p
    q, m = polytope_complexity(s, prof, n)
    want_q, want_m = _surrogates(2 * r * cg * dg_factor, 2 * r * ce * de_factor,
                                 D, n)
    assert q == pytest.approx(want_q, rel=1e-12)
    assert m == pytest.approx(want_m, rel=1e-12)


def _three_scan_surrogates(s, prof, n):
    """q and m with one pairwise_max call per semi-norm: e, g and g + e."""
    verts = geometry.vertices_of(s)
    g, e = prof.g_norm, prof.e_norm
    de = geometry.pairwise_max(verts, lambda V: seminorm_rows(e, V))
    dg = geometry.pairwise_max(verts, lambda V: seminorm_rows(g, V))
    dge = geometry.pairwise_max(verts, lambda V: seminorm_rows(g, V) + seminorm_rows(e, V))
    logd = np.log(verts.shape[0])
    return (float(de * logd / np.sqrt(n) + dge * np.sqrt(logd)),
            float(de * logd + dg * np.sqrt(logd)))


@pytest.mark.parametrize("s, kind", [
    (geometry.l1_ball(0.7, 400), "laplace"), (geometry.hypercube(0.5, 8), "laplace"),
    (geometry.hypercube(0.5, 12), "laplace"),
    (geometry.polytope([[1.0, 0.0, 2.0], [0.0, -1.0, 0.5], [3.0, 1.0, 0.0],
                        [-1.0, 2.0, 1.0]]), "laplace"),  # not negation-closed: pair scan
    (geometry.sparse_skeleton_sampler(5, 40, 2000, 3), "laplace"),
    (geometry.sparse_skeleton_sampler(2, 6, 100, 26), "gaussian"),
    (geometry.polytope(np.random.default_rng(27).standard_normal((300, 7))),
     "symmetric_exponential"),  # not negation-closed
], ids=["l1-400", "cube-8", "cube-12", "polytope", "sparse-40", "sparse-6",
        "gaussian-cloud"])
def test_polytope_complexity_decides_negation_closure_once(s, kind, monkeypatch):
    prof = profile_for(DistributionSpec(kind, s.p))
    want = _three_scan_surrogates(s, prof, 200)
    calls = []
    closed = geometry._negation_closed
    monkeypatch.setattr(geometry, "_negation_closed",
                        lambda P: calls.append(P.shape) or closed(P))
    assert polytope_complexity(s, prof, 200) == want  # bitwise
    assert len(calls) == 1


def test_sparse_cone_bound_values():
    # boundary case k = p/2
    b = sparse_cone_bound(8, 16, 100, "(2,0)")
    assert b.value == pytest.approx(math.sqrt(8 * math.log(2)), rel=1e-12)
    assert b.in_regime
    # hand evaluation of the (0,2)-q regime
    b = sparse_cone_bound(4, 256, 10_000, "(0,2)-q")
    expected = 4 / 100 * math.log(64) + math.sqrt(4 * math.log(64))
    assert b.value == pytest.approx(expected, rel=1e-12)
    assert b.value == pytest.approx(4.24502, abs=1e-4)
    # linear growth of the (0,2)-m regime at fixed p/k
    m1 = sparse_cone_bound(2, 64, 1, "(0,2)-m").value
    m2 = sparse_cone_bound(4, 128, 1, "(0,2)-m").value
    assert m2 == pytest.approx(2 * m1, rel=1e-12)
    # out-of-regime flag still computes
    b = sparse_cone_bound(9, 16, 1, "(2,0)")
    assert not b.in_regime and b.value > 0
    # the (2,inf) regime formula
    b = sparse_cone_bound(3, 81, 1, "(2,inf)")
    assert b.value == pytest.approx(
        math.sqrt(3 * math.log(27) * math.log(81)), rel=1e-12)


def test_finite_gamma_bound_examples():
    sing = geometry.polytope(np.array([[1.0, 1.0]]))
    metric = euclidean_scaled(1.0)
    assert finite_gamma_bound(sing, 2, metric) == 0.0
    # two points at distance 2
    two = geometry.polytope(np.array([[1.0, 0.0], [-1.0, 0.0]]))
    assert finite_gamma_bound(two, 2, metric) == pytest.approx(
        2 * math.sqrt(math.log(2)), rel=1e-12)
    # 2p axis points of radius r under alpha = 1
    p, r = 5, 1.7
    axes = geometry.polytope(np.vstack([r * np.eye(p), -r * np.eye(p)]))
    assert finite_gamma_bound(axes, 1, metric) == pytest.approx(
        2 * r * math.log(2 * p), rel=1e-12)


def test_dudley_alpha1_matches_closed_form():
    # int_0^1 [k (log(p/k) + log(9/eps))] d eps = k (log(p/k) + log 9 + 1)
    for k, p in [(1, 1), (1, 3), (2, 16), (4, 64)]:
        expected = 3.0 * k * (math.log(p / k) + math.log(9.0) + 1.0)
        assert dudley_sparse_bound(k, p, 1) == pytest.approx(expected, rel=1e-6)


def test_dudley_alpha2_matches_quadrature():
    from scipy.integrate import quad

    for k, p in [(1, 1), (1, 3), (2, 16), (4, 64), (3, 1000), (10, 10 ** 6)]:
        a = math.log(p / k) + math.log(9.0)
        val, _ = quad(lambda eps: math.sqrt(k * (a - math.log(eps))), 0.0, 1.0,
                      epsrel=1e-12, epsabs=0.0, limit=200)
        assert dudley_sparse_bound(k, p, 2) == pytest.approx(3.0 * val, rel=1e-8)


def test_dudley_ratio_sweep_bounded():
    for k in range(1, 9):
        for p in (16, 64, 256, 1024):
            if k > p / 2:
                continue
            ratio = dudley_sparse_bound(k, p, 2) / math.sqrt(k * math.log(p / k))
            assert ratio < 8.0


def test_dudley_monotone_in_p():
    vals = [dudley_sparse_bound(3, p, 2) for p in (8, 16, 64, 256)]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_skeleton_q_m_proxies():
    sk = geometry.sparse_skeleton_sampler(2, 6, 100, seed=26)
    prof = profile_for(DistributionSpec("laplace", 6))
    q, m = polytope_complexity(sk, prof, 400)
    assert q > 0 and m > 0
    # q decreases with n (the gamma_1 part is divided by sqrt(n))
    q_big, _ = polytope_complexity(sk, prof, 40_000)
    assert q_big < q


def test_polytope_complexity_q_takes_the_joint_diameter():
    # Delta_g = 2 at the pair (0, 1_4) and Delta_e = 1.5 at the pair
    # (0, 1.5 e_1), so Delta_(g+e) = 3 falls below Delta_g + Delta_e = 3.5;
    # m sees only the two diameters
    s = geometry.polytope([[0.0, 0.0, 0.0, 0.0], [1.0, 1.0, 1.0, 1.0],
                           [1.5, 0.0, 0.0, 0.0]])
    prof = ConcentrationProfile(euclidean_scaled(1.0), infinity_scaled(1.0))
    q, m = polytope_complexity(s, prof, 25)
    logd = math.log(3)
    assert q == pytest.approx(1.5 * logd / 5 + 3 * math.sqrt(logd), rel=1e-12)
    assert m == pytest.approx(1.5 * logd + 2 * math.sqrt(logd), rel=1e-12)


# ---------------------------------------------------------------------------
# Bound assembly
# ---------------------------------------------------------------------------

def make_smallball():
    spec = DistributionSpec("gaussian", 6)
    rng = np.random.default_rng(27)
    dirs = rng.standard_normal((50, 6))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    return small_ball_report(spec, dirs, "paley_zygmund", 30_000, 28)


def test_assemble_bound_noiseless_wellspecified_gives_zero_error():
    sb = make_smallball()
    asm = assemble_bound(1.0, 1.0, sb, u=8.0, n=1_000, sigma=0.0,
                         rho_local=0.0, version="local")
    assert asm.predicted_error == 0.0
    assert asm.n_required > 0 and np.isfinite(asm.n_required)


def test_assemble_bound_local_sigma_term_scales_inverse_sqrt_n():
    sb = make_smallball()
    a = assemble_bound(1.0, 2.0, sb, u=9.0, n=1_000, sigma=0.5,
                       rho_local=0.0, version="local")
    b = assemble_bound(1.0, 2.0, sb, u=9.0, n=2_000, sigma=0.5,
                       rho_local=0.0, version="local")
    assert a.predicted_error == pytest.approx(math.sqrt(2.0) * b.predicted_error,
                                              rel=1e-12)


def test_assemble_bound_global_width_term_scales_inverse_fourth_root():
    sb = make_smallball()
    a = assemble_bound(1.0, 2.0, sb, u=9.0, n=1_000, sigma=0.5,
                       rho_local=0.0, version="global")
    b = assemble_bound(1.0, 2.0, sb, u=9.0, n=4_000, sigma=0.5,
                       rho_local=0.0, version="global")
    assert a.predicted_error == pytest.approx(math.sqrt(2.0) * b.predicted_error,
                                              rel=1e-12)


def test_assemble_bound_rejects_small_u():
    sb = make_smallball()
    with pytest.raises(ValueError):
        assemble_bound(1.0, 1.0, sb, u=7.9, n=100, sigma=0.1,
                       rho_local=0.0, version="local")


def test_assemble_bound_degenerate_smallball():
    M = np.array([[1.0], [0.0]])
    spec = DistributionSpec("mixed", 2, mixing=M, base_kind="gaussian")
    sb = small_ball_report(spec, np.array([[0.0, 1.0]]), "paley_zygmund",
                           5_000, 29)
    asm = assemble_bound(1.0, 1.0, sb, u=8.0, n=100, sigma=0.1,
                         rho_local=0.0, version="local")
    assert asm.degenerate and not np.isfinite(asm.n_required)
    # a hand-built estimate that is not flagged degenerate but has tau = 0
    sb = replace(make_smallball(), tau=0.0)
    assert not sb.degenerate and sb.q_hat > 0
    for version in ("local", "global"):
        asm = assemble_bound(1.0, 1.0, sb, u=8.0, n=100, sigma=0.1,
                             rho_local=0.0, version=version)
        assert asm.degenerate and asm.tau == 0.0
        assert asm.n_required == asm.predicted_error == np.inf


def test_assemble_bound_positive_part():
    sb = make_smallball()
    asm = assemble_bound(1.0, 1.0, sb, u=8.0, n=10 ** 8, sigma=1e-9,
                         rho_local=-5.0, version="local")
    assert asm.predicted_error == 0.0


def test_width_trial_floor():
    with pytest.raises(ValueError):
        gaussian_width(origin_skeleton(), 50, 0)


def test_bound_assembly_pipeline_from_estimated_ingredients():
    # end to end: profile -> skeleton proxies -> small ball -> mismatch ->
    # assembled sample-size condition and error level
    from subexp_lasso.models import ObservationModel, mismatch_report, sparse_vector

    p, k, n = 30, 3, 2_000
    spec = DistributionSpec("laplace", p)
    beta0 = sparse_vector(p, k, seed=90)
    model = ObservationModel("linear", beta0)
    s = geometry.l1_ball(float(np.abs(beta0).sum()), p)
    prof = profile_for(spec)

    sk = geometry.sparse_skeleton_sampler(k, p, 2_000, seed=91)
    q_proxy, m_proxy = polytope_complexity(sk, prof, n)

    # unit directions in span(s - s), the whole space for the l1 ball
    dirs = rng_for(92, "span-sphere").standard_normal((128, p))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    sb = small_ball_report(spec, dirs, "paley_zygmund", 40_000, 93)
    assert not sb.degenerate

    rep = mismatch_report(model, spec, beta0, hypothesis_set=s, t=0.0,
                          mc_budget=50_000, seed=94)
    assert rep.sigma == 0.0  # noiseless, well-specified

    local = assemble_bound(q_proxy, m_proxy, sb, u=8.0, n=n, sigma=rep.sigma,
                           rho_local=rep.rho_local, version="local",
                           q_provenance="finite-set skeleton",
                           m_provenance="finite-set skeleton")
    glob = assemble_bound(q_proxy, m_proxy, sb, u=8.0, n=n, sigma=rep.sigma,
                          rho_local=min(rep.rho_local, 0.0), version="global")
    assert np.isfinite(local.n_required) and local.n_required > 0
    # noiseless well-specified instance: the local error level collapses,
    # while the global one keeps its n^(-1/4) width term (floored by max{1,.})
    assert local.predicted_error <= 0.1
    assert glob.predicted_error > 0.0 and np.isfinite(glob.predicted_error)
    assert local.q_provenance == "finite-set skeleton"


_L1 = geometry.l1_ball(1.0, 3)
_SPEC = DistributionSpec("laplace", 3)
_PROFILE = profile_for(_SPEC)


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: gaussian_width(_L1, 99, 0), "trials must be at least 100",
                 id="width-trials"),
    pytest.param(lambda: empirical_width(_L1, _SPEC, 0, 100, 0), "n must be >= 1",
                 id="empirical-width-n"),
    pytest.param(lambda: finite_gamma_bound(geometry.polytope(np.eye(3)), 3,
                                            euclidean_scaled(1.0)),
                 "alpha must be 1 or 2", id="finite-gamma-alpha"),
    pytest.param(lambda: geometry.polytope([[]]), r"vertices must be .* shape \(1, 0\)",
                 id="polytope-no-columns"),
    pytest.param(lambda: geometry.polytope(np.zeros((0, 3))),
                 r"vertices must be .* shape \(0, 3\)", id="polytope-no-rows"),
    pytest.param(lambda: geometry.polytope([[np.nan, 1.0], [0.0, 2.0]]),
                 "vertices must be finite", id="polytope-nan"),
    pytest.param(lambda: geometry.polytope([[1.0, 0.0], [0.0, -np.inf]]),
                 "vertices must be finite", id="polytope-inf"),
    pytest.param(lambda: geometry.l1_ball(np.inf, 3),
                 "radius must be finite and positive, got inf", id="radius-inf"),
    pytest.param(lambda: geometry.hypercube(np.nan, 3),
                 "radius must be finite and positive, got nan", id="radius-nan"),
    pytest.param(lambda: geometry.l2_ball(1.0, 2, center=[0.0, np.inf]),
                 "center must be finite", id="center-inf"),
    pytest.param(lambda: geometry.l2_ball(1.0, 2, center=[np.nan, 0.0]),
                 "center must be finite", id="center-nan"),
    pytest.param(lambda: dudley_sparse_bound(1, 3, 3), "alpha must be 1 or 2",
                 id="dudley-alpha"),
    pytest.param(lambda: assemble_bound(1.0, 1.0, None, 7.0, 100, 1.0, 0.0, "local"),
                 "u must be at least 8", id="assemble-u"),
    pytest.param(lambda: mixed_tail_bound(1.0, 1.0, -1.0),
                 "threshold must be nonnegative", id="tail-bound-t"),
    pytest.param(lambda: psi_norm_estimate([1.0], alpha=3), "alpha must be 1 or 2",
                 id="psi-norm-alpha"),
    pytest.param(lambda: psi_norm_estimate([], alpha=1), "empty sample set",
                 id="psi-norm-empty"),
    pytest.param(lambda: psi_norm_estimate([1.0], alpha=1, q_grid=(0.5,)),
                 "q_grid must be", id="psi-norm-q-grid"),
    pytest.param(lambda: verify_bernstein_tail(_SPEC, _PROFILE, np.ones(3), [1.0], 999, 0),
                 "mc_trials must be at least 1000", id="tail-check-trials"),
    pytest.param(lambda: verify_bernstein_tail(_SPEC, _PROFILE, np.ones(3), [-1.0], 1000, 0),
                 "thresholds must be nonnegative", id="tail-check-thresholds"),
    pytest.param(lambda: xi_norm_concentration_check([]), "empty sample set",
                 id="xi-ratio-empty"),
])
def test_bad_arguments_raise_a_configuration_error(call, message):
    with pytest.raises(ConfigurationError, match=message):
        call()
