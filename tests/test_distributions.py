import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import norm

from subexp_lasso.distributions import (
    DEFAULT_Q_GRID, ConcentrationProfile, DistributionSpec,
    euclidean_scaled, frobenius_scaled, infinity_scaled, lifted_profile,
    mixed_tail_bound, mt_euclidean, mt_infinity, operator_scaled,
    profile_for, psi_norm_estimate, sample_inputs, second_moment_matrix,
    seminorm_eval, symmetrize, unit_variance_scale, verify_bernstein_tail,
    xi_norm_concentration_check, zero_norm)
from subexp_lasso.errors import ConfigurationError
from subexp_lasso.seeding import derive_seed


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------

def test_sampling_determinism_bitwise():
    spec = DistributionSpec("gaussian", 3)
    a = sample_inputs(spec, 2, 7)
    b = sample_inputs(spec, 2, 7)
    assert a.shape == (2, 3)
    assert np.array_equal(a, b)


def test_rademacher_support():
    spec = DistributionSpec("rademacher", 2, scale=0.7)
    x = sample_inputs(spec, 500, 1)
    assert set(np.round(np.unique(x), 12)) == {-0.7, 0.7}


def test_laplace_covariance_lln_oracle():
    # law-of-large-numbers oracle: empirical covariance near identity
    spec = DistributionSpec("laplace", 4)
    x = sample_inputs(spec, 100_000, 3)
    cov = x.T @ x / x.shape[0]
    assert np.max(np.abs(cov - np.eye(4))) < 0.05


@pytest.mark.parametrize("kind", ["gaussian", "rademacher", "laplace",
                                  "symmetric_exponential"])
def test_isotropy_unit_variance_kinds(kind):
    spec = DistributionSpec(kind, 8, scale=unit_variance_scale(kind))
    x = sample_inputs(spec, 100_000, 11)
    cov = x.T @ x / x.shape[0]
    off = cov - np.diag(np.diag(cov))
    assert np.max(np.abs(off)) < 0.05
    assert np.all(np.diag(cov) > 0.9) and np.all(np.diag(cov) < 1.1)
    assert np.max(np.abs(x.mean(axis=0))) < 0.05


def test_mixed_rows_are_transformed_latents():
    M = np.array([[1.0, 0.0], [0.0, 2.0], [1.0, 1.0]])
    spec = DistributionSpec("mixed", 3, mixing=M, base_kind="rademacher")
    x = sample_inputs(spec, 400, 5)
    # every row must be M z for z in {-1, 1}^2
    candidates = np.array([M @ np.array([s1, s2])
                           for s1 in (-1, 1) for s2 in (-1, 1)])
    for row in x:
        assert np.min(np.linalg.norm(candidates - row, axis=1)) < 1e-12


def test_invalid_specs_raise_configuration_error():
    with pytest.raises(ConfigurationError):
        DistributionSpec("gaussian", 0)
    with pytest.raises(ConfigurationError):
        DistributionSpec("gaussian", 3, scale=-1.0)
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(ConfigurationError, match="scale"):
            DistributionSpec("laplace", 3, scale=bad)
    with pytest.raises(ConfigurationError):
        DistributionSpec("mixed", 3)  # no mixing matrix
    with pytest.raises(ConfigurationError):
        DistributionSpec("mixed", 3, mixing=np.ones((2, 2)))  # wrong rows


def test_second_moment_matrix_matches_samples():
    M = np.array([[1.0, 0.5], [0.0, 1.0], [0.3, -0.2]])
    spec = DistributionSpec("mixed", 3, mixing=M, base_kind="laplace")
    x = sample_inputs(spec, 200_000, 17)
    emp = x.T @ x / x.shape[0]
    assert np.max(np.abs(emp - second_moment_matrix(spec))) < 0.05


SYMMETRIC_KINDS = ("rademacher", "laplace", "symmetric_exponential")

shapes = st.one_of(st.integers(1, 70).map(lambda n: (n,)),
                   st.tuples(st.integers(1, 9), st.integers(1, 9)))


@settings(max_examples=80, deadline=None)
@given(shape=shapes, scale=st.floats(1e-3, 1e3), seed=st.integers(0, 2 ** 32 - 1))
@example(shape=(13,), scale=0.7, seed=0)
@example(shape=(3, 5), scale=2.0, seed=1)
def test_symmetrize_keeps_every_magnitude(shape, scale, seed):
    mags = np.random.default_rng(seed).standard_exponential(shape)
    out = mags.copy()
    assert symmetrize(np.random.default_rng(seed + 1), out, scale) is out
    assert out.shape == shape
    assert np.array_equal(np.abs(out), scale * mags)


@pytest.mark.parametrize("shape", [(3, 7), (3, 30_001)])
def test_symmetrize_signs_are_packed_bits_in_c_order(shape):
    # sign of entry k is bit k (most significant first) of the uint8 draws,
    # across the blocks the kernel unpacks one at a time as well
    size = math.prod(shape)
    out = symmetrize(np.random.default_rng(5), np.ones(shape), 1.0)
    packed = np.random.default_rng(5).integers(0, 256, size=(size + 7) // 8,
                                               dtype=np.uint8)
    bits = (packed[:, None] >> np.arange(7, -1, -1)) & 1
    assert np.array_equal(out.ravel(), 2.0 * bits.ravel()[:size] - 1.0)


def test_symmetrize_rejects_a_strided_array():
    with pytest.raises(ValueError, match="contiguous"):
        symmetrize(np.random.default_rng(0), np.ones((4, 4))[:, ::2], 1.0)


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(SYMMETRIC_KINDS), p=st.integers(1, 12),
       n=st.integers(1, 40), scale=st.floats(0.1, 10.0),
       seed=st.integers(0, 2 ** 32 - 1))
def test_sample_inputs_bitwise_deterministic_symmetric_laws(kind, p, n, scale,
                                                            seed):
    spec = DistributionSpec(kind, p, scale=scale)
    a = sample_inputs(spec, n, seed)
    assert a.shape == (n, p)
    assert a.tobytes() == sample_inputs(spec, n, seed).tobytes()


@pytest.mark.parametrize("kind", SYMMETRIC_KINDS)
def test_negative_sign_fraction_within_binomial_band(kind):
    x = sample_inputs(DistributionSpec(kind, 7), 20_001, 4)
    frac = np.mean(x < 0)
    assert abs(frac - 0.5) <= 5.0 * math.sqrt(0.25 / x.size)


# ---------------------------------------------------------------------------
# Semi-norms
# ---------------------------------------------------------------------------

def test_seminorm_examples():
    assert seminorm_eval(zero_norm(), np.array([5.0, -2.0])) == 0.0
    assert seminorm_eval(euclidean_scaled(2.0), np.array([3.0, 4.0])) == 10.0
    # hand evaluation of ||M^T v||_inf for M = diag(1, 2), v = (1, 1)
    M = np.array([[1.0, 0.0], [0.0, 2.0]])
    assert seminorm_eval(mt_infinity(M, 1.0), np.array([1.0, 1.0])) == 2.0
    assert seminorm_eval(infinity_scaled(3.0), np.array([1.0, -2.0])) == 6.0
    B = np.diag([3.0, -4.0])
    assert seminorm_eval(frobenius_scaled(1.0), B) == 5.0
    assert seminorm_eval(operator_scaled(1.0), B) == 4.0


def test_seminorm_homogeneity_exact():
    rng = np.random.default_rng(0)
    M = rng.standard_normal((4, 3))
    descriptors = [zero_norm(), euclidean_scaled(1.7), infinity_scaled(0.4),
                   mt_euclidean(M, 2.0), mt_infinity(M, 0.9)]
    for d in descriptors:
        for _ in range(20):
            v = rng.standard_normal(4)
            c = float(rng.standard_normal())
            assert seminorm_eval(d, c * v) == pytest.approx(
                abs(c) * seminorm_eval(d, v), abs=0.0, rel=1e-15)
    for d in (frobenius_scaled(1.3), operator_scaled(0.8)):
        for _ in range(10):
            V = rng.standard_normal((3, 3))
            c = float(rng.standard_normal())
            assert seminorm_eval(d, c * V) == pytest.approx(
                abs(c) * seminorm_eval(d, V), rel=1e-12)


def test_seminorm_dimension_mismatch():
    M = np.ones((4, 2))
    with pytest.raises(ConfigurationError):
        seminorm_eval(mt_euclidean(M, 1.0), np.ones(3))


# ---------------------------------------------------------------------------
# Profiles
# ---------------------------------------------------------------------------

def test_profile_kinds():
    gauss = profile_for(DistributionSpec("gaussian", 5))
    assert gauss.e_norm.is_zero and gauss.g_norm.kind == "euclidean"

    lap = profile_for(DistributionSpec("laplace", 5))
    assert lap.g_norm.kind == "euclidean" and lap.e_norm.kind == "infinity"

    M = np.ones((5, 2))
    mix = profile_for(DistributionSpec("mixed", 5, mixing=M))
    assert mix.g_norm.kind == "mt_euclidean" and mix.e_norm.kind == "mt_infinity"

    lift = lifted_profile(DistributionSpec("gaussian", 4))
    assert lift.g_norm.kind == "frobenius" and lift.e_norm.kind == "operator"

    with pytest.raises(ConfigurationError):
        lifted_profile(DistributionSpec("laplace", 4))


def test_profile_requires_one_nonzero_norm():
    with pytest.raises(ConfigurationError):
        ConcentrationProfile(zero_norm(), zero_norm())


# ---------------------------------------------------------------------------
# Orlicz proxies
# ---------------------------------------------------------------------------

def test_psi_norm_zero_samples():
    est = psi_norm_estimate(np.zeros(100), alpha=1)
    assert est == 0.0


def test_psi_norm_exact_homogeneity():
    rng = np.random.default_rng(4)
    z = rng.standard_normal(500)
    base = psi_norm_estimate(z, alpha=2)
    scaled = psi_norm_estimate(3.0 * z, alpha=2)
    assert scaled == pytest.approx(3.0 * base, rel=1e-12)


def test_psi1_symmetric_exponential_vs_exact_moment_oracle():
    # exact moments of sign * Exp(1): E|Z|^q = q!  ->  proxy oracle below
    q_grid = (1, 2, 4, 8)
    oracle = max(math.factorial(q) ** (1.0 / q) / q for q in q_grid)
    spec = DistributionSpec("symmetric_exponential", 1)
    z = sample_inputs(spec, 1_000_000, 23).ravel()
    est = psi_norm_estimate(z, alpha=1, q_grid=q_grid)
    assert abs(est - oracle) / oracle < 0.10


def test_orlicz_monotonicity_between_alphas():
    rng = np.random.default_rng(9)
    z = rng.laplace(size=2_000)
    v2 = psi_norm_estimate(z, alpha=2)
    v1 = psi_norm_estimate(z, alpha=1)
    assert v2 <= v1 * math.sqrt(max(DEFAULT_Q_GRID)) + 1e-12


def test_psi_norm_input_validation():
    with pytest.raises(ValueError):
        psi_norm_estimate([], alpha=1)
    with pytest.raises(ValueError):
        psi_norm_estimate([1.0], alpha=3)
    with pytest.raises(ValueError):
        psi_norm_estimate([1.0], alpha=1, q_grid=(0.5,))


# ---------------------------------------------------------------------------
# Tail verification
# ---------------------------------------------------------------------------

def test_tail_zero_direction():
    spec = DistributionSpec("gaussian", 3)
    rep = verify_bernstein_tail(spec, profile_for(spec), np.zeros(3),
                                [0.5, 1.0, 2.0], 1_000, 1)
    assert np.all(rep.empirical_tail == 0.0)
    assert rep.violations == 0


def test_gaussian_tail_exact_oracle_below_bound():
    # exact tail 2(1 - Phi(t)) must sit below the profile bound
    spec = DistributionSpec("gaussian", 6)
    prof = profile_for(spec)
    v = np.full(6, 1.0 / np.sqrt(6.0))
    for t in (0.5, 1.0, 2.0, 3.0):
        exact = 2.0 * (1.0 - norm.cdf(t))
        assert exact <= prof.tail_bound(v, t) + 1e-12
    rep = verify_bernstein_tail(spec, prof, v, [1.0, 2.0, 3.0], 100_000, 2)
    assert rep.violations == 0


def test_laplace_tail_exact_oracle_below_bound():
    # single coordinate of the laplace law: exact tail exp(-t / b)
    spec = DistributionSpec("laplace", 4)
    prof = profile_for(spec)
    v = np.eye(4)[0]
    b = 1.0 / np.sqrt(2.0)
    for t in (0.5, 1.0, 2.0, 4.0):
        assert math.exp(-t / b) <= prof.tail_bound(v, t) + 1e-12
    rep = verify_bernstein_tail(spec, prof, v, [0.5, 1.0, 2.0, 4.0], 100_000, 3)
    assert rep.violations == 0


@pytest.mark.parametrize("spec", [
    DistributionSpec("gaussian", 8),
    DistributionSpec("rademacher", 8),
    DistributionSpec("laplace", 8),
    DistributionSpec("symmetric_exponential", 8),
    DistributionSpec("mixed", 8,
                     mixing=np.linalg.qr(np.random.default_rng(12)
                                         .standard_normal((8, 5)))[0],
                     base_kind="laplace"),
], ids=["gaussian", "rademacher", "laplace", "symexp", "mixed"])
def test_tail_soundness_random_directions(spec):
    prof = profile_for(spec)
    rng = np.random.default_rng(31)
    thresholds = [0.25, 0.5, 1.0, 2.0, 3.0]
    for d in range(10):
        v = rng.standard_normal(8)
        v /= np.linalg.norm(v)
        rep = verify_bernstein_tail(spec, prof, v, thresholds, 20_000,
                                    derive_seed(101, "tails", d))
        assert rep.violations == 0
        assert rep.calibrated_multiplier <= 1.0 + 1e-9
        assert np.all(np.diff(rep.empirical_tail) <= 0)  # non-increasing in t


def test_lifted_tail_soundness_matrix_directions():
    spec = DistributionSpec("gaussian", 6)
    prof = lifted_profile(spec)
    rng = np.random.default_rng(77)
    thresholds = [0.5, 1.0, 2.0, 4.0, 8.0]
    dirs = [np.eye(6) / np.sqrt(6.0)]
    for _ in range(5):
        B = rng.standard_normal((6, 6))
        B = 0.5 * (B + B.T)
        dirs.append(B / np.linalg.norm(B, "fro"))
    for i, B in enumerate(dirs):
        rep = verify_bernstein_tail(spec, prof, B, thresholds, 50_000,
                                    derive_seed(55, "lift-tails", i))
        assert rep.violations == 0


def test_profile_failure_flag_for_degenerate_profile():
    # profile norms vanish along e_2 although <x, e_2> is non-degenerate
    M = np.array([[1.0], [0.0]])
    bogus = ConcentrationProfile(mt_euclidean(M, 1.0), mt_infinity(M, 1.0))
    spec = DistributionSpec("gaussian", 2)
    rep = verify_bernstein_tail(spec, bogus, np.array([0.0, 1.0]),
                                [0.5, 1.0], 2_000, 5)
    assert rep.profile_failure


def test_calibrated_multiplier_reported_when_bound_too_tight():
    # deliberately shrunken profile: multiplier needed to restore the bound
    spec = DistributionSpec("gaussian", 4)
    tight = ConcentrationProfile(euclidean_scaled(0.2), zero_norm())
    v = np.eye(4)[0]
    rep = verify_bernstein_tail(spec, tight, v, [1.0, 2.0], 50_000, 8)
    assert rep.violations > 0
    assert rep.calibrated_multiplier > 1.0


def test_mixed_tail_bound_conventions():
    assert mixed_tail_bound(0.0, 0.0, 1.0) == 0.0     # exp(-inf) = 0
    assert mixed_tail_bound(1.0, 0.0, 0.0) == 2.0     # t = 0
    assert mixed_tail_bound(1.0, 0.0, 1.0) == pytest.approx(2 * math.exp(-1))


# ---------------------------------------------------------------------------
# Mismatch-norm concentration
# ---------------------------------------------------------------------------

def test_xi_ratio_conventions():
    assert xi_norm_concentration_check(np.zeros(50)) == 0.0
    assert xi_norm_concentration_check(np.full(50, 3.0)) == pytest.approx(1.0)


def test_xi_ratio_exponential_bounded():
    # direct MC oracle of the ratio distribution across repetitions
    worst = 0.0
    for rep in range(100):
        rng = np.random.default_rng(derive_seed(7, "xi-ratio", rep))
        xi = rng.standard_exponential(10_000)
        worst = max(worst, xi_norm_concentration_check(xi))
    assert worst < 5.0
