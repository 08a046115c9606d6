import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.stats import norm

from subexp_lasso import geometry, models
from subexp_lasso.distributions import (DistributionSpec, psi_norm_estimate,
                                        sample_inputs, second_moment_matrix)
from subexp_lasso.errors import ConfigurationError
from subexp_lasso.models import (LINKS, Dataset, Noise, ObservationModel,
                                 TargetScale, _xi_moments,
                                 generate_dataset, lifted_target_scale,
                                 mismatch_report, sparse_vector,
                                 target_scale_mu)
from subexp_lasso.seeding import MC_CHUNK, derive_seed, partitions, rng_for


# ---------------------------------------------------------------------------
# Dataset generation
# ---------------------------------------------------------------------------

def test_linear_outputs_direct_evaluation():
    model = ObservationModel("linear", np.array([1.0, -2.0]))
    spec = DistributionSpec("rademacher", 2)
    ds = generate_dataset(model, spec, 50, 1)
    assert np.allclose(ds.outputs, ds.inputs @ model.beta0)
    # the specific example: x = (1, 1) -> y = -1
    assert ds.inputs[0] @ model.beta0 == pytest.approx(
        1.0 * ds.inputs[0, 0] - 2.0 * ds.inputs[0, 1])


def test_single_index_sign_outputs():
    model = ObservationModel("single_index", np.array([1.0, 0.0]), link="sign")
    spec = DistributionSpec("gaussian", 2)
    ds = generate_dataset(model, spec, 100, 2)
    assert np.array_equal(ds.outputs, np.sign(ds.inputs[:, 0]))


def test_quadratic_outputs():
    model = ObservationModel("quadratic", np.array([1.0, 0.0]))
    spec = DistributionSpec("gaussian", 2)
    ds = generate_dataset(model, spec, 100, 3)
    assert np.allclose(ds.outputs, ds.inputs[:, 0] ** 2)


def test_quadratic_noise_sits_inside_the_square():
    model = ObservationModel("quadratic", np.array([1.0, 0.0]),
                             noise=Noise("gaussian", 0.5))
    spec = DistributionSpec("gaussian", 2)
    ds = generate_dataset(model, spec, 50_000, 4)
    # y = (z + nu)^2 has mean E z^2 + E nu^2 = 1.25; additive placement would give 1.0
    assert ds.outputs.mean() == pytest.approx(1.25, abs=0.03)
    assert np.all(ds.outputs >= 0.0)


def test_lifted_view_centering_identity():
    # <x x^T - E, b b^T>_F = <x, b>^2 - var * ||b||^2 for the isotropic laws
    beta = np.array([0.6, -0.8, 0.0])
    model = ObservationModel("lifted_view", beta)
    spec = DistributionSpec("gaussian", 3)
    ds = generate_dataset(model, spec, 200, 5)
    assert ds.lifted and ds.lifts().shape == (200, 3, 3)
    assert np.allclose(ds.centering, np.eye(3))
    B = np.outer(beta, beta)
    lhs = np.einsum("nij,ij->n", ds.lifts(), B)
    raw_x = ds.lifts() + np.eye(3)  # undo centering: rank-one lifts
    z2 = np.einsum("nij,ij->n", raw_x, B)
    assert np.allclose(lhs, z2 - float(beta @ beta), atol=1e-10)


def test_lifted_view_mixed_uses_the_exact_centering():
    M = np.array([[1.0, 0.2], [0.0, 1.0]])
    spec = DistributionSpec("mixed", 2, mixing=M, base_kind="laplace")
    model = ObservationModel("lifted_view", np.array([1.0, 0.0]))
    ds = generate_dataset(model, spec, 100, 6)
    assert np.array_equal(ds.centering, second_moment_matrix(spec))
    assert np.allclose(ds.centering, M @ M.T)


def test_generate_dataset_determinism_and_dim_check():
    model = ObservationModel("linear", np.ones(3), noise=Noise("gaussian", 1.0))
    spec = DistributionSpec("laplace", 3)
    a = generate_dataset(model, spec, 10, 42)
    b = generate_dataset(model, spec, 10, 42)
    assert np.array_equal(a.inputs, b.inputs)
    assert np.array_equal(a.outputs, b.outputs)
    with pytest.raises(ConfigurationError):
        generate_dataset(model, DistributionSpec("laplace", 4), 10, 0)


def test_dataset_rejects_stored_lifts_by_naming_inputs():
    model = ObservationModel("lifted_view", np.eye(3)[0])
    spec = DistributionSpec("gaussian", 3)
    ds = generate_dataset(model, spec, 20, 7)
    with pytest.raises(ConfigurationError, match="inputs"):
        Dataset(ds.lifts(), ds.outputs, spec, model, 7, centering=ds.centering)
    with pytest.raises(ConfigurationError, match="inputs"):
        Dataset(ds.outputs, ds.outputs, spec, model, 7)


@pytest.mark.parametrize("shape", [(2, 2), (3, 2), (3,), (3, 3, 1)])
def test_dataset_rejects_a_centering_that_is_not_p_by_p(shape):
    model = ObservationModel("lifted_view", np.eye(3)[0])
    spec = DistributionSpec("gaussian", 3)
    ds = generate_dataset(model, spec, 20, 8)
    with pytest.raises(ConfigurationError, match="centering"):
        Dataset(ds.inputs, ds.outputs, spec, model, 8, centering=np.ones(shape))


def test_vector_dataset_has_no_lifts():
    ds = generate_dataset(ObservationModel("linear", np.ones(3)),
                          DistributionSpec("gaussian", 3), 5, 9)
    assert not ds.lifted
    with pytest.raises(ConfigurationError, match="lifted"):
        ds.lifts()


def test_model_validation():
    with pytest.raises(ConfigurationError):
        ObservationModel("single_index", np.zeros(3))
    with pytest.raises(ConfigurationError):
        ObservationModel("linear", np.ones(2), link="nope")
    with pytest.raises(ConfigurationError):
        Noise("gaussian", -1.0)
    for bad in (np.inf, np.nan):
        with pytest.raises(ConfigurationError, match="level"):
            Noise("laplace", bad)


# ---------------------------------------------------------------------------
# Target scalings
# ---------------------------------------------------------------------------

def test_mu_identity_link_is_one():
    model = ObservationModel("single_index", np.array([0.6, 0.8]), link="identity")
    spec = DistributionSpec("laplace", 2)
    mu = target_scale_mu(model, spec, 200_000, 7)
    assert mu.value == pytest.approx(1.0, abs=4 * mu.std_error + 1e-3)


def test_mu_sign_link_matches_folded_gaussian_oracle():
    # E[sign(Z) Z] = E|Z| = sqrt(2/pi); independent MC oracle cross-checks
    rng = np.random.default_rng(8)
    oracle = np.abs(rng.standard_normal(2_000_000)).mean()
    model = ObservationModel("single_index", np.array([1.0, 0.0, 0.0]),
                             link="sign")
    spec = DistributionSpec("gaussian", 3)
    mu = target_scale_mu(model, spec, 500_000, 9)
    assert mu.value == pytest.approx(np.sqrt(2.0 / np.pi), abs=0.005)
    assert mu.value == pytest.approx(oracle, abs=0.005)


def test_mu_square_link_vanishes_for_gaussian():
    model = ObservationModel("single_index", np.array([1.0, 0.0]), link="square")
    spec = DistributionSpec("gaussian", 2)
    mu = target_scale_mu(model, spec, 500_000, 10)
    assert abs(mu.value) < 4 * mu.std_error + 1e-3


def test_mu_scales_with_beta_norm():
    # mu = E[f(c Z) c Z] / c^2 for ||b0|| = c; identity link keeps mu = 1
    model = ObservationModel("single_index", np.array([3.0, 4.0]), link="identity")
    spec = DistributionSpec("gaussian", 2)
    mu = target_scale_mu(model, spec, 200_000, 11)
    assert mu.value == pytest.approx(1.0, abs=0.01)


def _mu(beta0, spec, budget, seed, link="tanh"):
    model = ObservationModel("single_index", np.asarray(beta0, dtype=float), link=link)
    return target_scale_mu(model, spec, budget, seed)


def quad_gaussian_mean(g, epsabs=0.0):
    """E[g(Z)] for standard normal Z by adaptive quadrature, split at 0."""
    def h(z):
        return g(z) * math.exp(-0.5 * z * z) / math.sqrt(2 * math.pi)
    kw = {"epsabs": epsabs, "epsrel": 1e-13, "limit": 200}
    return quad(h, -math.inf, 0.0, **kw)[0] + quad(h, 0.0, math.inf, **kw)[0]


@pytest.mark.parametrize("link", sorted(LINKS))
def test_gaussian_target_scales_match_quad_for_every_link(link):
    # a 1-dimensional gaussian spec of scale s and b0 = (1,) give
    # mu = E[f(s Z) s Z]; the lifted scale is (1/2) E[f(Z)(Z^2 - 1)]
    f = LINKS[link]
    model = ObservationModel("single_index", np.array([1.0]), link=link)
    for s in (1e-3, 0.1, 1.0, 4.0, 30.0):
        ref = quad_gaussian_mean(lambda z: float(f(s * z)) * s * z)
        mu = target_scale_mu(model, DistributionSpec("gaussian", 1, s), 1_000, 38)
        assert abs(mu.value - ref) <= 1e-12 * max(abs(ref), s * s), s
        assert (mu.std_error, mu.budget) == (0.0, 0)
    # each half of the sign link's integral is 0: an absolute error bound
    ref = quad_gaussian_mean(lambda z: 0.5 * float(f(z)) * (z * z - 1.0), 1e-14)
    assert abs(lifted_target_scale(link).value - ref) <= 1e-12 * max(abs(ref), 1.0)


@pytest.mark.parametrize("budget", [1_000, MC_CHUNK + 1, 2 * MC_CHUNK + 5])
@pytest.mark.parametrize("kind", ["gaussian", "laplace"])
def test_mu_is_the_fsum_of_its_partition_sums(kind, budget):
    # the replay: each partition draws the support's Laplace coordinates as
    # target_scale_mu does, and the mean and standard error come from the
    # fsum of the partition sums; a gaussian law draws nothing and gives
    # E[tanh(s Z) s Z] / ||b0||^2 with s = 1.5 ||b0|| = 1.5 for any budget
    beta0 = np.array([0.0, 0.6, 0.0, -0.8])
    nsq = float(beta0 @ beta0)
    if kind == "gaussian":
        mu = _mu(beta0, DistributionSpec(kind, 4, 1.5), budget, 37)
        ref = quad_gaussian_mean(lambda z: math.tanh(1.5 * z) * 1.5 * z) / nsq
        assert abs(mu.value - ref) <= 1e-12 * ref
        assert (mu.std_error, mu.budget) == (0.0, 0)
        return
    sub, w = DistributionSpec(kind, 2, 1.5), beta0[[1, 3]]
    sums, sumsqs = [], []
    for child, m in partitions(budget, 37, "target-scale-mu"):
        z = sample_inputs(sub, m, np.random.default_rng(child).integers(2 ** 63)) @ w
        values = np.tanh(z) * z / nsq
        sums.append(float(values.sum()))
        sumsqs.append(float((values ** 2).sum()))
    mean = math.fsum(sums) / budget
    se = math.sqrt(max(math.fsum(sumsqs) / budget - mean ** 2, 0.0) / budget)
    assert _mu(beta0, DistributionSpec(kind, 4, 1.5), budget, 37) == \
        TargetScale(mean, se, budget)


COORDINATE_KINDS = ["gaussian", "rademacher", "laplace", "symmetric_exponential"]


@settings(max_examples=40, deadline=None)
@given(k=st.integers(1, 4), pad=st.integers(1, 6),
       kind=st.sampled_from(COORDINATE_KINDS), seed=st.integers(0, 2 ** 32 - 1))
def test_mu_depends_only_on_the_support_in_coordinate_order(k, pad, kind, seed):
    # padding b0 with zeros, then moving its coordinates to other positions
    # that keep the support in order, changes neither the draws nor the
    # weights; a permutation that reorders the support keeps only the law
    rng = np.random.default_rng(seed)
    vals = rng.uniform(0.5, 1.5, k) * rng.choice([-1.0, 1.0], k)
    p = k + pad
    base = _mu(vals, DistributionSpec(kind, k, 0.8, seed_domain="pad"), 3_000, seed)
    padded = np.concatenate([vals, np.zeros(pad)])
    spec = DistributionSpec(kind, p, 0.8, seed_domain="pad")
    assert _mu(padded, spec, 3_000, seed) == base
    perm = np.empty(p, dtype=int)
    positions = np.sort(rng.choice(p, k, replace=False))
    perm[positions] = np.arange(k)
    perm[np.setdiff1d(np.arange(p), positions)] = rng.permutation(np.arange(k, p))
    assert _mu(padded[perm], spec, 3_000, seed) == base


@pytest.mark.parametrize("base_kind", COORDINATE_KINDS)
def test_mixed_mu_equals_the_base_law_at_the_pulled_back_target(base_kind):
    # x = M z gives <x, b0> = <z, M^T b0>.  Rows 0-3 of M are half a 4 x 4
    # Hadamard matrix (orthogonal) and b0 is dyadic with b0[4] = 0, so
    # ||M^T b0|| equals ||b0|| exactly, as bitwise equality needs (mu divides
    # by ||b0||^2); M^T b0 = (0.5, 0.5, 0.5, 0) has a zero coordinate
    h = 0.5 * np.array([[1, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1],
                        [1, -1, -1, 1]], dtype=float)
    M = np.vstack([h, np.random.default_rng(3).standard_normal(4)])
    beta0 = np.array([0.75, 0.25, 0.25, -0.25, 0.0])
    pulled = M.T @ beta0
    assert pulled[3] == 0.0 and float(pulled @ pulled) == float(beta0 @ beta0)
    mixed = DistributionSpec("mixed", 5, 0.7, mixing=M, base_kind=base_kind,
                             seed_domain="pull")
    base = DistributionSpec(base_kind, 4, 0.7, seed_domain="pull")
    assert _mu(beta0, mixed, 5_000, 31) == _mu(pulled, base, 5_000, 31)


# exact coordinate variances: s^2 for rademacher, 2 s^2 for the symmetric
# exponential of scale s
@pytest.mark.parametrize("spec, variance", [
    (DistributionSpec("rademacher", 5, 1.5), 2.25),
    (DistributionSpec("symmetric_exponential", 5, 0.7), 0.98),
    (DistributionSpec("mixed", 5, 1.3, base_kind="symmetric_exponential",
                      mixing=np.random.default_rng(4).standard_normal((5, 3))),
     3.38),
])
def test_mu_identity_link_is_the_coordinate_variance(spec, variance):
    # mu = E[<z, w>^2] / ||b0||^2 = variance * ||w||^2 / ||b0||^2
    beta0 = np.array([0.3, 0.0, -1.2, 0.5, 0.0])
    w = spec.mixing.T @ beta0 if spec.kind == "mixed" else beta0
    expected = variance * float(w @ w) / float(beta0 @ beta0)
    mu = _mu(beta0, spec, 200_000, 32, link="identity")
    assert abs(mu.value - expected) <= 4 * mu.std_error


@pytest.mark.parametrize("spec", [
    DistributionSpec("gaussian", 4, 1.3),
    DistributionSpec("mixed", 4, 0.9, base_kind="gaussian",
                     mixing=np.random.default_rng(5).standard_normal((4, 6))),
])
def test_gaussian_mu_matches_the_gauss_hermite_oracle(spec, monkeypatch):
    # <x, b0> ~ N(0, s^2) with s = scale ||w||, so mu = E[tanh(s Z) s Z] /
    # ||b0||^2, here by adaptive quadrature split at 0; nothing is drawn
    beta0 = np.array([0.6, 0.0, -0.8, 0.5])
    w = spec.mixing.T @ beta0 if spec.kind == "mixed" else beta0
    s = spec.scale * float(np.linalg.norm(w))
    oracle = (quad_gaussian_mean(lambda z: math.tanh(s * z) * s * z)
              / float(beta0 @ beta0))
    calls = []
    monkeypatch.setattr(models, "sample_inputs", lambda *args: calls.append(args))
    mu = _mu(beta0, spec, 200_000, 37)
    assert abs(mu.value - oracle) <= 1e-12 * oracle
    assert calls == []


def test_mu_is_exactly_zero_when_the_mixing_annihilates_beta0():
    M = np.array([[1.0, 2.0], [-1.0, -2.0], [0.0, 3.0]])
    spec = DistributionSpec("mixed", 3, mixing=M)
    assert _mu([1.0, 1.0, 0.0], spec, 1_000, 33) == TargetScale(0.0, 0.0, 0)


def test_target_scales_reject_bad_budgets_and_dimensions():
    # a budget below 1 is an error for every law, the exact ones included
    mixed = DistributionSpec("mixed", 3, mixing=np.array([[1.0, 2.0], [-1.0, -2.0],
                                                          [0.0, 3.0]]))
    for spec, beta0 in ((DistributionSpec("gaussian", 3), [1.0, 0.0, 0.0]),
                        (DistributionSpec("laplace", 3), [1.0, 0.0, 0.0]),
                        (mixed, [1.0, 1.0, 0.0])):
        with pytest.raises(ConfigurationError, match="mc_budget"):
            _mu(beta0, spec, 0, 34)
    with pytest.raises(ConfigurationError, match="unknown link"):
        lifted_target_scale("nope")
    with pytest.raises(ConfigurationError, match="dimension"):
        _mu([1.0, 0.0], DistributionSpec("gaussian", 3), 1_000, 34)


def test_lifted_scale_identity_link_is_zero():
    assert lifted_target_scale("identity") == TargetScale(0.0, 0.0, 0)


def test_lifted_scale_square_link_is_one():
    est = lifted_target_scale("square")
    assert est.value == pytest.approx(1.0, abs=1e-12)


def test_lifted_scale_abs_link_matches_quadrature_oracle():
    oracle, _ = quad(lambda z: 0.5 * abs(z) * (z * z - 1.0) * norm.pdf(z),
                     -12, 12)
    est = lifted_target_scale("abs")
    assert oracle == pytest.approx(0.5 * np.sqrt(2.0 / np.pi), abs=1e-9)
    assert est.value == pytest.approx(oracle, abs=1e-12)


# ---------------------------------------------------------------------------
# Mismatch report
# ---------------------------------------------------------------------------

def test_mismatch_noiseless_linear_is_exact():
    beta0 = np.array([1.0, -0.5, 0.25])
    model = ObservationModel("linear", beta0)
    spec = DistributionSpec("laplace", 3)
    rep = mismatch_report(model, spec, beta0, mc_budget=50_000, seed=15)
    assert rep.sigma == 0.0
    assert rep.rho_global < 1e-12


def test_mismatch_moment_target_kills_rho():
    # isotropic inputs: the moment vector E[y x] zeroes the covariance term
    beta0 = np.array([0.8, -0.6])
    model = ObservationModel("single_index", beta0, link="tanh",
                             noise=Noise("gaussian", 0.2))
    spec = DistributionSpec("gaussian", 2)
    big = generate_dataset(model, spec, 2_000_000, 16)
    beta_star = big.inputs.T @ big.outputs / big.n
    rep = mismatch_report(model, spec, beta_star, mc_budget=400_000, seed=17)
    assert rep.rho_global < 4 * rep.mc_std_error * np.sqrt(spec.p)


def test_mismatch_single_index_scaled_target():
    beta0 = sparse_vector(10, 3, seed=5)
    model = ObservationModel("single_index", beta0, link="tanh")
    spec = DistributionSpec("gaussian", 10)
    mu = target_scale_mu(model, spec, 1_000_000, 18)
    rep = mismatch_report(model, spec, mu.value * beta0,
                          mc_budget=400_000, seed=19)
    assert rep.rho_global < 4 * rep.mc_std_error * np.sqrt(spec.p)
    assert rep.sigma > 0.0


def test_mismatch_rho_ordering():
    beta0 = np.array([0.5, 0.1, -0.2])
    model = ObservationModel("single_index", beta0, link="relu",
                             noise=Noise("laplace", 0.3))
    spec = DistributionSpec("laplace", 3)
    s = geometry.l1_ball(2.0, 3)
    rep0 = mismatch_report(model, spec, beta0, hypothesis_set=s, t=0.0,
                           mc_budget=100_000, seed=20)
    rep_t = mismatch_report(model, spec, beta0, hypothesis_set=s, t=0.5,
                            mc_budget=100_000, seed=20)
    allowance = 3 * rep0.mc_std_error * np.sqrt(spec.p)
    assert rep_t.rho_local <= rep0.rho_local + allowance
    assert rep0.rho_local <= rep0.rho_global + allowance


def test_mismatch_erm_target_has_nonpositive_local_rho():
    # expected risk minimizer on a polytope that excludes the moment vector
    spec = DistributionSpec("gaussian", 3)
    beta_star = np.array([1.5, 0.8, -0.4])
    model = ObservationModel("linear", beta_star, noise=Noise("gaussian", 0.3))
    verts = np.array([[0.5, 0, 0], [0, 0.7, 0], [0, 0, 0.6], [0.2, 0.2, 0.2]])
    s = geometry.polytope(verts)
    # dense candidate search over the simplex of weights
    rng = np.random.default_rng(21)
    big = generate_dataset(model, spec, 400_000, 22)

    def expected_risk(b):
        r = big.outputs - big.inputs @ b
        return float(r @ r) / big.n

    cands = [w @ verts for w in rng.dirichlet(np.ones(4), size=4000)]
    cands.extend(list(verts))
    # polish candidate: for isotropic inputs the minimizer is the projection
    # of the empirical moment vector onto the set
    moment = big.inputs.T @ big.outputs / big.n
    cands.append(geometry.project(s, moment))
    erm = min(cands, key=expected_risk)
    rep = mismatch_report(model, spec, erm, hypothesis_set=s, t=0.0,
                          mc_budget=400_000, seed=23)
    assert rep.rho_local <= 3 * rep.mc_std_error * np.sqrt(spec.p) + 0.02


def test_mismatch_scale_equivariance():
    # scaling y by c scales sigma and rho_global by c (paired seeds)
    beta0 = np.array([1.0, 0.4])
    spec = DistributionSpec("laplace", 2)
    base = ObservationModel("single_index", beta0, link="tanh")
    rep1 = mismatch_report(base, spec, 0.3 * beta0, mc_budget=200_000, seed=24)
    # tripled outputs on mismatch_report's own partitions (beta0 has full
    # support, so each is generate_dataset's stream): y' = 3 tanh(z), target
    # scaled alike; the draws are shared, so only rounding separates the sides
    xi3 = []
    for chunk_seed, m in partitions(200_000, 24, "mismatch"):
        ds = generate_dataset(base, spec, m, chunk_seed)
        xi3.append(3 * ds.outputs - ds.inputs @ (3 * 0.3 * beta0))
    sigma3 = psi_norm_estimate(np.concatenate(xi3), alpha=1)
    assert sigma3 == pytest.approx(3.0 * rep1.sigma, rel=1e-12)


def _full_draw_mismatch(model, spec, beta_nat, mc_budget, seed):
    """(sigma, rho_global, mc_std_error) of the full-draw estimator: every
    chunk draws all p coordinates with generate_dataset and averages x xi
    coordinate by coordinate."""
    mean_vec = np.zeros(spec.p)
    sq_vec = np.zeros(spec.p)
    xis = []
    for chunk_seed, m in partitions(mc_budget, seed, "mismatch"):
        ds = generate_dataset(model, spec, m, chunk_seed)
        xi = ds.outputs - ds.inputs @ beta_nat
        contrib = ds.inputs * xi[:, None]
        mean_vec += contrib.sum(axis=0)
        sq_vec += (contrib ** 2).sum(axis=0)
        xis.append(xi)
    mean_vec /= mc_budget
    var_vec = np.maximum(sq_vec / mc_budget - mean_vec ** 2, 0.0)
    se_vec = np.sqrt(var_vec / mc_budget)
    return (psi_norm_estimate(np.concatenate(xis), alpha=1),
            float(np.linalg.norm(mean_vec)), float(np.sqrt(np.mean(se_vec ** 2))))


def _mismatch_reference(model, spec, beta_nat, mc_budget, seed):
    """(sigma, rho_global, mc_std_error) of mismatch_report's stream, out of
    place: each chunk is generate_dataset on the sub-model (beta0 pulled
    back to the latent support T of beta0 and beta_nat) and the
    |T|-dimensional spec of the same law; x's T-part is z_T, or M_{:,T} z_T
    for a mixed spec, and the rest of x enters in closed form."""
    mixed = spec.kind == "mixed"
    M = spec.mixing
    w = M.T @ model.beta0 if mixed else model.beta0
    v = M.T @ beta_nat if mixed else beta_nat
    T = np.flatnonzero((w != 0) | (v != 0))
    kind = spec.base_kind if mixed else spec.kind
    sub_spec = DistributionSpec(kind, T.size, spec.scale,
                                seed_domain=spec.seed_domain)
    sub_model = ObservationModel(model.kind, w[T], link=model.link,
                                 noise=model.noise)
    on = np.arange(spec.p) if mixed else T
    mean_on = np.zeros(on.size)
    sq_on = np.zeros(on.size)
    xi_sq = 0.0
    xis = []
    for chunk_seed, m in partitions(mc_budget, seed, "mismatch"):
        ds = generate_dataset(sub_model, sub_spec, m, chunk_seed)
        xi = ds.outputs - ds.inputs @ v[T]
        x_on = ds.inputs @ M[:, T].T if mixed else ds.inputs
        contrib = x_on * xi[:, None]
        mean_on += contrib.sum(axis=0)
        sq_on += (contrib ** 2).sum(axis=0)
        xi_sq += float(xi @ xi)
        xis.append(xi)
    var = spec.scale ** 2  # laplace coordinates
    if mixed:
        off_latent = np.setdiff1d(np.arange(M.shape[1]), T)
        off = (M[:, off_latent] ** 2).sum(axis=1)
    else:
        off = np.ones(spec.p)
        off[T] = 0.0
    mean_vec = np.zeros(spec.p)
    mean_vec[on] = mean_on / mc_budget
    sq_vec = var * xi_sq * off
    sq_vec[on] += sq_on
    var_vec = np.maximum(sq_vec / mc_budget - mean_vec ** 2, 0.0)
    se_vec = np.sqrt(var_vec / mc_budget)
    return (psi_norm_estimate(np.concatenate(xis), alpha=1),
            float(np.linalg.norm(mean_on / mc_budget)),
            float(np.sqrt(np.mean(se_vec ** 2))))


# a mixed spec whose target leaves latent coordinates 3 and 4 off T: rows 0-1
# of M, where beta0 and beta_nat live, load only on latent coordinates 0-2
_MIXING = np.random.default_rng(36).standard_normal((6, 5))
_MIXING[:2, 3:] = 0.0
_MIXED = DistributionSpec("mixed", 6, 0.8, mixing=_MIXING, base_kind="laplace")


@pytest.mark.parametrize("budget", [5_000, MC_CHUNK + 3_000])
def test_mismatch_accumulator_matches_the_out_of_place_reference(budget):
    beta0 = np.array([0.8, 0.0, -0.6, 0.0])
    model = ObservationModel("single_index", beta0, link="tanh",
                             noise=Noise("laplace", 0.3))
    spec = DistributionSpec("laplace", 4)
    beta_nat = 0.6 * beta0
    rep = mismatch_report(model, spec, beta_nat, mc_budget=budget, seed=35)
    assert (rep.sigma, rep.rho_global, rep.mc_std_error) == \
        _mismatch_reference(model, spec, beta_nat, budget, 35)
    beta0 = np.array([0.8, -0.6, 0.0, 0.0, 0.0, 0.0])
    model = ObservationModel("single_index", beta0, link="tanh",
                             noise=Noise("laplace", 0.3))
    beta_nat = np.array([0.3, 0.2, 0.0, 0.0, 0.0, 0.0])
    rep = mismatch_report(model, _MIXED, beta_nat, mc_budget=budget, seed=35)
    assert (rep.sigma, rep.rho_global, rep.mc_std_error) == \
        _mismatch_reference(model, _MIXED, beta_nat, budget, 35)


@pytest.mark.parametrize("spec, beta0, beta_nat", [
    (DistributionSpec("laplace", 8), [0.8, 0, 0, -0.6, 0, 0, 0, 0],
     [0.4, 0, 0, -0.3, 0, 0.2, 0, 0]),
    (_MIXED, [0.8, -0.6, 0, 0, 0, 0], [0.3, 0.2, 0, 0, 0, 0]),
])
def test_mismatch_agrees_with_the_full_draw_estimator(spec, beta0, beta_nat):
    # xi has one law under both estimators, so sigma has one law too; each
    # coordinate's mean square of x xi has one expectation, sampled in full
    # by the oracle and partly in closed form by mismatch_report.  Compare
    # the means of 8 seeds of each within 4 standard errors of the gap.
    model = ObservationModel("single_index", np.array(beta0, dtype=float),
                             link="tanh", noise=Noise("laplace", 0.3))
    beta_nat = np.array(beta_nat, dtype=float)
    new = np.array([[r.sigma, r.mc_std_error] for r in (
        mismatch_report(model, spec, beta_nat, mc_budget=20_000, seed=s)
        for s in range(40, 48))])
    old = np.array([_full_draw_mismatch(model, spec, beta_nat, 20_000, s)[::2]
                    for s in range(40, 48)])
    gap = np.abs(new.mean(axis=0) - old.mean(axis=0))
    se = np.sqrt((new.var(axis=0, ddof=1) + old.var(axis=0, ddof=1)) / 8)
    assert np.all(gap <= 4 * se)


def test_mismatch_with_an_empty_latent_support_draws_the_noise_only():
    # M^T b0 = 0 and beta_nat = 0: xi = (0 + nu)^2 for a quadratic model, so
    # E[xi x] = 0 exactly and E[(x_j xi)^2] = var ||M_j||^2 E[xi^2]
    M = np.array([[1.0, 2.0], [-1.0, -2.0], [0.0, 3.0]])
    spec = DistributionSpec("mixed", 3, 0.5, mixing=M, base_kind="laplace")
    model = ObservationModel("quadratic", np.array([1.0, 1.0, 0.0]),
                             noise=Noise("gaussian", 0.4))
    rep = mismatch_report(model, spec, np.zeros(3), mc_budget=4_000, seed=38)
    xi = model.noise.draw(rng_for(derive_seed(38, "mismatch", 0), "noise"),
                          4_000) ** 2
    se = np.sqrt(0.25 * (M ** 2).sum(axis=1) * float(xi @ xi) / 4_000 / 4_000)
    assert rep.rho_global == 0.0
    assert rep.sigma == psi_norm_estimate(xi, alpha=1)
    assert rep.mc_std_error == pytest.approx(np.sqrt(np.mean(se ** 2)),
                                             rel=1e-12)


@settings(max_examples=30, deadline=None)
@given(k=st.integers(1, 4), pad=st.integers(1, 6),
       kind=st.sampled_from(COORDINATE_KINDS),
       model_kind=st.sampled_from(["linear", "single_index", "quadratic"]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_mismatch_depends_only_on_the_latent_support(k, pad, kind, model_kind,
                                                     seed):
    # zero coordinates of beta0 and beta_nat, inserted anywhere, draw
    # nothing: sigma and rho_global stay bitwise equal, and the estimated
    # E[xi x] is exactly 0 on them
    rng = np.random.default_rng(seed)
    b0 = rng.uniform(0.5, 1.5, k) * rng.choice([-1.0, 1.0], k)
    b_nat = rng.uniform(-1.0, 1.0, k) * (rng.uniform(size=k) < 0.7)
    noise = Noise("laplace", 0.2)
    spec = DistributionSpec(kind, k, 0.8, seed_domain="pad")
    base = mismatch_report(ObservationModel(model_kind, b0, link="tanh",
                                            noise=noise),
                           spec, b_nat, mc_budget=1_000, seed=seed)
    p = k + pad
    positions = np.sort(rng.choice(p, k, replace=False))
    padded0, padded_nat = np.zeros(p), np.zeros(p)
    padded0[positions], padded_nat[positions] = b0, b_nat
    model = ObservationModel(model_kind, padded0, link="tanh", noise=noise)
    spec = DistributionSpec(kind, p, 0.8, seed_domain="pad")
    rep = mismatch_report(model, spec, padded_nat, mc_budget=1_000, seed=seed)
    assert (rep.sigma, rep.rho_global) == (base.sigma, base.rho_global)
    mean_vec = _xi_moments(model, spec, padded_nat, 1_000, seed)[0]
    assert np.all(np.delete(mean_vec, positions) == 0.0)


def test_mismatch_rejects_lifted_model_by_kind():
    model = ObservationModel("lifted_view", np.array([1.0, 0.0, 0.0]))
    spec = DistributionSpec("gaussian", 3)
    with pytest.raises(ConfigurationError, match="lifted_view"):
        mismatch_report(model, spec, np.zeros(3), mc_budget=2_000, seed=26)


def test_mismatch_scale_exceeds_diameter_flag():
    beta0 = np.array([1.0, 0.0])
    model = ObservationModel("linear", beta0)
    spec = DistributionSpec("gaussian", 2)
    s = geometry.l2_ball(1.0, 2)
    rep = mismatch_report(model, spec, np.zeros(2), hypothesis_set=s, t=5.0,
                          mc_budget=10_000, seed=25)
    assert rep.scale_exceeds_diameter and rep.rho_local is None


def test_mismatch_rejects_a_direction_count_below_one():
    beta0 = np.array([1.0, 0.0])
    model = ObservationModel("linear", beta0)
    with pytest.raises(ConfigurationError, match="n_dirs"):
        mismatch_report(model, DistributionSpec("gaussian", 2), beta0,
                        hypothesis_set=geometry.l2_ball(2.0, 2), t=0.5,
                        mc_budget=2_000, seed=27, n_dirs=0)


def test_sparse_vector_properties():
    v = sparse_vector(20, 4, seed=1)
    assert np.count_nonzero(v) == 4
    assert np.linalg.norm(v) == pytest.approx(1.0)
    v1 = sparse_vector(20, 4, seed=1, norm="l1")
    assert np.abs(v1).sum() == pytest.approx(1.0)
    with pytest.raises(ConfigurationError):
        sparse_vector(3, 4, seed=0)
    for norm in ("L2", "l3", "linf", ""):  # "L2" used to normalize in l1
        with pytest.raises(ConfigurationError, match="norm must be 'l1' or 'l2'"):
            sparse_vector(20, 4, seed=1, norm=norm)
