"""Measurable complexity ingredients of the error bounds.

Monte-Carlo width estimators (gaussian / exponential / empirical drivers),
small-ball and Paley-Zygmund quantities, closed-form complexity surrogates
(finite-set for polytopes and skeletons, sparse-cone, entropy-integral), and
the assembly of the sample-size condition and predicted error.  Hidden
universal constants are set to 1 throughout and recorded as such; natural
logarithms everywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from . import geometry
from .distributions import SemiNorm, sample_inputs, seminorm_rows
from .errors import ConfigurationError
from .seeding import derive_seed, rng_for

BLOCK_VALUES = 1 << 16  # values a width or small-ball block holds at once (0.5 MB)


# ---------------------------------------------------------------------------
# Width estimators
# ---------------------------------------------------------------------------

@dataclass
class WidthEstimate:
    mean: float
    std_error: float
    trials: int
    width_kind: str
    target: str


def _target_shape(target: geometry.HypothesisSet):
    if target.is_matrix_set:
        return target.p * target.p, f"{target.kind}(r={target.radius})"
    return target.p, f"{target.kind}(p={target.p})"


def _width(target: geometry.HypothesisSet, trials: int, seed: int, domain: str, driver,
           kind: Optional[str] = None, n: int = 1) -> WidthEstimate:
    """Mean and standard error of sup_v <z, v> over trials drivers z.

    driver(rng, m, dim) draws m trials' drivers, an (m, dim) array, from
    the stream "width-<domain>", in blocks of m = max(1, BLOCK_VALUES //
    (n dim)) trials for n input rows per trial (the last block holds the
    rest), so the stream is a function of the arguments alone; one
    support-function call scores a block.  kind labels the estimate.
    """
    if trials < 100:
        raise ConfigurationError("trials must be at least 100")
    dim, label = _target_shape(target)
    rng = rng_for(seed, f"width-{domain}")
    block = max(1, BLOCK_VALUES // (n * dim))
    sups = np.concatenate([geometry.support_function_rows(
        target, driver(rng, min(block, trials - start), dim))
        for start in range(0, trials, block)])
    return WidthEstimate(float(sups.mean()),
                         float(sups.std(ddof=1) / np.sqrt(trials)),
                         trials, kind or domain, label)


def gaussian_width(target: geometry.HypothesisSet, trials: int, seed: int) -> WidthEstimate:
    """Mean over trials of sup_v <g, v> with standard normal g."""
    return _width(target, trials, seed, "gaussian",
                  lambda rng, m, d: rng.standard_normal((m, d)))


def exponential_width(target: geometry.HypothesisSet, trials: int, seed: int) -> WidthEstimate:
    """Same as gaussian_width with symmetric unit-rate exponential coordinates
    (P(|Y_j| >= t) = exp(-t)), i.e. standard Laplace drivers."""
    return _width(target, trials, seed, "exponential",
                  lambda rng, m, d: rng.laplace(0.0, 1.0, size=(m, d)))


def empirical_width(target: geometry.HypothesisSet, spec, n: int, trials: int,
                    seed: int) -> WidthEstimate:
    """Mean of sup_v <(1/sqrt(n)) sum_i eps_i x_i, v> over fresh draws; a
    block of m trials draws one input seed, then its m x n signs."""
    if n < 1:
        raise ConfigurationError("n must be >= 1")
    if spec.p != _target_shape(target)[0]:
        raise ConfigurationError("spec dimension does not match the target")

    def driver(rng, m, dim):
        x = sample_inputs(spec, m * n, rng.integers(2 ** 63)).reshape(m, n, dim)
        eps = 2.0 * rng.integers(0, 2, size=(m, n)) - 1.0
        return (eps[:, None, :] @ x)[:, 0] / np.sqrt(n)

    return _width(target, trials, seed, "empirical", driver, f"empirical(n={n})", n)


# ---------------------------------------------------------------------------
# Small-ball / Paley-Zygmund report
# ---------------------------------------------------------------------------

@dataclass
class SmallBallEstimate:
    theta: float
    q_hat: float
    alpha_hat: float
    delta_hat: float
    pz_bound: float
    tau: Optional[float]
    direction_count: int
    trials: int
    q_std_error: float
    alpha_std_error: float
    delta_std_error: float
    degenerate: bool = False

    @property
    def mc_allowance(self) -> float:
        """Propagated 3-sigma slack for the tau * q_hat >= pz_bound check."""
        tau = self.tau if self.tau is not None else 0.0
        d_alpha = abs(self.q_hat / 4.0
                      - 3.0 * self.alpha_hat ** 2 / (16.0 * max(self.delta_hat, 1e-300)))
        slack = 3.0 * (tau * self.q_std_error
                       + self.alpha_std_error * d_alpha
                       + self.delta_std_error
                       * self.alpha_hat ** 3 / (16.0 * max(self.delta_hat, 1e-300) ** 2))
        return slack


def small_ball_report(spec, directions, theta_rule, trials: int,
                      seed: int) -> SmallBallEstimate:
    """Infimal margin probabilities over a finite direction list.

    theta_rule is either ("fixed", theta) or "paley_zygmund"; the latter sets
    theta = alpha_hat / 4 and reports the lower-bound certificate
    alpha^3 / (16 delta) for theta * Q_{2 theta}.  Because the infimum runs
    over a finite list, q_hat upper-bounds the true infimal probability.
    The margins <x, v> of all directions are formed for blocks of
    max(1, BLOCK_VALUES // directions) trials at a time: one pass over the
    blocks sums the moments, a second counts the hits at 2 theta, and the
    margins of the two extremal directions are formed once more for their
    standard errors.
    """
    directions = np.atleast_2d(np.asarray(directions, dtype=float))
    if directions.shape[0] == 0:
        raise ConfigurationError("directions must be non-empty")
    if directions.shape[1] != spec.p:
        raise ConfigurationError("direction dimension mismatch")
    x = sample_inputs(spec, trials, derive_seed(seed, "small-ball"))
    rows = max(1, BLOCK_VALUES // directions.shape[0])

    def summed(stat):  # the sum over the trial blocks of stat(margins)
        return sum(stat(x[i:i + rows] @ directions.T) for i in range(0, trials, rows))

    means, seconds = summed(lambda M: np.array([np.abs(M).sum(axis=0),
                                                (M * M).sum(axis=0)])) / trials
    j_alpha, j_delta = int(np.argmin(means)), int(np.argmax(seconds))
    alpha_hat, delta_hat = float(means[j_alpha]), float(seconds[j_delta])
    alpha_se = float(np.abs(x @ directions[j_alpha]).std(ddof=1) / np.sqrt(trials))
    delta_se = float(((x @ directions[j_delta]) ** 2).std(ddof=1) / np.sqrt(trials))

    if theta_rule == "paley_zygmund":
        theta = alpha_hat / 4.0
        tau = theta
    else:
        rule, theta = theta_rule
        if rule != "fixed":
            raise ConfigurationError(f"unknown theta rule {theta_rule!r}")
        theta = float(theta)
        tau = alpha_hat / 4.0 if alpha_hat > 0 else None

    q_hat = float(summed(lambda M: (np.abs(M) >= 2.0 * theta).sum(axis=0)).min() / trials)
    q_se = float(np.sqrt(max(q_hat * (1.0 - q_hat), 1.0 / trials) / trials))

    pz = alpha_hat ** 3 / (16.0 * delta_hat) if delta_hat > 0 else 0.0
    degenerate = alpha_hat <= 3.0 * alpha_se or q_hat == 0.0
    return SmallBallEstimate(theta=theta, q_hat=q_hat, alpha_hat=alpha_hat,
                             delta_hat=delta_hat, pz_bound=pz, tau=tau,
                             direction_count=directions.shape[0], trials=trials,
                             q_std_error=q_se, alpha_std_error=alpha_se,
                             delta_std_error=delta_se, degenerate=degenerate)


# ---------------------------------------------------------------------------
# Closed-form complexity surrogates
# ---------------------------------------------------------------------------

def polytope_complexity(s: geometry.HypothesisSet, profile, n: int):
    """Finite-set q/m surrogates of a polytopal set, such as a skeleton, with
    D vertices, each gamma replaced by its diameter-log bound as in
    `finite_gamma_bound`:

    q = gamma_1(e) / sqrt(n) + gamma_2(g + e) = Delta_e log D / sqrt(n) + Delta_(g+e) sqrt(log D)
    m = gamma_1(e) + gamma_2(g) = Delta_e log D + Delta_g sqrt(log D)

    Delta_(g+e) <= Delta_g + Delta_e, with equality when one vertex pair
    attains both (the l1 ball and the hypercube under a non-mixed law).  One
    `geometry.pairwise_max` call takes the three diameters, so the vertex
    list is checked for negation closure once.
    """
    if n < 1:
        raise ConfigurationError("n must be >= 1")
    verts = geometry.vertices_of(s)
    logd = np.log(verts.shape[0])
    if logd == 0.0:
        return 0.0, 0.0

    def rows(V):
        rg, re = seminorm_rows(profile.g_norm, V), seminorm_rows(profile.e_norm, V)
        return np.column_stack([re, rg, rg + re])

    de, dg, dge = geometry.pairwise_max(verts, rows)
    q = de * logd / np.sqrt(n) + dge * np.sqrt(logd)
    m = de * logd + dg * np.sqrt(logd)
    return float(q), float(m)


class RegimeBound(NamedTuple):
    value: float
    in_regime: bool


SPARSE_REGIMES = ("(2,0)", "(2,inf)", "(0,2)-m", "(0,2)-q")


def sparse_cone_bound(k: int, p: int, n: int, regime: str) -> RegimeBound:
    """Sparsity-driven complexity levels for an exactly tuned l1 ball.

    (2,0):    sqrt(k log(p/k))
    (2,inf):  sqrt(k log(p/k) log p)
    (0,2)-m:  k log(p/k)
    (0,2)-q:  (k/sqrt(n)) log(p/k) + sqrt(k log(p/k))

    Values assume k well below p; k > p/2 is flagged but still computed.
    """
    if not (1 <= k <= p):
        raise ConfigurationError("need 1 <= k <= p")
    if regime not in SPARSE_REGIMES:
        raise ConfigurationError(f"unknown regime {regime!r}")
    ratio = np.log(p / k)
    in_regime = k <= p / 2
    if regime == "(2,0)":
        val = np.sqrt(k * ratio)
    elif regime == "(2,inf)":
        val = np.sqrt(k * ratio * np.log(p))
    elif regime == "(0,2)-m":
        val = k * ratio
    else:
        if n < 1:
            raise ConfigurationError("n must be >= 1 for the (0,2)-q regime")
        val = (k / np.sqrt(n)) * ratio + np.sqrt(k * ratio)
    return RegimeBound(float(val), in_regime)


def finite_gamma_bound(points: geometry.HypothesisSet, alpha: int,
                       metric: SemiNorm) -> float:
    """Diameter-times-log-cardinality chaining surrogate for the vertices of
    a polytope: Delta_metric(points) * (log |points|)^(1/alpha); zero for
    one vertex."""
    if alpha not in (1, 2):
        raise ConfigurationError("alpha must be 1 or 2")
    pts = points.vertices  # one vertex: a diameter and a log of 0.0
    diam = geometry.pairwise_max(pts, lambda V: seminorm_rows(metric, V))
    return float(diam * np.log(pts.shape[0]) ** (1.0 / alpha))


def dudley_sparse_bound(k: int, p: int, alpha: int) -> float:
    """Entropy-integral surrogate for the k-sparse radius-3 skeleton:

    3 * int_0^1 [k (a - log eps)]^(1/alpha) d eps,  a = log(p/k) + log 9,

    in closed form: 3 k (a + 1) for alpha = 1 and
    3 sqrt(k) (sqrt(a) + (sqrt(pi)/2) e^a erfc(sqrt(a))) for alpha = 2,
    where e^a = 9 p / k.
    """
    if not (1 <= k <= p):
        raise ConfigurationError("need 1 <= k <= p")
    if alpha not in (1, 2):
        raise ConfigurationError("alpha must be 1 or 2")
    a = math.log(p / k) + math.log(9.0)
    if alpha == 1:
        return 3.0 * k * (a + 1.0)
    tail = 0.5 * math.sqrt(math.pi) * (9.0 * p / k) * math.erfc(math.sqrt(a))
    return 3.0 * math.sqrt(k) * (math.sqrt(a) + tail)


# ---------------------------------------------------------------------------
# Bound assembly
# ---------------------------------------------------------------------------

@dataclass
class BoundAssembly:
    q_proxy: float
    m_proxy: float
    q_provenance: str
    m_provenance: str
    tau: float
    q_smallball: float
    u: float
    n: int
    sigma: float
    rho: float
    version: str
    n_required: float
    predicted_error: float
    degenerate: bool = False


def assemble_bound(q_proxy: float, m_proxy: float,
                   smallball: SmallBallEstimate, u: float, n: int,
                   sigma: float, rho_local: float, version: str,
                   q_provenance: str = "caller",
                   m_provenance: str = "caller") -> BoundAssembly:
    """Evaluate the sample-size condition and predicted error level, with
    every hidden universal constant set to 1.

    local:  n_required = ((q + tau u) / (tau qhat))^2
            error      = [rho_t + u^2 sigma m / sqrt(n)]_+ / (tau qhat)^2
    global: n_required as above with the global q proxy
            error      = max{1, (tau qhat)^-2} [rho_0 + max{1, u^2 sigma} sqrt(m) / n^(1/4)]_+
    """
    if u < 8:
        raise ConfigurationError("the confidence parameter u must be at least 8")
    if version not in ("local", "global"):
        raise ConfigurationError(f"unknown version {version!r}")
    if n < 1:
        raise ConfigurationError("n must be >= 1")
    tau = smallball.tau
    if smallball.degenerate or tau is None or tau * smallball.q_hat == 0:
        return BoundAssembly(q_proxy, m_proxy, q_provenance, m_provenance,
                             tau=0.0, q_smallball=smallball.q_hat, u=u, n=n,
                             sigma=sigma, rho=rho_local, version=version,
                             n_required=np.inf, predicted_error=np.inf,
                             degenerate=True)
    tq = tau * smallball.q_hat
    n_required = ((q_proxy + tau * u) / tq) ** 2
    if version == "local":
        err = max(rho_local + u ** 2 * sigma * m_proxy / np.sqrt(n), 0.0) / tq ** 2
    else:
        err = max(1.0, tq ** -2) * max(
            rho_local + max(1.0, u ** 2 * sigma) * np.sqrt(m_proxy) / n ** 0.25, 0.0)
    return BoundAssembly(q_proxy, m_proxy, q_provenance, m_provenance,
                         tau=tau, q_smallball=smallball.q_hat, u=u, n=n,
                         sigma=sigma, rho=rho_local, version=version,
                         n_required=float(n_required), predicted_error=float(err))
