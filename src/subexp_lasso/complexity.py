"""Measurable complexity ingredients of the error bounds.

Monte-Carlo width estimators (gaussian / exponential / empirical drivers),
small-ball and Paley-Zygmund quantities, closed-form complexity surrogates
(polytope, sparse-cone, finite-set, entropy-integral), and the assembly of
the sample-size condition and predicted error.  Hidden universal constants
are set to 1 throughout and recorded as such; natural logarithms everywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Union

import numpy as np

from . import geometry
from .distributions import SemiNorm, seminorm_rows
from .errors import ConfigurationError
from .seeding import derive_seed, rng_for

Target = Union[geometry.Skeleton, geometry.HypothesisSet]


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


def _target_shape(target: Target):
    if isinstance(target, geometry.Skeleton):
        return target.points.shape[1], f"skeleton[{target.covered_set}]"
    if target.is_matrix_set:
        return target.p * target.p, f"{target.kind}(r={target.radius})"
    return target.p, f"{target.kind}(p={target.p})"


def _sup_linear(target: Target, z: np.ndarray) -> float:
    if isinstance(target, geometry.Skeleton):
        return float(np.max(target.points @ z))
    if target.is_matrix_set:
        return geometry.support_function(target, z.reshape(target.p, target.p))
    return geometry.support_function(target, z)


def _width(target: Target, trials: int, seed: int, kind: str,
           driver) -> WidthEstimate:
    if trials < 100:
        raise ValueError("trials must be at least 100")
    dim, label = _target_shape(target)
    rng = rng_for(seed, f"width-{kind}")
    sups = np.empty(trials)
    for i in range(trials):
        sups[i] = _sup_linear(target, driver(rng, dim))
    return WidthEstimate(float(sups.mean()),
                         float(sups.std(ddof=1) / np.sqrt(trials)),
                         trials, kind, label)


def gaussian_width(target: Target, trials: int, seed: int) -> WidthEstimate:
    """Mean over trials of sup_v <g, v> with standard normal g."""
    return _width(target, trials, seed, "gaussian",
                  lambda rng, d: rng.standard_normal(d))


def exponential_width(target: Target, trials: int, seed: int) -> WidthEstimate:
    """Same as gaussian_width with symmetric unit-rate exponential coordinates
    (P(|Y_j| >= t) = exp(-t)), i.e. standard Laplace drivers."""
    return _width(target, trials, seed, "exponential",
                  lambda rng, d: rng.laplace(0.0, 1.0, size=d))


def empirical_width(target: Target, spec, n: int, trials: int,
                    seed: int) -> WidthEstimate:
    """Mean of sup_v <(1/sqrt(n)) sum_i eps_i x_i, v> over fresh draws."""
    from .distributions import sample_inputs  # local to avoid cycle at import

    if trials < 100:
        raise ValueError("trials must be at least 100")
    if n < 1:
        raise ValueError("n must be >= 1")
    dim, label = _target_shape(target)
    if spec.p != dim:
        raise ConfigurationError("spec dimension does not match the target")
    rng = rng_for(seed, "width-empirical")
    sups = np.empty(trials)
    for i in range(trials):
        x = sample_inputs(spec, n, rng.integers(2 ** 63))
        eps = 2.0 * rng.integers(0, 2, size=n) - 1.0
        h = (eps @ x) / np.sqrt(n)
        sups[i] = _sup_linear(target, h)
    return WidthEstimate(float(sups.mean()),
                         float(sups.std(ddof=1) / np.sqrt(trials)),
                         trials, f"empirical(n={n})", label)


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
    """
    from .distributions import sample_inputs

    directions = np.atleast_2d(np.asarray(directions, dtype=float))
    if directions.shape[0] == 0:
        raise ConfigurationError("directions must be non-empty")
    if directions.shape[1] != spec.p:
        raise ConfigurationError("direction dimension mismatch")
    x = sample_inputs(spec, trials, derive_seed(seed, "small-ball"))
    margins = x @ directions.T  # trials x m
    abs_m = np.abs(margins)

    means = abs_m.mean(axis=0)
    j_alpha = int(np.argmin(means))
    alpha_hat = float(means[j_alpha])
    alpha_se = float(abs_m[:, j_alpha].std(ddof=1) / np.sqrt(trials))

    seconds = (margins ** 2).mean(axis=0)
    j_delta = int(np.argmax(seconds))
    delta_hat = float(seconds[j_delta])
    delta_se = float((margins[:, j_delta] ** 2).std(ddof=1) / np.sqrt(trials))

    if theta_rule == "paley_zygmund":
        theta = alpha_hat / 4.0
        tau = theta
    else:
        rule, theta = theta_rule
        if rule != "fixed":
            raise ConfigurationError(f"unknown theta rule {theta_rule!r}")
        theta = float(theta)
        tau = alpha_hat / 4.0 if alpha_hat > 0 else None

    hits = abs_m >= 2.0 * theta
    q_per_dir = hits.mean(axis=0)
    j_q = int(np.argmin(q_per_dir))
    q_hat = float(q_per_dir[j_q])
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

def _profile_diameters(vertices: np.ndarray, g: SemiNorm, e: SemiNorm):
    """Pairwise diameters of a vertex list under the profile semi-norms."""
    return (geometry.pairwise_max(vertices, lambda V: seminorm_rows(g, V)),
            geometry.pairwise_max(vertices, lambda V: seminorm_rows(e, V)))


def polytope_complexity(s: geometry.HypothesisSet, profile, n: int):
    """Vertex-count complexity surrogates for a polytopal set:

    q = Delta_e log D / sqrt(n) + (Delta_g + Delta_e) sqrt(log D)
    m = Delta_e log D + Delta_g sqrt(log D)
    """
    verts = geometry.vertices_of(s)
    D = verts.shape[0]
    if D < 1:
        raise ConfigurationError("polytope needs at least one vertex")
    if n < 1:
        raise ConfigurationError("n must be >= 1")
    logd = np.log(D)
    if logd == 0.0:
        return 0.0, 0.0
    dg, de = _profile_diameters(verts, profile.g_norm, profile.e_norm)
    q = de * logd / np.sqrt(n) + (dg + de) * np.sqrt(logd)
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


def finite_gamma_bound(points: geometry.Skeleton, alpha: int,
                       metric: SemiNorm) -> float:
    """Diameter-times-log-cardinality chaining surrogate for a finite set:
    Delta_metric(points) * (log |points|)^(1/alpha); zero for singletons."""
    if alpha not in (1, 2):
        raise ValueError("alpha must be 1 or 2")
    pts = points.points
    m = pts.shape[0]
    if m < 1:
        raise ConfigurationError("skeleton must be non-empty")
    if m == 1:
        return 0.0
    diam = _skeleton_diameter(points, lambda V: seminorm_rows(metric, V))
    return float(diam * np.log(m) ** (1.0 / alpha))


def _skeleton_diameter(skeleton: geometry.Skeleton, rows_fn) -> float:
    """max over point pairs of rows_fn(difference), for a row semi-norm."""
    if skeleton.symmetric:
        # for symmetric lists the diameter is attained at antipodal pairs
        return 2.0 * float(rows_fn(skeleton.points).max())
    return geometry.pairwise_max(skeleton.points, rows_fn)


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
        raise ValueError("alpha must be 1 or 2")
    a = math.log(p / k) + math.log(9.0)
    if alpha == 1:
        return 3.0 * k * (a + 1.0)
    tail = 0.5 * math.sqrt(math.pi) * (9.0 * p / k) * math.erfc(math.sqrt(a))
    return 3.0 * math.sqrt(k) * (math.sqrt(a) + tail)


def skeleton_q_m_proxies(skeleton: geometry.Skeleton, profile, n: int):
    """Finite-set q/m surrogates of a skeleton under a profile:

    q = gamma_1(e) / sqrt(n) + gamma_2(g + e)
    m = gamma_1(e) + gamma_2(g)

    with each gamma replaced by its diameter-log bound.
    """
    if n < 1:
        raise ConfigurationError("n must be >= 1")
    m_count = skeleton.points.shape[0]
    if m_count <= 1:
        return 0.0, 0.0
    g1_e = finite_gamma_bound(skeleton, 1, profile.e_norm)
    g2_g = finite_gamma_bound(skeleton, 2, profile.g_norm)
    logm = np.log(m_count)
    g, e = profile.g_norm, profile.e_norm
    diam_ge = _skeleton_diameter(
        skeleton, lambda V: seminorm_rows(g, V) + seminorm_rows(e, V))
    g2_ge = diam_ge * np.sqrt(logm)
    q = g1_e / np.sqrt(n) + g2_ge
    m = g1_e + g2_g
    return float(q), float(m)


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
    constants_convention: str = "all hidden universal constants = 1"
    degenerate: bool = False


def assemble_bound(q_proxy: float, m_proxy: float,
                   smallball: SmallBallEstimate, u: float, n: int,
                   sigma: float, rho_local: float, version: str,
                   q_provenance: str = "caller",
                   m_provenance: str = "caller") -> BoundAssembly:
    """Evaluate the sample-size condition and predicted error level.

    local:  n_required = ((q + tau u) / (tau qhat))^2
            error      = [rho_t + u^2 sigma m / sqrt(n)]_+ / (tau qhat)^2
    global: n_required as above with the global q proxy
            error      = max{1, (tau qhat)^-2} [rho_0 + max{1, u^2 sigma} sqrt(m) / n^(1/4)]_+
    """
    if u < 8:
        raise ValueError("the confidence parameter u must be at least 8")
    if version not in ("local", "global"):
        raise ConfigurationError(f"unknown version {version!r}")
    if n < 1:
        raise ConfigurationError("n must be >= 1")
    if smallball.degenerate or smallball.tau is None:
        return BoundAssembly(q_proxy, m_proxy, q_provenance, m_provenance,
                             tau=0.0, q_smallball=smallball.q_hat, u=u, n=n,
                             sigma=sigma, rho=rho_local, version=version,
                             n_required=np.inf, predicted_error=np.inf,
                             degenerate=True)
    tau = smallball.tau
    tq = tau * smallball.q_hat
    if tq == 0.0:
        return BoundAssembly(q_proxy, m_proxy, q_provenance, m_provenance,
                             tau=tau, q_smallball=smallball.q_hat, u=u, n=n,
                             sigma=sigma, rho=rho_local, version=version,
                             n_required=np.inf, predicted_error=np.inf,
                             degenerate=True)
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
