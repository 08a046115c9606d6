"""Input-vector laws, their two-sided tail profiles, and tail diagnostics.

Every supported law is centered and comes with an analytically derived
mixed gaussian/exponential tail bound on all marginals <x, v>:

    P(|<x, v>| >= t) <= 2 exp(-min{t^2 / g(v)^2, t / e(v)})

where g and e are scaled semi-norms.  The scales shipped by `profile_for`
are exact (Chernoff-derived) per law, so the bound holds with multiplier 1;
an extra multiplier can be applied for looser conventions, and
`verify_bernstein_tail` reports the smallest multiplier that would make the
bound hold on data.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import ConfigurationError
from .seeding import derive_seed, rng_for

KINDS = ("gaussian", "rademacher", "laplace", "symmetric_exponential", "mixed")

DEFAULT_Q_GRID = (1.0, 2.0, 4.0, 8.0, 16.0)

# proxy -> true Orlicz-norm calibration for the sub-exponential catalog; the
# ratio is exactly 2 for Laplace/exponential coordinates and below 2 for the
# lighter members (gaussian 1.72, rademacher 1.45).
PSI1_PROXY_TO_ORLICZ = 2.0


# ---------------------------------------------------------------------------
# Distribution specification and sampling
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DistributionSpec:
    """Declarative description of an input-vector law.

    kind         one of KINDS
    p            ambient dimension
    scale        per-coordinate scale multiplier (see `unit_variance_scale`)
    mixing       optional p x d matrix M; rows of the sample are M z with z
                 drawn coordinate-wise from `base_kind` (kind="mixed" only)
    base_kind    latent coordinate law for kind="mixed"
    seed_domain  label folded into child-seed derivation
    """

    kind: str
    p: int
    scale: float = 1.0
    mixing: Optional[np.ndarray] = field(default=None, compare=False)
    base_kind: str = "laplace"
    seed_domain: str = "inputs"

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigurationError(f"unknown distribution kind {self.kind!r}")
        if self.p < 1:
            raise ConfigurationError("dimension p must be >= 1")
        if not (self.scale > 0):
            raise ConfigurationError("scale must be positive")
        if self.kind == "mixed":
            if self.mixing is None:
                raise ConfigurationError("kind='mixed' requires a mixing matrix")
            M = np.asarray(self.mixing, dtype=float)
            if M.ndim != 2 or M.shape[0] != self.p or M.shape[1] < 1:
                raise ConfigurationError("mixing matrix must be p x d with d >= 1")
            if self.base_kind not in ("gaussian", "rademacher", "laplace",
                                      "symmetric_exponential"):
                raise ConfigurationError(
                    f"unsupported base kind {self.base_kind!r} for mixed spec")
            object.__setattr__(self, "mixing", M)
        elif self.mixing is not None:
            raise ConfigurationError("mixing matrix is only valid for kind='mixed'")

    @property
    def latent_dim(self) -> int:
        return self.mixing.shape[1] if self.kind == "mixed" else self.p


def unit_variance_scale(kind: str) -> float:
    """Scale that makes a single coordinate of `kind` have unit variance."""
    if kind == "symmetric_exponential":
        return 1.0 / np.sqrt(2.0)
    if kind in ("gaussian", "rademacher", "laplace"):
        return 1.0
    raise ConfigurationError(f"no unit-variance convention for kind {kind!r}")


def second_moment_matrix(spec: DistributionSpec) -> np.ndarray:
    """Exact E[x x^T] for the given spec."""
    var = coordinate_variance(spec.base_kind if spec.kind == "mixed" else spec.kind,
                              spec.scale)
    if spec.kind == "mixed":
        M = spec.mixing
        return var * (M @ M.T)
    return var * np.eye(spec.p)


def coordinate_variance(kind: str, scale: float) -> float:
    if kind in ("gaussian", "rademacher", "laplace"):
        return scale ** 2
    if kind == "symmetric_exponential":
        return 2.0 * scale ** 2
    raise ConfigurationError(f"unknown coordinate kind {kind!r}")


def _draw_coordinates(rng: np.random.Generator, kind: str, scale: float,
                      shape) -> np.ndarray:
    if kind == "gaussian":
        return scale * rng.standard_normal(shape)
    if kind == "rademacher":
        return scale * (2.0 * rng.integers(0, 2, size=shape) - 1.0)
    if kind == "laplace":
        # Laplace(b) with b = scale / sqrt(2), so variance scale^2.
        return rng.laplace(loc=0.0, scale=scale / np.sqrt(2.0), size=shape)
    if kind == "symmetric_exponential":
        signs = 2.0 * rng.integers(0, 2, size=shape) - 1.0
        return scale * signs * rng.standard_exponential(shape)
    raise ConfigurationError(f"unknown coordinate kind {kind!r}")


def sample_inputs(spec: DistributionSpec, n: int, seed: int) -> np.ndarray:
    """n x p matrix of independent draws; bitwise-deterministic in (spec, n, seed).

    The spec's seed_domain label is folded into the stream derivation, so
    specs with different labels draw from unrelated streams at equal seeds.
    """
    if n < 1:
        raise ConfigurationError("n must be >= 1")
    rng = np.random.default_rng(derive_seed(seed, spec.seed_domain))
    if spec.kind == "mixed":
        z = _draw_coordinates(rng, spec.base_kind, spec.scale, (n, spec.latent_dim))
        return z @ spec.mixing.T
    return _draw_coordinates(rng, spec.kind, spec.scale, (n, spec.p))


# ---------------------------------------------------------------------------
# Semi-norms and concentration profiles
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SemiNorm:
    """Scaled semi-norm descriptor: value(v) = c * base_norm(T v).

    kind: zero | euclidean | infinity | mt_euclidean | mt_infinity |
          frobenius | operator.  The mt_* kinds apply M^T before the base
          norm; frobenius/operator act on square matrices (flat vectors of
          length p^2 are reshaped).
    """

    kind: str
    c: float = 1.0
    matrix: Optional[np.ndarray] = field(default=None, compare=False)

    def __post_init__(self):
        if self.kind not in ("zero", "euclidean", "infinity", "mt_euclidean",
                             "mt_infinity", "frobenius", "operator"):
            raise ConfigurationError(f"unknown semi-norm kind {self.kind!r}")
        if self.c < 0:
            raise ConfigurationError("semi-norm scale must be nonnegative")
        if self.kind.startswith("mt_") and self.matrix is None:
            raise ConfigurationError(f"{self.kind} requires a matrix")

    @property
    def is_zero(self) -> bool:
        return self.kind == "zero" or self.c == 0.0


def zero_norm() -> SemiNorm:
    return SemiNorm("zero", 0.0)


def euclidean_scaled(c: float) -> SemiNorm:
    return SemiNorm("euclidean", c)


def infinity_scaled(c: float) -> SemiNorm:
    return SemiNorm("infinity", c)


def mt_euclidean(M: np.ndarray, c: float) -> SemiNorm:
    return SemiNorm("mt_euclidean", c, np.asarray(M, dtype=float))


def mt_infinity(M: np.ndarray, c: float) -> SemiNorm:
    return SemiNorm("mt_infinity", c, np.asarray(M, dtype=float))


def frobenius_scaled(c: float) -> SemiNorm:
    return SemiNorm("frobenius", c)


def operator_scaled(c: float) -> SemiNorm:
    return SemiNorm("operator", c)


def seminorm_rows(descriptor: SemiNorm, V) -> np.ndarray:
    """Semi-norm of each row of the 2-D array V.

    The mt_* kinds apply one V @ M; frobenius/operator reshape each row of
    length p^2 to a p x p matrix.
    """
    V = np.asarray(V, dtype=float)
    kind = descriptor.kind
    if kind == "zero":
        return np.zeros(V.shape[0])
    if kind in ("frobenius", "operator"):
        side = int(round(np.sqrt(V.shape[1])))
        if side * side != V.shape[1]:
            raise ConfigurationError("matrix semi-norm needs a square-shaped input")
        mats = V.reshape(-1, side, side)
        return descriptor.c * np.linalg.norm(
            mats, "fro" if kind == "frobenius" else 2, axis=(1, 2))
    if kind.startswith("mt_"):
        if descriptor.matrix.shape[0] != V.shape[1]:
            raise ConfigurationError("mixing matrix / vector dimension mismatch")
        V = V @ descriptor.matrix
    if kind.endswith("euclidean"):
        return descriptor.c * np.linalg.norm(V, axis=1)
    return descriptor.c * np.abs(V).max(axis=1, initial=0.0)


def seminorm_eval(descriptor: SemiNorm, v) -> float:
    """Evaluate a semi-norm descriptor; absolutely homogeneous by construction."""
    v = np.asarray(v, dtype=float)
    if descriptor.kind not in ("zero", "frobenius", "operator") and v.ndim != 1:
        raise ConfigurationError("vector semi-norm applied to a non-vector")
    return float(seminorm_rows(descriptor, v.reshape(1, -1))[0])


@dataclass(frozen=True)
class ConcentrationProfile:
    """Pair of semi-norms (g, e) driving the two-sided marginal tail bound.

    constants_convention records the multiplier applied on top of the
    per-law analytic scales (1.0 = the scales as derived).
    """

    g_norm: SemiNorm
    e_norm: SemiNorm
    constants_convention: float = 1.0

    def __post_init__(self):
        if self.g_norm.is_zero and self.e_norm.is_zero:
            raise ConfigurationError("at least one of g/e must be non-zero")

    def tail_bound(self, v, t: float) -> float:
        """2 exp(-min{t^2/g(v)^2, t/e(v)}) with the 0-denominator conventions."""
        g = seminorm_eval(self.g_norm, v)
        e = seminorm_eval(self.e_norm, v)
        return mixed_tail_bound(g, e, t)


def mixed_tail_bound(g: float, e: float, t: float) -> float:
    if t < 0:
        raise ValueError("threshold must be nonnegative")
    if t == 0.0:
        return 2.0
    term_g = (t / g) ** 2 if g > 0 else np.inf
    term_e = t / e if e > 0 else np.inf
    exponent = min(term_g, term_e)
    if exponent == np.inf:
        return 0.0
    return 2.0 * np.exp(-exponent)


# Tail scales per coordinate law, derived from exact Chernoff bounds so the
# two-sided inequality holds with multiplier 1:
#   gaussian    P(|N(0,s^2)| >= t) <= 2 exp(-t^2 / (2 s^2))
#   rademacher  weighted-sum Hoeffding with the sharp 1/2 constant
#   laplace(b)  mgf 1/(1-l^2 b^2): (g, e) = (sqrt(8) b, 2 sqrt(2) b)
def _base_tail_scales(kind: str, scale: float) -> tuple[float, float]:
    if kind == "gaussian" or kind == "rademacher":
        return np.sqrt(2.0) * scale, 0.0
    if kind == "laplace":
        b = scale / np.sqrt(2.0)
        return np.sqrt(8.0) * b, 2.0 * np.sqrt(2.0) * b
    if kind == "symmetric_exponential":
        b = scale
        return np.sqrt(8.0) * b, 2.0 * np.sqrt(2.0) * b
    raise ConfigurationError(f"unknown coordinate kind {kind!r}")


def profile_for(spec: DistributionSpec, multiplier: float = 1.0,
                uniform_subexp: bool = False) -> ConcentrationProfile:
    """Tail profile matching the spec.

    gaussian / rademacher      -> (euclidean, zero)
    laplace / symmetric_exp    -> (euclidean, infinity)
    mixed                      -> base scales behind ||M^T .||_2 / ||M^T .||_inf
    uniform_subexp=True        -> (zero, euclidean) with an estimated uniform
                                  psi_1 scale: the pure-exponential reading.
    """
    if multiplier <= 0:
        raise ConfigurationError("multiplier must be positive")
    if uniform_subexp:
        kappa = uniform_psi1_scale(spec)
        return ConcentrationProfile(zero_norm(),
                                    euclidean_scaled(multiplier * kappa),
                                    constants_convention=multiplier)
    if spec.kind == "mixed":
        g, e = _base_tail_scales(spec.base_kind, spec.scale)
        g_norm = mt_euclidean(spec.mixing, multiplier * g)
        e_norm = mt_infinity(spec.mixing, multiplier * e) if e > 0 else zero_norm()
        return ConcentrationProfile(g_norm, e_norm, constants_convention=multiplier)
    g, e = _base_tail_scales(spec.kind, spec.scale)
    g_norm = euclidean_scaled(multiplier * g)
    e_norm = infinity_scaled(multiplier * e) if e > 0 else zero_norm()
    return ConcentrationProfile(g_norm, e_norm, constants_convention=multiplier)


def lifted_profile(spec: DistributionSpec, multiplier: float = 1.0) -> ConcentrationProfile:
    """(Frobenius, operator) profile for centered rank-one lifts x x^T - E.

    Valid for sub-gaussian coordinate laws.  The scale 4 s^2 comes from the
    chi-square style deviation bound
      P(|x^T B x - E| >= u) <= 2 exp(-min{u^2/(16 s^4 |B|_F^2), u/(4 s^2 |B|_op)}).
    """
    base = spec.base_kind if spec.kind == "mixed" else spec.kind
    if base not in ("gaussian", "rademacher"):
        raise ConfigurationError(
            "lifted profile requires sub-gaussian coordinates (gaussian/rademacher)")
    c = multiplier * 4.0 * spec.scale ** 2
    return ConcentrationProfile(frobenius_scaled(c), operator_scaled(c),
                                constants_convention=multiplier)


def uniform_psi1_scale(spec: DistributionSpec, budget: int = 100_000,
                       directions: int = 64, seed: int = 0) -> float:
    """Estimated uniform psi_1 scale sup_v ||<x, v>||_psi1 over unit directions.

    Moment-proxy maximum over axes plus random directions, times the
    proxy-to-Orlicz factor calibrated on the shipped catalog (exact for
    exponential-type coordinates).
    """
    rng = rng_for(seed, f"{spec.seed_domain}:psi1-directions")
    dirs = rng.standard_normal((directions, spec.p))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    dirs = np.vstack([np.eye(spec.p), dirs])
    x = sample_inputs(spec, budget, rng_for(seed, f"{spec.seed_domain}:psi1-samples").integers(2 ** 63))
    margins = x @ dirs.T
    best = max(psi_norm_estimate(margins[:, j], alpha=1).value
               for j in range(dirs.shape[0]))
    return PSI1_PROXY_TO_ORLICZ * best


# ---------------------------------------------------------------------------
# Orlicz-norm moment proxies
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OrliczEstimate:
    alpha: int
    value: float
    q_grid: tuple
    sample_count: int


def psi_norm_estimate(samples, alpha: int, q_grid=DEFAULT_Q_GRID) -> OrliczEstimate:
    """Moment proxy max_q (E|Z|^q)^(1/q) / q^(1/alpha); exactly homogeneous."""
    if alpha not in (1, 2):
        raise ValueError("alpha must be 1 or 2")
    samples = np.asarray(samples, dtype=float).ravel()
    if samples.size == 0:
        raise ValueError("empty sample set")
    q_grid = tuple(float(q) for q in q_grid)
    if not q_grid or min(q_grid) < 1.0:
        raise ValueError("q_grid must be a non-empty subset of [1, inf)")
    a = np.abs(samples)
    peak = a.max()
    if peak == 0.0:
        return OrliczEstimate(alpha, 0.0, q_grid, samples.size)
    best = 0.0
    # factor out the peak so high moments do not overflow
    scaled = a / peak
    for q in q_grid:
        moment = peak * np.mean(scaled ** q) ** (1.0 / q)
        best = max(best, moment / q ** (1.0 / alpha))
    return OrliczEstimate(alpha, float(best), q_grid, samples.size)


# ---------------------------------------------------------------------------
# Empirical tail verification
# ---------------------------------------------------------------------------

@dataclass
class TailReport:
    thresholds: np.ndarray
    empirical_tail: np.ndarray
    bound: np.ndarray
    violations: int
    trials: int
    profile_failure: bool = False
    calibrated_multiplier: float = 0.0


def verify_bernstein_tail(spec: DistributionSpec, profile: ConcentrationProfile,
                          v, thresholds, mc_trials: int, seed: int) -> TailReport:
    """Monte-Carlo check of the two-sided tail bound along direction v.

    A threshold counts as violated when the empirical tail exceeds the bound
    by more than three binomial standard errors.  Also reports the smallest
    semi-norm multiplier under which the bound would have held everywhere.
    """
    if mc_trials < 1_000:
        raise ValueError("mc_trials must be at least 1000")
    v = np.asarray(v, dtype=float)
    thresholds = np.sort(np.asarray(thresholds, dtype=float))
    if np.any(thresholds < 0):
        raise ValueError("thresholds must be nonnegative")

    x = sample_inputs(spec, mc_trials, seed)
    if v.ndim == 2:
        # matrix direction: margins of the centered rank-one lifts
        B = 0.5 * (v + v.T)
        quad = np.einsum("ni,ij,nj->n", x, B, x)
        margins = np.abs(quad - np.trace(second_moment_matrix(spec) @ B))
    else:
        margins = np.abs(x.reshape(mc_trials, -1) @ v.ravel())
    empirical = np.array([np.mean(margins >= t) for t in thresholds])

    g = seminorm_eval(profile.g_norm, v)
    e = seminorm_eval(profile.e_norm, v)
    bound = np.array([mixed_tail_bound(g, e, t) for t in thresholds])

    degenerate_direction = g == 0.0 and e == 0.0
    profile_failure = False
    violations = 0
    for emp, b in zip(empirical, bound):
        if degenerate_direction:
            if emp > 3.0 / mc_trials:
                profile_failure = True
            continue
        cap = min(b, 1.0)
        allowance = 3.0 * np.sqrt(cap * (1.0 - cap) / mc_trials)
        if emp > cap + allowance:
            violations += 1

    calibrated = _smallest_multiplier(thresholds, empirical, g, e)
    return TailReport(thresholds, empirical, bound, violations, mc_trials,
                      profile_failure=profile_failure,
                      calibrated_multiplier=calibrated)


def _smallest_multiplier(thresholds, empirical, g, e) -> float:
    """Smallest lam with empirical <= 2 exp(-min{t^2/(lam g)^2, t/(lam e)})."""
    lam = 0.0
    for t, emp in zip(thresholds, empirical):
        if emp <= 0.0 or t <= 0.0:
            continue
        level = -np.log(emp / 2.0)
        if level <= 0.0:
            return np.inf
        candidates = []
        if g > 0:
            candidates.append(t / (g * np.sqrt(level)))
        if e > 0:
            candidates.append(t / (e * level))
        if not candidates:
            return np.inf
        lam = max(lam, min(candidates))
    return lam


def xi_norm_concentration_check(samples) -> float:
    """||xi||_2 / (sqrt(n) * psi_1 proxy of xi), with the 0/0 := 0 convention."""
    samples = np.asarray(samples, dtype=float).ravel()
    if samples.size == 0:
        raise ValueError("empty sample set")
    norm = float(np.linalg.norm(samples))
    if norm == 0.0:
        return 0.0
    proxy = psi_norm_estimate(samples, alpha=1).value
    return norm / (np.sqrt(samples.size) * proxy)
