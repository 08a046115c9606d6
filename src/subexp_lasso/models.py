"""Observation models, dataset generation, and mismatch diagnostics.

Datasets tie together an input law and an output rule.  The mismatch report
measures how far a candidate target vector is from explaining the outputs
linearly: the deviation (psi_1 proxy of y - <x, beta>), the global covariance
||E[(y - <x, beta>) x]||_2, and its local variant over feasible directions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache
from typing import Optional

import numpy as np

from . import geometry
from .distributions import (DistributionSpec, coordinate_variance, laplace_draws,
                            psi_norm_estimate, sample_inputs,
                            second_moment_matrix)
from .errors import ConfigurationError
from .seeding import derive_seed, partitions, rng_for

MODEL_KINDS = ("linear", "single_index", "quadratic", "lifted_view")

LINKS = {
    "identity": lambda z: z,
    "sign": np.sign,
    "tanh": np.tanh,
    "relu": lambda z: np.maximum(z, 0.0),
    "square": lambda z: z ** 2,
    "cube": lambda z: z ** 3,
    "abs": np.abs,
}

_SIGMA_SAMPLE_CAP = 2_000_000


@dataclass(frozen=True)
class Noise:
    kind: str = "none"  # none | gaussian | laplace
    level: float = 0.0  # std for gaussian, scale b for laplace

    def __post_init__(self):
        if self.kind not in ("none", "gaussian", "laplace"):
            raise ConfigurationError(f"unknown noise kind {self.kind!r}")
        if not (np.isfinite(self.level) and self.level >= 0):
            raise ConfigurationError(
                f"level must be finite and nonnegative, got {self.level!r}")

    def draw(self, rng: np.random.Generator, n: int) -> np.ndarray:
        if self.kind == "none" or self.level == 0.0:
            return np.zeros(n)
        if self.kind == "gaussian":
            return self.level * rng.standard_normal(n)
        return laplace_draws(rng, n, self.level)


@dataclass(frozen=True)
class ObservationModel:
    """Output rule y | x.

    linear:        y = <x, beta0> + noise
    single_index:  y = f(<x, beta0>) + noise
    quadratic:     y = (<x, beta0> + noise)^2      (noise inside the square)
    lifted_view:   quadratic outputs paired with centered rank-one lifts
                   x x^T - E[x x^T] as inputs
    """

    kind: str
    beta0: np.ndarray = field(compare=False)
    link: str = "identity"
    noise: Noise = Noise()

    def __post_init__(self):
        if self.kind not in MODEL_KINDS:
            raise ConfigurationError(f"unknown model kind {self.kind!r}")
        if self.link not in LINKS:
            raise ConfigurationError(f"unknown link {self.link!r}")
        b = np.asarray(self.beta0, dtype=float)
        if b.ndim != 1 or b.size < 1:
            raise ConfigurationError("beta0 must be a vector")
        if self.kind in ("single_index", "quadratic", "lifted_view") \
                and not np.any(b):
            raise ConfigurationError(f"beta0 must be non-zero for {self.kind}")
        object.__setattr__(self, "beta0", b)

    @property
    def p(self) -> int:
        return self.beta0.size


@dataclass
class Dataset:
    """Sampled (inputs, outputs) with provenance.

    inputs is the n x p sample.  For the lifted view, `centering` holds the
    second-moment matrix E subtracted from the lifts: the inputs the
    estimator sees are the centered rank-one lifts x_i x_i^T - E, applied by
    `forward` and `adjoint` straight from x and E and built only by `lifts`.
    """

    inputs: np.ndarray
    outputs: np.ndarray
    spec: DistributionSpec
    model: ObservationModel
    seed: int
    centering: Optional[np.ndarray] = None

    def __post_init__(self):
        if np.ndim(self.inputs) != 2:
            raise ConfigurationError(f"inputs must be an n x p array, got shape "
                                     f"{np.shape(self.inputs)}")
        if self.inputs.shape[0] != self.outputs.shape[0]:
            raise ConfigurationError("inputs/outputs row counts disagree")
        p = self.inputs.shape[1]
        if self.centering is not None and np.shape(self.centering) != (p, p):
            raise ConfigurationError(f"centering must be {p} x {p}, got shape "
                                     f"{np.shape(self.centering)}")

    @property
    def n(self) -> int:
        return self.outputs.size

    @property
    def lifted(self) -> bool:
        return self.centering is not None

    def lifts(self) -> np.ndarray:
        """The n x p x p centered lifts x_i x_i^T - E of a lifted dataset."""
        if not self.lifted:
            raise ConfigurationError("lifts() needs a lifted dataset")
        x = self.inputs
        return x[:, :, None] * x[:, None, :] - self.centering

    def forward(self, beta) -> np.ndarray:
        """The linear predictions <input_i, beta>: X beta, or for the lifted
        view x_i^T B x_i - <E, B> with B = beta as a p x p matrix."""
        x = self.inputs
        b = np.asarray(beta, dtype=float)
        if self.lifted:
            B = b.reshape(x.shape[1], x.shape[1])
            return ((x @ B) * x).sum(axis=1) - float(np.sum(self.centering * B))
        return x @ b.ravel()

    def adjoint(self, r) -> np.ndarray:
        """sum_i r_i input_i: X^T r, or for the lifted view the p x p matrix
        X^T diag(r) X - (sum_i r_i) E."""
        x = self.inputs
        if self.lifted:
            return (x.T * r) @ x - float(np.sum(r)) * self.centering
        return x.T @ r


def generate_dataset(model: ObservationModel, spec: DistributionSpec, n: int,
                     seed: int) -> Dataset:
    """Deterministic dataset for (model, spec, n, seed)."""
    if model.p != spec.p:
        raise ConfigurationError("model/spec dimension mismatch")
    x = sample_inputs(spec, n, derive_seed(seed, "inputs"))
    y = _outputs(model, x @ model.beta0, seed)
    centering = lift_centering(spec) if model.kind == "lifted_view" else None
    return Dataset(x, y, spec, model, seed, centering=centering)


def _outputs(model: ObservationModel, z: np.ndarray, seed: int) -> np.ndarray:
    """The model's outputs at the indices z_i = <x_i, beta0>, with the noise
    stream of `seed`."""
    nu = model.noise.draw(rng_for(seed, "noise"), z.size)
    if model.kind == "linear":
        return z + nu
    if model.kind == "single_index":
        return LINKS[model.link](z) + nu
    return (z + nu) ** 2


def lift_centering(spec: DistributionSpec) -> np.ndarray:
    """The exact second moment E[x x^T] (var M M^T for a mixed spec)."""
    return second_moment_matrix(spec)


# ---------------------------------------------------------------------------
# Scalings of the target
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TargetScale:
    """A target scale, its standard error and its draws: (value, 0.0, 0) if exact."""
    value: float
    std_error: float
    budget: int


@cache
def _gauss_legendre_table():
    from numpy.polynomial.legendre import leggauss  # 3.6 ms: loaded on first use
    x, w = leggauss(128)
    z = 6.0 * (x + 1.0)  # [-1, 1] onto [0, 12]
    return z, 6.0 * w * np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)


def _gaussian_mean(g) -> float:
    """E[g(Z)] for standard normal Z: 128-node Gauss-Legendre on [0, 12] of
    (g(z) + g(-z)) phi(z).  The kinks of sign, relu and abs at 0 fall on an
    end of the interval, and the tail past 12 is below 1e-28."""
    z, w = _gauss_legendre_table()
    return float(w @ (g(z) + g(-z)))


def _latent_restriction(spec: DistributionSpec, *vectors):
    """(T, sub, [w_T, ...]): each b enters as <x, b> = <z_T, w_T>, w = M^T b
    for a mixed spec (x = M z) and w = b otherwise, T the union of their
    supports, z_T drawn by sub: the |T|-dimensional spec of the same law,
    scale and seed_domain (None for an empty T)."""
    mixed = spec.kind == "mixed"
    ws = [spec.mixing.T @ b if mixed else b for b in vectors]
    T = np.flatnonzero(np.any(ws, axis=0))
    sub = (DistributionSpec(spec.coordinate_kind, T.size, spec.scale,
                            seed_domain=spec.seed_domain) if T.size else None)
    return T, sub, [w[T] for w in ws]


def target_scale_mu(model: ObservationModel, spec: DistributionSpec,
                    mc_budget: int, seed: int) -> TargetScale:
    """mu = E[f(<x, b0>) <x, b0>] / ||b0||^2 for single-index models.

    Only <x, b0> = <z_S, w_S> enters, S the latent support of b0
    (`_latent_restriction`).  For gaussian coordinates (a mixed spec's base
    included) it is N(0, s^2), s = scale ||w_S||, and `_gaussian_mean` gives
    mu ||b0||^2 = E[f(s Z) s Z] within 1e-12 of max(|E[f(s Z) s Z]|, s^2) for
    every link at s in [1e-3, 30], with no draws (budget 0).  Other laws take
    the fsum of the partition sums of mc_budget draws of z_S.  Zero-padding b0
    leaves mu bitwise unchanged; an empty support gives the exact mu = 0.
    """
    if model.kind != "single_index":
        raise ConfigurationError("target_scale_mu applies to single_index models")
    if model.p != spec.p:
        raise ConfigurationError("model/spec dimension mismatch")
    parts = partitions(mc_budget, seed, "target-scale-mu")  # rejects mc_budget < 1
    f = LINKS[model.link]
    b0 = model.beta0
    nsq = float(b0 @ b0)
    _, sub, (w_s,) = _latent_restriction(spec, b0)
    if sub is None:  # <x, b0> = 0 almost surely, and f(0) * 0 = 0 for every link
        return TargetScale(0.0, 0.0, 0)
    if sub.kind == "gaussian":
        s = sub.scale * float(np.linalg.norm(w_s))
        return TargetScale(_gaussian_mean(lambda z: f(s * z) * s * z) / nsq, 0.0, 0)
    sums, sumsqs = [], []
    for child, m in parts:
        z = sample_inputs(sub, m, np.random.default_rng(child).integers(2 ** 63)) @ w_s
        values = f(z) * z / nsq
        sums.append(float(values.sum()))
        sumsqs.append(float((values ** 2).sum()))
    mean = math.fsum(sums) / mc_budget
    var = max(math.fsum(sumsqs) / mc_budget - mean ** 2, 0.0)
    return TargetScale(mean, math.sqrt(var / mc_budget), mc_budget)


def lifted_target_scale(link: str) -> TargetScale:
    """(1/2) E[f(Z)(Z^2 - 1)] for standard normal Z by `_gaussian_mean`, with no draws."""
    if link not in LINKS:
        raise ConfigurationError(f"unknown link {link!r}")
    f = LINKS[link]
    return TargetScale(0.5 * _gaussian_mean(lambda z: f(z) * (z * z - 1.0)), 0.0, 0)


# ---------------------------------------------------------------------------
# Mismatch report
# ---------------------------------------------------------------------------

@dataclass
class MismatchReport:
    sigma: float
    rho_global: float
    rho_local: Optional[float]
    mc_std_error: float
    budget: int
    directions_used: int = 0
    scale_exceeds_diameter: bool = False


def mismatch_report(model: ObservationModel, spec: DistributionSpec,
                    beta_nat, hypothesis_set=None, t: Optional[float] = None,
                    mc_budget: int = 100_000, seed: int = 0,
                    n_dirs: int = 512) -> MismatchReport:
    """Estimate the mismatch deviation/covariance of beta_nat under the model.

    Only z_T is drawn, T the latent support of beta0 and beta_nat
    (`_latent_restriction`): each of the budget's `partitions` is
    `generate_dataset`'s stream on the sub-model (beta0 pulled back to T) and
    sub-spec, the noise alone for an empty T.  The draws give the terms of
    x_T xi, x_T = z_T, or for a mixed spec the part M_{:,T} z_T of every
    coordinate.  The rest of x is centered and independent of (z_T, xi): its
    mean term is exactly 0, and E[(x_j xi)^2] gains var E[xi^2] (times
    sum_{k not in T} M_jk^2 for a mixed spec).

    rho_local is the largest <E[xi x], v> over the unit directions v that
    one call of `geometry.sample_directions` draws (the slice at distance t,
    the cone at t = 0; vertex directions included for polytopal sets): a
    lower bound, from that one sampler, on the supremum over all of them.
    """
    if model.kind == "lifted_view":
        raise ConfigurationError(f"mismatch_report needs vector inputs, not the "
                                 f"matrix lifts of model kind {model.kind!r}")
    if mc_budget < 1_000:
        raise ConfigurationError("mc_budget must be at least 1000")
    beta_nat = np.asarray(beta_nat, dtype=float)
    if beta_nat.shape != (spec.p,):
        raise ConfigurationError("beta_nat dimension mismatch")

    mean_vec, se_vec, on, xi = _xi_moments(model, spec, beta_nat, mc_budget, seed)
    mc_std_error = float(np.sqrt(np.mean(se_vec ** 2)))
    sigma = psi_norm_estimate(xi, alpha=1)
    rho_global = float(np.linalg.norm(mean_vec[on]))

    rho_local, used, exceeds = None, 0, False
    if hypothesis_set is not None and t is not None:
        dirs = geometry.sample_directions(hypothesis_set, beta_nat, t, n_dirs,
                                          derive_seed(seed, "mismatch-dirs"))
        if dirs.shape[0] == 0:
            exceeds = t > 0
        else:
            rho_local, used = float(np.max(dirs @ mean_vec)), dirs.shape[0]

    return MismatchReport(sigma=sigma, rho_global=rho_global,
                          rho_local=rho_local, mc_std_error=mc_std_error,
                          budget=mc_budget, directions_used=used,
                          scale_exceeds_diameter=exceeds)


def _xi_moments(model: ObservationModel, spec: DistributionSpec,
                beta_nat: np.ndarray, mc_budget: int, seed: int):
    """`mismatch_report`'s estimate of E[xi x] with its standard errors, the
    coordinates `on` with sampled terms (the estimate is exactly 0 off them)
    and the first _SIGMA_SAMPLE_CAP draws of xi."""
    mixed = spec.kind == "mixed"
    T, sub, (w_t, v_t) = _latent_restriction(spec, model.beta0, beta_nat)
    on = slice(None) if mixed else T
    mean_vec, sq_vec = np.zeros(spec.p), np.zeros(spec.p)
    xi_sq, xi_samples, done = 0.0, [], 0
    for chunk_seed, m in partitions(mc_budget, seed, "mismatch"):
        # the stream of generate_dataset on the sub-model and sub-spec
        z = (np.zeros((m, 0)) if sub is None
             else sample_inputs(sub, m, derive_seed(chunk_seed, "inputs")))
        xi = _outputs(model, z @ w_t, chunk_seed) - z @ v_t
        contrib = z @ spec.mixing[:, T].T if mixed else z
        contrib *= xi[:, None]
        mean_vec[on] += contrib.sum(axis=0)
        contrib *= contrib
        sq_vec[on] += contrib.sum(axis=0)
        xi_sq += float(xi @ xi)
        xi_samples.append(xi[:max(_SIGMA_SAMPLE_CAP - done, 0)])
        done += m
    var = coordinate_variance(spec.coordinate_kind, spec.scale)
    off = (np.square(np.delete(spec.mixing, T, axis=1)).sum(axis=1) if mixed
           else np.isin(np.arange(spec.p), T, invert=True))
    sq_vec += var * xi_sq * off
    mean_vec /= mc_budget
    var_vec = np.maximum(sq_vec / mc_budget - mean_vec ** 2, 0.0)
    return mean_vec, np.sqrt(var_vec / mc_budget), on, np.concatenate(xi_samples)


def sparse_vector(p: int, k: int, seed: int, norm: str = "l2") -> np.ndarray:
    """Random k-sparse vector with unit l2 (or l1) norm; a config convenience."""
    if not (1 <= k <= p):
        raise ConfigurationError("need 1 <= k <= p")
    if norm not in ("l1", "l2"):
        raise ConfigurationError(f"norm must be 'l1' or 'l2', got {norm!r}")
    rng = rng_for(seed, "sparse-vector")
    support = rng.choice(p, size=k, replace=False)
    vals = rng.standard_normal(k)
    v = np.zeros(p)
    v[support] = vals
    denom = np.linalg.norm(v) if norm == "l2" else np.abs(v).sum()
    return v / denom
