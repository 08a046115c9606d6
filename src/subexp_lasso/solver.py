"""Projected gradient descent for constrained least squares.

One algorithm serves both the vector estimator (over a convex hypothesis
set) and the matrix estimator (over the PSD-intersect-Frobenius-ball set,
with centered rank-one lifts as inputs).  Step size is 1/L with L estimated
by power iteration and a 1.01 safety factor, so the objective trace is
non-increasing without a line search; a backtracking rule is available.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from . import geometry
from .errors import ConfigurationError
from .models import Dataset
from .seeding import rng_for

LIPSCHITZ_SAFETY = 1.01
POWER_ITERS = 50
POWER_TOL = 1e-8


@dataclass(frozen=True)
class SolverConfig:
    max_iters: int = 20_000
    tol: float = 1e-12          # relative objective-decrease stopping threshold
    step_rule: str = "fixed_inverse_lipschitz"  # or "backtracking"
    backtrack_shrink: float = 0.5
    backtrack_slope: float = 1e-4
    restart_count: int = 1
    seed: int = 0
    track_trace: bool = False

    def __post_init__(self):
        if self.max_iters < 1:
            raise ConfigurationError("max_iters must be >= 1")
        if not (self.tol > 0):
            raise ConfigurationError("tol must be positive")
        if self.step_rule not in ("fixed_inverse_lipschitz", "backtracking"):
            raise ConfigurationError(f"unknown step rule {self.step_rule!r}")
        if self.restart_count < 1:
            raise ConfigurationError("restart_count must be >= 1")


@dataclass
class SolveResult:
    estimate: np.ndarray
    iterations: int
    objective: float
    converged: bool
    objective_trace: Optional[list] = None
    fixed_point_residual: float = np.nan


# ---------------------------------------------------------------------------
# Risk evaluation
# ---------------------------------------------------------------------------

def _design(dataset: Dataset) -> np.ndarray:
    """Inputs as an n x d matrix (lifts are flattened)."""
    if dataset.lifted:
        n = dataset.inputs.shape[0]
        return dataset.inputs.reshape(n, -1)
    return dataset.inputs


def _flat(beta) -> np.ndarray:
    return np.asarray(beta, dtype=float).ravel()


def empirical_risk(dataset: Dataset, beta) -> float:
    """(1/n) sum of squared residuals of the linear hypothesis beta."""
    X = _design(dataset)
    r = dataset.outputs - X @ _flat(beta)
    return float(r @ r) / dataset.n


def excess_decomposition(dataset: Dataset, beta, beta_nat) -> tuple[float, float]:
    """Split risk(beta) - risk(beta_nat) into its quadratic and cross terms.

    Q = (1/n) sum <x_i, beta - beta_nat>^2 >= 0
    M = (2/n) sum (<x_i, beta_nat> - y_i) <x_i, beta - beta_nat>
    and Q + M equals the excess risk identically.
    """
    X = _design(dataset)
    d = _flat(beta) - _flat(beta_nat)
    Xd = X @ d
    q = float(Xd @ Xd) / dataset.n
    resid = X @ _flat(beta_nat) - dataset.outputs
    m = 2.0 * float(resid @ Xd) / dataset.n
    return q, m


def excess_risk(dataset: Dataset, beta, beta_nat) -> float:
    q, m = excess_decomposition(dataset, beta, beta_nat)
    return q + m


# ---------------------------------------------------------------------------
# Projected gradient descent
# ---------------------------------------------------------------------------

def _lipschitz_estimate(X: np.ndarray, n: int) -> float:
    """Largest eigenvalue of (2/n) X^T X by power iteration."""
    d = X.shape[1]
    v = np.ones(d) / np.sqrt(d)
    lam = 0.0
    for _ in range(POWER_ITERS):
        w = X.T @ (X @ v)
        nrm = np.linalg.norm(w)
        if nrm == 0.0:
            return 0.0
        v_next = w / nrm
        lam_next = float(v_next @ (X.T @ (X @ v_next)))
        if abs(lam_next - lam) <= POWER_TOL * max(lam_next, 1.0):
            lam = lam_next
            break
        v, lam = v_next, lam_next
    return 2.0 * lam / n


def _shape_for(dataset: Dataset, s: geometry.HypothesisSet, flat: np.ndarray):
    return flat.reshape(s.p, s.p) if s.is_matrix_set else flat


def _pgd(dataset: Dataset, s: geometry.HypothesisSet, config: SolverConfig,
         start) -> SolveResult:
    X = _design(dataset)
    y = dataset.outputs
    n = dataset.n
    if not np.all(np.isfinite(X)) or not np.all(np.isfinite(y)):
        raise ConfigurationError("non-finite data passed to the solver")

    lip = _lipschitz_estimate(X, n)
    step = 1.0 / (LIPSCHITZ_SAFETY * lip) if lip > 0 else 1.0

    beta = _flat(start)

    def objective(b):
        r = y - X @ b
        return float(r @ r) / n

    obj = objective(beta)
    best_beta, best_obj = beta.copy(), obj
    trace = [obj] if config.track_trace else None
    converged = False
    iterations = 0

    for it in range(1, config.max_iters + 1):
        iterations = it
        grad = (2.0 / n) * (X.T @ (X @ beta - y))
        if config.step_rule == "fixed_inverse_lipschitz":
            cand = geometry.project(s, _shape_for(dataset, s, beta - step * grad))
            beta_next = _flat(cand)
            obj_next = objective(beta_next)
        else:
            eta = step if lip > 0 else 1.0
            gnorm2 = float(grad @ grad)
            while True:
                cand = geometry.project(s, _shape_for(dataset, s, beta - eta * grad))
                beta_next = _flat(cand)
                obj_next = objective(beta_next)
                if obj_next <= obj - config.backtrack_slope * eta * gnorm2 \
                        or eta < 1e-18:
                    break
                eta *= config.backtrack_shrink
        if trace is not None:
            trace.append(obj_next)
        if obj_next < best_obj:
            best_beta, best_obj = beta_next.copy(), obj_next
        decrease = obj - obj_next
        if decrease <= config.tol * max(obj, 1e-300):
            converged = True
            beta = beta_next
            break
        beta = beta_next
        obj = obj_next

    grad_best = (2.0 / n) * (X.T @ (X @ best_beta - y))
    fp_step = step if lip > 0 else 1.0
    fp = geometry.project(s, _shape_for(dataset, s, best_beta - fp_step * grad_best))
    fp_res = float(np.linalg.norm(_flat(fp) - best_beta))

    estimate = _shape_for(dataset, s, best_beta)
    if s.is_matrix_set:
        estimate = np.asarray(estimate)
    return SolveResult(estimate=estimate, iterations=iterations,
                       objective=best_obj, converged=converged,
                       objective_trace=trace, fixed_point_residual=fp_res)


def _starts(dataset: Dataset, s: geometry.HypothesisSet, config: SolverConfig):
    zero = np.zeros((s.p, s.p)) if s.is_matrix_set else np.zeros(s.p)
    yield geometry.project(s, zero)
    if config.restart_count > 1:
        rng = rng_for(config.seed, "solver-restarts")
        scale = s.radius if s.kind != "polytope" \
            else float(np.abs(s.vertices).max()) or 1.0
        for _ in range(config.restart_count - 1):
            raw = scale * rng.standard_normal(zero.shape)
            yield geometry.project(s, raw)


def solve_lasso(dataset: Dataset, s: geometry.HypothesisSet,
                config: SolverConfig = SolverConfig()) -> SolveResult:
    """Minimize the empirical risk over the hypothesis set by PGD.

    Starts at project(0) plus optional random feasible restarts; returns the
    lowest-objective iterate (earliest iteration on ties).
    """
    if s.is_matrix_set:
        raise ConfigurationError("use solve_lifted for the matrix set")
    if dataset.lifted:
        raise ConfigurationError("lifted dataset passed to solve_lasso")
    if dataset.inputs.shape[1] != s.p:
        raise ConfigurationError("set ambient dimension mismatch")
    return _best_over_starts(dataset, s, config)


def solve_lifted(dataset: Dataset, s: geometry.HypothesisSet,
                 config: SolverConfig = SolverConfig()) -> SolveResult:
    """Minimize the lifted empirical risk over a PSD/Frobenius set by PGD."""
    if not s.is_matrix_set:
        raise ConfigurationError("solve_lifted requires the lifted matrix set")
    if not dataset.lifted:
        raise ConfigurationError("solve_lifted requires a lifted dataset")
    if dataset.inputs.shape[1] != s.p:
        raise ConfigurationError("set ambient dimension mismatch")
    return _best_over_starts(dataset, s, config)


def _best_over_starts(dataset, s, config) -> SolveResult:
    best = None
    for start in _starts(dataset, s, config):
        res = _pgd(dataset, s, config, start)
        if best is None or res.objective < best.objective:
            best = res
    return best


# ---------------------------------------------------------------------------
# Rank-one extraction and sign-blind error
# ---------------------------------------------------------------------------

class Rank1(NamedTuple):
    value: float
    vector: np.ndarray
    degenerate: bool


def rank1_extract(B: np.ndarray, tol: float = 1e-10,
                  max_iter: int = 10_000) -> Rank1:
    """Top eigenpair of a symmetric PSD matrix by power iteration.

    The sign of the eigenvector is fixed by making its largest-magnitude
    coordinate positive.  A numerically zero matrix yields (0, e_1, True).
    """
    B = np.asarray(B, dtype=float)
    if B.ndim != 2 or B.shape[0] != B.shape[1]:
        raise ConfigurationError("rank1_extract needs a square matrix")
    if np.max(np.abs(B - B.T)) > 1e-10:
        B = 0.5 * (B + B.T)
    p = B.shape[0]
    scale = float(np.linalg.norm(B, "fro"))
    if scale < 1e-300:
        e1 = np.zeros(p)
        e1[0] = 1.0
        return Rank1(0.0, e1, True)
    # deterministic start biased toward the dominant column
    v = B[:, int(np.argmax(np.linalg.norm(B, axis=0)))].copy()
    if np.linalg.norm(v) == 0.0:
        v = np.ones(p)
    v /= np.linalg.norm(v)
    lam = float(v @ (B @ v))
    for _ in range(max_iter):
        w = B @ v
        nrm = np.linalg.norm(w)
        if nrm == 0.0:
            break
        v = w / nrm
        lam = float(v @ (B @ v))
        if np.linalg.norm(B @ v - lam * v) <= tol * max(scale, 1.0):
            break
    j = int(np.argmax(np.abs(v)))
    if v[j] < 0:
        v = -v
    return Rank1(max(lam, 0.0), v, False)


def trace_csv(result: SolveResult) -> str:
    """Objective trace as CSV text with columns (iteration, objective)."""
    if result.objective_trace is None:
        raise ValueError("solve was run without track_trace")
    lines = ["iteration,objective"]
    lines += [f"{i},{obj!r}" for i, obj in enumerate(result.objective_trace)]
    return "\n".join(lines) + "\n"


def sign_invariant_error(scaled_estimate, target) -> float:
    """min{||a - b||_2, ||a + b||_2}; the natural error modulo global sign."""
    a = np.asarray(scaled_estimate, dtype=float).ravel()
    b = np.asarray(target, dtype=float).ravel()
    if a.shape != b.shape:
        raise ConfigurationError("dimension mismatch")
    return float(min(np.linalg.norm(a - b), np.linalg.norm(a + b)))
