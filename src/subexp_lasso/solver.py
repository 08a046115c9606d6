"""Projected gradient descent for constrained least squares.

One algorithm serves both the vector estimator (over a convex hypothesis
set) and the matrix estimator (over the PSD-intersect-Frobenius-ball set,
with centered rank-one lifts as inputs).  The step is exactly 1/L, where
L = 2 lambda_max(X^T X) / n comes from one eigvalsh of the smaller Gram
matrix, so the objective is non-increasing (up to rounding) without a line
search.  The sets are convex, so a single start at project(0) suffices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from . import geometry
from .errors import ConfigurationError
from .models import Dataset


@dataclass(frozen=True)
class SolverConfig:
    max_iters: int = 20_000
    tol: float = 1e-12          # relative objective-decrease stopping threshold
    track_trace: bool = False

    def __post_init__(self):
        if self.max_iters < 1:
            raise ConfigurationError("max_iters must be >= 1")
        if not (self.tol > 0):
            raise ConfigurationError("tol must be positive")


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

def lipschitz_constant(X: np.ndarray) -> float:
    """Exact Lipschitz constant 2 lambda_max(X^T X) / n of the risk gradient.

    One eigvalsh of the smaller Gram matrix: X^T X when n >= d, else X X^T.
    """
    n, d = X.shape
    gram = X.T @ X if n >= d else X @ X.T
    return 2.0 * max(float(np.linalg.eigvalsh(gram)[-1]), 0.0) / n


def _pgd(dataset: Dataset, s: geometry.HypothesisSet,
         config: SolverConfig) -> SolveResult:
    X = _design(dataset)
    y = dataset.outputs
    n = dataset.n
    if not np.all(np.isfinite(X)) or not np.all(np.isfinite(y)):
        raise ConfigurationError("non-finite data passed to the solver")

    lip = lipschitz_constant(X)
    step = 1.0 / lip if lip > 0 else 1.0

    start = geometry.project(s, np.zeros((s.p, s.p) if s.is_matrix_set else s.p))
    shape = start.shape
    beta = _flat(start)
    r = X @ beta - y
    obj = float(r @ r) / n
    best_beta, best_obj, best_r = beta, obj, r
    trace = [obj] if config.track_trace else None
    converged = False
    iterations = 0

    for it in range(1, config.max_iters + 1):
        iterations = it
        grad = (2.0 / n) * (X.T @ r)
        beta_next = _flat(geometry.project(s, (beta - step * grad).reshape(shape)))
        r_next = X @ beta_next - y
        obj_next = float(r_next @ r_next) / n
        if trace is not None:
            trace.append(obj_next)
        if obj_next < best_obj:
            best_beta, best_obj, best_r = beta_next, obj_next, r_next
        if obj - obj_next <= config.tol * max(obj, 1e-300):
            converged = True
            break
        beta, obj, r = beta_next, obj_next, r_next

    grad_best = (2.0 / n) * (X.T @ best_r)
    fp = geometry.project(s, (best_beta - step * grad_best).reshape(shape))
    fp_res = float(np.linalg.norm(_flat(fp) - best_beta))
    return SolveResult(estimate=best_beta.reshape(shape), iterations=iterations,
                       objective=best_obj, converged=converged,
                       objective_trace=trace, fixed_point_residual=fp_res)


def solve_lasso(dataset: Dataset, s: geometry.HypothesisSet,
                config: SolverConfig = SolverConfig()) -> SolveResult:
    """Minimize the empirical risk over the hypothesis set by PGD.

    Starts at project(0) and returns the lowest-objective iterate (earliest
    iteration on ties).
    """
    if s.is_matrix_set:
        raise ConfigurationError("use solve_lifted for the matrix set")
    if dataset.lifted:
        raise ConfigurationError("lifted dataset passed to solve_lasso")
    if dataset.inputs.shape[1] != s.p:
        raise ConfigurationError("set ambient dimension mismatch")
    return _pgd(dataset, s, config)


def solve_lifted(dataset: Dataset, s: geometry.HypothesisSet,
                 config: SolverConfig = SolverConfig()) -> SolveResult:
    """Minimize the lifted empirical risk over a PSD/Frobenius set by PGD."""
    if not s.is_matrix_set:
        raise ConfigurationError("solve_lifted requires the lifted matrix set")
    if not dataset.lifted:
        raise ConfigurationError("solve_lifted requires a lifted dataset")
    if dataset.inputs.shape[1] != s.p:
        raise ConfigurationError("set ambient dimension mismatch")
    return _pgd(dataset, s, config)


# ---------------------------------------------------------------------------
# Rank-one extraction and sign-blind error
# ---------------------------------------------------------------------------

class Rank1(NamedTuple):
    value: float
    vector: np.ndarray
    degenerate: bool


def rank1_extract(B: np.ndarray) -> Rank1:
    """Top eigenpair of a symmetric PSD matrix from one eigh of sym(B).

    The sign of the eigenvector is fixed by making its largest-magnitude
    coordinate positive.  A numerically zero matrix yields (0, e_1, True).
    """
    B = np.asarray(B, dtype=float)
    if B.ndim != 2 or B.shape[0] != B.shape[1]:
        raise ConfigurationError("rank1_extract needs a square matrix")
    if float(np.linalg.norm(B, "fro")) < 1e-300:
        e1 = np.zeros(B.shape[0])
        e1[0] = 1.0
        return Rank1(0.0, e1, True)
    w, V = np.linalg.eigh(0.5 * (B + B.T))
    v = V[:, -1]
    if v[int(np.argmax(np.abs(v)))] < 0:
        v = -v
    return Rank1(max(float(w[-1]), 0.0), v, False)


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
