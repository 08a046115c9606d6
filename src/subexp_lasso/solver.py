"""Projected gradient descent for constrained least squares.

One loop serves both the vector estimator (over a convex hypothesis set) and
the matrix estimator (over the PSD-intersect-Frobenius-ball set, with
centered rank-one lifts as inputs).  The step is exactly 1/L, with
L = 2 lambda_max(X^T X) / n, so the objective is non-increasing (up to
rounding) without a line search.  The sets are convex, so a single start at
project(0) suffices.  The loop runs in one of two forms, chosen by the shape
of the n x d design X:

* Gram form (n >= d).  G = X^T X / n and c = X^T y / n are formed once and
  L = 2 lambda_max(G) comes from that same G.  An iteration costs one d x d
  matvec, grad = 2 (G beta - c).  The objective is tracked as the exact
  starting objective minus the decreases delta^T (G beta + G beta' - 2 c),
  delta = beta - beta'; the expanded form beta^T G beta - 2 c^T beta +
  ||y||^2 / n would cancel catastrophically near zero risk.
* Direct form (n < d).  The loop keeps the residual X beta - y of the
  accepted iterate: two products with X per iteration.

Lifted datasets are solved in svec coordinates: the upper triangle of a
symmetric matrix with its off-diagonal entries scaled by sqrt(2).  svec is
an isometry from the symmetric matrices onto R^(p(p+1)/2), and the lifts and
every iterate are symmetric, so the iterates and L are those of the
full-coordinate (d = p^2) problem in exact arithmetic, with d = p(p+1)/2.
The svec Gram is accumulated from row blocks of the stored lifts; the svec
design itself is only formed when n < d.

Either way the returned objective and fixed-point residual are recomputed
once from the true residual of the returned estimate.
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

GRAM_BLOCK_BYTES = 1 << 21  # bytes of design rows per block when forming G


def _top_eigenvalue(gram: np.ndarray) -> float:
    return max(float(np.linalg.eigvalsh(gram)[-1]), 0.0)


def lipschitz_constant(X: np.ndarray) -> float:
    """Exact Lipschitz constant 2 lambda_max(X^T X) / n of the risk gradient.

    One eigvalsh of the smaller Gram matrix: X^T X when n >= d, else X X^T.
    The solver's Gram form takes the same value as 2 lambda_max(G) from its
    G = X^T X / n; for lifted designs that G is in svec coordinates, which
    leaves lambda_max unchanged because svec preserves the inner products of
    symmetric matrices.
    """
    n, d = X.shape
    return 2.0 * _top_eigenvalue(X.T @ X if n >= d else X @ X.T) / n


class _Svec:
    """svec coordinates of symmetric p x p matrices (see the module docstring)."""

    def __init__(self, p: int):
        self.p = p
        self.rows, self.cols = np.triu_indices(p)
        self.weights = np.where(self.rows == self.cols, 1.0, np.sqrt(2.0))
        self.dim = self.rows.size

    def vec(self, A: np.ndarray) -> np.ndarray:
        """svec of a matrix, or of each matrix in an (m, p, p) stack."""
        v = A[..., self.rows, self.cols]
        v *= self.weights
        return v

    def mat(self, v: np.ndarray) -> np.ndarray:
        """The symmetric matrix whose svec is v."""
        half = v / self.weights
        B = np.empty((self.p, self.p))
        B[self.rows, self.cols] = half
        B[self.cols, self.rows] = half
        return B


def _pgd(dataset: Dataset, s: geometry.HypothesisSet,
         config: SolverConfig) -> SolveResult:
    X = _design(dataset)
    y = dataset.outputs
    n = dataset.n
    if not np.all(np.isfinite(X)) or not np.all(np.isfinite(y)):
        raise ConfigurationError("non-finite data passed to the solver")

    if dataset.lifted:
        sv = _Svec(s.p)
        d, to_coords, from_coords = sv.dim, sv.vec, sv.mat

        def rows(lo, hi):
            return sv.vec(dataset.inputs[lo:hi])
    else:
        d, to_coords, from_coords = X.shape[1], _flat, _flat

        def rows(lo, hi):
            return X[lo:hi]

    if n >= d:
        block = max(1, GRAM_BLOCK_BYTES // (8 * d))
        G, c = np.zeros((d, d)), np.zeros(d)
        for lo in range(0, n, block):
            V = rows(lo, lo + block)
            G += V.T @ V
            c += V.T @ y[lo:lo + block]
        G /= n
        c /= n
        lip = 2.0 * _top_eigenvalue(G)

        def state(b):
            return G @ b

        def gradient(g):
            return 2.0 * (g - c)

        def objective(obj, b, g, b_next, g_next):
            return obj - float((b - b_next) @ (g + g_next - 2.0 * c))
    else:
        Xc = rows(0, n)
        lip = lipschitz_constant(Xc)

        def state(b):
            return Xc @ b - y

        def gradient(r):
            return (2.0 / n) * (Xc.T @ r)

        def objective(obj, b, r, b_next, r_next):
            return float(r_next @ r_next) / n
    step = 1.0 / lip if lip > 0 else 1.0

    start = geometry.project(s, np.zeros(s.ambient))
    r = X @ _flat(start) - y
    obj = float(r @ r) / n
    beta = to_coords(start)
    st = state(beta)
    best_beta, best_obj = beta, obj
    trace = [obj] if config.track_trace else None
    converged = False
    iterations = 0

    for it in range(1, config.max_iters + 1):
        iterations = it
        beta_next = to_coords(geometry.project(
            s, from_coords(beta - step * gradient(st))))
        st_next = state(beta_next)
        obj_next = objective(obj, beta, st, beta_next, st_next)
        if trace is not None:
            trace.append(obj_next)
        if obj_next < best_obj:
            best_beta, best_obj = beta_next, obj_next
        if obj - obj_next <= config.tol * max(obj, 1e-300):
            converged = True
            break
        beta, obj, st = beta_next, obj_next, st_next

    estimate = from_coords(best_beta)
    r = X @ _flat(estimate) - y
    grad = ((2.0 / n) * (X.T @ r)).reshape(estimate.shape)
    fp = geometry.project(s, estimate - step * grad)
    return SolveResult(estimate=estimate, iterations=iterations,
                       objective=float(r @ r) / n, converged=converged,
                       objective_trace=trace,
                       fixed_point_residual=float(np.linalg.norm(fp - estimate)))


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


def solve(dataset: Dataset, s: geometry.HypothesisSet,
          config: SolverConfig = SolverConfig()) -> SolveResult:
    """solve_lifted for a lifted dataset, solve_lasso otherwise."""
    return (solve_lifted if dataset.lifted else solve_lasso)(dataset, s, config)


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
