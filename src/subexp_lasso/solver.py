"""Monotone accelerated projected gradient for constrained least squares.

One loop serves both the vector estimator (over a convex hypothesis set) and
the matrix estimator (over the PSD-intersect-Frobenius-ball set, with
centered rank-one lifts as inputs).  The sets are convex, so a single start
at project(0) suffices.  The loop is monotone FISTA (Beck and Teboulle,
IEEE TIP 2009) with restarts and backtracking (Beck and Teboulle, SIAM J.
Imaging Sci. 2009, section 4): each step is a projected gradient step of
1/L' from the extrapolated point z = beta + ((t - 1) / t') (beta - beta_prev),
where L' stands in for the Lipschitz constant L = 2 lambda_max(H) of the
gradient, H = X^T X / n.  L' starts at 2 theta <= L, theta the top Ritz
value of RITZ_STEPS Lanczos steps on H (exact, from one eigvalsh, when the
Gram matrix has side d (Gram form) or n (residual form) at most
RITZ_STEPS).  No L is computed: each step checks the descent inequality
f(cand) <= f(z) + <grad f(z), m> + (L' / 2) ||m||^2, m = cand - z, which
for this quadratic risk reads 2 m^T H m <= L' ||m||^2, and m^T H m is one
dot product of stored states (see the two forms below).  A step that fails
it by more than the rounding allowance is redone from the same z, within
its iteration, after L' <- (1 + BACKTRACK_DELTA) max(L', c), where
c = (2 m^T H m - allowance) / ||m||^2 is the curvature seen along m.  So
L' never decreases within a solve; every step the loop goes on with
satisfies the inequality up to the allowance, as the O(1/k^2) analysis of
FISTA needs; and c <= L gives L' <= (1 + BACKTRACK_DELTA) L, so no step is
shorter than 1 / ((1 + BACKTRACK_DELTA) L).  L <= L' is not claimed.

The allowance is STEP_ROUNDING eps ||w|| sigma, where the computed m^T H m
is <w, diff>, diff the difference of the states of cand and z (w = m in the
Gram form, diff / n in the residual form), and sigma, the norms of the two
states and of the offset (c or y) summed, bounds the numbers whose rounding
enters diff.  With L' = L on designs whose every direction has curvature
near L, excesses reached 5.5 eps ||w|| sigma at most (d up to 700), so
steps near tol do not raise L' on rounding alone.  SolveResult.step is the
final 1/L' (1.0 while L' = 0, as for a zero design), SolveResult.backtracks
counts the redone steps, and `iterations` counts a step once.  With tol =
config.tol

* a step that moved by at most tol (||cand - z|| <= tol) ends the loop,
  keeping cand if it lowers the objective; a momentum step that moved by
  at most tol but does not lower the objective falls to the next rule;
* otherwise a candidate that lowers the objective by at most tol * obj is
  dropped: after a momentum step the loop restarts from beta without
  momentum (t = 1, z = beta), after a step without momentum it ends;
* any other candidate is accepted.  When it came from a momentum step and
  <z - cand, cand - beta> > 0, the step from z turned against the
  direction of travel, and the momentum restarts as well: t = 1 before the
  next coefficient, so the next step starts from cand itself (the gradient
  restart of O'Donoghue and Candes, Found. Comput. Math. 2015; svec is an
  isometry, so for lifted data this is the Frobenius inner product).

SolveResult.restarts counts both kinds of restart.

The decrease test is what stops a noisy problem with an active constraint:
there the step length bottoms out at projection rounding times a nonzero
multiplier, 1e-10 to 1e-9, far above a tol of 1e-14.  Accepted iterates,
subspace steps included, strictly lower the objective, so the estimate (the
last accepted iterate) is the lowest-objective one; the objective trace
holds the objective of the accepted iterate after each step.  The loop runs
in one of two forms, chosen by the shape of the n x d design X:

* Gram form (n >= d).  G = X^T X / n and c = X^T y / n are formed once,
  and the Lanczos steps of the start of L' run on that same G.  An
  iteration costs one d x d matvec, grad = 2 (G beta - c), and
  m^T H m = m^T (G cand - G z).  The objective is tracked as the exact
  starting objective minus the decreases delta^T (G beta + G beta' - 2 c),
  delta = beta - beta'; the expanded form beta^T G beta - 2 c^T beta +
  ||y||^2 / n would cancel catastrophically near zero risk.
* Direct form (n < d).  The loop keeps the residual X beta - y of the
  accepted iterate: two products with X per iteration, and
  m^T H m = ||r_cand - r_z||^2 / n.  The Lanczos steps apply
  v -> X^T (X v), so X X^T is never formed.  Over an l1 ball it
  also takes a subspace step every SUBSPACE_EVERY accepted steps: on the
  support S = {j : |beta_j| >= SUBSPACE_THRESHOLD max |beta|}, when
  |S| < n, the least-squares point u on the columns S (zero off S; from
  the normal equations by Cholesky, refined once, and skipped when they
  are singular to half precision) is projected onto the set
  and replaces beta only if it strictly lowers the objective, after which
  the momentum restarts (z = beta, t = 1).  Where the solution has zero
  residual the constraint multiplier is zero and the gradient steps only
  gain a fixed ratio each; when S holds the support of such a solution and
  X[:, S] has full column rank, u is that solution up to rounding (after
  Nutini, Schmidt and Hare, Optim. Letters 2019, on the active set that
  proximal gradient identifies).

Both stored states (G beta, or X beta - y) are affine in beta, so the state
at z is recombined from those of beta and beta_prev with no extra product.

Lifted datasets are solved in svec coordinates: the upper triangle of a
symmetric matrix with its off-diagonal entries scaled by sqrt(2).  svec is
an isometry from the symmetric matrices onto R^(p(p+1)/2), and the lifts and
every iterate are symmetric, so L, every curvature m^T H m and the
iterates at a given L' are those of the full-coordinate (d = p^2) problem
in exact arithmetic, with d = p(p+1)/2.
The lifts are never stored: the svec rows are built from the raw sample x
and the centering E one block at a time, (x[:, rows] * x[:, cols] -
E[rows, cols]) * weights.  In the Gram form the blocks, built into one
reused pair of buffers, accumulate G and c; in the direct form they make
the n x d svec design once, half the size of the n x p^2 lifts.

Either way the starting objective, and the returned objective and
fixed-point residual (recomputed once from the true residual of the
returned estimate), come from the dataset's forward and adjoint operators:
X beta and X^T r, or for lifted data x_i^T B x_i - <E, B> and
X^T diag(r) X - (sum_i r_i) E.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple, Optional

import numpy as np

from . import geometry
from .errors import ConfigurationError
from .models import Dataset


@dataclass(frozen=True)
class SolverConfig:
    max_iters: int = 20_000
    # the loop stops on a step that moved by <= tol, or on a step without
    # momentum that lowered the objective by <= tol * objective
    tol: float = 1e-12
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
    subspace_steps: int = 0
    restarts: int = 0
    step: float = np.nan
    backtracks: int = 0


# ---------------------------------------------------------------------------
# Risk evaluation
# ---------------------------------------------------------------------------

def _flat(beta) -> np.ndarray:
    return np.asarray(beta, dtype=float).ravel()


def empirical_risk(dataset: Dataset, beta) -> float:
    """(1/n) sum of squared residuals of the linear hypothesis beta."""
    r = dataset.outputs - dataset.forward(beta)
    return float(r @ r) / dataset.n


def excess_decomposition(dataset: Dataset, beta, beta_nat) -> tuple[float, float]:
    """Split risk(beta) - risk(beta_nat) into its quadratic and cross terms.

    Q = (1/n) sum <x_i, beta - beta_nat>^2 >= 0
    M = (2/n) sum (<x_i, beta_nat> - y_i) <x_i, beta - beta_nat>
    and Q + M equals the excess risk identically.
    """
    Xd = dataset.forward(_flat(beta) - _flat(beta_nat))
    q = float(Xd @ Xd) / dataset.n
    resid = dataset.forward(beta_nat) - dataset.outputs
    m = 2.0 * float(resid @ Xd) / dataset.n
    return q, m


def excess_risk(dataset: Dataset, beta, beta_nat) -> float:
    q, m = excess_decomposition(dataset, beta, beta_nat)
    return q + m


# ---------------------------------------------------------------------------
# Projected gradient descent
# ---------------------------------------------------------------------------

GRAM_BLOCK_BYTES = 1 << 21  # bytes of design rows per block when forming G
SUBSPACE_EVERY = 10  # accepted steps between two subspace steps
SUBSPACE_THRESHOLD = 1e-3  # support: |beta_j| >= this times max |beta|
RITZ_STEPS = 8  # Lanczos steps behind the start of L'
BACKTRACK_DELTA = 0.05  # a failed check sets L' to (1 + this) max(L', c)
STEP_ROUNDING = 64.0  # the check's allowance, in units of eps ||w|| sigma


@lru_cache(maxsize=16)
def _lanczos_start(d: int) -> np.ndarray:
    """The fixed unit start vector of _ritz_top, drawn once per d, read-only:
    normalized standard normal draws from seed 0, so that no structure of the
    data (a constant or an alternating direction) is orthogonal to it by design."""
    q = np.random.default_rng(0).standard_normal(d)
    q /= math.sqrt(float(q @ q))
    q.flags.writeable = False
    return q


def _ritz_top(apply, d: int) -> float:
    """The top Ritz value theta <= lambda_max of the symmetric PSD operator
    `apply` on R^d after RITZ_STEPS Lanczos steps with full
    reorthogonalization (two classical Gram-Schmidt passes per step) from
    _lanczos_start(d).  It stops early on breakdown, a next basis vector of
    norm at most sqrt(eps) times the largest Rayleigh quotient so far: past
    that, what is left is rounding noise, not orthogonal to the basis."""
    basis = np.empty((RITZ_STEPS, d))
    tri = np.zeros((RITZ_STEPS, RITZ_STEPS))
    breakdown = math.sqrt(np.finfo(float).eps)
    q = _lanczos_start(d)
    for k in range(RITZ_STEPS):
        basis[k] = q
        w = apply(q)
        tri[k, k] = float(q @ w)
        done = basis[:k + 1]
        w -= (done @ w) @ done
        w -= (done @ w) @ done
        beta = math.sqrt(float(w @ w))
        if beta <= breakdown * tri.diagonal().max() or k + 1 == RITZ_STEPS:
            break
        tri[k, k + 1] = tri[k + 1, k] = beta
        q = w / beta
    return float(np.linalg.eigvalsh(tri[:k + 1, :k + 1])[-1])


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

    def lift_rows(self, x: np.ndarray, centering: np.ndarray,
                  out: Optional[tuple] = None) -> np.ndarray:
        """svec of the centered lifts x_i x_i^T - centering of the rows of x:
        the products of vec(lifts) in the same order, so bitwise equal.
        With out, a pair of buffers of at least len(x) rows and dim columns,
        the two gathers land in their leading rows and the result is a view
        of the first."""
        m = x.shape[0]
        v, w = ((np.empty((m, self.dim)), np.empty((m, self.dim))) if out is None
                else (out[0][:m], out[1][:m]))
        np.take(x, self.rows, axis=1, out=v, mode="clip")
        v *= np.take(x, self.cols, axis=1, out=w, mode="clip")
        v -= centering[self.rows, self.cols]
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
    x = dataset.inputs
    y = dataset.outputs
    n = dataset.n
    data = (x, y, dataset.centering) if dataset.lifted else (x, y)
    if not all(np.all(np.isfinite(a)) for a in data):
        raise ConfigurationError("non-finite data passed to the solver")

    if dataset.lifted:
        sv = _Svec(s.p)
        d, to_coords, from_coords = sv.dim, sv.vec, sv.mat

        def rows(lo, hi, out=None):
            return sv.lift_rows(x[lo:hi], dataset.centering, out)
    else:
        d, to_coords, from_coords = x.shape[1], _flat, _flat

        def rows(lo, hi, out=None):
            return x[lo:hi]

    if n >= d:
        block = min(n, max(1, GRAM_BLOCK_BYTES // (8 * d)))
        G, c = np.zeros((d, d)), np.zeros(d)
        # the lifted blocks are built into one pair of buffers, reused
        out = (np.empty((block, d)), np.empty((block, d))) if dataset.lifted else None
        for lo in range(0, n, block):
            V = rows(lo, lo + block, out)
            G += V.T @ V
            c += V.T @ y[lo:lo + block]
        del out, V  # the block buffers are not needed past here
        G /= n
        c /= n
        lip = 2.0 * (max(float(np.linalg.eigvalsh(G)[-1]), 0.0) if d <= RITZ_STEPS
                     else _ritz_top(G.__matmul__, d))

        def state(b):
            return G @ b

        def gradient(g):
            return 2.0 * (g - c)

        def curvature(moved, diff, mm):
            # m^T G m = <w, diff> with w = m, and ||w||
            return float(moved @ diff), math.sqrt(mm)

        def decrease(obj, b, g, b_next, g_next):
            dec = float((b - b_next) @ (g + g_next - 2.0 * c))
            return dec, obj - dec
    else:
        Xc = rows(0, n)
        lip = 2.0 * (max(float(np.linalg.eigvalsh(Xc @ Xc.T)[-1]), 0.0)
                     if n <= RITZ_STEPS
                     else _ritz_top(lambda v: Xc.T @ (Xc @ v), d)) / n

        def state(b):
            return Xc @ b - y

        def gradient(r):
            return (2.0 / n) * (Xc.T @ r)

        def curvature(moved, diff, mm):
            # ||X m||^2 / n = <w, diff> with w = diff / n, and ||w||
            q = float(diff @ diff) / n
            return q, math.sqrt(q / n)

        def decrease(obj, b, r, b_next, r_next):
            obj_next = float(r_next @ r_next) / n
            return obj - obj_next, obj_next
    sigma_offset = float(np.linalg.norm(c if n >= d else y))
    rounding = STEP_ROUNDING * np.finfo(float).eps
    tol = config.tol
    subspace = n < d and s.kind == "l1_ball"

    start = geometry.project(s, np.zeros(s.ambient))
    r = dataset.forward(start) - y
    obj = float(r @ r) / n
    beta = to_coords(start)
    st = state(beta)
    # z is the point the next step starts from; its state is recombined from
    # the stored states, which are affine in the iterate
    z, st_z, t, momentum = beta, st, 1.0, False
    trace = [obj] if config.track_trace else None
    converged = False
    iterations = accepted = subspace_steps = restarts = backtracks = 0

    for iterations in range(1, config.max_iters + 1):
        grad = gradient(st_z)
        while True:
            step = 1.0 / lip if lip > 0 else 1.0
            cand = to_coords(geometry.project(s, from_coords(z - step * grad)))
            st_cand = state(cand)
            moved = cand - z
            mm = float(moved @ moved)
            q, wnorm = curvature(moved, st_cand - st_z, mm)
            excess = 2.0 * q - lip * mm
            if excess <= 0.0 or mm == 0.0:
                break
            allowance = rounding * wnorm * (math.sqrt(float(st_cand @ st_cand))
                                            + math.sqrt(float(st_z @ st_z))
                                            + sigma_offset)
            if excess <= allowance:
                break
            # the descent inequality failed beyond rounding: redo the step
            # from the same z with a larger L'
            lip = (1.0 + BACKTRACK_DELTA) * max(lip, (2.0 * q - allowance) / mm)
            backtracks += 1
        dec, obj_cand = decrease(obj, beta, st, cand, st_cand)
        if math.sqrt(mm) <= tol and (dec > 0 or not momentum):
            if dec > 0:
                beta, obj = cand, obj_cand
            converged = True
        elif dec <= tol * max(obj, 1e-300):
            if momentum:
                z, st_z, t, momentum = beta, st, 1.0, False
                restarts += 1
            else:
                converged = True
        else:
            travel = cand - beta
            if momentum and float(moved @ travel) < 0.0:
                # <z - cand, cand - beta> > 0: the step turned against the
                # direction of travel, so the next z is cand itself
                t = 1.0
                restarts += 1
            t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
            coef = (t - 1.0) / t_next
            z = cand + coef * travel
            st_z = st_cand + coef * (st_cand - st)
            beta, st, obj = cand, st_cand, obj_cand
            t, momentum = t_next, coef > 0.0
            accepted += 1
            if subspace and accepted % SUBSPACE_EVERY == 0:
                u = _subspace_point(Xc, y, s, beta)
                if u is not None:
                    st_u = state(u)
                    dec_u, obj_u = decrease(obj, beta, st, u, st_u)
                    if dec_u > 0:
                        beta, st, obj = u, st_u, obj_u
                        z, st_z, t, momentum = beta, st, 1.0, False
                        subspace_steps += 1
        if trace is not None:
            trace.append(obj)
        if converged:
            break

    estimate = from_coords(beta)
    r = dataset.forward(estimate) - y
    grad = ((2.0 / n) * dataset.adjoint(r)).reshape(estimate.shape)
    fp = geometry.project(s, estimate - step * grad)
    return SolveResult(estimate=estimate, iterations=iterations,
                       objective=float(r @ r) / n, converged=converged,
                       objective_trace=trace,
                       fixed_point_residual=float(np.linalg.norm(fp - estimate)),
                       subspace_steps=subspace_steps, restarts=restarts,
                       step=step, backtracks=backtracks)


def _subspace_point(X, y, s, beta):
    """project(u) for the least-squares u on the columns S of beta's support,
    S = {j : |beta_j| >= SUBSPACE_THRESHOLD max |beta|}, u zero off S: the
    normal equations A u_S = X_S^T y, A = X_S^T X_S, by Cholesky and one
    step of iterative refinement (without it the rounding of forming A can
    keep a noiseless solve far above lstsq's objective).  None when S has at
    least n columns, or when a Cholesky pivot squared is at most sqrt(eps)
    max_j A_jj, so that cond(A) >= 1 / sqrt(eps), as with a repeated
    column.  S holds the argmax of |beta|, so it is never empty."""
    mag = np.abs(beta)
    S = np.flatnonzero(mag >= SUBSPACE_THRESHOLD * mag.max())
    if S.size >= X.shape[0]:
        return None
    XS = X[:, S]
    A = XS.T @ XS
    try:
        chol = np.linalg.cholesky(A)
    except np.linalg.LinAlgError:
        return None
    if np.diag(chol).min() ** 2 <= np.finfo(float).eps ** 0.5 * A.diagonal().max():
        return None

    def normal_solve(b):
        return np.linalg.solve(chol.T, np.linalg.solve(chol, XS.T @ b))

    u = np.zeros_like(beta)
    u[S] = normal_solve(y)
    u[S] += normal_solve(y - XS @ u[S])
    return geometry.project(s, u)


def solve_lasso(dataset: Dataset, s: geometry.HypothesisSet,
                config: SolverConfig = SolverConfig()) -> SolveResult:
    """Minimize the empirical risk over the hypothesis set.

    Starts at project(0) and returns the last accepted iterate, the
    lowest-objective one among those accepted (see the module docstring).
    `step` is the final 1/L': L' starts at or below L, never decreases,
    stays at most (1 + BACKTRACK_DELTA) L, and every step the loop went on
    with satisfied the descent inequality at L' up to its rounding
    allowance; `backtracks` counts the steps redone at a larger L', each
    within its iteration.
    `converged` is True when the last step moved by <= tol and either
    lowered the objective or had no momentum, or when a step without
    momentum lowered the objective by <= tol relative; `iterations` counts
    the projected-gradient steps only, dropped ones included.  The momentum
    restarts after a momentum step that the decrease test drops, and after
    an accepted momentum step that turned against the direction of travel
    (<z - cand, cand - beta> > 0); `restarts` counts both.  For n < d over
    an l1 ball the loop also tries a least-squares step on the identified
    support every SUBSPACE_EVERY accepted steps; `subspace_steps` counts
    those it accepted (always 0 otherwise), and each restarts the momentum
    too.  Any of these restarts can send a run that max_iters cuts short
    down a slower path, so such a run may end at a higher objective than
    plain MFISTA reaches in as many steps.
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
    """Minimize the lifted empirical risk over a PSD/Frobenius set; the loop
    and its result are those of solve_lasso."""
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


def sign_invariant_error(scaled_estimate, target) -> float:
    """min{||a - b||_2, ||a + b||_2}; the natural error modulo global sign."""
    a = np.asarray(scaled_estimate, dtype=float).ravel()
    b = np.asarray(target, dtype=float).ravel()
    if a.shape != b.shape:
        raise ConfigurationError("dimension mismatch")
    return float(min(np.linalg.norm(a - b), np.linalg.norm(a + b)))
