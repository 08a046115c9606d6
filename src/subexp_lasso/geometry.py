"""Convex hypothesis sets: projections, support functions, direction samplers.

Sets are immutable values; every operation here is a pure function of its
arguments.  Projections are exact (closed form) for l1/l2 balls and
hypercubes and for the PSD-intersect-Frobenius-ball set; polytope
projection solves the simplex-weight least-squares subproblem.  scipy is
imported only by the convex-hull membership certificate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .distributions import euclidean_scaled, infinity_scaled, seminorm_rows
from .errors import ConfigurationError
from .seeding import rng_for

MEMBERSHIP_TOL = 1e-8
ANGULAR_DEDUP_TOL = 1e-6
SPAN_RANK_RTOL = 1e-8
PAIR_BLOCK_BYTES = 1 << 22  # difference rows held at once by pairwise_max


@dataclass(frozen=True)
class HypothesisSet:
    """Convex constraint set.

    kind: l1_ball(radius) | l2_ball(radius, center) | hypercube(halfwidth) |
          polytope(vertices) | lifted_psd_fro(radius).
    ambient: p for vector sets, (p, p) for the lifted matrix set.
    """

    kind: str
    radius: float = 0.0
    p: int = 0
    center: Optional[np.ndarray] = field(default=None, compare=False)
    vertices: Optional[np.ndarray] = field(default=None, compare=False)

    @property
    def ambient(self):
        return (self.p, self.p) if self.kind == "lifted_psd_fro" else self.p

    @property
    def is_matrix_set(self) -> bool:
        return self.kind == "lifted_psd_fro"


def l1_ball(radius: float, p: int) -> HypothesisSet:
    _check_radius(radius)
    return HypothesisSet("l1_ball", float(radius), int(p))


def l2_ball(radius: float, p: int, center=None) -> HypothesisSet:
    _check_radius(radius)
    c = np.zeros(p) if center is None else np.asarray(center, dtype=float)
    if c.shape != (p,):
        raise ConfigurationError("center must have length p")
    return HypothesisSet("l2_ball", float(radius), int(p), center=c)


def hypercube(halfwidth: float, p: int) -> HypothesisSet:
    _check_radius(halfwidth)
    return HypothesisSet("hypercube", float(halfwidth), int(p))


def polytope(vertices) -> HypothesisSet:
    V = np.atleast_2d(np.asarray(vertices, dtype=float))
    if V.shape[0] < 1:
        raise ConfigurationError("polytope needs at least one vertex")
    return HypothesisSet("polytope", 0.0, V.shape[1], vertices=V)


def lifted_psd_fro(radius: float, p: int) -> HypothesisSet:
    _check_radius(radius)
    return HypothesisSet("lifted_psd_fro", float(radius), int(p))


def load_vertices(path) -> HypothesisSet:
    """Polytope from a text file: one vertex per line, whitespace-separated."""
    V = np.atleast_2d(np.loadtxt(path, dtype=float))
    return polytope(V)


def _check_radius(r):
    if not (r > 0):
        raise ConfigurationError("radius/halfwidth must be positive")


# ---------------------------------------------------------------------------
# Projection
# ---------------------------------------------------------------------------

def project(s: HypothesisSet, v) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    if s.kind == "lifted_psd_fro":
        return _project_psd_fro(s, v)
    if v.shape != (s.p,):
        raise ConfigurationError("dimension mismatch in project")
    if s.kind == "l1_ball":
        return project_l1_ball(v, s.radius)
    if s.kind == "l2_ball":
        d = v - s.center
        nrm = np.linalg.norm(d)
        if nrm <= s.radius:
            return v.copy()
        return s.center + d * (s.radius / nrm)
    if s.kind == "hypercube":
        return np.clip(v, -s.radius, s.radius)
    if s.kind == "polytope":
        w = _simplex_weights_lsq(s.vertices, v)
        return s.vertices.T @ w
    raise ConfigurationError(f"unknown set kind {s.kind!r}")


def project_l1_ball(v: np.ndarray, radius: float) -> np.ndarray:
    """Exact sort-and-threshold Euclidean projection onto the l1 ball."""
    a = np.abs(v)
    if a.sum() <= radius:
        return v.copy()
    u = np.sort(a)[::-1]
    css = np.cumsum(u)
    idx = np.arange(1, v.size + 1)
    rho = np.max(np.nonzero(u * idx > css - radius)[0]) + 1
    theta = (css[rho - 1] - radius) / rho
    return np.sign(v) * np.maximum(a - theta, 0.0)


def _simplex_weights_lsq(V: np.ndarray, target: np.ndarray,
                         tol: float = 1e-10) -> np.ndarray:
    """argmin_w ||V^T w - target||_2 over the simplex.

    Active-set iteration in the style of nonnegative least squares: solve
    the equality-constrained problem on the working support, step back to
    the feasible boundary when weights go negative, and expand the support
    while the stationarity condition is violated.
    """
    A = V.T  # p x D, columns are vertices
    D = V.shape[0]
    if D == 1:
        return np.ones(1)
    scale = max(float(np.abs(A).max()), float(np.abs(target).max()), 1.0)

    def kkt_solve(idx):
        # min ||A_S u - target|| s.t. sum u = 1 via the KKT system
        As = A[:, idx]
        k = len(idx)
        M = np.zeros((k + 1, k + 1))
        M[:k, :k] = 2.0 * As.T @ As
        M[:k, k] = 1.0
        M[k, :k] = 1.0
        rhs = np.concatenate([2.0 * As.T @ target, [1.0]])
        sol, *_ = np.linalg.lstsq(M, rhs, rcond=None)
        return sol[:k]

    start = int(np.argmin(np.linalg.norm(A - target[:, None], axis=0)))
    support = [start]
    w = np.zeros(D)
    w[start] = 1.0
    for _ in range(4 * D + 40):
        u = kkt_solve(support)
        inner = 0
        while np.min(u) < -1e-13 and inner < 2 * D + 10:
            ws = w[support]
            neg = u < ws  # candidates limiting the step toward u
            with np.errstate(divide="ignore", invalid="ignore"):
                ratios = np.where(neg & (u <= 0), ws / (ws - u), np.inf)
            alpha = float(np.min(ratios))
            ws = ws + alpha * (u - ws)
            ws[ws < 1e-14] = 0.0
            keep = ws > 0.0
            if not np.any(keep):
                keep[int(np.argmax(u))] = True
                ws[keep] = 1.0
            w[:] = 0.0
            for j, val in zip(np.array(support)[keep], ws[keep]):
                w[j] = val
            support = list(np.array(support)[keep])
            u = kkt_solve(support)
            inner += 1
        w[:] = 0.0
        w[support] = np.maximum(u, 0.0)
        w /= w.sum()
        grad = 2.0 * (A.T @ (A @ w - target))
        mu = -float(np.mean(grad[support]))
        j_best = int(np.argmin(grad))
        if grad[j_best] >= -mu - tol * scale ** 2 or j_best in support:
            break
        support.append(j_best)
    return w


def _project_psd_fro(s: HypothesisSet, B: np.ndarray) -> np.ndarray:
    """Nearest point of PSD-intersect-Frobenius-ball to sym(B).

    One eigendecomposition: clip the eigenvalues at 0, then scale onto the
    ball.  This is exact because projecting onto a closed cone intersected
    with an origin-centred ball is the cone projection followed by the ball
    projection.
    """
    B = np.asarray(B, dtype=float)
    if B.shape != (s.p, s.p):
        raise ConfigurationError("dimension mismatch in project (lifted)")
    vals, vecs = np.linalg.eigh(0.5 * (B + B.T))
    X = (vecs * np.maximum(vals, 0.0)) @ vecs.T
    nrm = np.linalg.norm(X, "fro")
    return X * (s.radius / nrm) if nrm > s.radius else X


def contains(s: HypothesisSet, v, tol: float = MEMBERSHIP_TOL) -> bool:
    v = np.asarray(v, dtype=float)
    if s.kind == "l1_ball":
        return float(np.abs(v).sum()) <= s.radius + tol
    if s.kind == "l2_ball":
        return float(np.linalg.norm(v - s.center)) <= s.radius + tol
    if s.kind == "hypercube":
        return float(np.max(np.abs(v))) <= s.radius + tol
    if s.kind == "polytope":
        if float(np.min(np.linalg.norm(s.vertices - v, axis=1))) <= tol:
            return True
        return float(np.linalg.norm(project(s, v) - v)) <= tol
    if s.kind == "lifted_psd_fro":
        B = 0.5 * (v + v.T)
        eigmin = float(np.linalg.eigvalsh(B)[0])
        return (eigmin >= -tol
                and float(np.linalg.norm(B, "fro")) <= s.radius + tol)
    raise ConfigurationError(f"unknown set kind {s.kind!r}")


# ---------------------------------------------------------------------------
# Support functions and vertex representations
# ---------------------------------------------------------------------------

def support_function(s: HypothesisSet, z) -> float:
    """sup over the set of <z, v> (Frobenius pairing for the matrix set)."""
    z = np.asarray(z, dtype=float)
    if s.kind == "l1_ball":
        return s.radius * float(np.max(np.abs(z)))
    if s.kind == "l2_ball":
        return s.radius * float(np.linalg.norm(z)) + float(z @ s.center)
    if s.kind == "hypercube":
        return s.radius * float(np.abs(z).sum())
    if s.kind == "polytope":
        return float(np.max(s.vertices @ z))
    if s.kind == "lifted_psd_fro":
        Z = 0.5 * (z + z.T)
        vals = np.linalg.eigvalsh(Z)
        pos = np.sqrt(float(np.sum(np.maximum(vals, 0.0) ** 2)))
        return s.radius * pos
    raise ConfigurationError(f"unknown set kind {s.kind!r}")


def vertices_of(s: HypothesisSet, max_vertices: int = 1 << 20) -> np.ndarray:
    """Vertex list for polytopal sets (l1 ball, hypercube, explicit polytope)."""
    if s.kind == "polytope":
        return s.vertices
    if s.kind == "l1_ball":
        eye = np.eye(s.p)
        return np.vstack([s.radius * eye, -s.radius * eye])
    if s.kind == "hypercube":
        if 2 ** s.p > max_vertices:
            raise ConfigurationError("hypercube vertex list too large")
        grid = np.array(np.meshgrid(*([[-s.radius, s.radius]] * s.p))).reshape(s.p, -1).T
        return grid
    raise ConfigurationError(f"{s.kind} has no finite vertex representation")


def span_basis(s: HypothesisSet) -> np.ndarray:
    """Orthonormal basis (columns) of span(K - K).

    Full space for balls/cubes; for polytopes the rank is decided by a
    singular-value threshold of 1e-8 times the largest singular value.
    """
    if s.kind in ("l1_ball", "l2_ball", "hypercube"):
        return np.eye(s.p)
    if s.kind == "lifted_psd_fro":
        return np.eye(s.p * s.p)
    if s.kind == "polytope":
        diffs = s.vertices - s.vertices[0]
        if diffs.shape[0] == 1:
            return np.zeros((s.p, 0))
        u, sv, _ = np.linalg.svd(diffs.T, full_matrices=False)
        if sv.size == 0 or sv[0] == 0.0:
            return np.zeros((s.p, 0))
        rank = int(np.sum(sv > SPAN_RANK_RTOL * sv[0]))
        return u[:, :rank]
    raise ConfigurationError(f"unknown set kind {s.kind!r}")


# ---------------------------------------------------------------------------
# Direction samplers
# ---------------------------------------------------------------------------

@dataclass
class DirectionSample:
    directions: np.ndarray
    acceptance_rate: float = 1.0
    degenerate: bool = False


def sphere_slice_directions(s: HypothesisSet, center, t: float, n_dirs: int,
                            seed: int) -> DirectionSample:
    """Unit directions v with center + t v in the set.

    Rejection sampling, augmented with vertex directions for polytopal sets.
    An empty result signals that t exceeds the local reach in every sampled
    direction.
    """
    center = np.asarray(center, dtype=float)
    if not contains(s, center):
        raise ConfigurationError("center must belong to the set")
    if not (t > 0):
        raise ConfigurationError("t must be positive")
    rng = rng_for(seed, "sphere-slice")
    dim = center.size
    accepted = []
    attempts = 0
    max_attempts = max(50 * n_dirs, 2000)
    batch = max(n_dirs, 64)
    while len(accepted) < n_dirs and attempts < max_attempts:
        u = rng.standard_normal((batch, dim))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        attempts += batch
        for row in u:
            cand = center + t * _shaped(row, s)
            if contains(s, cand):
                accepted.append(row)
                if len(accepted) >= n_dirs:
                    break
    for vert in _cheap_vertices(s):
        d = vert.ravel() - center
        nrm = np.linalg.norm(d)
        if nrm <= t:
            attempts += 1
            continue
        d = d / nrm
        attempts += 1
        if contains(s, center + t * _shaped(d, s)):
            accepted.append(d)
    rate = len(accepted) / attempts if attempts else 0.0
    dirs = np.array(accepted) if accepted else np.zeros((0, dim))
    dirs = _dedup_directions(dirs)
    return DirectionSample(dirs, acceptance_rate=rate)


def cone_directions(s: HypothesisSet, apex, n_dirs: int, seed: int) -> DirectionSample:
    """Unit directions in cone(K - apex), deduplicated at angular tolerance."""
    apex = np.asarray(apex, dtype=float)
    if not contains(s, apex):
        raise ConfigurationError("apex must belong to the set")
    rng = rng_for(seed, "cone-dirs")
    dim = apex.size
    scale = _diameter_proxy(s)
    dirs = []
    for vert in _cheap_vertices(s):
        d = vert.ravel() - apex
        nrm = np.linalg.norm(d)
        if nrm > 1e-12:
            dirs.append(d / nrm)
    draws = 0
    while len(dirs) < n_dirs and draws < 50 * n_dirs + 1000:
        g = rng.standard_normal(dim)
        r = scale * np.exp(rng.uniform(np.log(1e-3), np.log(3.0)))
        w = project(s, _shaped(apex + r * g / np.linalg.norm(g), s)).ravel()
        d = w - apex
        nrm = np.linalg.norm(d)
        draws += 1
        if nrm > 1e-12:
            dirs.append(d / nrm)
    if not dirs:
        return DirectionSample(np.zeros((0, dim)), degenerate=True)
    return DirectionSample(_dedup_directions(np.array(dirs)))


def span_sphere_directions(s: HypothesisSet, n_dirs: int, seed: int) -> np.ndarray:
    """Unit directions in span(K - K); used to probe non-degeneracy."""
    basis = span_basis(s)
    if basis.shape[1] == 0:
        return np.zeros((0, basis.shape[0]))
    rng = rng_for(seed, "span-sphere")
    g = rng.standard_normal((n_dirs, basis.shape[1]))
    dirs = g @ basis.T
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    return dirs


def _shaped(v: np.ndarray, s: HypothesisSet):
    return v.reshape(s.p, s.p) if s.is_matrix_set else v


def _cheap_vertices(s: HypothesisSet):
    if s.kind == "polytope":
        return list(s.vertices)
    if s.kind == "l1_ball":
        return list(vertices_of(s))
    if s.kind == "hypercube" and s.p <= 12:
        return list(vertices_of(s))
    return []


def _diameter_proxy(s: HypothesisSet) -> float:
    if s.kind == "polytope":
        nrm = np.linalg.norm(s.vertices, axis=1)
        return float(2 * nrm.max()) if nrm.size else 1.0
    return 2.0 * s.radius


def _dedup_directions(dirs: np.ndarray, tol: float = ANGULAR_DEDUP_TOL) -> np.ndarray:
    if dirs.shape[0] <= 1:
        return dirs
    cos_tol = np.cos(tol)
    kept = np.empty_like(dirs)
    count = 0
    for d in dirs:
        if count and np.max(kept[:count] @ d) >= cos_tol:
            continue
        kept[count] = d
        count += 1
    return kept[:count]


# ---------------------------------------------------------------------------
# Skeletons
# ---------------------------------------------------------------------------

@dataclass
class Skeleton:
    """Finite point list whose convex hull certifies coverage of a set."""

    points: np.ndarray
    covered_set: str
    diameters: dict
    symmetric: bool = False


def sparse_skeleton_sampler(k: int, p: int, n_points: int, seed: int) -> Skeleton:
    """Skeleton of {v : ||v||_0 <= k, ||v||_2 <= 3}.

    Uniform size-k supports with directions on the k-sphere scaled to radius
    3; the sample is symmetrized so Euclidean diameter is exactly 6.
    """
    if not (1 <= k <= p):
        raise ConfigurationError("need 1 <= k <= p")
    rng = rng_for(seed, "sparse-skeleton")
    half = max(1, (n_points + 1) // 2)
    pts = np.zeros((half, p))
    for i in range(half):
        support = rng.choice(p, size=k, replace=False)
        g = rng.standard_normal(k)
        g /= np.linalg.norm(g)
        pts[i, support] = 3.0 * g
    return skeleton_from_points(
        np.vstack([pts, -pts]),
        f"descent cone of the l1 ball at a {k}-sparse point, "
        f"intersected with the sphere (p={p})", symmetric=True)


def skeleton_from_points(points, covered_set: str = "custom",
                         symmetric: bool = False) -> Skeleton:
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if symmetric:
        diam = {"l2": 2.0 * float(np.linalg.norm(pts, axis=1).max()),
                "linf": 2.0 * float(np.abs(pts).max())}
    else:
        diam = {"l2": pairwise_diameter(pts, "l2"),
                "linf": pairwise_diameter(pts, "linf")}
    return Skeleton(pts, covered_set, diam, symmetric=symmetric)


def pairwise_diameter(points: np.ndarray, norm: str = "l2") -> float:
    """Exact max pairwise distance of a point list (l2, else l-infinity)."""
    metric = euclidean_scaled(1.0) if norm == "l2" else infinity_scaled(1.0)
    return pairwise_max(points, lambda V: seminorm_rows(metric, V))


def pairwise_max(points, rows_fn) -> float:
    """max over i < j of rows_fn(points[i] - points[j]); 0 below two points.

    rows_fn maps an (r, d) array of differences to r nonnegative values.
    The pairs are scanned in square tiles of at most PAIR_BLOCK_BYTES of
    difference rows.
    """
    P = np.asarray(points, dtype=float)
    m, d = P.shape
    side = max(1, int(np.sqrt(PAIR_BLOCK_BYTES / (8 * max(d, 1)))))
    best = 0.0
    for a in range(0, m - 1, side):
        for b in range(a, m, side):
            diffs = P[a:a + side, None, :] - P[None, b:b + side, :]
            vals = rows_fn(diffs.reshape(-1, d)).reshape(diffs.shape[:2])
            if a == b:
                vals = np.triu(vals, 1)  # the diagonal tile: keep j > i
            best = max(best, float(vals.max()))
    return best


# ---------------------------------------------------------------------------
# Convex-hull membership certificates
# ---------------------------------------------------------------------------

def certify_hull_membership(points: np.ndarray, vectors: np.ndarray,
                            tol: float = 1e-6, prefilter: int = 500) -> float:
    """Max membership residual of many vectors against conv(points).

    Each vector is first checked against its `prefilter` most-correlated
    atoms (a residual below tol on a subset certifies membership in the full
    hull); only failures fall back to the full atom list.
    """
    vectors = np.atleast_2d(np.asarray(vectors, dtype=float))
    m = points.shape[0]
    worst = 0.0
    for v in vectors:
        if m > prefilter:
            scores = points @ v
            top = np.argpartition(scores, -prefilter)[-prefilter:]
            r = hull_membership_residual(points[top], v)
            if r > tol:
                r = hull_membership_residual(points, v)
        else:
            r = hull_membership_residual(points, v)
        worst = max(worst, r)
    return worst


def hull_membership_residual(points: np.ndarray, v: np.ndarray,
                             assume_zero_in_hull: bool = True) -> float:
    """Distance certificate for v against conv(points).

    Finds nonnegative weights (sum <= 1 when the hull contains the origin,
    sum = 1 otherwise) and returns the achieved residual ||P^T w - v||_2.
    Fast path is an exact nonnegative least-squares solve; if its weights
    overshoot the sum budget, an LP feasibility fallback runs.
    """
    from scipy.optimize import linprog, nnls

    A = points.T  # p x m
    v = np.asarray(v, dtype=float)
    w, _ = nnls(A, v)
    total = w.sum()
    budget = 1.0 if assume_zero_in_hull else None
    if budget is not None and total <= budget + 1e-12:
        scale = 1.0 if total <= budget else budget / total
        return float(np.linalg.norm(A @ (w * scale) - v))
    # LP feasibility: w >= 0, sum w (<=|=) 1, A w = v
    m = A.shape[1]
    res = linprog(c=np.zeros(m), A_eq=A, b_eq=v,
                  A_ub=np.ones((1, m)) if assume_zero_in_hull else None,
                  b_ub=np.ones(1) if assume_zero_in_hull else None,
                  bounds=[(0, None)] * m, method="highs")
    if res.status == 0:
        w = res.x
        if not assume_zero_in_hull:
            s = w.sum()
            if abs(s - 1.0) > 1e-9:
                return np.inf
        return float(np.linalg.norm(A @ w - v))
    return float(np.linalg.norm(A @ (w * (1.0 / max(total, 1.0))) - v))
