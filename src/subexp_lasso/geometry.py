"""Convex hypothesis sets: projections, support functions, a direction sampler.

Sets are immutable values; every operation here is a pure function of its
arguments.  Projections are exact (closed form) for l1/l2 balls and
hypercubes and for the PSD-intersect-Frobenius-ball set.  A finite point
list, such as a skeleton, is a polytope; its projection, and through it the
distance to a convex hull, is one nearest-point kernel, Wolfe's
minimum-norm-point algorithm (`_nearest_weights`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Optional

import numpy as np

from .errors import ConfigurationError
from .seeding import rng_for

MEMBERSHIP_TOL = 1e-8
ANGULAR_DEDUP_TOL = 1e-6
PAIR_BLOCK_BYTES = 1 << 22  # bytes held at once by pairwise_max, support_function_rows
MAX_VERTICES = 1 << 20  # the longest vertex list `vertices_of` builds


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
    if not np.isfinite(c).all():
        raise ConfigurationError("center must be finite, got a nan or inf coordinate")
    return HypothesisSet("l2_ball", float(radius), int(p), center=c)


def hypercube(halfwidth: float, p: int) -> HypothesisSet:
    _check_radius(halfwidth)
    return HypothesisSet("hypercube", float(halfwidth), int(p))


def polytope(vertices) -> HypothesisSet:
    """The hull of a finite point list, one point per row (a flat list is one
    point); every finite point list, a skeleton included, is one of these."""
    V = np.atleast_2d(np.asarray(vertices, dtype=float))
    if V.ndim != 2 or V.size == 0:
        raise ConfigurationError(
            f"vertices must be a non-empty 2-D list of points, got shape {V.shape}")
    if not np.isfinite(V).all():
        raise ConfigurationError("vertices must be finite, got a nan or inf coordinate")
    return HypothesisSet("polytope", 0.0, V.shape[1], vertices=V)


def lifted_psd_fro(radius: float, p: int) -> HypothesisSet:
    _check_radius(radius)
    return HypothesisSet("lifted_psd_fro", float(radius), int(p))


def _check_radius(r):
    if not (0 < r < np.inf):
        raise ConfigurationError(f"radius must be finite and positive, got {r}")


# ---------------------------------------------------------------------------
# Projection
# ---------------------------------------------------------------------------

def project(s: HypothesisSet, v) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    if s.kind == "lifted_psd_fro":
        return project_psd_fro(s, v)[0]
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
        return s.vertices.T @ _nearest_weights(s.vertices, v)
    raise ConfigurationError(f"unknown set kind {s.kind!r}")


def project_rows(s: HypothesisSet, V) -> np.ndarray:
    """`project` of each row of V (a flat or p x p matrix for the lifted set),
    bitwise, as one array of V's shape.  l1-ball rows outside the ball share
    one sort-and-threshold pass (Duchi et al., ICML 2008) and hypercube rows
    one clip; other kinds go row by row through `project`."""
    V = np.asarray(V, dtype=float)
    if V.shape[1:] not in ([(s.p * s.p,), (s.p, s.p)] if s.is_matrix_set else [(s.p,)]):
        raise ConfigurationError("dimension mismatch in project_rows")
    if s.kind == "hypercube":
        return np.clip(V, -s.radius, s.radius)
    if s.kind != "l1_ball":
        return np.array([project(s, v.reshape(s.ambient)) for v in V]).reshape(V.shape)
    out = V.copy()
    outside = ~(np.abs(V).sum(axis=1) <= s.radius)
    A = np.abs(V[outside])
    U = np.sort(A, axis=1)[:, ::-1]
    top = U[:, :1].copy()
    U -= top
    A -= top
    css = U.cumsum(axis=1)
    rho = s.p - (U * _ranks(s.p) > css - s.radius)[:, ::-1].argmax(axis=1)
    theta = (css[np.arange(len(A)), rho - 1] - s.radius) / rho
    out[outside] = np.maximum(A - theta[:, None], 0.0) * np.sign(V[outside])
    return out


@lru_cache(maxsize=16)
def _ranks(d: int) -> np.ndarray:
    """Read-only float vector 1, 2, ..., d."""
    ranks = np.arange(1.0, d + 1.0)
    ranks.flags.writeable = False
    return ranks


def project_l1_ball(v: np.ndarray, radius: float) -> np.ndarray:
    """Exact sort-and-threshold Euclidean projection onto the l1 ball.  The
    magnitudes are shifted by their maximum before the cumulative sum, so
    that the threshold does not cancel when max |v| dwarfs the radius."""
    a = np.abs(v)
    if a.sum() <= radius:
        return v.copy()
    u = np.sort(a)[::-1]
    top = u[0]
    u -= top
    a -= top
    css = u.cumsum()
    rho = (u * _ranks(v.size) > css - radius).nonzero()[0][-1] + 1
    theta = (css[rho - 1] - radius) / rho
    a -= theta
    np.maximum(a, 0.0, out=a)
    a *= np.sign(v)
    return a


def _nearest_weights(P: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Convex weights w (one per row of P) of the point P^T w of conv(P)
    nearest to v, by Wolfe's minimum-norm-point algorithm ("Finding the
    nearest point in a polytope", Math. Programming 11, 1976) on P - v.

    From the row nearest to v, a major cycle adds the row q of P - v that
    minimises <q, x> to the corral S.  It stops once x.x - <q, x> <= 1e-12
    max |q|^2 (at once for one row, or v on a row), once x stops shortening,
    at p + 1 rows, or after 4 m + 40 cycles.  A minor cycle moves x to the
    minimiser of aff(S), with weights from B = pinv(D^T) for the rows D of
    P[S] minus its first (updated per added row, rebuilt after a drop);
    while a weight is <= 0 it steps there until a weight reaches 0, and
    drops that row.
    """
    Q = P - v
    sq = np.einsum("ij,ij->i", Q, Q)
    tol, p = 1e-12 * sq.max(), P.shape[1]
    S, lam = [int(sq.argmin())], np.ones(1)
    x, xx = Q[S[0]], sq[S[0]]
    D, B = np.empty((p, p)), np.empty((p, p))
    for _ in range(4 * P.shape[0] + 40):
        g = Q @ x
        i, k = int(g.argmin()), len(S) - 1
        if xx - g[i] <= tol or i in S or k == p:
            break
        d = D[k] = P[i] - P[S[0]]
        Bd = B[:k] @ d
        r = d - Bd @ D[:k]
        B[k] = r / (r @ r)
        B[:k] -= Bd[:, None] * B[k]
        S.append(i)
        lam = np.concatenate((lam, [0.0]))
        while True:
            t = B[:len(S) - 1] @ -Q[S[0]]
            a = np.concatenate(([1.0 - t.sum()], t))
            if a.min() > 0.0:
                break
            step = np.where(a <= 0.0, lam / np.maximum(lam - a, np.finfo(float).tiny),
                            np.inf)
            j = int(step.argmin())
            lam = lam + step[j] * (a - lam)
            keep = lam > 0.0
            keep[j] = False
            S, lam = [s for s, kept in zip(S, keep) if kept], lam[keep]
            D[:len(S) - 1] = P[S[1:]] - P[S[0]]
            B[:len(S) - 1] = np.linalg.pinv(D[:len(S) - 1].T)
        lam = a
        x = Q[S[0]] + t @ D[:len(S) - 1]
        if not x @ x < xx:
            break
        xx = x @ x
    w = np.zeros(P.shape[0])
    w[S] = lam
    return w


def project_psd_fro(s: HypothesisSet, B: np.ndarray):
    """Nearest point X of PSD-intersect-Frobenius-ball to sym(B), and the
    positive eigenpairs (V, w) of X: X = V diag(w) V^T up to rounding.

    One eigendecomposition: clip the eigenvalues at 0, then scale onto the
    ball.  This is exact because projecting onto a closed cone intersected
    with an origin-centred ball is the cone projection followed by the ball
    projection.  V is a slice of eigh's vectors, p x 0 if none is positive:
    a boolean-mask gather would copy it in Fortran order, slower in x @ V.
    """
    B = np.asarray(B, dtype=float)
    if B.shape != (s.p, s.p):
        raise ConfigurationError("dimension mismatch in project (lifted)")
    vals, vecs = np.linalg.eigh(0.5 * (B + B.T))
    X = (vecs * np.maximum(vals, 0.0)) @ vecs.T
    X = 0.5 * (X + X.T)  # exactly symmetric, as the solver's iterates need
    k = int(np.searchsorted(vals, 0.0, side="right"))
    nrm = np.linalg.norm(X, "fro")
    scale = s.radius / nrm if nrm > s.radius else 1.0
    return X * scale, vecs[:, k:], vals[k:] * scale


def contains(s: HypothesisSet, v, tol: float = MEMBERSHIP_TOL) -> bool:
    """Whether v (for the lifted set a flat or p x p matrix, tested by
    `eigvalsh` of its symmetric part) lies in the set; a polytope point
    is in it when within tol of a vertex, else of its projection."""
    v = np.asarray(v, dtype=float)
    if s.kind == "l1_ball":
        return bool(np.abs(v).sum() <= s.radius + tol)
    if s.kind == "l2_ball":
        return bool(np.linalg.norm(v - s.center) <= s.radius + tol)
    if s.kind == "hypercube":
        return bool(np.max(np.abs(v)) <= s.radius + tol)
    if s.kind == "polytope":
        return bool(np.min(np.linalg.norm(s.vertices - v, axis=1)) <= tol
                    or np.linalg.norm(project(s, v) - v) <= tol)
    if s.kind == "lifted_psd_fro":
        M = v.reshape(s.p, s.p)
        B = 0.5 * (M + M.T)
        return bool(np.linalg.eigvalsh(B)[0] >= -tol
                    and np.linalg.norm(B, "fro") <= s.radius + tol)
    raise ConfigurationError(f"unknown set kind {s.kind!r}")


# ---------------------------------------------------------------------------
# Support functions and vertex representations
# ---------------------------------------------------------------------------

def support_function(s: HypothesisSet, z) -> float:
    """sup over the set of <z, v> (Frobenius pairing for the matrix set)."""
    return float(support_function_rows(s, np.asarray(z, dtype=float)[None])[0])


def support_function_rows(s: HypothesisSet, Z) -> np.ndarray:
    """`support_function` of each row of Z as one array; a lifted-set row
    is a flat or p x p matrix, and one batched `eigvalsh` takes them all.
    A polytope's rows are scored in slices whose products with the vertices
    take at most PAIR_BLOCK_BYTES."""
    Z = np.asarray(Z, dtype=float)
    if s.kind == "polytope":
        P = s.vertices
        rows = max(1, PAIR_BLOCK_BYTES // (8 * P.shape[0]))
        return np.concatenate([(Z[i:i + rows] @ P.T).max(axis=1)
                               for i in range(0, Z.shape[0], rows)])
    if s.kind == "l1_ball":
        return s.radius * np.abs(Z).max(axis=1)
    if s.kind == "l2_ball":
        return s.radius * np.linalg.norm(Z, axis=1) + Z @ s.center
    if s.kind == "hypercube":
        return s.radius * np.abs(Z).sum(axis=1)
    if s.kind == "lifted_psd_fro":
        M = Z.reshape(-1, s.p, s.p)
        vals = np.linalg.eigvalsh(0.5 * (M + M.transpose(0, 2, 1)))
        return s.radius * np.sqrt((np.maximum(vals, 0.0) ** 2).sum(axis=1))
    raise ConfigurationError(f"unknown set kind {s.kind!r}")


def vertices_of(s: HypothesisSet) -> np.ndarray:
    """Vertex list for polytopal sets (l1 ball, hypercube, explicit polytope)."""
    if s.kind == "polytope":
        return s.vertices
    if s.kind == "l1_ball":
        eye = np.eye(s.p)
        return np.vstack([s.radius * eye, -s.radius * eye])
    if s.kind == "hypercube":
        if 2 ** s.p > MAX_VERTICES:
            raise ConfigurationError("hypercube vertex list too large")
        grid = np.array(np.meshgrid(*([[-s.radius, s.radius]] * s.p))).reshape(s.p, -1).T
        return grid
    raise ConfigurationError(f"{s.kind} has no finite vertex representation")


# ---------------------------------------------------------------------------
# Direction sampler
# ---------------------------------------------------------------------------

def sample_directions(s: HypothesisSet, center, t: float, n_dirs: int,
                      seed: int) -> np.ndarray:
    """Unit directions v with center + t v in the set, one per row; t = 0
    samples the cone of feasible directions, cone(K - center).

    Every point w of K farther than max(t, 1e-12) from the center gives the
    direction v = (w - center) / |w - center|, and center + t v lies on the
    segment from the center to w, so in K by convexity.  The points are the
    vertices of a polytopal set (not a hypercube with p > 12), then one
    `project_rows` of center + r g for n_dirs unit Gaussian g, with radii r
    log-uniform on [max(t, 1e-3 D), 3 max(D, t)], D the diameter proxy.  A
    direction d is dropped if max(kept_before @ d) >= cos(ANGULAR_DEDUP_TOL);
    only rows that a blocked Gram screen finds at a cosine >= that bound
    less 1e-9 to an earlier row take this test.  The margin far exceeds the
    rounding gap of gemm against gemv entries of unit vectors, so the
    screen changes no row.  An empty (0, dim) array stands for an empty
    slice, or for a cone of the center alone.
    """
    if not (isinstance(n_dirs, (int, np.integer)) and n_dirs >= 1):
        raise ConfigurationError(f"n_dirs must be an integer >= 1, got {n_dirs!r}")
    if not (t >= 0):
        raise ConfigurationError(f"t must be >= 0, got {t!r}")
    flat = np.asarray(center, dtype=float).ravel()
    if not contains(s, flat):
        raise ConfigurationError("center must belong to the set")
    rng = rng_for(seed, "directions")
    scale = _diameter_proxy(s)
    g = rng.standard_normal((n_dirs, flat.size))
    r = np.exp(rng.uniform(np.log(max(t, 1e-3 * scale)),
                           np.log(3.0 * max(scale, t)), size=n_dirs))
    g *= (r / np.linalg.norm(g, axis=1))[:, None]
    polytopal = s.kind in ("polytope", "l1_ball") or (s.kind == "hypercube" and s.p <= 12)
    W = np.vstack(([vertices_of(s)] if polytopal else []) + [project_rows(s, flat + g)])
    W -= flat
    nrm = np.linalg.norm(W, axis=1)
    keep = nrm > max(t, 1e-12)
    return _dedup_directions(W[keep] / nrm[keep, None])


def _diameter_proxy(s: HypothesisSet) -> float:
    if s.kind == "polytope":  # 1.0 for the one-point set {0}
        return 2.0 * float(np.linalg.norm(s.vertices, axis=1).max()) or 1.0
    return 2.0 * s.radius


def _dedup_directions(dirs: np.ndarray, tol: float = ANGULAR_DEDUP_TOL) -> np.ndarray:
    m, cos_tol = dirs.shape[0], np.cos(tol)
    keep = np.ones(m, dtype=bool)
    rows = max(1, PAIR_BLOCK_BYTES // (8 * max(m, 1)))
    for i in range(0, m, rows):  # the screen: cosines with all earlier rows
        C = dirs[i:i + rows] @ dirs[:i + rows].T
        C[np.arange(i, i + C.shape[0])[:, None] <= np.arange(C.shape[1])] = -np.inf
        keep[i:i + rows] = C.max(axis=1) < cos_tol - 1e-9
    for j in np.flatnonzero(~keep):  # the exact test, in order
        keep[j] = not np.max(dirs[:j][keep[:j]] @ dirs[j]) >= cos_tol
    return dirs[keep]


# ---------------------------------------------------------------------------
# Skeletons and diameters
# ---------------------------------------------------------------------------

def sparse_skeleton_sampler(k: int, p: int, n_points: int, seed: int) -> HypothesisSet:
    """The polytope of a skeleton of {v : ||v||_0 <= k, ||v||_2 <= 3}, whose
    hull covers the descent cone of the l1 ball at a k-sparse point on the sphere.

    Uniform size-k supports with directions on the k-sphere scaled to radius
    3; the sample is symmetrized so Euclidean diameter is exactly 6.
    """
    if not (1 <= k <= p):
        raise ConfigurationError("need 1 <= k <= p")
    if n_points < 1:
        raise ConfigurationError(f"n_points must be >= 1, got {n_points!r}")
    rng = rng_for(seed, "sparse-skeleton")
    half = (n_points + 1) // 2
    pts = np.zeros((half, p))
    for i in range(half):
        support = rng.choice(p, size=k, replace=False)
        g = rng.standard_normal(k)
        g /= np.linalg.norm(g)
        pts[i, support] = 3.0 * g
    return polytope(np.vstack([pts, -pts]))


def pairwise_max(points, rows_fn):
    """max over i < j of rows_fn(points[i] - points[j]); 0.0 below two points.

    rows_fn maps an (r, d) array of differences to r values of a semi-norm,
    or to an (r, k) array of k semi-norms, whose k maxima are then returned
    as an array.  When the rows of points, as a multiset, equal those of
    -points, each maximum is attained at an antipodal pair: it is
    2 max rows_fn(points), one rows_fn call on the m points after one row
    sort.  Otherwise the pairs are scanned in square tiles of at most
    PAIR_BLOCK_BYTES of difference rows.
    """
    P = np.asarray(points, dtype=float)
    m, d = P.shape
    if m < 2:
        return 0.0
    if _negation_closed(P):
        best = 2.0 * rows_fn(P).max(axis=0)
    else:
        side = max(1, int(np.sqrt(PAIR_BLOCK_BYTES / (8 * d))))
        best = 0.0
        for a in range(0, m - 1, side):
            for b in range(a, m, side):
                diffs = P[a:a + side, None, :] - P[None, b:b + side, :]
                vals = rows_fn(diffs.reshape(-1, d))
                vals = vals.reshape(diffs.shape[:2] + vals.shape[1:])
                if a == b:  # the diagonal tile: keep j > i
                    vals[np.tril_indices(vals.shape[0])] = 0.0
                best = np.maximum(best, vals.max(axis=(0, 1)))
    return float(best) if np.ndim(best) == 0 else best


def _negation_closed(P: np.ndarray) -> bool:
    """Whether the rows of P, as a multiset, equal the rows of -P (exactly).

    Negation reverses the lexicographic order of rows, so -P sorted is the
    negated reverse of P sorted: one sort decides it.
    """
    S = P[np.lexsort(P.T[::-1])]
    return bool(np.array_equal(S, -S[::-1]))


# ---------------------------------------------------------------------------
# Convex-hull membership certificates
# ---------------------------------------------------------------------------

def certify_hull_membership(points: np.ndarray, vectors: np.ndarray,
                            tol: float = 1e-6, prefilter: int = 500) -> float:
    """Largest distance from the vectors to conv(points U {0}), exact when
    it exceeds tol, up to the stopping gap of the `project` of a polytope.

    Each vector is measured first against the hull of its `prefilter`
    most-correlated atoms, which lies inside the full hull, and against
    every atom only when it is farther than tol from that.  A result within
    tol bounds every distance from above.
    """
    vectors = np.atleast_2d(np.asarray(vectors, dtype=float))
    origin = np.zeros((1, points.shape[1]))
    cut = points.shape[0] > prefilter
    worst = 0.0
    for v in vectors:
        top = (np.argpartition(points @ v, -prefilter)[-prefilter:] if cut
               else slice(None))
        r = np.linalg.norm(project(polytope(np.vstack([points[top], origin])), v) - v)
        if r > tol and cut:
            r = np.linalg.norm(project(polytope(np.vstack([points, origin])), v) - v)
        worst = max(worst, float(r))
    return worst
