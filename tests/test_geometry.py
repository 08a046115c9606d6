import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from subexp_lasso import geometry as geo
from subexp_lasso.distributions import (
    euclidean_scaled, frobenius_scaled, infinity_scaled, mt_euclidean,
    mt_infinity, operator_scaled, seminorm_eval, seminorm_rows, zero_norm)
from subexp_lasso.errors import ConfigurationError
from subexp_lasso.seeding import rng_for


def random_set(rng, p):
    kind = rng.integers(0, 4)
    if kind == 0:
        return geo.l1_ball(float(rng.uniform(0.5, 3.0)), p)
    if kind == 1:
        return geo.l2_ball(float(rng.uniform(0.5, 3.0)), p,
                           center=rng.standard_normal(p) * 0.3)
    if kind == 2:
        return geo.hypercube(float(rng.uniform(0.3, 2.0)), p)
    return geo.polytope(rng.standard_normal((rng.integers(3, 9), p)))


def pairwise_diameter(points):
    """Largest pairwise l2 distance of a point list."""
    return geo.pairwise_max(points, lambda V: seminorm_rows(euclidean_scaled(1.0), V))


def sample_feasible(rng, s, m):
    """Vectorized feasible points for the oracle property tests."""
    p = s.p
    if s.kind == "l1_ball":
        g = rng.standard_normal((m, p))
        w = np.abs(g) / np.abs(g).sum(axis=1, keepdims=True)
        radii = s.radius * rng.uniform(0, 1, size=(m, 1)) ** (1.0 / p)
        return np.sign(g) * w * radii
    if s.kind == "l2_ball":
        g = rng.standard_normal((m, p))
        g /= np.linalg.norm(g, axis=1, keepdims=True)
        radii = s.radius * rng.uniform(0, 1, size=(m, 1)) ** (1.0 / p)
        return s.center + g * radii
    if s.kind == "hypercube":
        return rng.uniform(-s.radius, s.radius, size=(m, p))
    w = rng.dirichlet(np.ones(s.vertices.shape[0]), size=m)
    return w @ s.vertices


# ---------------------------------------------------------------------------
# Projection
# ---------------------------------------------------------------------------

def test_projection_identity_inside_set():
    rng = np.random.default_rng(0)
    for trial in range(40):
        p = int(rng.integers(2, 7))
        s = random_set(rng, p)
        v = sample_feasible(rng, s, 1)[0]
        assert np.linalg.norm(geo.project(s, v) - v) < 1e-8


def test_projection_idempotence():
    rng = np.random.default_rng(1)
    for trial in range(40):
        p = int(rng.integers(2, 7))
        s = random_set(rng, p)
        v = 3.0 * rng.standard_normal(p)
        once = geo.project(s, v)
        twice = geo.project(s, once)
        assert np.linalg.norm(twice - once) < 1e-12


def test_l1_projection_hand_example():
    got = geo.project(geo.l1_ball(1.0, 2), np.array([1.0, 1.0]))
    assert np.allclose(got, [0.5, 0.5], atol=1e-12)


def test_l1_projection_matches_dual_bisection_oracle():
    # independent oracle: bisection on the soft-threshold level
    rng = np.random.default_rng(2)
    for _ in range(200):
        p = int(rng.integers(2, 7))
        r = float(rng.uniform(0.3, 2.0))
        v = 3.0 * rng.standard_normal(p)
        got = geo.project(geo.l1_ball(r, p), v)
        if np.abs(v).sum() <= r:
            oracle = v
        else:
            lo, hi = 0.0, float(np.abs(v).max())
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                if np.maximum(np.abs(v) - mid, 0.0).sum() > r:
                    lo = mid
                else:
                    hi = mid
            oracle = np.sign(v) * np.maximum(np.abs(v) - hi, 0.0)
        assert np.linalg.norm(got - oracle) < 1e-8


def _l1_sort_threshold_oracle(v, radius):
    a = np.abs(v)
    if a.sum() <= radius:
        return v.copy()
    # magnitudes less their maximum, so that the threshold does not cancel
    top = a.max()
    u = np.sort(a)[::-1] - top
    css = np.cumsum(u)
    idx = np.arange(1, v.size + 1)
    rho = np.max(np.nonzero(u * idx > css - radius)[0]) + 1
    theta = (css[rho - 1] - radius) / rho
    return np.sign(v) * np.maximum((a - top) - theta, 0.0)


@settings(max_examples=300, deadline=None)
@given(v=arrays(float, st.integers(1, 60), elements=st.floats(-1e3, 1e3)),
       radius=st.floats(1e-3, 1e3))
def test_l1_projection_equals_sort_threshold_oracle(v, radius):
    got = geo.project_l1_ball(v, radius)
    assert got.tobytes() == _l1_sort_threshold_oracle(v, radius).tobytes()
    # rounding of the cumulative sum behind theta: d * eps * ||v||_1
    slack = 4.0 * v.size * np.finfo(float).eps * (radius + np.abs(v).sum())
    assert np.abs(got).sum() <= radius + slack


@pytest.mark.parametrize("v,nearest", [
    ([1e15, 0.0, 0.0], [0.8, 0.0, 0.0]),
    ([1e16, 0.0, 0.0], [0.8, 0.0, 0.0]),
    ([0.0, -1e17, 0.0], [0.0, -0.8, 0.0]),
    ([1e16, 1e16, 0.0], [0.4, 0.4, 0.0]),
])
def test_l1_projection_of_a_huge_input_is_the_nearest_point(v, nearest):
    # max |v| far above 2^50 times the radius: css - radius and a - theta
    # would cancel, so the kernels subtract the maximum magnitude first
    s = geo.l1_ball(0.8, 3)
    assert np.array_equal(geo.project(s, v), nearest)
    assert np.array_equal(geo.project_rows(s, [v, [0.1, 0.2, 0.3]])[0], nearest)


@settings(max_examples=200, deadline=None)
@given(v=arrays(float, st.integers(1, 30), elements=st.floats(-1.0, 1.0)),
       scale=st.integers(0, 900), radius=st.floats(1e-3, 1e3))
def test_l1_projection_of_a_scaled_input_stays_on_the_sphere(v, scale, radius):
    # an input far outside lands on the sphere to rounding of the radius,
    # not of the input, and keeps only coordinates within radius of the top
    v = v * 2.0 ** scale
    if not np.abs(v).sum() > 2.0 * radius:
        return
    got = geo.project_l1_ball(v, radius)
    assert abs(np.abs(got).sum() - radius) <= 4.0 * v.size * np.finfo(float).eps * radius
    assert np.all(got * v >= 0.0)
    assert np.all((got == 0.0) | (np.abs(v) >= np.abs(v).max() - radius))
    assert np.array_equal(geo.project_rows(geo.l1_ball(radius, v.size), [v])[0], got)


def test_lifted_projection_psd_clip_example():
    s = geo.lifted_psd_fro(10.0, 2)
    got = geo.project(s, np.diag([1.0, -1.0]))
    assert np.allclose(got, np.diag([1.0, 0.0]), atol=1e-10)


def test_lifted_projection_feasibility():
    rng = np.random.default_rng(3)
    s = geo.lifted_psd_fro(1.5, 4)
    for _ in range(20):
        B = rng.standard_normal((4, 4))
        X = geo.project(s, B)
        assert geo.contains(s, X)
        again = geo.project(s, X)
        assert np.linalg.norm(again - X, "fro") < 1e-9


@settings(max_examples=200, deadline=None)
@given(p=st.integers(1, 6), radius=st.floats(0.1, 5.0),
       seed=st.integers(0, 2 ** 32 - 1), spread=st.floats(0.01, 10.0))
def test_lifted_projection_is_nearest_point(p, radius, seed, spread):
    # variational inequality <sym(B) - P(B), Z - P(B)> <= 0 for feasible Z
    rng = np.random.default_rng(seed)
    s = geo.lifted_psd_fro(radius, p)
    B = spread * rng.standard_normal((p, p))
    P = geo.project(s, B)
    assert geo.contains(s, P) and np.array_equal(P, P.T)
    sym = 0.5 * (B + B.T)
    for _ in range(20):
        A = rng.standard_normal((p, int(rng.integers(1, p + 1))))
        Z = A @ A.T
        Z *= radius * rng.uniform(0.0, 1.0) ** 0.5 / np.linalg.norm(Z, "fro")
        assert np.sum((sym - P) * (Z - P)) <= 1e-9


def test_projection_optimality_oracle_property():
    # brute-force oracle: no random feasible point may beat the projection
    rng = np.random.default_rng(4)
    for trial in range(150):
        p = int(rng.integers(2, 7))
        s = random_set(rng, p)
        v = 4.0 * rng.standard_normal(p)
        proj = geo.project(s, v)
        dist = np.linalg.norm(v - proj)
        cand = sample_feasible(rng, s, 10_000)
        best = np.min(np.linalg.norm(cand - v, axis=1))
        assert dist <= best + 1e-8


def test_projection_non_expansiveness():
    rng = np.random.default_rng(5)
    for trial in range(100):
        p = int(rng.integers(2, 7))
        s = random_set(rng, p)
        u = 4.0 * rng.standard_normal(p)
        v = 4.0 * rng.standard_normal(p)
        lhs = np.linalg.norm(geo.project(s, u) - geo.project(s, v))
        assert lhs <= np.linalg.norm(u - v) + 1e-10


# ---------------------------------------------------------------------------
# Support functions
# ---------------------------------------------------------------------------

def test_support_function_examples():
    assert geo.support_function(geo.l1_ball(2.0, 2), np.array([1.0, -3.0])) == 6.0
    tri = geo.polytope([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    assert geo.support_function(tri, np.array([2.0, 1.0])) == 2.0
    assert geo.support_function(tri, np.zeros(2)) == 0.0
    assert geo.support_function(geo.hypercube(0.5, 3), np.array([1.0, -2.0, 3.0])) == 3.0
    ball = geo.l2_ball(2.0, 2, center=[1.0, 0.0])
    assert geo.support_function(ball, np.array([3.0, 4.0])) == pytest.approx(13.0)


def test_support_function_lifted_psd():
    s = geo.lifted_psd_fro(2.0, 3)
    Z = np.diag([3.0, -1.0, 0.5])
    # sup over PSD cap: radius times norm of the positive eigenvalue part
    assert geo.support_function(s, Z) == pytest.approx(2.0 * np.sqrt(9.0 + 0.25))


SUPPORT_KINDS = ("l1_ball", "hypercube", "polytope", "l2_ball", "lifted_psd_fro")


@settings(max_examples=300, deadline=None)
@given(kind=st.sampled_from(SUPPORT_KINDS), p=st.integers(1, 6), m=st.integers(1, 40),
       seed=st.integers(0, 2 ** 32 - 1), spread=st.floats(1e-3, 1e3))
def test_support_function_rows_equal_the_per_row_calls(kind, p, m, seed, spread):
    # bitwise for the l1 ball and the hypercube, whose rows are reduced as in
    # a one-row call; the sets scored through a product (a matrix product
    # may round a block's rows otherwise than one row) within 1e-12 of the
    # Hoelder bound |z|_1 max_v |v|_inf on the sup
    rng = np.random.default_rng(seed)
    radius = float(rng.uniform(0.1, 5.0))
    points = spread * rng.standard_normal((int(rng.integers(1, 30)), p))
    center = spread * rng.standard_normal(p)
    s = {"l1_ball": lambda: geo.l1_ball(radius, p),
         "hypercube": lambda: geo.hypercube(radius, p),
         "polytope": lambda: geo.polytope(points),
         "l2_ball": lambda: geo.l2_ball(radius, p, center),
         "lifted_psd_fro": lambda: geo.lifted_psd_fro(radius, p)}[kind]()
    Z = spread * rng.standard_normal((m, p * p if kind == "lifted_psd_fro" else p))
    rows = geo.support_function_rows(s, Z)
    one_by_one = np.array([geo.support_function(s, z) for z in Z])
    if kind in ("l1_ball", "hypercube"):
        assert np.array_equal(rows, one_by_one)
    else:
        extent = {"l2_ball": radius + np.abs(center).max(), "lifted_psd_fro": radius,
                  "polytope": np.abs(points).max()}[kind]
        assert np.all(np.abs(rows - one_by_one) <= 1e-12 * extent * np.abs(Z).sum(axis=1))
    if kind == "lifted_psd_fro":
        assert np.array_equal(rows, geo.support_function_rows(s, Z.reshape(m, p, p)))


def test_support_function_rows_score_point_lists_in_slices(monkeypatch):
    rng = np.random.default_rng(8)
    P, Z = rng.standard_normal((50, 4)), rng.standard_normal((20, 4))
    oracle = np.array([np.max(P @ z) for z in Z])
    monkeypatch.setattr(geo, "PAIR_BLOCK_BYTES", 8 * 50 * 3)  # slices of 3 rows
    assert np.allclose(geo.support_function_rows(geo.polytope(P), Z), oracle,
                       rtol=1e-12, atol=1e-12)


def test_support_duality_with_projection():
    rng = np.random.default_rng(6)
    big = 1e6
    for trial in range(20):
        p = int(rng.integers(2, 6))
        s = random_set(rng, p)
        z = rng.standard_normal(p)
        h = geo.support_function(s, z)
        inner = float(z @ geo.project(s, big * z))
        assert inner == pytest.approx(h, rel=1e-4, abs=1e-6)


SET_KINDS = ("l1_ball", "l2_ball", "hypercube", "polytope", "lifted_psd_fro")


def make_set(kind, rng, p, radius):
    """A set of the given kind in R^p (or p x p), drawing its data from rng."""
    return {"l1_ball": lambda: geo.l1_ball(radius, p),
            "l2_ball": lambda: geo.l2_ball(radius, p, 0.3 * rng.standard_normal(p)),
            "hypercube": lambda: geo.hypercube(radius, p),
            "polytope": lambda: geo.polytope(rng.standard_normal((int(rng.integers(1, 8)), p))),
            "lifted_psd_fro": lambda: geo.lifted_psd_fro(radius, p)}[kind]()


def stacked_projections(s, V):
    return np.array([geo.project(s, v.reshape(s.ambient)).ravel()
                     for v in V]).reshape(V.shape)


@settings(max_examples=200, deadline=None)
@given(kind=st.sampled_from(SET_KINDS), p=st.integers(1, 6), m=st.integers(0, 12),
       seed=st.integers(0, 2 ** 32 - 1), data=st.data())
def test_project_rows_equals_the_stacked_one_row_projections_bitwise(kind, p, m, seed,
                                                                     data):
    rng = np.random.default_rng(seed)
    s = make_set(kind, rng, p, float(rng.uniform(0.3, 3.0)))
    dim = p * p if s.is_matrix_set else p
    # zero rows, rows inside and far outside, rows with tied magnitudes
    scales = rng.choice([0.0, 0.05, 0.5, 1.0, 10.0], size=(m, 1))
    drawn = scales * rng.standard_normal((m, dim))
    ties = data.draw(arrays(np.float64, (int(rng.integers(0, 4)), dim),
                            elements=st.sampled_from([0.0, -0.0, 0.5, -0.5, 1.0, -2.0])
                            | st.floats(-4.0, 4.0)))
    # rows on the set: its projections (on the boundary from outside) and vertices
    on = stacked_projections(s, np.vstack([drawn, ties])[:4])
    corners = ([geo.vertices_of(s)] if kind in ("l1_ball", "polytope")
               or (kind == "hypercube" and p <= 4) else [])
    V = np.vstack([drawn, ties, on] + corners)
    V = np.vstack([V, V[:3]])[rng.permutation(len(V) + min(3, len(V)))]  # repeats
    rows = geo.project_rows(s, V)
    assert rows.shape == V.shape
    assert np.array_equal(rows.view(np.uint64), stacked_projections(s, V).view(np.uint64))
    if s.is_matrix_set:
        mats = V.reshape(-1, p, p)
        assert np.array_equal(geo.project_rows(s, mats).view(np.uint64),
                              rows.reshape(mats.shape).view(np.uint64))


@pytest.mark.parametrize("s,V", [
    (geo.l1_ball(1.0, 3), np.zeros((2, 4))),
    (geo.hypercube(1.0, 3), np.zeros(3)),
    (geo.l2_ball(1.0, 3), np.zeros((2, 2))),
    (geo.polytope(np.eye(3)), np.zeros((1, 3, 1))),
    (geo.lifted_psd_fro(1.0, 2), np.zeros((2, 3))),
])
def test_project_rows_rejects_rows_of_another_dimension(s, V):
    with pytest.raises(ConfigurationError, match="dimension mismatch in project_rows"):
        geo.project_rows(s, V)


def test_vertices_of():
    v = geo.vertices_of(geo.l1_ball(2.0, 3))
    assert v.shape == (6, 3)
    assert np.allclose(np.abs(v).sum(axis=1), 2.0)
    cube = geo.vertices_of(geo.hypercube(1.0, 3))
    assert cube.shape == (8, 3)
    with pytest.raises(ConfigurationError):
        geo.vertices_of(geo.l2_ball(1.0, 3))


# ---------------------------------------------------------------------------
# Direction sampler
# ---------------------------------------------------------------------------

@settings(max_examples=150, deadline=None)
@given(kind=st.sampled_from(SET_KINDS), p=st.integers(1, 5), n_dirs=st.integers(1, 40),
       seed=st.integers(0, 2 ** 32 - 1), t=st.just(0.0) | st.floats(1e-3, 4.0))
def test_sample_directions_rows_are_unit_and_in_the_slice(kind, p, n_dirs, seed, t):
    rng = np.random.default_rng(seed)
    s = make_set(kind, rng, p, float(rng.uniform(0.3, 3.0)))
    # a point of the set, on its boundary when the draw lands outside
    center = geo.project(s, rng.standard_normal(s.ambient)).ravel()
    dirs = geo.sample_directions(s, center, t, n_dirs, seed)
    assert dirs.ndim == 2 and dirs.shape[1] == center.size
    assert np.allclose(np.linalg.norm(dirs, axis=1), 1.0, atol=1e-12)
    for v in dirs:
        assert geo.contains(s, (center + t * v).reshape(s.ambient))


def test_sample_directions_keeps_every_draw_inside_an_l2_ball():
    # t below the distance 1 to the boundary: every projected draw lies
    # farther than t from the center, and no two share a direction
    s = geo.l2_ball(1.0, 5)
    for t in (0.0, 0.5):
        dirs = geo.sample_directions(s, np.zeros(5), t, 100, 7)
        assert dirs.shape == (100, 5)
        assert np.allclose(np.linalg.norm(dirs, axis=1), 1.0, atol=1e-12)


@pytest.mark.parametrize("n_dirs", [0, -1, 2.5])
def test_sample_directions_rejects_a_count_below_one(n_dirs):
    with pytest.raises(ConfigurationError, match="n_dirs"):
        geo.sample_directions(geo.l2_ball(2.0, 3), np.zeros(3), 0.5, n_dirs, 0)


@pytest.mark.parametrize("t", [-0.1, math.nan])
def test_sample_directions_rejects_a_negative_or_nan_scale(t):
    with pytest.raises(ConfigurationError, match="t must be >= 0"):
        geo.sample_directions(geo.l2_ball(2.0, 3), np.zeros(3), t, 10, 0)


def test_sample_directions_on_a_slice_wider_than_the_set_is_empty():
    # no point of the unit l1 ball lies 1e16 from its center: the projected
    # draws of radius up to 3e16 land on the ball, so no row is kept
    dirs = geo.sample_directions(geo.l1_ball(1.0, 5), [0.5, 0.0, 0.0, 0.0, 0.0],
                                 1e16, 64, 3)
    assert dirs.shape == (0, 5)


def test_sphere_slice_membership_recheck_at_vertex():
    s = geo.l1_ball(1.0, 4)
    center = np.eye(4)[0]
    dirs = geo.sample_directions(s, center, 0.1, 64, 8)
    assert dirs.shape[0] > 0
    for v in dirs:
        assert np.abs(center + 0.1 * v).sum() <= 1.0 + 1e-8


def slice_rows_oracle(s, center, t, n_dirs, seed):
    """The rows of sample_directions, one candidate point at a time: the
    vertices of a polytopal set, then the projection of each Gaussian draw;
    a point within t of the center, or a direction within the angular tolerance
    of an earlier row, is passed over."""
    flat = np.asarray(center, dtype=float).ravel()
    rng = rng_for(seed, "directions")
    scale = (2.0 * float(np.linalg.norm(s.vertices, axis=1).max()) or 1.0
             if s.kind == "polytope" else 2.0 * s.radius)
    g = rng.standard_normal((n_dirs, flat.size))
    r = np.exp(rng.uniform(np.log(max(t, 1e-3 * scale)),
                           np.log(3.0 * max(scale, t)), size=n_dirs))
    polytopal = s.kind in ("polytope", "l1_ball") or (s.kind == "hypercube" and s.p <= 12)
    points = list(geo.vertices_of(s)) if polytopal else []
    for row, radius in zip(g, r):
        draw = flat + radius * row / np.linalg.norm(row)
        points.append(geo.project(s, draw.reshape(s.ambient)).ravel())
    rows = []
    for w in points:
        d = w - flat
        n = float(np.linalg.norm(d))
        if n <= max(t, 1e-12):
            continue
        d = d / n
        if any(float(u @ d) >= np.cos(geo.ANGULAR_DEDUP_TOL) for u in rows):
            continue
        rows.append(d)
    return np.array(rows).reshape(-1, flat.size)


@pytest.mark.parametrize("s,center,t,n_dirs", [
    (geo.l1_ball(1.0, 20), 0.5 * np.eye(20)[0], 0.15, 200),
    (geo.l1_ball(2.0, 6), np.full(6, 0.2), 0.5, 64),
    (geo.l2_ball(1.0, 5, center=np.full(5, 0.1)), np.full(5, 0.3), 0.7, 100),
    (geo.hypercube(0.5, 15), np.full(15, 0.45), 0.2, 30),
    (geo.polytope(np.vstack([np.eye(3), -np.eye(3)]) * 0.7), np.zeros(3), 0.5, 40),
    (geo.lifted_psd_fro(1.0, 3), 0.3 * np.eye(3), 0.2, 20),
])
def test_sphere_slice_accepts_the_per_row_oracle_rows_in_order(s, center, t,
                                                              n_dirs):
    rows = slice_rows_oracle(s, center, t, n_dirs, 11)
    dirs = geo.sample_directions(s, center, t, n_dirs, 11)
    assert rows.shape[0] > 0
    assert dirs.shape == rows.shape
    assert np.allclose(dirs, rows, rtol=0.0, atol=1e-12)
    for v in dirs:
        assert geo.contains(s, (center.ravel() + t * v).reshape(s.ambient))


def dedup_oracle(dirs, tol=geo.ANGULAR_DEDUP_TOL):
    """The per-row loop: each row is tested against the rows kept before it."""
    cos_tol = np.cos(tol)
    kept = np.empty_like(dirs)
    count = 0
    for d in dirs:
        if count and np.max(kept[:count] @ d) >= cos_tol:
            continue
        kept[count] = d
        count += 1
    return kept[:count]


@settings(max_examples=80, deadline=None)
@given(d=st.integers(2, 12), bases=st.integers(1, 10), block_rows=st.integers(1, 7),
       seed=st.integers(0, 2 ** 32 - 1))
def test_screened_dedup_keeps_the_per_row_loops_rows_in_order(d, bases, block_rows, seed):
    # copies of each base row turned by multiples k of the tolerance: exact
    # repeats (0), drops (0.5, 0.9), keeps (1.1, 2), rows the screen's 1e-9
    # cosine margin sends to the exact test (10, 40) and rows it passes (1e4)
    rng = np.random.default_rng(seed)
    tol, rows = geo.ANGULAR_DEDUP_TOL, []
    for _ in range(bases):
        a, u = rng.standard_normal((2, d))
        a /= np.linalg.norm(a)
        u -= (u @ a) * a
        u /= np.linalg.norm(u)
        rows += [a] + [np.cos(k * tol) * a + np.sin(k * tol) * u
                       for k in rng.choice([0.0, 0.5, 0.9, 1.1, 2.0, 10.0, 40.0, 1e4],
                                           size=5)]
    dirs = np.array(rows)[rng.permutation(len(rows))]
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    want = dedup_oracle(dirs)
    assert np.array_equal(geo._dedup_directions(dirs).view(np.uint64), want.view(np.uint64))
    with pytest.MonkeyPatch.context() as mp:  # a screen of several blocks
        mp.setattr(geo, "PAIR_BLOCK_BYTES", 8 * len(dirs) * block_rows)
        got = geo._dedup_directions(dirs)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_screened_dedup_tests_rows_inside_the_margin_exactly():
    # a row 10 tolerances from another lies inside the screen's margin but
    # outside the tolerance: kept; a row 0.9 tolerances away is dropped
    a, u = np.eye(3)[:2]
    tol = geo.ANGULAR_DEDUP_TOL
    dirs = np.array([a] + [np.cos(k * tol) * a + np.sin(k * tol) * u
                           for k in (0.9, 10.0, 10.5, 1e4)])
    assert 1.0 - dirs[2] @ a < 1e-9
    for rows in (dirs, dirs[::-1]):
        assert np.array_equal(geo._dedup_directions(rows), dedup_oracle(rows))
    assert np.array_equal(geo._dedup_directions(dirs), dirs[[0, 2, 4]])
    assert geo._dedup_directions(np.empty((0, 3))).shape == (0, 3)


def contains_oracle(s, v, tol=geo.MEMBERSHIP_TOL):
    """Per-vector membership of polytope and lifted sets, from the formulas."""
    if s.kind == "polytope":
        if float(np.min(np.linalg.norm(s.vertices - v, axis=1))) <= tol:
            return True
        return float(np.linalg.norm(geo.project(s, v) - v)) <= tol
    B = 0.5 * (v + v.T)
    return (float(np.linalg.eigvalsh(B)[0]) >= -tol
            and float(np.linalg.norm(B, "fro")) <= s.radius + tol)


def test_contains_polytope_matches_per_row_formulas():
    rng = np.random.default_rng(31)
    V = rng.standard_normal((6, 3))
    s = geo.polytope(V)
    w = rng.dirichlet(np.ones(6), size=20)
    rows = np.vstack([V, V + 1e-10, w @ V, 2.5 * rng.standard_normal((20, 3)),
                      1.001 * V])
    want = [contains_oracle(s, v) for v in rows]
    assert 0 < sum(want) < len(want)
    assert [geo.contains(s, v) for v in rows] == want


def test_contains_lifted_matches_per_row_formulas():
    rng = np.random.default_rng(32)
    p = 4
    s = geo.lifted_psd_fro(1.5, p)
    G = rng.standard_normal((30, p, p))
    psd = G @ G.transpose(0, 2, 1) * rng.uniform(0.02, 0.5, size=(30, 1, 1))
    mats = np.concatenate([psd, G, psd - 1e-3 * np.eye(p), np.zeros((1, p, p))])
    want = [contains_oracle(s, B) for B in mats]
    assert 0 < sum(want) < len(want)
    assert [geo.contains(s, B) for B in mats] == want
    assert [geo.contains(s, B.ravel()) for B in mats] == want


def test_sphere_slice_requires_feasible_center():
    with pytest.raises(ConfigurationError):
        geo.sample_directions(geo.l1_ball(1.0, 3), np.ones(3), 0.1, 10, 0)


def test_cone_directions_interior_apex_covers_sphere():
    s = geo.l2_ball(1.0, 3)
    small = geo.sample_directions(s, np.zeros(3), 0.0, 50, 10)
    dense = geo.sample_directions(s, np.zeros(3), 0.0, 800, 10)

    def min_angle_stat(dirs, probes):
        cosines = probes @ dirs.T
        return float(np.min(np.arccos(np.clip(np.max(cosines, axis=1), -1, 1))))

    rng = np.random.default_rng(11)
    probes = rng.standard_normal((200, 3))
    probes /= np.linalg.norm(probes, axis=1, keepdims=True)
    assert min_angle_stat(dense, probes) <= min_angle_stat(small, probes)
    # densifying shrinks the worst gap
    gaps = np.arccos(np.clip(np.max(probes @ dense.T, axis=1), -1, 1))
    assert float(np.max(gaps)) < 0.5


def test_cone_directions_at_polytope_vertex():
    square = geo.polytope([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    dirs = geo.sample_directions(square, np.zeros(2), 0.0, 100, 12)
    # all directions must have nonnegative inner product with inward edges
    for edge in (np.array([1.0, 0.0]), np.array([0.0, 1.0])):
        assert np.all(dirs @ edge >= -1e-9)


def test_cone_directions_l1_vertex_edges():
    s = geo.l1_ball(1.0, 2)
    apex = np.eye(2)[0]
    dirs = geo.sample_directions(s, apex, 0.0, 300, 13)
    edges = np.array([[-1.0, 1.0], [-1.0, -1.0]]) / np.sqrt(2.0)
    # every direction lies inside the wedge spanned by the two edges
    angles = np.arccos(np.clip(dirs @ edges.T, -1, 1))
    wedge = np.arccos(float(edges[0] @ edges[1]))
    assert np.all(np.min(angles, axis=1) <= wedge + 1e-9)
    # the extreme edge directions themselves are present (vertex augmentation)
    for e in edges:
        assert np.min(np.linalg.norm(dirs - e, axis=1)) < 1e-9


def test_cone_directions_degenerate_set():
    for apex in ([1.0, 2.0], [0.0, 0.0]):
        singleton = geo.polytope([apex])
        assert geo.sample_directions(singleton, np.array(apex), 0.0, 10, 14).shape == (0, 2)


# ---------------------------------------------------------------------------
# Sparse skeletons and hull containment
# ---------------------------------------------------------------------------

def test_sparse_skeleton_constructive_properties():
    pts = geo.sparse_skeleton_sampler(3, 10, 400, seed=1).vertices
    assert np.all((np.abs(pts) > 0).sum(axis=1) <= 3)
    assert np.all(np.linalg.norm(pts, axis=1) <= 3.0 + 1e-12)
    assert pairwise_diameter(pts) == pytest.approx(6.0)


def test_sparse_skeleton_k_equals_p():
    pts = geo.sparse_skeleton_sampler(4, 4, 200, seed=2).vertices
    assert pairwise_diameter(pts) == pytest.approx(6.0)
    assert np.all(np.linalg.norm(pts, axis=1) <= 3.0 + 1e-12)


def test_sparse_skeleton_axis_points_k1_p2():
    # enumeration oracle: all four signed axis points at radius 3 appear
    pts = geo.sparse_skeleton_sampler(1, 2, 64, seed=3).vertices
    expected = np.array([[3.0, 0.0], [-3.0, 0.0], [0.0, 3.0], [0.0, -3.0]])
    for e in expected:
        assert np.min(np.linalg.norm(pts - e, axis=1)) < 1e-9


def test_sparse_skeleton_validates_k():
    with pytest.raises(ConfigurationError):
        geo.sparse_skeleton_sampler(5, 3, 10, seed=0)
    for n_points in (0, -5):
        with pytest.raises(ConfigurationError, match="n_points"):
            geo.sparse_skeleton_sampler(2, 3, n_points, seed=0)


def sample_descent_cone(rng, p, support, signs, count):
    """Unit directions along which the l1 norm does not increase."""
    off = np.setdiff1d(np.arange(p), support)
    out = []
    got = 0
    while got < count:
        g = rng.standard_normal((500_000, p))
        keep = g[:, support] @ signs + np.abs(g[:, off]).sum(axis=1) <= 0
        acc = g[keep]
        if acc.size:
            out.append(acc / np.linalg.norm(acc, axis=1, keepdims=True))
            got += acc.shape[0]
    return np.vstack(out)[:count]


def test_descent_cone_contained_in_skeleton_hull():
    # 10^4 unit descent-cone vectors vs a dense sparse skeleton sample
    p, k = 10, 3
    rng = np.random.default_rng(21)
    support = np.array([1, 4, 7])
    signs = np.array([1.0, -1.0, 1.0])
    dirs = sample_descent_cone(rng, p, support, signs, 10_000)
    skel = geo.sparse_skeleton_sampler(k, p, 8_000, seed=5)
    worst = geo.certify_hull_membership(skel.vertices, dirs, tol=1e-6)
    assert worst <= 1e-6


def test_hull_membership_detects_outside_point():
    pts = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    inside = geo.certify_hull_membership(pts, np.array([0.2, 0.2]))
    outside = geo.certify_hull_membership(pts, np.array([[0.2, 0.2], [1.5, 0.0]]))
    assert inside < 1e-10
    assert outside > 0.4


def test_hull_membership_residual_is_zero_inside_hull_with_origin():
    # conv{0, e1, e2} contains (0.25, 0.25) = (e1 + e2) / 4 + 0 / 2
    pts = np.eye(2)
    assert geo.certify_hull_membership(pts, np.array([0.25, 0.25])) < 1e-12


def test_hull_membership_residual_is_the_exact_distance():
    # the nearest point of conv{0, e1, e2} to (3, 0.5) is e1, at sqrt(4.25)
    got = geo.certify_hull_membership(np.eye(2), np.array([3.0, 0.5]))
    assert got == pytest.approx(math.sqrt(4.25), rel=1e-12)
    # a prefilter of one atom measures (1.2, 1) against conv{0, 2 e1} first,
    # at distance 1; past tol, the full hull gives (1.1, 0.9), at 0.1 sqrt 2,
    # and within tol the first distance stands as an upper bound
    pts, v = np.array([[2.0, 0.0], [0.0, 2.0]]), np.array([1.2, 1.0])
    got = geo.certify_hull_membership(pts, v, prefilter=1)
    assert got == pytest.approx(0.1 * math.sqrt(2.0), rel=1e-12)
    assert geo.certify_hull_membership(pts, v, tol=2.0, prefilter=1) == pytest.approx(
        1.0, rel=1e-12)


vertex_lists = st.integers(1, 5).flatmap(lambda p: st.tuples(
    arrays(np.float64, st.tuples(st.integers(1, 8), st.just(p)),
           elements=st.floats(-4, 4, allow_subnormal=False)),
    arrays(np.float64, p, elements=st.floats(-20, 20, allow_subnormal=False)),
    st.sampled_from(["plain", "duplicated", "collinear"])))


def _with_degeneracy(V, how):
    """The vertex list with its first row repeated, or with a midpoint and
    an extrapolated point of its first two rows appended."""
    if how == "duplicated":
        return np.vstack([V, V[:1], V])
    if how == "collinear" and V.shape[0] >= 2:
        return np.vstack([V, 0.5 * (V[0] + V[1]), 3.0 * V[1] - 2.0 * V[0]])
    return V


def _assert_nearest(atoms, v, pi):
    """pi is the nearest point of conv(atoms) to v: no atom lies past it."""
    scale = max(1.0, float(np.max(np.sum((atoms - v) ** 2, axis=1))))
    assert float(np.max((atoms - pi) @ (v - pi))) <= 1e-9 * scale


@settings(max_examples=300, deadline=None)
@given(vertex_lists)
def test_nearest_point_kernel_satisfies_the_optimality_oracle(case):
    V, v, how = case
    V = _with_degeneracy(V, how)
    w = geo._nearest_weights(V, v)
    assert np.all(w >= 0.0) and w.sum() == pytest.approx(1.0, abs=1e-12)
    pi = geo.project(geo.polytope(V), v)
    assert np.array_equal(pi, V.T @ w)
    _assert_nearest(V, v, pi)
    atoms = np.vstack([V, np.zeros(V.shape[1])])
    w0 = geo._nearest_weights(atoms, v)
    _assert_nearest(atoms, v, atoms.T @ w0)
    assert geo.certify_hull_membership(V, v) == np.linalg.norm(atoms.T @ w0 - v)


def test_nearest_point_kernel_returns_at_once_on_a_vertex():
    # a single vertex, or v on a vertex, takes no step: the weights are one-hot
    rng = np.random.default_rng(8)
    V = rng.standard_normal((7, 4))
    assert np.array_equal(geo._nearest_weights(V[:1], 5.0 * rng.standard_normal(4)),
                          [1.0])
    for j in range(7):
        assert np.array_equal(geo._nearest_weights(V, V[j]), np.eye(7)[j])
        assert np.array_equal(geo.project(geo.polytope(V), V[j]), V[j])


# ---------------------------------------------------------------------------
# Batched semi-norms and the pairwise-max kernel
# ---------------------------------------------------------------------------

def _reference_seminorm(desc, v):
    """One vector at a time, straight from the definitions."""
    if desc.kind == "zero":
        return 0.0
    if desc.kind in ("frobenius", "operator"):
        side = math.isqrt(v.size)
        sv = np.linalg.svd(v.reshape(side, side), compute_uv=False)
        base = math.sqrt(sum(x * x for x in sv)) if desc.kind == "frobenius" \
            else sv[0]
        return desc.c * float(base)
    w = desc.matrix.T @ v if desc.kind.startswith("mt_") else v
    if desc.kind.endswith("euclidean"):
        return desc.c * math.sqrt(sum(x * x for x in w))
    return desc.c * max(abs(x) for x in w)


def _reference_pair_max(points, fn):
    best = 0.0
    for i in range(len(points)):
        for j in range(i + 1, len(points)):
            best = max(best, fn(points[i] - points[j]))
    return best


def _all_seminorms(rng, d):
    M = rng.standard_normal((d, 3))
    return [zero_norm(), euclidean_scaled(1.3), infinity_scaled(0.6),
            mt_euclidean(M, 0.9), mt_infinity(M, 2.0),
            frobenius_scaled(1.1), operator_scaled(0.7)]


@pytest.mark.parametrize("symmetric", [False, True])
def test_pairwise_max_matches_double_loop_for_every_seminorm(monkeypatch,
                                                             symmetric):
    rng = np.random.default_rng(8)
    d = 4  # a flat 2 x 2 matrix for the frobenius/operator kinds
    base = rng.standard_normal((19, d))
    if symmetric:
        base = np.vstack([base, -base])
    # tiles of 5 x 5 pairs: the point count crosses several tile boundaries;
    # a far point first, inside a tile, or last puts the maximum in each
    far = np.full((1, d), 9.0)
    lists = [base, np.vstack([far, base]), np.vstack([base[:12], far, base[12:]]),
             np.vstack([base, far])]
    monkeypatch.setattr(geo, "PAIR_BLOCK_BYTES", 8 * d * 5 * 5)
    for desc in _all_seminorms(rng, d):
        rows = seminorm_rows(desc, base)
        for row, got in zip(base, rows):
            assert got == pytest.approx(_reference_seminorm(desc, row),
                                        rel=1e-12, abs=1e-15)
            assert seminorm_eval(desc, row) == pytest.approx(got, rel=1e-14)
        for pts in lists:
            want = _reference_pair_max(pts,
                                       lambda v: _reference_seminorm(desc, v))
            got = geo.pairwise_max(pts, lambda V: seminorm_rows(desc, V))
            assert got == pytest.approx(want, rel=1e-12, abs=1e-15)


def test_pairwise_max_crosses_default_tile():
    rng = np.random.default_rng(9)
    d = 4
    side = int(np.sqrt(geo.PAIR_BLOCK_BYTES / (8 * d)))
    pts = rng.standard_normal((side + 7, d))
    got = pairwise_diameter(pts)
    want = _reference_pair_max(pts, lambda v: float(np.linalg.norm(v)))
    assert got == pytest.approx(want, rel=1e-13)
    assert geo.pairwise_max(pts[:1], lambda V: np.ones(len(V))) == 0.0


def _integer_seminorms():
    """Every semi-norm kind; integer mixing matrices keep the mt_* kinds exact."""
    M = np.array([[1.0, -2.0, 0.0], [3.0, 1.0, -1.0], [0.0, 2.0, 2.0],
                  [-1.0, 0.0, 3.0]])
    return [zero_norm(), euclidean_scaled(1.3), infinity_scaled(0.6),
            mt_euclidean(M, 0.9), mt_infinity(M, 2.0), frobenius_scaled(1.1),
            operator_scaled(0.7)]


def _spied_pairwise_max(points, desc):
    """pairwise_max under desc, and the shapes of the rows it evaluated."""
    shapes = []

    def rows_fn(V):
        shapes.append(V.shape)
        return seminorm_rows(desc, V)

    return geo.pairwise_max(points, rows_fn), shapes


def _pair_oracle(points, desc):
    return _reference_pair_max(
        points, lambda v: float(seminorm_rows(desc, v[None])[0]))


@settings(max_examples=150, deadline=None)
@given(rows=st.lists(st.lists(st.integers(-4, 4), min_size=4, max_size=4),
                     min_size=1, max_size=6),
       zeros=st.integers(0, 2), data=st.data())
def test_pairwise_max_on_negation_closed_lists_equals_double_loop(rows, zeros,
                                                                  data):
    # integer coordinates: every sum and product before the final square root
    # is exact, so the one-row scan and the pair scan round the same reals
    P = np.array(rows, dtype=float)
    pts = np.vstack([P, -P, np.zeros((zeros, 4))])
    pts = pts[data.draw(st.permutations(range(len(pts))))]
    for desc in _integer_seminorms():
        got, shapes = _spied_pairwise_max(pts, desc)
        assert shapes == [pts.shape]  # one call on the points themselves
        want = _pair_oracle(pts, desc)
        if desc.kind == "operator":
            # on a tie ||X + Y|| = 2 max ||X|| the SVD of X + Y rounds on its
            # own: X = [[-1, 1], [1, -1]] and Y = [[0, 2], [2, 0]] have norm 2
            # and ||X + Y|| computes to 4 + 1 ulp, so the pair scan can read
            # an ulp or two above the antipodal value
            assert want >= got
            assert got == pytest.approx(want, rel=4 * np.finfo(float).eps)
        else:
            assert got == want


_HALF = np.array([[1.0, -2.0, 0.0, 3.0], [2.0, 2.0, -1.0, 0.0],
                  [0.0, 1.0, 4.0, -1.0], [-3.0, 0.0, 1.0, 1.0]])
_CLOSED = np.vstack([_HALF, -_HALF])


def _nudged(i):
    """_CLOSED with its i-th coordinate (row-major) one ulp up."""
    pts = _CLOSED.copy()
    pts.flat[i] = np.nextafter(pts.flat[i], np.inf)
    return pts


@pytest.mark.parametrize("pts", [
    _nudged(0), _nudged(14), _nudged(31),
    np.vstack([_CLOSED, _CLOSED[:1]]),  # one row more often than its negation
], ids=["ulp-first", "ulp-middle", "ulp-last", "multiplicity"])
def test_pairwise_max_off_symmetry_takes_the_pair_scan(pts):
    m = pts.shape[0]
    for desc in _integer_seminorms():
        got, shapes = _spied_pairwise_max(pts, desc)
        assert shapes == [(m * m, 4)]  # one tile of all pair differences
        assert got == pytest.approx(_pair_oracle(pts, desc), rel=1e-13)


def test_seminorm_rows_errors():
    with pytest.raises(ConfigurationError, match="square"):
        seminorm_rows(frobenius_scaled(1.0), np.ones((2, 3)))
    with pytest.raises(ConfigurationError, match="dimension mismatch"):
        seminorm_rows(mt_infinity(np.ones((4, 2)), 1.0), np.ones((2, 3)))
    with pytest.raises(ConfigurationError, match="non-vector"):
        seminorm_eval(euclidean_scaled(1.0), np.ones((2, 2)))
