import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subexp_lasso import geometry as geo
from subexp_lasso.distributions import (
    euclidean_scaled, frobenius_scaled, infinity_scaled, mt_euclidean,
    mt_infinity, operator_scaled, seminorm_eval, seminorm_rows, zero_norm)
from subexp_lasso.errors import ConfigurationError


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
    assert geo.contains(s, P)
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
        if s.kind == "polytope":
            continue  # inner solve precision dominates; covered by optimality
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


def test_vertices_of():
    v = geo.vertices_of(geo.l1_ball(2.0, 3))
    assert v.shape == (6, 3)
    assert np.allclose(np.abs(v).sum(axis=1), 2.0)
    cube = geo.vertices_of(geo.hypercube(1.0, 3))
    assert cube.shape == (8, 3)
    with pytest.raises(ConfigurationError):
        geo.vertices_of(geo.l2_ball(1.0, 3))


def test_load_vertices_roundtrip(tmp_path):
    V = np.array([[0.0, 1.0, 2.0], [3.0, -1.0, 0.5]])
    path = tmp_path / "verts.txt"
    np.savetxt(path, V)
    s = geo.load_vertices(path)
    assert s.kind == "polytope"
    assert np.allclose(s.vertices, V)


def test_span_basis_rank_decision():
    # three collinear vertices span a line
    s = geo.polytope([[0.0, 0.0, 0.0], [1.0, 1.0, 0.0], [2.0, 2.0, 0.0]])
    basis = geo.span_basis(s)
    assert basis.shape == (3, 1)
    singleton = geo.polytope([[1.0, 2.0]])
    assert geo.span_basis(singleton).shape == (2, 0)
    assert geo.span_basis(geo.l1_ball(1.0, 4)).shape == (4, 4)


# ---------------------------------------------------------------------------
# Direction samplers
# ---------------------------------------------------------------------------

def test_sphere_slice_full_acceptance_inside_ball():
    s = geo.l2_ball(1.0, 5)
    sample = geo.sphere_slice_directions(s, np.zeros(5), 0.5, 100, 7)
    assert sample.acceptance_rate == pytest.approx(1.0)
    assert sample.directions.shape[0] >= 100
    nrm = np.linalg.norm(sample.directions, axis=1)
    assert np.allclose(nrm, 1.0, atol=1e-12)


def test_sphere_slice_membership_recheck_at_vertex():
    s = geo.l1_ball(1.0, 4)
    center = np.eye(4)[0]
    sample = geo.sphere_slice_directions(s, center, 0.1, 64, 8)
    for v in sample.directions:
        assert np.abs(center + 0.1 * v).sum() <= 1.0 + 1e-8


def test_sphere_slice_acceptance_strictly_between_zero_and_one():
    s = geo.l1_ball(1.0, 20)
    center = 0.999 * np.eye(20)[0]
    sample = geo.sphere_slice_directions(s, center, 0.1, 200, 9)
    assert 0.0 < sample.acceptance_rate < 1.0


def test_sphere_slice_requires_feasible_center():
    with pytest.raises(ConfigurationError):
        geo.sphere_slice_directions(geo.l1_ball(1.0, 3), np.ones(3), 0.1, 10, 0)


def test_cone_directions_interior_apex_covers_sphere():
    s = geo.l2_ball(1.0, 3)
    small = geo.cone_directions(s, np.zeros(3), 50, 10)
    dense = geo.cone_directions(s, np.zeros(3), 800, 10)

    def min_angle_stat(dirs, probes):
        cosines = probes @ dirs.T
        return float(np.min(np.arccos(np.clip(np.max(cosines, axis=1), -1, 1))))

    rng = np.random.default_rng(11)
    probes = rng.standard_normal((200, 3))
    probes /= np.linalg.norm(probes, axis=1, keepdims=True)
    assert min_angle_stat(dense.directions, probes) \
        <= min_angle_stat(small.directions, probes)
    # densifying shrinks the worst gap
    gaps = np.arccos(np.clip(np.max(probes @ dense.directions.T, axis=1), -1, 1))
    assert float(np.max(gaps)) < 0.5


def test_cone_directions_at_polytope_vertex():
    square = geo.polytope([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    sample = geo.cone_directions(square, np.zeros(2), 100, 12)
    # all directions must have nonnegative inner product with inward edges
    for edge in (np.array([1.0, 0.0]), np.array([0.0, 1.0])):
        assert np.all(sample.directions @ edge >= -1e-9)


def test_cone_directions_l1_vertex_edges():
    s = geo.l1_ball(1.0, 2)
    apex = np.eye(2)[0]
    sample = geo.cone_directions(s, apex, 300, 13)
    edges = np.array([[-1.0, 1.0], [-1.0, -1.0]]) / np.sqrt(2.0)
    # every direction lies inside the wedge spanned by the two edges
    angles = np.arccos(np.clip(sample.directions @ edges.T, -1, 1))
    wedge = np.arccos(float(edges[0] @ edges[1]))
    assert np.all(np.min(angles, axis=1) <= wedge + 1e-9)
    # the extreme edge directions themselves are present (vertex augmentation)
    for e in edges:
        assert np.min(np.linalg.norm(sample.directions - e, axis=1)) < 1e-9


def test_cone_directions_degenerate_set():
    singleton = geo.polytope([[1.0, 2.0]])
    sample = geo.cone_directions(singleton, np.array([1.0, 2.0]), 10, 14)
    assert sample.degenerate and sample.directions.shape[0] == 0


# ---------------------------------------------------------------------------
# Sparse skeletons and hull containment
# ---------------------------------------------------------------------------

def test_sparse_skeleton_constructive_properties():
    skel = geo.sparse_skeleton_sampler(3, 10, 400, seed=1)
    pts = skel.points
    assert np.all((np.abs(pts) > 0).sum(axis=1) <= 3)
    assert np.all(np.linalg.norm(pts, axis=1) <= 3.0 + 1e-12)
    assert skel.diameters["l2"] == pytest.approx(6.0)


def test_sparse_skeleton_k_equals_p():
    skel = geo.sparse_skeleton_sampler(4, 4, 200, seed=2)
    assert skel.diameters["l2"] == pytest.approx(6.0)
    assert np.all(np.linalg.norm(skel.points, axis=1) <= 3.0 + 1e-12)


def test_sparse_skeleton_axis_points_k1_p2():
    # enumeration oracle: all four signed axis points at radius 3 appear
    skel = geo.sparse_skeleton_sampler(1, 2, 64, seed=3)
    expected = np.array([[3.0, 0.0], [-3.0, 0.0], [0.0, 3.0], [0.0, -3.0]])
    for e in expected:
        assert np.min(np.linalg.norm(skel.points - e, axis=1)) < 1e-9


def test_sparse_skeleton_validates_k():
    with pytest.raises(ConfigurationError):
        geo.sparse_skeleton_sampler(5, 3, 10, seed=0)


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
    worst = geo.certify_hull_membership(skel.points, dirs, tol=1e-6)
    assert worst <= 1e-6


def test_hull_membership_detects_outside_point():
    pts = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    inside = geo.hull_membership_residual(pts, np.array([0.2, 0.2]))
    outside = geo.hull_membership_residual(pts, np.array([1.5, 0.0]))
    assert inside < 1e-10
    assert outside > 0.4


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
    got = geo.pairwise_diameter(pts, "l2")
    want = _reference_pair_max(pts, lambda v: float(np.linalg.norm(v)))
    assert got == pytest.approx(want, rel=1e-13)
    assert geo.pairwise_max(pts[:1], lambda V: np.ones(len(V))) == 0.0


def test_seminorm_rows_errors():
    with pytest.raises(ConfigurationError, match="square"):
        seminorm_rows(frobenius_scaled(1.0), np.ones((2, 3)))
    with pytest.raises(ConfigurationError, match="dimension mismatch"):
        seminorm_rows(mt_infinity(np.ones((4, 2)), 1.0), np.ones((2, 3)))
    with pytest.raises(ConfigurationError, match="non-vector"):
        seminorm_eval(euclidean_scaled(1.0), np.ones((2, 2)))
