import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fractions import Fraction

from scipy.optimize import nnls
from scipy.spatial.transform import Rotation

from ccplan import geometry
from ccplan.geometry import (
    Boundary,
    Capsule,
    Polytope,
    Pose,
    Sphere,
    SweptHull,
    _closest_cores,
    _pair_support,
    box,
    distance,
    distances,
    intersects,
    mahalanobis_contact,
    mahalanobis_contacts,
    point_body,
)


def rand_spd(rng, dim, scale=1.0):
    A = rng.normal(size=(dim, dim))
    return scale * (A @ A.T + dim * np.eye(dim))


def witness_started(a, b, L):
    """``mahalanobis_contacts`` on a stack of one, started from the
    Euclidean witness pair as the planner starts it."""
    res = distance(a, b)
    c, wa, wb = mahalanobis_contacts(
        a.vertices[None], np.array([a.radius]), b, np.linalg.inv(L),
        res.witness_a[None], res.witness_b[None])
    return float(c[0]), wa[0], wb[0]


class TestSupport:
    def test_sphere_support(self):
        s = Sphere([0, 0, 0], 1.0)
        np.testing.assert_allclose(s.support([0, 0, 1]), [0, 0, 1])

    def test_box_vertex_support(self):
        b = box([1, 1, 1])
        np.testing.assert_allclose(b.support([1, 1, 1]), [1, 1, 1])

    def test_minkowski_sum_of_spheres(self):
        # The implicit Minkowski sum A + (-B) that the distance kernel
        # searches: two unit balls give a ball of radius 2.
        sp = _pair_support(Sphere([0, 0, 0], 1.0), Sphere([0, 0, 0], 1.0),
                           np.eye(3))
        np.testing.assert_allclose(sp(np.array([1.0, 0, 0]))[0], [2, 0, 0])

    def test_zero_direction_rejected(self):
        with pytest.raises(ValueError):
            Sphere([0, 0], 1.0).support([0, 0])

    def test_scale_invariance(self):
        rng = np.random.default_rng(0)
        bodies = [Sphere([0.3, -1, 2], 0.7), box([1, 2, 0.5], center=[1, 0, 0]),
                  Capsule([0, 0, 0], [1, 1, 0], 0.2)]
        for body in bodies:
            for _ in range(100):
                v = rng.normal(size=3)
                lam = rng.uniform(0.1, 10)
                np.testing.assert_allclose(body.support(v),
                                           body.support(lam * v), atol=1e-12)

    def test_minkowski_property_random(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            a = Sphere(rng.normal(size=3), rng.uniform(0.1, 1))
            b = Polytope(rng.normal(size=(5, 3)))
            M = rng.normal(size=(3, 3))
            sp = _pair_support(a, b, M)
            v = rng.normal(size=3)
            # The support of M (A - B) is M (s_A(M^T v) - s_B(-M^T v)),
            # farthest along v among points M (a - b) of the set.
            w = M.T @ v
            p = sp(v)[0]
            np.testing.assert_allclose(
                p, M @ (a.support(w) - b.support(-w)), atol=1e-12)
            others = [M @ (a.support(u1) - b.support(u2))
                      for u1, u2 in rng.normal(size=(100, 2, 3))]
            assert max(q @ v for q in others) <= p @ v + 1e-12

    def test_posed_support(self):
        pose = Pose.planar(math.pi / 2, np.array([1.0, 0.0]))
        b = box([1.0, 0.5]).posed(pose)
        # Rotated by 90 degrees: half-extent 0.5 now lies along x.
        np.testing.assert_allclose(b.support([1, 0])[0], 1.5, atol=1e-12)


class TestDistance:
    def test_sphere_sphere_separated(self):
        a = Sphere([0, 0, 0], 1.0)
        b = Sphere([3, 0, 0], 1.0)
        res = distance(a, b)
        assert res.signed_distance == pytest.approx(1.0, abs=1e-9)
        np.testing.assert_allclose(res.normal, [1, 0, 0], atol=1e-9)
        np.testing.assert_allclose(res.witness_a, [1, 0, 0], atol=1e-9)

    def test_box_point_face(self):
        res = distance(box([1, 1, 1]), point_body([3.0, 0.0, 0.0]))
        assert res.signed_distance == pytest.approx(2.0, abs=1e-9)
        np.testing.assert_allclose(res.witness_a, [1, 0, 0], atol=1e-6)

    def test_sphere_sphere_penetrating(self):
        a = Sphere([0, 0, 0], 1.0)
        b = Sphere([1, 0, 0], 1.0)
        res = distance(a, b)
        assert res.signed_distance == pytest.approx(-1.0, abs=1e-9)

    def test_coincident_spheres(self):
        a = Sphere([0, 0, 0], 1.0)
        res = distance(a, Sphere([0, 0, 0], 1.0))
        assert res.signed_distance == pytest.approx(-2.0, abs=1e-6)

    def test_box_box_penetration_2d(self):
        a = box([1.0, 1.0])
        b = box([1.0, 1.0], center=[1.5, 0.0])
        res = distance(a, b)
        assert res.signed_distance == pytest.approx(-0.5, abs=1e-8)

    def test_box_box_penetration_3d(self):
        a = box([1.0, 1.0, 1.0])
        b = box([1.0, 1.0, 1.0], center=[1.2, 0.1, 0.0])
        res = distance(a, b)
        assert res.signed_distance == pytest.approx(-0.8, abs=1e-6)

    def test_random_sphere_pairs_match_closed_form(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            dim = int(rng.integers(2, 4))
            c1, c2 = rng.normal(size=dim), rng.normal(size=dim)
            r1, r2 = rng.uniform(0.05, 1, size=2)
            expect = np.linalg.norm(c1 - c2) - r1 - r2
            res = distance(Sphere(c1, r1), Sphere(c2, r2))
            assert res.signed_distance == pytest.approx(expect, abs=1e-6)

    def test_random_sphere_box_match_closed_form(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            h = rng.uniform(0.2, 1.5, size=3)
            c = rng.normal(size=3) * 3
            r = rng.uniform(0.05, 0.8)
            closest = np.clip(c, -h, h)
            expect = np.linalg.norm(c - closest) - r
            if abs(expect) < 1e-3 or np.all(np.abs(c) < h):
                continue  # closed form differs inside; skip contact band
            res = distance(box(h), Sphere(c, r))
            assert res.signed_distance == pytest.approx(expect, abs=1e-6)

    def test_continuity_through_contact(self):
        # Translate a sphere along a line through a box; sd must be continuous
        # and monotone on approach.
        prev = None
        for x in np.linspace(3.0, 0.0, 61):
            res = distance(box([1, 1, 1]), Sphere([x, 0.2, 0.1], 0.5))
            if prev is not None:
                assert res.signed_distance <= prev + 1e-4
                assert abs(res.signed_distance - prev) < 0.06
            prev = res.signed_distance

    def test_witness_consistency(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            a = Polytope(rng.normal(size=(6, 3)))
            b = Polytope(rng.normal(size=(6, 3)) + np.array([4.0, 0, 0]))
            res = distance(a, b)
            if res.signed_distance > 0:
                gap = np.linalg.norm(res.witness_a - res.witness_b)
                assert gap == pytest.approx(res.signed_distance, abs=1e-6)
                assert np.linalg.norm(res.normal) == pytest.approx(1.0, abs=1e-9)


def touching_gap(a, b, sd, n):
    """Signed distance after translating A by sd * n, which must bring the
    bodies into touching contact when (sd, n) is a penetration result."""
    return distance(a.posed(Pose(np.eye(a.dim), sd * n)), b).signed_distance


def check_penetration(a, b, res):
    """Witnesses and normal of a penetrating pair are exact."""
    n, sd = res.normal, res.signed_distance
    assert np.linalg.norm(n) == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(res.witness_a - res.witness_b, -sd * n,
                               atol=1e-9)
    # Each core witness lies on its own body's core, and the translation
    # leaves the bodies touching, to roundoff (worst seen about 5e-15).
    for body, w in ((a, res.witness_a - a.radius * n),
                    (b, res.witness_b + b.radius * n)):
        core = SweptHull(body.vertices, 0.0)
        assert distance(point_body(w), core).signed_distance <= 1e-12
    assert abs(touching_gap(a, b, sd, n)) <= 1e-12


class TestPenetration:
    """Depth and normal from the least support value of the core difference
    over candidate axes, witnesses from the cores translated apart, with
    regressions the iterative search (EPA) and the difference-hull facet
    planes got wrong."""

    def test_crossing_capsules_2d_depth(self):
        # The former search reported zero core depth (sd = -0.1).
        a = Capsule([0.428, 0.252], [-0.313, -0.027], 0.05)
        b = Capsule([-0.444, 0.137], [0.539, 0.221], 0.05)
        res = distance(a, b)
        assert res.signed_distance == pytest.approx(-0.140338, abs=1e-6)
        check_penetration(a, b, res)

    def test_capsule_through_box_witnesses(self):
        # Right depth, but the former witnesses missed 0.35 n by 0.2.
        a = Capsule([-1.0, 0.0, 0.0], [1.0, 0.0, 0.0], 0.05)
        b = box([0.3, 0.3, 0.3], center=[0.6, 0.0, 0.0])
        res = distance(a, b)
        assert res.signed_distance == pytest.approx(-0.35, abs=1e-12)
        check_penetration(a, b, res)

    def test_flat_difference_has_zero_core_depth(self):
        # Crossing 3D segments: the difference vertices are coplanar, no
        # hull exists, and the cores need no translation to separate
        # along the normal of their plane.
        a = Capsule([-1.0, 0.0, 0.0], [1.0, 0.0, 0.0], 0.1)
        b = Capsule([0.0, -1.0, 0.0], [0.0, 1.0, 0.0], 0.1)
        res = distance(a, b)
        assert res.signed_distance == pytest.approx(-0.2, abs=1e-12)
        check_penetration(a, b, res)

    def test_nearly_parallel_capsules(self):
        # Axes 6.6e-10 from parallel make the segment-segment solve
        # ill-conditioned: the closest pair of the translated capsules has
        # an end of one axis, a zero-length edge of the kernel.
        r = 0.10238449571623429
        a = Capsule([-0.6287144415697536, 6.613343872105036e-10],
                    [0.0, -0.8340979457091384], r)
        b = Capsule([-0.6287144415697536, 0.0], [0.0, -0.8340979457091384],
                    r)
        check_penetration(a, b, distance(a, b))

    def test_box_face_split_into_triangles(self):
        # The nearest face of the difference hull is a square, the normal
        # of two equally near triangles of the boxes' faces; the witness
        # may come from either.
        a = box([1.0, 1.0, 1.0])
        for y, z in ((0.3, 0.2), (-0.3, -0.2), (0.3, -0.2), (-0.3, 0.2)):
            b = box([0.5, 0.5, 0.5], center=[1.2, y, z])
            res = distance(a, b)
            assert res.signed_distance == pytest.approx(-0.3, abs=1e-12)
            check_penetration(a, b, res)

    @pytest.mark.parametrize("a, b, expect", [
        (point_body([0.3, 0.0, 0.0]), Capsule([-1, 0, 0], [1, 0, 0], 0.1),
         -0.1),
        (Capsule([-1, -1, -1], [1, 1, 1], 0.1),
         Capsule([0.5, 0.5, 0.5], [2, 2, 2], 0.2), -0.3),
        (point_body([0.3, 0.0]), Capsule([-1, 0], [1, 0], 0.1), -0.1),
        (Sphere([0.0, 0.0, 0.0], 1.0), Sphere([0.0, 0.0, 0.0], 0.5), -1.5),
    ], ids=["point-on-capsule-axis", "coaxial-capsules",
            "point-on-capsule-axis-2d", "coincident-spheres"])
    def test_flat_difference_normal(self, a, b, expect):
        # The core difference is a point or a segment: the normal must be
        # one along which the translated bodies touch. A fixed fallback
        # normal along the segment left them overlapping.
        res = distance(a, b)
        assert res.signed_distance == pytest.approx(expect, abs=1e-12)
        check_penetration(a, b, res)


coordinate = st.floats(-1.0, 1.0, allow_nan=False)


@st.composite
def rotations(draw, dim):
    """A rotation matrix: by an angle in 2D, by a rotation vector in 3D."""
    if dim == 2:
        return Pose.planar(draw(st.floats(-math.pi, math.pi)),
                           np.zeros(2)).rotation
    v = draw(st.lists(st.floats(-math.pi, math.pi), min_size=3, max_size=3))
    return Rotation.from_rotvec(v).as_matrix()


@st.composite
def bodies(draw, dim):
    """A point, sphere, capsule, box or 7-vertex hull. Boxes and hulls are
    rotated copies (``posed``), which share the boundary complex of the
    unrotated core."""
    vec = st.lists(coordinate, min_size=dim, max_size=dim).map(np.array)
    radius = draw(st.floats(0.0, 0.3))
    kind = draw(st.sampled_from(["point", "sphere", "capsule", "box",
                                 "hull"]))
    if kind == "point":
        return point_body(draw(vec))
    if kind == "sphere":
        return Sphere(draw(vec), radius)
    if kind == "capsule":
        return Capsule(draw(vec), draw(vec), radius)
    R = draw(rotations(dim))
    if kind == "box":
        half = st.lists(st.floats(0.05, 0.8), min_size=dim, max_size=dim)
        return box(draw(half)).posed(Pose(R, draw(vec)))
    V = np.array(draw(st.lists(vec, min_size=7, max_size=7)))
    return Polytope(V).posed(Pose(R, np.zeros(dim)))


@st.composite
def body_pairs(draw):
    dim = draw(st.sampled_from([2, 3]))
    return draw(bodies(dim)), draw(bodies(dim))


PROPERTY = settings(max_examples=150, deadline=None, derandomize=True,
                    database=None)


class TestDistanceProperties:
    @PROPERTY
    @given(body_pairs())
    def test_symmetric(self, pair):
        a, b = pair
        ab, ba = distance(a, b), distance(b, a)
        assert ab.signed_distance == pytest.approx(ba.signed_distance,
                                                   abs=1e-9)
        if ab.signed_distance > 1e-6:
            np.testing.assert_allclose(ab.normal, -ba.normal, atol=1e-6)
        elif ab.signed_distance < -1e-6:
            # Penetration: the reversed normal is a minimal translation
            # too (it may differ where two facets are equally near).
            assert abs(touching_gap(a, b, ab.signed_distance,
                                    -ba.normal)) <= 1e-12

    @PROPERTY
    @given(body_pairs())
    def test_sign_agrees_with_intersects(self, pair):
        a, b = pair
        sd = distance(a, b).signed_distance
        assert intersects(a, b) == intersects(b, a) == (sd <= 1e-9)

    @PROPERTY
    @given(body_pairs())
    def test_penetration_witnesses(self, pair):
        a, b = pair
        res = distance(a, b)
        assume(res.signed_distance < -1e-6)
        check_penetration(a, b, res)

    @PROPERTY
    @given(body_pairs())
    def test_depth_is_the_nearest_difference_facet(self, pair):
        # Reference: the facet plane of the core difference hull nearest
        # the origin, from Qhull, where the cores overlap and the
        # difference is full-dimensional.
        a, b = pair
        core = distance(a, b).signed_distance + a.radius + b.radius
        W = (a.vertices[:, None] - b.vertices[None]).reshape(-1, a.dim)
        hull = Boundary(W).hull
        assume(core < -1e-9 and hull is not None)
        assert core == pytest.approx(hull.equations[:, -1].max(), abs=1e-12)


def in_core(p, V, tol=1e-9):
    """True when p is a convex combination of the rows of V (to tol)."""
    big = 1e3
    A = np.vstack([V.T, np.full(len(V), big)])
    return nnls(A, np.append(p, big))[1] <= tol


@st.composite
def kernel_bodies(draw, dim):
    """``bodies`` plus, in 3D, flat polygons: five points of a random
    plane."""
    if dim == 2 or draw(st.booleans()):
        return draw(bodies(dim))
    vec = st.lists(coordinate, min_size=3, max_size=3).map(np.array)
    origin, u, v = draw(vec), draw(vec), draw(vec)
    assume(np.linalg.norm(np.cross(u, v)) > 1e-3)
    uv = draw(st.lists(st.tuples(coordinate, coordinate), min_size=5,
                       max_size=5))
    return SweptHull(np.array([origin + x * u + y * v for x, y in uv]),
                     draw(st.floats(0.0, 0.3)))


@st.composite
def kernel_pairs(draw):
    dim = draw(st.sampled_from([2, 3]))
    a, b = draw(kernel_bodies(dim)), draw(kernel_bodies(dim))
    shift = draw(st.lists(st.floats(-3.0, 3.0), min_size=dim,
                          max_size=dim))
    return a, b.posed(Pose(np.eye(dim), np.array(shift)))


class TestBatchedKernel:
    """The exact distance kernel: candidate features, the supporting-plane
    certificate and batching."""

    @PROPERTY
    @given(kernel_pairs())
    def test_separation_matches_certified_gjk_bound(self, pair):
        # GJK's supporting-plane bound under the identity metric bounds
        # the separation from below (to roundoff) and is tight at
        # convergence.
        a, b = pair
        res = distance(a, b)
        assume(res.signed_distance > 1e-6)
        low = math.sqrt(mahalanobis_contact(a, b, np.eye(a.dim))[0])
        assert low - 1e-12 <= res.signed_distance <= low + 1e-9
        n = res.normal
        assert in_core(res.witness_a - a.radius * n, a.vertices)
        assert in_core(res.witness_b + b.radius * n, b.vertices)
        np.testing.assert_allclose(res.witness_b - res.witness_a,
                                   res.signed_distance * n, atol=1e-12)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_batch_equals_single_calls(self, dim, monkeypatch):
        # One call on n placements gives the n single calls bit for bit,
        # penetrating placements included, whatever the block size.
        rng = np.random.default_rng(30 + dim)
        for local, other in ((box(rng.uniform(0.1, 0.5, size=dim)),
                              Polytope(rng.normal(size=(6, dim)) * 0.4)),
                             (Capsule(np.zeros(dim), rng.normal(size=dim),
                                      0.1), box(np.full(dim, 0.3)))):
            placed = [local.posed(random_pose(rng, dim)) for _ in range(40)]
            V = np.stack([p.vertices for p in placed])
            radii = rng.uniform(0.0, 0.2, size=len(V))
            batch = distances(V, radii, local.boundary, other)
            assert (batch.signed_distance < 0).any()
            assert (batch.signed_distance > 0).any()
            with monkeypatch.context() as m:
                m.setattr(geometry, "DISTANCE_BLOCK", 1000)
                blocks = distances(V, radii, local.boundary, other)
            for field in ("signed_distance", "witness_a", "witness_b",
                          "normal"):
                np.testing.assert_array_equal(getattr(blocks, field),
                                              getattr(batch, field))
            for i, p in enumerate(placed):
                one = distances(V[i:i + 1], radii[i], local.boundary, other)
                for field in ("signed_distance", "witness_a", "witness_b",
                              "normal"):
                    np.testing.assert_array_equal(
                        getattr(batch, field)[i], getattr(one, field)[0])
                single = distance(SweptHull(p.vertices, radii[i],
                                            local.boundary), other)
                assert single.signed_distance == batch.signed_distance[i]

    @pytest.mark.parametrize("a, b, expect", [
        # A segment through a box, both ends outside: no vertex is in a
        # face and the edges miss each other.
        (Capsule([-1.0, 0.1, 0.2], [1.0, 0.1, 0.2], 0.0),
         box([0.3, 0.3, 0.3]), -0.1),
        # A box inside a box.
        (box([0.1, 0.1, 0.1], center=[0.05, 0.0, 0.0]), box([1.0, 1.0, 1.0]),
         -1.05),
        # A point inside a polygon.
        (point_body([0.1, 0.2]), box([1.0, 0.5]), -0.3),
    ], ids=["segment-through-box", "box-in-box", "point-in-polygon"])
    def test_failed_certificate_takes_penetration(self, a, b, expect):
        # The closest candidate pair is apart, but the supporting planes
        # along it overlap: the pair is not a separation.
        _, _, d, _, gap = _closest_cores(a.vertices[None], a.boundary,
                                         b.vertices, b.boundary)
        assert d[0] > 1e-3 and gap[0] <= 0.0
        res = distance(a, b)
        assert res.signed_distance == pytest.approx(expect, abs=1e-12)
        check_penetration(a, b, res)


def random_pose(rng, dim):
    Q, R = np.linalg.qr(rng.normal(size=(dim, dim)))
    Q = Q * np.sign(np.diag(R))
    if np.linalg.det(Q) < 0:
        Q[:, 0] = -Q[:, 0]
    return Pose(Q, rng.normal(size=dim) * 0.5)


# A box tilted by about 1e-6 rad, and an axis-aligned box 3.49 away.
TILTED_BOX = [
    [-0.807819289936692, -0.8385651076983691, -0.3749252688127246],
    [-0.8078199375045749, -0.8385643816659887, 0.3749269567088341],
    [-0.8078182008735668, 0.8385653693825799, -0.37492705720840186],
    [-0.8078188484414497, 0.8385660954149603, 0.3749251683131568],
    [0.8078188484414497, -0.8385660954149603, -0.3749251683131568],
    [0.8078182008735668, -0.8385653693825799, 0.37492705720840186],
    [0.8078199375045749, 0.8385643816659887, -0.3749269567088341],
    [0.807819289936692, 0.8385651076983691, 0.3749252688127246],
]
FAR_BOX = [[x, y, z] for x in (0.46009252669472245, 2.1801942732044326)
           for y in (4.3310340269962175, 5.793127693155073)
           for z in (-0.19670412079944966, 0.28647309108822683)]


class TestDistanceRegressions:
    """Pairs that GJK's distance got wrong."""

    def test_point_at_a_hull_vertex_touches(self):
        # GJK stopped at an absolute 1e-14 gap in |v|^2, so it reported
        # +5.96e-8 for a point that is a vertex of the hull.
        a = point_body([-5.96046448e-08, 0.0])
        b = Polytope([[0, 0], [0, 0.5], [0, -1], [1, 0],
                      [-5.96046448e-08, 0]])
        assert distance(a, b).signed_distance <= 1e-9
        assert intersects(a, b)

    def test_separation_is_attained_by_the_witnesses(self):
        # GJK reported |v|, the norm of its closest-point estimate, which
        # roundoff can put below the true distance: here 3.4924687923559494,
        # under the supporting-plane bound along the normal. The separation
        # is now the distance of its witness pair, points of the bodies.
        a, b = Polytope(TILTED_BOX), Polytope(FAR_BOX)
        res = distance(a, b)
        wa, wb, n = res.witness_a, res.witness_b, res.normal
        assert in_core(wa, a.vertices) and in_core(wb, b.vertices)
        assert res.signed_distance == pytest.approx(
            float(np.linalg.norm(wb - wa)), rel=1e-15)
        # Exact rational arithmetic: no point pair is closer than the
        # supporting planes normal to n are apart.
        def along(V):
            return [sum(Fraction(x) * Fraction(y) for x, y in zip(v, n))
                    for v in V]
        lower = min(along(b.vertices)) - max(along(a.vertices))
        assert Fraction(res.signed_distance) >= lower

    def test_point_above_a_posed_box_face_diagonal(self):
        # A posed box shares the axis-aligned box's boundary complex,
        # whose face triangles have bit-equal Qhull planes. The complex
        # dropped the diagonal between them, and on a rotated copy a point
        # above it could fail both triangles' inside test by roundoff: the
        # kernel then certified a far edge as the separation.
        rng = np.random.default_rng(5)
        for _ in range(100):
            h = rng.uniform(0.1, 1.0, size=3)
            pose = random_pose(rng, 3)
            body = box(h).posed(pose)
            for p, gap in face_diagonal_points(h, rng):
                res = distance(body, point_body(pose.apply(p)))
                assert res.signed_distance == pytest.approx(gap, abs=1e-12)


def face_diagonal_points(h, rng):
    """(point, distance) pairs above the face diagonals of box(h): on every
    face and diagonal, a point of the diagonal raised along the face's
    outward normal by a distance in [1e-3, 0.3]."""
    out = []
    for axis, side, slope in itertools.product(range(3), (-1, 1), (-1, 1)):
        i, j = (k for k in range(3) if k != axis)
        u, gap = rng.uniform(-0.95, 0.95), rng.uniform(1e-3, 0.3)
        p = np.empty(3)
        p[axis] = side * (h[axis] + gap)
        p[i], p[j] = u * h[i], slope * u * h[j]
        out.append((p, gap))
    return out


class TestIntersects:
    def test_far_spheres(self):
        assert not intersects(Sphere([0, 0, 0], 1), Sphere([3, 0, 0], 1))

    def test_identical_spheres(self):
        assert intersects(Sphere([0, 0, 0], 1), Sphere([0, 0, 0], 1))

    def test_consistent_with_distance(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            a = Sphere(rng.normal(size=2), rng.uniform(0.1, 1))
            b = box(rng.uniform(0.2, 1, size=2), center=rng.normal(size=2))
            res = distance(a, b)
            if abs(res.signed_distance) > 1e-6:
                assert intersects(a, b) == (res.signed_distance <= 0)


class TestMahalanobisContact:
    def test_point_point(self):
        S = np.diag([4.0, 1.0])
        L = np.linalg.cholesky(S)
        c, wa, wb = mahalanobis_contact(point_body([2.0, 0.0]),
                                        point_body([0.0, 0.0]), L)
        assert c == pytest.approx(1.0, rel=1e-9)
        np.testing.assert_allclose(wa, [2, 0])

    def test_matches_sampled_minimum(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            S = rand_spd(rng, 2)
            L = np.linalg.cholesky(S)
            a = box(rng.uniform(0.2, 0.6, size=2), center=rng.normal(size=2) * 3)
            b = Sphere(rng.normal(size=2), rng.uniform(0.1, 0.5))
            c, wa, wb = mahalanobis_contact(a, b, L)
            # Brute-force sample pairs of boundary points.
            Sinv = np.linalg.inv(S)
            best = np.inf
            for _ in range(4000):
                v1, v2 = rng.normal(size=2), rng.normal(size=2)
                pa, pb = a.support(v1), b.support(v2)
                ta = rng.uniform(size=(1,))
                d = pa - pb
                best = min(best, float(d @ Sinv @ d))
            assert c <= best + 1e-6

    @pytest.mark.parametrize("dim", [2, 3])
    def test_never_exceeds_enumerated_minimum(self, dim):
        # c1 is a certified lower bound: on radius-0 pairs it never exceeds
        # the exact minimum of |L^-1 w|^2 over conv(W), and it is tight.
        rng = np.random.default_rng(20 + dim)
        for _ in range(60):
            bodies = []
            for _ in range(2):
                centre = rng.normal(size=dim) * 1.5
                kind = rng.integers(3)
                if kind == 0:
                    bodies.append(point_body(centre))
                elif kind == 1:
                    bodies.append(box(rng.uniform(0.05, 0.5, size=dim),
                                      center=centre))
                else:
                    bodies.append(Polytope(
                        centre + rng.normal(size=(6, dim)) * 0.3))
            a, b = bodies
            L = np.linalg.cholesky(rand_spd(rng, dim, 0.1))
            W = (a.vertices[:, None] - b.vertices[None]).reshape(-1, dim)
            exact = enumerated_minimum(np.linalg.solve(L, W.T).T)
            for c in (mahalanobis_contact(a, b, L)[0],
                      witness_started(a, b, L)[0]):
                assert c <= exact * (1.0 + 1e-14)
                if c > 0.0:
                    assert c >= exact * (1.0 - 1e-9)


def enumerated_minimum(Y):
    """min |y|^2 over conv(Y) for the origin outside it: the closest point
    lies on a segment (2D) or triangle (3D) of the points; segments cover
    the vertices and the triangles' edges."""
    best = float(np.min(np.einsum("ij,ij->i", Y, Y)))
    if len(Y) >= 2:
        i, j = np.array(list(itertools.combinations(range(len(Y)), 2))).T
        a, e = Y[i], Y[j] - Y[i]
        ee = np.einsum("ij,ij->i", e, e)
        t = np.clip(-np.einsum("ij,ij->i", a, e)
                    / np.where(ee > 0, ee, 1.0), 0.0, 1.0)
        p = a + t[:, None] * e
        best = min(best, float(np.min(np.einsum("ij,ij->i", p, p))))
    if Y.shape[1] == 3 and len(Y) >= 3:
        i, j, k = np.array(list(itertools.combinations(range(len(Y)), 3))).T
        a, b, c = Y[i], Y[j], Y[k]
        n = np.cross(b - a, c - a)
        nn = np.einsum("ij,ij->i", n, n)
        ok = nn > 1e-24
        a, b, c, n, nn = a[ok], b[ok], c[ok], n[ok], nn[ok]
        h = np.einsum("ij,ij->i", a, n)
        q = (h / nn)[:, None] * n     # the origin projected on the plane
        inside = np.ones(len(q), dtype=bool)
        for u, v in ((a, b), (b, c), (c, a)):
            inside &= np.einsum("ij,ij->i", np.cross(v - u, q - u), n) >= 0
        if inside.any():
            best = min(best, float(np.min(h[inside] ** 2 / nn[inside])))
    return best


# Four support points met by a GJK whitened search on the pickplace scene:
# two pairs about 8.7 apart along z, each pair within 1e-4 in x and y.
THIN_SIMPLEX = [
    [-0.03906619825949745, -0.0712396228620041, 4.815484028197608],
    [-0.0391423368483412, -0.07119783839686564, -3.8447700119694326],
    [-0.03907888792478207, -0.07123265832162884, -3.844770011485548],
    [-0.03911061315966074, -0.07121524894838192, 4.815542002934007],
]


class TestSimplexReduction:
    @pytest.mark.parametrize("k", [3, 4])
    def test_thin_simplex_closest_point(self, k):
        # v is the closest point of the hull exactly when no vertex lies
        # below its supporting plane: v.p >= |v|^2 for every point.
        from ccplan.geometry import _closest_on_simplex
        pts = THIN_SIMPLEX[:k]
        v, lam, keep = _closest_on_simplex(pts)
        v = np.asarray(v)
        nv2 = float(v @ v)
        for p in pts:
            assert float(v @ np.asarray(p)) >= nv2 * (1.0 - 1e-9)
        np.testing.assert_allclose(
            sum(w * np.asarray(pts[i]) for w, i in zip(lam, keep)), v,
            atol=1e-12)

    def test_random_simplices_satisfy_optimality(self):
        # v is a convex combination of the points and no point lies below
        # the plane through v normal to v: together these characterize the
        # closest point of the hull.
        from ccplan.geometry import _closest_on_simplex
        rng = np.random.default_rng(9)
        for i in range(400):
            k = int(rng.integers(1, 5))
            P = rng.normal(size=(k, 3)) + rng.normal(size=3)
            if i % 2:
                # A 2D problem runs in the z = 0 plane, with at most three
                # points; a triangle holding the origin gives v = 0.
                P = P[:3] * [1.0, 1.0, 0.0]
            pts = P.tolist()
            v, lam, keep = _closest_on_simplex(pts)
            v = np.asarray(v)
            assert min(lam) >= 0.0 and abs(sum(lam) - 1.0) < 1e-12
            np.testing.assert_allclose(lam @ P[keep], v, atol=1e-12)
            for p in P:
                assert float(v @ p) >= float(v @ v) - 1e-9


class TestGJKTermination:
    def test_stalling_support_map_stops(self):
        # A capsule link beside a box face under an isotropic covariance
        # (a pickplace certificate): the whitened search used to cycle on
        # a thin simplex and return unconverged at the iteration cap.
        from ccplan.geometry import GJK_MAX_ITER
        link = Capsule([0.24824809667445116, -0.09771704827401971,
                        0.4372015341536866],
                       [0.34940109239432393, -0.13753355562385342,
                        0.7168132599438545], 0.04)
        wall = box([0.05, 0.12, 0.15], center=[0.42, 0.02, 0.7])
        sigma = math.sqrt(0.0012)
        calls = []

        class Counted(SweptHull):
            def _support(self, v):
                calls.append(1)
                return super()._support(v)

        counted = Counted(link.vertices, link.radius)
        c, wa, wb = mahalanobis_contact(counted, wall, sigma * np.eye(3))
        assert len(calls) < GJK_MAX_ITER // 2
        # Isotropic metric: c is the Euclidean distance over sigma, squared.
        exact = (distance(link, wall).signed_distance / sigma) ** 2
        assert c == pytest.approx(exact, rel=1e-9)

    def test_iteration_cap_raises(self):
        # A sphere is curved everywhere: GJK approaches it but needs more
        # than two supports to reach a 1e-12 duality gap.
        from ccplan.geometry import GeometryError, _gjk
        ball = Sphere([3.0, 1.0, -2.0], 1.0)

        def sp(v):
            p = ball.support(v)
            return p, p, p

        assert _gjk(sp, 3, tol=1e-12)[0] == pytest.approx(
            math.sqrt(14.0) - 1.0, abs=1e-9)
        with pytest.raises(GeometryError, match="iteration"):
            _gjk(sp, 3, tol=1e-12, max_iter=2)

    def test_witness_start_matches_cold_search(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            S = rand_spd(rng, 3, 0.01)
            L = np.linalg.cholesky(S)
            a = Capsule(rng.normal(size=3), rng.normal(size=3), 0.1)
            b = box(rng.uniform(0.1, 0.5, size=3), center=rng.normal(size=3) * 2)
            c0, _, _ = mahalanobis_contact(a, b, L)
            c1, wa, wb = witness_started(a, b, L)
            assert c1 == pytest.approx(c0, rel=1e-9, abs=1e-12)
            d = wa - wb
            assert float(d @ np.linalg.solve(S, d)) == pytest.approx(
                c1, rel=1e-9, abs=1e-12)


class TestBatchedFirstSearch:
    @staticmethod
    def lanes(rng, dim, n):
        """Capsule placements around a box, some through it."""
        ob = box(rng.uniform(0.1, 0.4, size=dim))
        p0 = rng.normal(size=(n, dim)) * 0.8
        p1 = p0 + rng.normal(size=(n, dim)) * 0.3
        p0[:3] = 0.0        # through the box's centre: intersecting lanes
        return np.stack([p0, p1], axis=1), np.full(n, 0.05), ob

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("isotropic", [True, False])
    def test_lanes_match_cold_search(self, dim, isotropic, monkeypatch):
        rng = np.random.default_rng(30 + dim + 2 * isotropic)
        continued = []
        gjk = geometry._gjk

        def counted(*args, **kwargs):
            continued.append(1)
            return gjk(*args, **kwargs)

        monkeypatch.setattr(geometry, "_gjk", counted)
        closed = intersecting = 0
        for _ in range(6):
            S = (0.05 * np.eye(dim) if isotropic
                 else rand_spd(rng, dim, 0.02))
            L = np.linalg.cholesky(S)
            V, r, ob = self.lanes(rng, dim, 25)
            res = distances(V, r, SweptHull(V[0], 0.05).boundary, ob)
            before = len(continued)
            c, wa, wb = mahalanobis_contacts(V, r, ob, np.linalg.inv(L),
                                             res.witness_a, res.witness_b)
            closed += len(V) - (len(continued) - before)
            for i in range(len(V)):
                cold = mahalanobis_contact(SweptHull(V[i], r[i]), ob, L)[0]
                if cold == 0.0:
                    intersecting += 1
                    assert c[i] == 0.0
                    continue
                assert c[i] == pytest.approx(cold, rel=1e-9)
                d = wa[i] - wb[i]
                assert float(d @ np.linalg.solve(S, d)) == pytest.approx(
                    c[i], rel=1e-9)
        # Both paths ran. Intersecting lanes, whose Euclidean witnesses are
        # apart by the depth, continue in GJK; under an isotropic
        # covariance the witness pair of a separated lane is the minimizer,
        # so its duality gap closes at the first support.
        assert intersecting >= 6 and continued
        if isotropic:
            assert closed == 6 * 25 - intersecting

    def test_witness_inside_a_face(self):
        # A point above a large box face, under a covariance tilted by
        # 1e-9 to 1e-8: the Euclidean witness pair lies inside the face,
        # within about 1e-8 of the Mahalanobis minimizer. GJK started at
        # that pair once stopped on its no-progress test after one support
        # and returned c up to 2.3e-7 too low.
        ob = box([10.0, 10.0, 1.0])
        for tilt in (1e-9, 3e-9, 1e-8):
            S = np.eye(3)
            S[0, 2] = S[2, 0] = tilt
            L = np.linalg.cholesky(S)
            for x in (0.0, 1.3, -4.0):
                a = point_body([x, 0.5, 2.0])
                c = witness_started(a, ob, L)[0]
                assert c == pytest.approx(mahalanobis_contact(a, ob, L)[0],
                                          rel=1e-9)
                # The exact minimum over the face's plane z = 1.
                assert c <= (1.0 / S[2, 2]) * (1.0 + 1e-14)
