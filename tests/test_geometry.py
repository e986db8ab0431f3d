import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from fractions import Fraction

from scipy.optimize import minimize, nnls
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
    _PairSupport,
    box,
    distance,
    distances,
    intersects,
    mahalanobis_contact,
    mahalanobis_contacts,
    point_body,
)
from test_kinematics import apply_pose


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
        np.testing.assert_allclose(s._support(np.array([0.0, 0.0, 1.0])),
                                   [0, 0, 1])

    def test_box_vertex_support(self):
        b = box([1, 1, 1])
        np.testing.assert_allclose(b._support(np.ones(3)), [1, 1, 1])

    def test_minkowski_sum_of_spheres(self):
        # The implicit Minkowski sum A + (-B) that the distance kernel
        # searches: two unit balls give a ball of radius 2.
        sp = _PairSupport(Sphere([0, 0, 0], 1.0), Sphere([0, 0, 0], 1.0),
                          np.eye(3))
        np.testing.assert_allclose(sp(np.array([1.0, 0, 0]))[0], [2, 0, 0])

    def test_scale_invariance(self):
        rng = np.random.default_rng(0)
        bodies = [Sphere([0.3, -1, 2], 0.7), box([1, 2, 0.5], center=[1, 0, 0]),
                  Capsule([0, 0, 0], [1, 1, 0], 0.2)]
        for body in bodies:
            for _ in range(100):
                v = rng.normal(size=3)
                lam = rng.uniform(0.1, 10)
                np.testing.assert_allclose(body._support(v),
                                           body._support(lam * v), atol=1e-12)

    def test_minkowski_property_random(self):
        # The support of M (A - B) - q is M (s_A(M^T v) - s_B(-M^T v)) - q,
        # farthest along v among points M (a - b) - q of the set, with swept
        # bodies on both sides and the rim search's shift q. The call is
        # the cores' support plus the ball term's, in the point and in both
        # witnesses, and a 2D set keeps z = 0 exactly.
        rng = np.random.default_rng(1)
        for dim in (2, 3):
            pad = [0.0] * (3 - dim)
            for k in range(50):
                a = (Sphere(rng.normal(size=dim), rng.uniform(0.1, 1))
                     if k % 2 else Capsule(rng.normal(size=dim),
                                           rng.normal(size=dim),
                                           rng.uniform(0.1, 1)))
                b = SweptHull(rng.normal(size=(5, dim)),
                              rng.uniform(0.0, 0.5) if k % 3 else 0.0)
                M = rng.normal(size=(dim, dim))
                q = rng.normal(size=dim) if k % 4 else None
                shift = 0.0 if q is None else q
                sp = _PairSupport(a, b, M, q)
                v = rng.normal(size=dim).tolist() + pad
                w = M.T @ v[:dim]
                p, pa, pb, _ = sp(v)
                assert p[dim:] == pad and pa[dim:] == pad and pb[dim:] == pad
                np.testing.assert_allclose(
                    p[:dim], M @ (a._support(w) - b._support(-w)) - shift,
                    atol=1e-12)
                np.testing.assert_allclose(
                    p[:dim], M @ (np.subtract(pa, pb)[:dim]) - shift,
                    atol=1e-12)
                for part, (x, y) in zip((p, pa, pb),
                                        zip(sp.core(v), sp.ball(v))):
                    np.testing.assert_allclose(part, np.add(x, y),
                                               rtol=0.0, atol=1e-12)
                others = [M @ (a._support(u1) - b._support(u2)) - shift
                          for u1, u2 in rng.normal(size=(100, 2, dim))]
                assert (max(o @ v[:dim] for o in others)
                        <= np.dot(p, v) + 1e-12)

    def test_posed_support(self):
        pose = Pose.planar(math.pi / 2, np.array([1.0, 0.0]))
        b = box([1.0, 0.5]).posed(pose)
        # Rotated by 90 degrees: half-extent 0.5 now lies along x.
        np.testing.assert_allclose(b._support(np.array([1.0, 0.0]))[0], 1.5,
                                   atol=1e-12)


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
        _, _, d, _, gap = _closest_cores(a.vertices[None], a.boundary, b)
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

    def test_segment_with_a_subnormal_square_length(self):
        # 1 / e.e overflowed for a segment 2.2e-162 long, and the clamped
        # projection on it made the witnesses NaN. Such a segment now
        # projects as its origin, and a triangle of subnormal area holds
        # no foot.
        a = point_body([0.0, 0.0])
        b = SweptHull(np.array([[0.0, 0.0], [0.0, 2.16308922e-162]]), 0.25)
        for x, y in ((a, b), (b, a)):
            res = distance(x, y)
            assert res.signed_distance == -0.25
            assert np.isfinite(res.witness_a).all()
            assert np.isfinite(res.witness_b).all()
        tiny = Polytope(np.vstack([np.zeros(3), np.eye(3)]) * 1e-80)
        res = distance(point_body([0.3, 0.2, 0.5]), tiny)
        assert res.signed_distance == pytest.approx(math.sqrt(0.38),
                                                    rel=1e-15)

    def test_penetration_normal_of_a_subnormal_edge_is_unit(self):
        # The candidate axes of a segment 2.16e-162 long crossed with the
        # coordinate axes have a subnormal square length, whose square root
        # is inexact: normalized by it, such an axis came out shorter than
        # unit, under-reported its support width and won, with a normal of
        # length 0.9718.
        seg = Capsule([0.0, 0.0, 0.0], [2.16e-162, 0.0, 0.0], 0.5)
        point = point_body(np.zeros(3))
        for x, y in ((point, seg), (seg, point)):
            res = distance(x, y)
            assert res.signed_distance == -0.5
            assert np.linalg.norm(res.normal) == pytest.approx(1.0,
                                                               rel=1e-15)

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
                res = distance(body, point_body(apply_pose(pose, p)))
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


class TestFixedFeatures:
    """The fixed body's feature constants are built on its first query and
    kept on the body, never on the boundary complex its posed copies
    share."""

    def test_each_body_keeps_its_own_constants(self, monkeypatch):
        built = []

        class Counted(geometry._Features):
            def __init__(self, V, boundary):
                built.append(V)
                super().__init__(V, boundary)

        monkeypatch.setattr(geometry, "_Features", Counted)
        rng = np.random.default_rng(40)
        obstacle = box([0.3, 0.2, 0.25], center=[0.1, -0.2, 0.3])
        posed = obstacle.posed(random_pose(rng, 3))
        fresh = SweptHull(obstacle.vertices.copy(), obstacle.radius)
        assert posed.boundary is obstacle.boundary
        link = Capsule([0.0, 0.0, 0.0], [0.4, 0.1, 0.0], 0.05)
        V = np.stack([link.posed(random_pose(rng, 3)).vertices
                      for _ in range(30)]) * 2.0
        radii = np.full(len(V), link.radius)
        first = {}
        for _ in range(3):
            for body in (obstacle, posed, fresh, posed, obstacle):
                res = distances(V, radii, link.boundary, body)
                got = np.column_stack([res.signed_distance, res.witness_a,
                                       res.witness_b, res.normal])
                want = first.setdefault(id(body), got)
                np.testing.assert_array_equal(got, want)
        assert len(built) == 3
        for body in (obstacle, posed, fresh):
            assert body._features.vertices is body.vertices
        # The posed copy's constants are its own, not the obstacle's.
        assert not np.array_equal(first[id(posed)], first[id(obstacle)])
        assert "_features" not in vars(obstacle.boundary)


def check_exact(a, b, expect):
    """``distance`` of a pair whose closest features tie: the distance to
    1e-15, witnesses on their bodies' cores, a unit normal and
    witness_b - witness_a = d n."""
    res = distance(a, b)
    n, d = res.normal, res.signed_distance
    assert d == pytest.approx(expect, abs=1e-15)
    assert np.linalg.norm(n) == pytest.approx(1.0, abs=1e-15)
    assert in_core(res.witness_a - a.radius * n, a.vertices)
    assert in_core(res.witness_b + b.radius * n, b.vertices)
    np.testing.assert_allclose(res.witness_b - res.witness_a, d * n,
                               rtol=0, atol=1e-15)
    return res


class TestTiedFeatures:
    """Pairs whose closest points are not unique, so that the kernel's
    families tie: a vertex over a face against an edge pair, and the same
    vertex pair reached through several segments."""

    def test_capsule_parallel_to_a_box_face(self):
        res = check_exact(Capsule([-0.5, 0.25, 1.5], [0.5, 0.25, 1.5], 0.25),
                          box([1.0, 1.0, 1.0]), 0.25)
        np.testing.assert_array_equal(res.normal, [0.0, 0.0, -1.0])

    def test_capsule_parallel_to_a_box_edge(self):
        res = check_exact(Capsule([-0.5, 1.5, 1.5], [0.5, 1.5, 1.5], 0.125),
                          box([1.0, 1.0, 1.0]), math.sqrt(0.5) - 0.125)
        np.testing.assert_allclose(res.normal, [0.0, -math.sqrt(0.5),
                                                -math.sqrt(0.5)], atol=1e-15)

    def test_capsule_coaxial_with_an_edge_beyond_its_end(self):
        res = check_exact(Capsule([1.5, 1.0, 1.0], [2.5, 1.0, 1.0], 0.125),
                          box([1.0, 1.0, 1.0]), 0.375)
        np.testing.assert_array_equal(res.normal, [-1.0, 0.0, 0.0])

    def test_point_robot_against_a_sphere_2d(self):
        res = check_exact(point_body([0.3, 0.4]), Sphere([0.0, 0.0], 0.25),
                          0.25)
        np.testing.assert_allclose(res.normal, [-0.6, -0.8], atol=1e-15)


class TestBoxComplex:
    """``box`` lays out its own boundary complex, the one Qhull builds for
    its corners, so a solve among boxes never loads SciPy's spatial
    module."""

    def test_same_as_qhull(self):
        rng = np.random.default_rng(41)
        for dim in (2, 3):
            body = box(rng.uniform(0.1, 0.6, size=dim),
                       center=rng.normal(size=dim))
            qhull = Boundary(body.vertices)
            for faces in ("edges", "triangles"):
                assert {tuple(sorted(x)) for x in getattr(body.boundary,
                                                          faces)} \
                    == {tuple(sorted(x)) for x in getattr(qhull, faces)}

    @pytest.mark.parametrize("dim", [2, 3])
    def test_distances_and_depths_match_qhull(self, dim):
        # Points (above the face diagonals too) against a posed box, posed
        # boxes against a segment, and the depths of segments in the box,
        # with the box's complex and with Qhull's for the same corners.
        rng = np.random.default_rng(42 + dim)
        segment = Capsule(np.zeros(dim), np.ones(dim), 0.0)
        inside = 0
        for _ in range(20):
            h = rng.uniform(0.1, 1.0, size=dim)
            pose = random_pose(rng, dim)
            body = box(h).posed(pose)
            qhull = SweptHull(body.vertices, 0.0, Boundary(box(h).vertices))
            points = [apply_pose(pose, p)
                      for p, _ in face_diagonal_points(h, rng)
                      ] if dim == 3 else []
            points += list(pose.translation
                           + rng.normal(size=(30, dim)) * h.max())
            V = np.array(points)[:, None, :]
            got = distances(V, 0.0, Boundary(V[0]), body).signed_distance
            np.testing.assert_allclose(
                got, distances(V, 0.0, Boundary(V[0]), qhull).signed_distance,
                rtol=0, atol=1e-15)
            inside += int((got < 0.0).sum())
            boxes = np.stack([box(h).posed(random_pose(rng, dim)).vertices
                              for _ in range(20)])
            np.testing.assert_allclose(
                distances(boxes, 0.0, body.boundary, segment).signed_distance,
                distances(boxes, 0.0, qhull.boundary, segment)
                .signed_distance, rtol=0, atol=1e-15)
            links = np.stack([segment.posed(random_pose(rng, dim)).vertices
                              for _ in range(20)])
            for x, y in zip(geometry._depths(links, segment.boundary,
                                             body.vertices, body.boundary),
                            geometry._depths(links, segment.boundary,
                                             qhull.vertices, qhull.boundary)):
                np.testing.assert_allclose(x, y, rtol=0, atol=1e-15)
        assert inside > 20

    def test_box_scene_solve_leaves_qhull_unloaded(self):
        child = """
import json, sys
from importlib.resources import files
import numpy as np
from ccplan.planner import TrajectoryProblem, solve
from ccplan.sceneio import parse_robot, parse_scene
scenes = files("ccplan") / "scenes"
scene = parse_scene(json.loads((scenes / "pickplace3d.json").read_text()))
robot = parse_robot(json.loads((scenes / "arm4dof3d.json").read_text()))
solve(TrajectoryProblem(robot, scene.obstacles, 17,
                        np.array([-0.8, -0.5, -0.7, -0.3]),
                        np.array([0.9, -0.4, -0.8, -0.2]), 0.10, 0.02))
print("scipy.spatial" in sys.modules)
"""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [
            str(Path(geometry.__file__).parents[1]),
            os.environ.get("PYTHONPATH")]))
        out = subprocess.run([sys.executable, "-c", child], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.split() == ["False"]


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
                pa, pb = a._support(v1), b._support(v2)
                ta = rng.uniform(size=(1,))
                d = pa - pb
                best = min(best, float(d @ Sinv @ d))
            assert c <= best + 1e-6

    def test_2d_search_matches_its_3d_embedding(self):
        # Bodies in the z = 0 plane of 3D, under a covariance whose z block
        # is apart from the planar one, have the planar problem's minimum:
        # the planar search runs in the z = 0 plane of the same float code.
        rng = np.random.default_rng(40)
        for k in range(60):
            a = Capsule(rng.normal(size=2), rng.normal(size=2),
                        rng.uniform(0.0, 0.2))
            b = (SweptHull(rng.normal(size=(6, 2)) * 0.4
                           + rng.normal(size=2) * 2.0, rng.uniform(0.0, 0.2))
                 if k % 2 else box(rng.uniform(0.1, 0.5, size=2),
                                   center=rng.normal(size=2) * 2.0))
            S = rand_spd(rng, 2, 0.05)
            S3 = np.zeros((3, 3))
            S3[:2, :2], S3[2, 2] = S, rng.uniform(0.001, 1.0)
            c, wa, wb = mahalanobis_contact(a, b, np.linalg.cholesky(S))
            c3 = mahalanobis_contact(
                *(SweptHull(np.pad(x.vertices, ((0, 0), (0, 1))), x.radius)
                  for x in (a, b)), np.linalg.cholesky(S3))[0]
            assert wa.shape == wb.shape == (2,)
            assert c3 == pytest.approx(c, rel=1e-12, abs=0.0)

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


@st.composite
def swept_cores(draw, dim):
    """A point, segment, box or 7-vertex hull core swept by a radius of 0
    or 0.05, placed within 2 of the origin."""
    vec = st.lists(coordinate, min_size=dim, max_size=dim).map(np.array)
    kind = draw(st.sampled_from(["point", "segment", "box", "hull"]))
    centre = 2.0 * draw(vec)
    if kind == "point":
        V = centre[None]
    elif kind == "segment":
        V = np.stack([centre, centre + draw(vec)])
    else:
        if kind == "box":
            half = st.lists(st.floats(0.05, 0.8), min_size=dim, max_size=dim)
            core = box(draw(half))
        else:
            core = Polytope(np.array(draw(st.lists(vec, min_size=7,
                                                   max_size=7))))
        V = core.posed(Pose(draw(rotations(dim)), centre)).vertices
    return SweptHull(V, draw(st.sampled_from([0.0, 0.05])))


@st.composite
def whitened_cases(draw):
    """Two swept cores and a covariance: isotropic, or a random SPD one."""
    dim = draw(st.sampled_from([2, 3]))
    a, b = draw(swept_cores(dim)), draw(swept_cores(dim))
    if draw(st.booleans()):
        S = draw(st.floats(0.05, 1.0)) ** 2 * np.eye(dim)
    else:
        S = rand_spd(np.random.default_rng(draw(st.integers(0, 2**32 - 1))),
                     dim, draw(st.floats(0.01, 0.5)))
    return a, b, S


def count_supports(monkeypatch):
    """Count the whitened searches' supports from here on: "core" for
    those of the cores alone, "full" for those of the swept bodies."""
    calls = {"core": 0, "full": 0}
    for kind, name in (("core", "core"), ("full", "__call__")):
        def counted(self, v, kind=kind, method=getattr(_PairSupport, name)):
            calls[kind] += 1
            return method(self, v)
        monkeypatch.setattr(_PairSupport, name, counted)
    return calls


class TestCoreFirstSearch:
    """Cold whitened searches solve the cores first, then solve the
    ellipsoid term exactly on each core face and finish on full supports:
    one under an isotropic covariance, one more per face change under a
    full one."""

    @PROPERTY
    @given(whitened_cases())
    # A point against a nearly axis-parallel segment: the closest point of
    # the last simplex rounds to the same |v|^2 as the estimate, and only
    # the bound along it closes the gap (4e-9 short along the old one).
    @example((point_body([0.0, 2.0, 0.0]),
              SweptHull(np.array([[0.0, 0.0, 0.0], [0.0, 1e-9, 1.0]]), 0.0),
              np.eye(3)))
    def test_certified_and_within_the_gap(self, case):
        a, b, S = case
        isotropic = not np.any(S - S[0, 0] * np.eye(a.dim))
        with pytest.MonkeyPatch.context() as m:
            calls = count_supports(m)
            c, wa, wb = mahalanobis_contact(a, b, np.linalg.cholesky(S))
        cores = distance(SweptHull(a.vertices, 0.0),
                         SweptHull(b.vertices, 0.0)).signed_distance
        if cores < -1e-9:
            assert c == 0.0
            return
        d = wa - wb
        value = float(d @ np.linalg.solve(S, d))
        # c bounds the witness pair's value from below, to roundoff, and
        # lies within the duality gap of it: nv2 - c <= 2 (nv2 - v.p).
        assert c <= value * (1.0 + 1e-13)
        tol = geometry.WHITENED_GAP_TOL
        assert value - c <= 2.0 * (tol * value + 1e-14)
        sd = distance(a, b).signed_distance
        if a.radius + b.radius > 0.0 and c > 0.0:
            # The ellipsoid term is solved exactly on each core face: one
            # full support verifies the right face, and a wrong one costs
            # one full step more.
            assert calls["full"] <= 2
        if isotropic and sd > 0.0 and sd * sd > 0.1 * S[0, 0]:
            # The core phase's face holds the minimizer, so the first full
            # support closes the gap (without a radius there is no core
            # phase: the search is on the polytope itself).
            assert c == pytest.approx(sd * sd / S[0, 0], rel=1e-12)
            if a.radius + b.radius > 0.0:
                assert calls["full"] == 1

    # Links of arm4dof3d against obstacles of the benchmark's certify-random
    # family, under full covariances: (capsule core, radius, obstacle core,
    # radius, covariance). The searches end on thin simplices. On the
    # first, barycentric coordinates off a sum of one gave witnesses whose
    # value lay below c; on the second, a thin tetrahedron dropped the new
    # support and the search stopped 1e-9 short of its gap. From the
    # centres, without the cores first, both ended over 7e-12 short. The
    # rest are the first searches of ``RandomTriples(1)`` that still ended
    # 1.5e-11 to 7e-10 (relative) short of the gap while full supports
    # approached the ellipsoid term one at a time, on long thin triangles.
    THIN_SIMPLEX_CASES = [
        ([[0.0, 0.0, 0.3],
          [0.23316797350849583, -0.18571549319815633, 0.2661998266852531]],
         0.04, [[0.37862673946095604, 0.191258121912921, 0.5644895260623197]],
         0.22300440198344568,
         [[0.18320055187841036, 0.07968456894094726, 0.043554894265123885],
          [0.07968456894094726, 0.1401069467894186, 0.0032091271993952126],
          [0.043554894265123885, 0.0032091271993952126,
           0.0790235032201268]]),
        ([[0.0, 0.0, 0.3],
          [0.19583036157771827, 0.14466961665673228, 0.47527456033530435]],
         0.04,
         [[-0.08430705954192762, -0.3051406722251175, -0.32604950998324983]],
         0.13219668392666994,
         [[0.0036143942692000637, 0.007904427881557523, 0.01529850075740724],
          [0.007904427881557523, 0.19299176420298245, 0.1448958196651148],
          [0.01529850075740724, 0.1448958196651148, 0.4357414956566037]]),
        # Triple 481.
        ([[0.0, 0.0, 0.3],
          [0.23502900945345342, -0.16306418737111833, 0.20960400721090944]],
         0.04,
         [[0.27644381946821206, -0.07501750503552676, 0.08884299371063853]],
         0.0921515532804609,
         [[0.07710348737182697, -0.016832136751378693, -0.04280672099681111],
          [-0.016832136751378693, 0.010705513282666826, 0.017383231881071003],
          [-0.04280672099681111, 0.017383231881071003, 0.04515187570930307]]),
        # Triple 592.
        ([[0.22290393969604708, 0.12088986819785995, 0.1396894469004456],
          [0.4711759374625253, 0.25553786557348096, 0.03854137757741502]],
         0.04, [[0.11367811367807892, 0.3972359422464357, 0.3843477584954923]],
         0.2385418944649143,
         [[0.19375232264225378, -0.0007420403292887198, -0.08723150121428734],
          [-0.0007420403292887198, 0.03544930826667443, -0.01929830580081917],
          [-0.08723150121428734, -0.01929830580081917, 0.06877309524627502]]),
        # Triple 634.
        ([[0.0, 0.0, 0.0],
          [0.0, 0.0, 0.28]],
         0.05,
         [[-0.05311848358097092, 0.7758246576399247, 1.2023199274397334],
          [0.03669320268050702, 0.7295420483401028, 1.332206054113469],
          [-0.07399097576037417, 0.7874616566470297, 1.4101489278394357],
          [-0.06735820387964994, 0.44922669528397163, 1.1195961912082109],
          [-0.1630580490249541, 0.6266115717552379, 1.2448162136470229],
          [0.03487973198722871, 0.7439954185163971, 1.4964841662164319],
          [-0.07942539433860929, 1.0624145484971597, 1.3221579438188273],
          [0.05087388726115205, 1.0092994762041712, 0.9885377790650272]],
         0.0,
         [[0.009084743239618685, -0.02032439697061951, 0.0013780908531906512],
          [-0.02032439697061951, 0.26860723696659117, 0.22229726769397556],
          [0.0013780908531906512, 0.22229726769397556, 0.2668883878828756]]),
        # Triple 1240.
        ([[0.2973165150654003, -0.004737597108016361, 0.26024518842947786],
          [0.5739162343616446, -0.009145081939216449, 0.14417120614791057]],
         0.04,
         [[0.25136950441218897, 0.22352026847318807, 0.06430814485816988]],
         0.16994268199020282,
         [[0.014979548564189094, -0.0065475358273240514,
           -0.004007889424717475],
          [-0.0065475358273240514, 0.009430553878647795,
           0.0001066311011137851],
          [-0.004007889424717475, 0.0001066311011137851,
           0.010505617063067999]]),
        # Triple 1345.
        ([[0.0, 0.0, 0.3],
          [0.26677931410771877, -0.11985404888252323, 0.2331882904673076]],
         0.04,
         [[0.2718729737937862, 0.14455437756556372, 0.24989414835792984]],
         0.15676890009291788,
         [[0.009103093947444293, 0.0005323545692303204, -0.002439815134032395],
          [0.0005323545692303204, 0.013607530549579534, -0.002563967165999943],
          [-0.002439815134032395, -0.002563967165999943,
           0.004729773809369103]]),
        # Triple 1465.
        ([[0.22502326999459238, -0.06757029569424738, 0.48654431940086706],
          [0.48220573048859117, -0.1447973971552261, 0.6203096243726287]],
         0.04,
         [[0.02427798164637363, -0.01905207732436322, 0.7769473086789868]],
         0.17226401450667678,
         [[0.03680227397329629, -0.015187545793404407, -0.025135613454256238],
          [-0.015187545793404407, 0.01829592410568395, 0.020725338109868086],
          [-0.025135613454256238, 0.020725338109868086, 0.03342583965536074]]),
        # Triple 1492.
        ([[0.2311038648109359, 0.19001175921015373, 0.2779424608963011],
          [0.4396039515644196, 0.3614388719151266, 0.40886403609850486]],
         0.04,
         [[0.34181119352773054, 0.18985184343042266, 0.6351530637318179]],
         0.22109879661619292,
         [[0.004065449650214435, -0.016017472294897923, -0.001059319856892396],
          [-0.016017472294897923, 0.2462433684888822, 0.023829643893908136],
          [-0.001059319856892396, 0.023829643893908136, 0.05689643650002749]]),
        # Triple 1492.
        ([[0.4396039515644196, 0.3614388719151266, 0.40886403609850486],
          [0.5653751676917349, 0.4648469653016322, 0.6366542189774513]],
         0.035,
         [[0.34181119352773054, 0.18985184343042266, 0.6351530637318179]],
         0.22109879661619292,
         [[0.004065449650214435, -0.016017472294897923, -0.001059319856892396],
          [-0.016017472294897923, 0.2462433684888822, 0.023829643893908136],
          [-0.001059319856892396, 0.023829643893908136, 0.05689643650002749]]),
    ]

    @pytest.mark.parametrize("case", THIN_SIMPLEX_CASES)
    def test_thin_simplices_keep_the_gap(self, case):
        core, r, obstacle, r_ob, S = case
        S = np.array(S)
        c, wa, wb = mahalanobis_contact(SweptHull(np.array(core), r),
                                        SweptHull(np.array(obstacle), r_ob),
                                        np.linalg.cholesky(S))
        d = wa - wb
        value = float(d @ np.linalg.solve(S, d))
        assert c <= value * (1.0 + 1e-13)
        assert value - c <= 2.0 * (geometry.WHITENED_GAP_TOL * value + 1e-14)

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("kind", ["capsule", "box"])
    def test_full_covariance_closes_in_two_full_supports(self, dim, kind,
                                                         monkeypatch):
        # Covariances of condition number 100, on which full supports alone
        # approach the ellipsoid term linearly: a capsule or a box against
        # a sphere, a point core with a radius, around it.
        rng = np.random.default_rng(50 + dim)
        calls = count_supports(monkeypatch)
        for _ in range(25):
            Q = np.linalg.qr(rng.normal(size=(dim, dim)))[0]
            S = 0.05 * Q @ np.diag(np.geomspace(1.0, 0.01, dim)) @ Q.T
            if kind == "capsule":
                a = Capsule(np.zeros(dim), 0.3 * rng.normal(size=dim), 0.04)
            else:
                a = box([0.2, 0.1, 0.15][:dim])
            centre = rng.normal(size=dim)
            b = Sphere(1.2 * centre / np.linalg.norm(centre), 0.1)
            calls["full"] = 0
            c, wa, wb = mahalanobis_contact(a, b, np.linalg.cholesky(S))
            d = wa - wb
            value = float(d @ np.linalg.solve(S, d))
            assert 0.0 < c <= value * (1.0 + 1e-13)
            assert value - c <= 2.0 * (geometry.WHITENED_GAP_TOL * value
                                       + 1e-14)
            assert calls["full"] <= 2


def face_oracle(p0, D, M, r):
    """min |p0 + D t + M x| over t and |x| <= r (D a list of directions),
    by SLSQP from several starts: a dense check of the face solve."""
    dim, k = len(p0), len(D)
    D = np.array(D, dtype=float).reshape(k, dim).T

    def f(z):
        y = p0 + D @ z[:k] + M @ z[k:]
        return float(y @ y)

    ball = {"type": "ineq", "fun": lambda z: r * r - z[k:] @ z[k:]}
    best = math.inf
    starts = [np.concatenate([np.zeros(k), r * u]) for u in
              np.concatenate([np.eye(dim), -np.eye(dim)])]
    for z0 in starts:
        res = minimize(f, z0, method="SLSQP", constraints=[ball],
                       options={"ftol": 1e-16, "maxiter": 500})
        if np.all(np.isfinite(res.x)) and ball["fun"](res.x) >= -1e-12:
            best = min(best, res.fun)
    return math.sqrt(best)


def face_point(p0, D, M, r, u):
    """The face solve's least point for its direction u: the point of the
    affine hull p0 + span(D), shifted by E's support along -u, nearest
    the origin."""
    w = M.T @ -np.asarray(u, dtype=float)
    y = p0 + r * (M @ w) / np.linalg.norm(w)
    if D:
        B = np.linalg.qr(np.array(D, dtype=float).T)[0]
        y = y - B @ (B.T @ y)
    return y


class TestFaceSolve:
    """``_face_direction`` takes the least point of F + E, F the affine hull
    of a simplex's core points and E the whitened ball term, in closed
    form on a hyperplane and from a secular equation on a vertex or a 3D
    line. The point it gives, shifted by E's support along its direction,
    is optimal when it lies along that direction (then it is normal to F,
    and E's support point along it is the one used), and a dense minimum
    over the face and the ellipsoid checks its value."""

    @staticmethod
    def metric(rng, dim, values):
        """M = U diag(sqrt(values)) V^T and its face-solve axes."""
        U = np.linalg.qr(rng.normal(size=(dim, dim)))[0]
        V = np.linalg.qr(rng.normal(size=(dim, dim)))[0]
        M = U @ np.diag(np.sqrt(np.asarray(values, dtype=float))) @ V.T
        return M, geometry.ellipsoid_axes(*np.linalg.svd(M)[:2])

    @staticmethod
    def check(points, M, axes, r, hull, dense=True):
        """The face solve on ``points``, whose affine hull is ``hull`` (p0,
        directions): its least point lies along its direction, to 1e-9
        relative, and has the dense minimum's norm. Returns the
        direction."""
        dim = M.shape[0]
        pad = [0.0] * (3 - dim)
        u = geometry._face_direction([list(p) + pad for p in points], dim,
                                     axes, r)
        assert u[dim:] == pad
        p0, D = np.asarray(hull[0], dtype=float), hull[1]
        v, u = face_point(p0, D, M, r, u[:dim]), np.array(u[:dim])
        u_hat = u / np.linalg.norm(u)
        off = v - (v @ u_hat) * u_hat
        assert v @ u > 0.0
        # v = f + e cancels when F nearly touches E: allow its roundoff.
        assert np.linalg.norm(off) <= 1e-9 * np.linalg.norm(v) + 1e-14 * (
            np.linalg.norm(p0) + r * np.linalg.norm(M, 2))
        if dense:
            assert np.linalg.norm(v) == pytest.approx(
                face_oracle(p0, D, M, r), rel=1e-7)
        return list(u)

    @pytest.mark.parametrize("dim, rank",
                             [(2, 0), (2, 1), (3, 0), (3, 1), (3, 2)])
    def test_matches_dense_minimum(self, dim, rank):
        rng = np.random.default_rng(60 + 3 * dim + rank)
        done = 0
        while done < 12:
            # E's semi-axes are at most 1; F stays at least 2 away.
            M, axes = self.metric(rng, dim, rng.uniform(1.0, 100.0, dim))
            P = 0.5 * rng.normal(size=(rank + 1, dim)) + 3.0 * rng.normal(
                size=dim)
            D = list(P[1:] - P[0])
            if np.linalg.norm(face_point(P[0], D, M, 0.0, P[0])) < 2.0:
                continue
            self.check(P, M, axes, 0.1, (P[0], D))
            done += 1

    def test_coincident_and_collinear_points(self):
        rng = np.random.default_rng(70)
        M, axes = self.metric(rng, 3, [300.0, 20.0, 1.0])
        p = np.array([2.0, -1.0, 0.5])
        e = np.array([0.3, 0.4, -0.2])
        # Two points apart by roundoff are one vertex.
        self.check([p, p * (1.0 + 1e-16) + 1e-17], M, axes, 0.05, (p, []))
        # Three collinear points span the line through the farthest two.
        self.check([p, p + 0.5 * e, p + 2.0 * e], M, axes, 0.05, (p, [e]))
        self.check([p + 0.5 * e, p - e, p + e], M, axes, 0.05, (p, [e]))

    @pytest.mark.parametrize("dim", [2, 3])
    def test_no_component_along_the_smallest_axis(self, dim):
        # The trust-region "hard case": the vertex, and in 3D the line,
        # have no component along the axis of the smallest eigenvalue.
        rng = np.random.default_rng(71 + dim)
        M, axes = self.metric(rng, dim, np.geomspace(100.0, 1.0, dim))
        u_small = np.array(axes[0][dim - 1][:dim])
        p = rng.normal(size=dim)
        p *= 4.0 / np.linalg.norm(p - (p @ u_small) * u_small)
        p -= (p @ u_small) * u_small
        self.check([p], M, axes, 0.1, (p, []))
        if dim == 3:
            e = np.cross(p, u_small)
            self.check([p, p + e], M, axes, 0.1, (p, [e]))

    @pytest.mark.parametrize("dim", [2, 3])
    def test_face_nearly_touching_the_ellipsoid(self, dim):
        # At mu = 0, e = -f has |e|_E = |M^-1 f| = r (1 + 1e-9): the root
        # lies near mu = 0, and the least point is about 1e-9 r long.
        rng = np.random.default_rng(73 + dim)
        M, axes = self.metric(rng, dim, np.geomspace(100.0, 1.0, dim))
        f = rng.normal(size=dim)
        r = 0.2
        f *= r * (1.0 + 1e-9) / np.linalg.norm(np.linalg.solve(M, f))
        self.check([f], M, axes, r, (f, []), dense=False)
        # Just inside E, F + E holds the origin: the foot is returned.
        g = list(f * (1.0 - 1e-6)) + [0.0] * (3 - dim)
        assert geometry._face_direction([g], dim, axes, r) == g

    def test_radius_near_underflow_gives_the_foot(self):
        # The multiplier overflows: E is negligible beside the face.
        rng = np.random.default_rng(77)
        M, axes = self.metric(rng, 3, [9.0, 1.0, 0.25])
        for pts in ([[1.0, 2.0, 3.0]], [[1.0, 2.0, 3.0], [2.0, 1.0, 3.5]]):
            foot = geometry._affine_foot(pts)[0]
            assert geometry._face_direction(pts, 3, axes, 5e-324) == foot
        c, _, _ = mahalanobis_contact(Sphere([0.0, 0.0, 0.0], 5e-324),
                                      point_body([0.0, 0.0, 1.0]),
                                      np.linalg.inv(M))
        assert c == pytest.approx(float(np.sum((M @ [0, 0, 1.0]) ** 2)),
                                  rel=1e-12)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_isotropic_gives_the_foot(self, dim):
        # A ball E: the least point lies along the foot, which is returned
        # bit for bit, so the shift is the core phase's closest point.
        rng = np.random.default_rng(75 + dim)
        M = 7.0 * np.eye(dim)
        axes = geometry.ellipsoid_axes(*np.linalg.svd(M)[:2])
        for rank in range(dim):
            P = 0.5 * rng.normal(size=(rank + 1, dim)) + 3.0 * rng.normal(
                size=dim)
            pts = [list(p) + [0.0] * (3 - dim) for p in P]
            u = self.check(P, M, axes, 0.1, (P[0], list(P[1:] - P[0])))
            assert u == geometry._affine_foot(pts)[0][:dim]


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
    def test_stalling_support_map_stops(self, monkeypatch):
        # A capsule link beside a box face under an isotropic covariance
        # (a pickplace certificate): the whitened search used to cycle on
        # a thin simplex and return unconverged at the iteration cap, and
        # from the body centres it later took 35 supports. The cores come
        # first now, and one full support closes the gap.
        link = Capsule([0.24824809667445116, -0.09771704827401971,
                        0.4372015341536866],
                       [0.34940109239432393, -0.13753355562385342,
                        0.7168132599438545], 0.04)
        wall = box([0.05, 0.12, 0.15], center=[0.42, 0.02, 0.7])
        sigma = math.sqrt(0.0012)
        calls = count_supports(monkeypatch)
        c, wa, wb = mahalanobis_contact(link, wall, sigma * np.eye(3))
        assert calls["core"] >= 1 and calls["full"] == 1
        assert calls["core"] + calls["full"] <= 6
        # Isotropic metric: c is the Euclidean distance over sigma, squared.
        exact = (distance(link, wall).signed_distance / sigma) ** 2
        assert c == pytest.approx(exact, rel=1e-12)

    def test_iteration_cap_raises(self):
        # A sphere is curved everywhere: GJK approaches it but needs more
        # than two supports to reach a 1e-12 duality gap.
        from ccplan.geometry import GeometryError, _gjk
        ball = Sphere([3.0, 1.0, -2.0], 1.0)

        def sp(v):
            p = ball._support(np.asarray(v, dtype=float))
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


class TestPose:
    def test_rotations_from_input_are_checked(self):
        with pytest.raises(ValueError, match="orthogonal"):
            Pose(np.array([[1.0, 0.1], [0.0, 1.0]]), np.zeros(2))
        with pytest.raises(ValueError, match="determinant"):
            Pose(np.diag([1.0, -1.0]), np.zeros(2))
        with pytest.raises(ValueError):
            Pose(np.eye(2), np.array([0.0, np.nan]))

    def test_built_rotations_check_only_their_input(self):
        # identity and planar rotations are proper by construction.
        for dim in (2, 3):
            pose = Pose.identity(dim)
            np.testing.assert_array_equal(pose.rotation, np.eye(dim))
            np.testing.assert_array_equal(pose.translation, np.zeros(dim))
        pose = Pose.planar(0.3, [1, 2])
        R = pose.rotation
        np.testing.assert_allclose(R @ R.T, np.eye(2), atol=1e-15)
        assert np.linalg.det(R) == pytest.approx(1.0)
        assert pose.translation.dtype == float
        for angle, t in ((0.3, [1.0, 2.0, 3.0]), (0.3, [np.inf, 0.0]),
                         (math.nan, [0.0, 0.0]), (math.inf, [0.0, 0.0])):
            with pytest.raises(ValueError):
                Pose.planar(angle, t)
