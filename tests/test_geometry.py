import math

import numpy as np
import pytest

from ccplan.geometry import (
    Capsule,
    Ellipsoid,
    HalfEllipsoid,
    MinkowskiSum,
    Polytope,
    Pose,
    Posed,
    Sphere,
    box,
    distance,
    intersects,
    mahalanobis_contact,
    point_body,
)


def rand_spd(rng, dim, scale=1.0):
    A = rng.normal(size=(dim, dim))
    return scale * (A @ A.T + dim * np.eye(dim))


class TestSupport:
    def test_sphere_support(self):
        s = Sphere([0, 0, 0], 1.0)
        np.testing.assert_allclose(s.support([0, 0, 1]), [0, 0, 1])

    def test_box_vertex_support(self):
        b = box([1, 1, 1])
        np.testing.assert_allclose(b.support([1, 1, 1]), [1, 1, 1])

    def test_minkowski_sum_of_spheres(self):
        m = MinkowskiSum(Sphere([0, 0, 0], 1.0), Sphere([0, 0, 0], 1.0))
        np.testing.assert_allclose(m.support([1, 0, 0]), [2, 0, 0])

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
            m = MinkowskiSum(a, b)
            v = rng.normal(size=3)
            np.testing.assert_allclose(
                m.support(v), a.support(v) + b.support(v), atol=1e-12)

    def test_posed_support(self):
        pose = Pose.planar(math.pi / 2, np.array([1.0, 0.0]))
        b = Posed(pose, box([1.0, 0.5]))
        # Rotated by 90 degrees: half-extent 0.5 now lies along x.
        np.testing.assert_allclose(b.support([1, 0])[0], 1.5, atol=1e-12)


class TestEllipsoidSupport:
    def test_unit_sphere(self):
        e = Ellipsoid(np.eye(3), 1.0)
        np.testing.assert_allclose(e.support([0, 0, 1]), [0, 0, 1], atol=1e-12)

    def test_anisotropic_closed_form(self):
        e = Ellipsoid(np.diag([4.0, 1.0, 1.0]), 1.0)
        np.testing.assert_allclose(e.support([1, 0, 0]), [2, 0, 0], atol=1e-12)

    def test_degenerate_zero_radius(self):
        e = Ellipsoid(np.diag([4.0, 1.0, 1.0]), 0.0)
        np.testing.assert_allclose(e.support([1, 2, 3]), [0, 0, 0])

    def test_support_maximizes(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            S = rand_spd(rng, 3)
            c = rng.uniform(0.1, 5)
            e = Ellipsoid(S, c)
            v = rng.normal(size=3)
            p = e.support(v)
            # On the boundary and optimal against sampled boundary points.
            assert p @ np.linalg.solve(S, p) == pytest.approx(c, rel=1e-9)
            L = np.linalg.cholesky(S)
            us = rng.normal(size=(200, 3))
            us /= np.linalg.norm(us, axis=1, keepdims=True)
            samples = math.sqrt(c) * us @ L.T
            assert (samples @ v).max() <= p @ v + 1e-9


class TestHalfEllipsoidSupport:
    def test_halfspace_inactive(self):
        h = HalfEllipsoid(np.eye(3), 1.0, [0, 0, 1])
        np.testing.assert_allclose(h.support([0, 0, 1]), [0, 0, 1], atol=1e-12)

    def test_antiparallel_gives_slice_point(self):
        h = HalfEllipsoid(np.eye(3), 1.0, [0, 0, 1])
        p = h.support([0, 0, -1])
        assert abs(p[2]) < 1e-9
        assert np.linalg.norm(p) == pytest.approx(1.0, abs=1e-9)

    def test_2d_unconstrained(self):
        h = HalfEllipsoid(np.eye(2), 4.0, [1, 0])
        v = np.array([math.cos(math.pi / 4), math.sin(math.pi / 4)])
        np.testing.assert_allclose(h.support(v),
                                   [math.sqrt(2), math.sqrt(2)], atol=1e-12)

    def test_feasible_and_undominated(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            S = rand_spd(rng, 3)
            c = rng.uniform(0.1, 4)
            n = rng.normal(size=3)
            n /= np.linalg.norm(n)
            h = HalfEllipsoid(S, c, n)
            v = rng.normal(size=3)
            p = h.support(v)
            # Feasibility within 1e-9.
            assert p @ np.linalg.solve(S, p) <= c * (1 + 1e-9)
            assert n @ p >= -1e-9
            # Not dominated by dense boundary sampling.
            L = np.linalg.cholesky(S)
            us = rng.normal(size=(100_000, 3))
            us /= np.linalg.norm(us, axis=1, keepdims=True)
            samples = math.sqrt(c) * us @ L.T
            ok = samples @ n >= 0
            assert (samples[ok] @ v).max() <= p @ v + 1e-9


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


class TestIntersects:
    def test_far_spheres(self):
        assert not intersects(Sphere([0, 0, 0], 1), Sphere([3, 0, 0], 1))

    def test_identical_spheres(self):
        assert intersects(Sphere([0, 0, 0], 1), Sphere([0, 0, 0], 1))

    def test_implicit_sum_vs_far_box(self):
        body = MinkowskiSum(Sphere([0, 0, 0], 1.0), Ellipsoid(np.eye(3), 1.0))
        assert not intersects(body, box([1, 1, 1], center=[10, 0, 0]))

    def test_implicit_sum_overlap(self):
        body = MinkowskiSum(Sphere([0, 0, 0], 1.0), Ellipsoid(np.eye(3), 4.0))
        assert intersects(body, box([1, 1, 1], center=[3.5, 0, 0]))

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

        class Counted(Capsule):
            def _support(self, v):
                calls.append(1)
                return super()._support(v)

        counted = Counted(link.p0, link.p1, link.radius)
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
            return ball.support(v), None, None

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
            res = distance(a, b)
            c0, _, _ = mahalanobis_contact(a, b, L)
            c1, wa, wb = mahalanobis_contact(
                a, b, L, chol_inv=np.linalg.inv(L),
                guess=(res.witness_a, res.witness_b))
            assert c1 == pytest.approx(c0, rel=1e-9, abs=1e-12)
            d = wa - wb
            assert float(d @ np.linalg.solve(S, d)) == pytest.approx(
                c1, rel=1e-9, abs=1e-12)
