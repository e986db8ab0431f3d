import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ccplan.chi2 import chi2_sf
from ccplan import kinematics, risk, sceneio
from ccplan.cli import EXIT_NUMERICAL, main
from ccplan.geometry import (
    Capsule,
    GeometryError,
    Polytope,
    Pose,
    Sphere,
    box,
    distance,
    mahalanobis_contact,
    point_body,
)
from ccplan.kinematics import (
    Joint,
    RobotModel,
    forward_kinematics,
    point_jacobian,
    posed_link_groups,
    posed_link_shapes,
    trajectory_frames,
)
from ccplan.risk import (
    RiskCertificate,
    UncertainObstacle,
    certify_lanes,
    certify_risk,
    risk_gradient,
    risk_weights,
)
from test_kinematics import planar_point_robot


def point_obstacle(sigma, dim=2):
    return UncertainObstacle(point_body(np.zeros(dim)), sigma)


def slider_robot():
    """1-dof prismatic robot along x carrying a single point."""
    joints = [Joint("prismatic", Pose.identity(2), np.array([1.0, 0.0]))]
    return RobotModel(joints, [[point_body([0.0, 0.0])]], Pose.identity(2))


def translating_robot(bodies):
    """Prismatic robot, one joint per axis, carrying ``bodies``."""
    dim = bodies[0].dim
    joints = [Joint("prismatic", Pose.identity(dim), np.eye(dim)[i])
              for i in range(dim)]
    shapes = [[] for _ in range(dim - 1)] + [list(bodies)]
    return RobotModel(joints, shapes, Pose.identity(dim))


def straddle_robot(left, right):
    """Prismatic x/y robot carrying two points at (left, 0) and (right, 0)."""
    return translating_robot([point_body([left, 0.0]),
                              point_body([right, 0.0])])


def per_shadow_gradients(cert, robot, theta, obstacle, frames=None):
    """Reference gradients of a certificate's two shadows (full, half),
    each from ``point_jacobian``: eps_prime is their mean, so each is twice
    w . J, w its ``risk_weights`` entry and J the Jacobian of its robot
    contact point (zero for a shadow without a gradient). Their mean is
    the reference for ``risk_gradient``."""
    grads = [np.zeros(robot.dof), np.zeros(robot.dof)]
    for slot, w, link, point in risk_weights(cert, obstacle):
        grads[slot] = 2.0 * w @ point_jacobian(robot, theta, link, point,
                                               frames)
    return grads


def every_body_searched(robot, theta, obstacle):
    """The certificate with a ``mahalanobis_contact`` search of every body
    of ``posed_link_shapes``, with no cull: the lane tail on one lane, the
    LinkGroups of ``theta``, the oracle of the cold path's cull."""
    shapes = posed_link_shapes(robot, forward_kinematics(robot, theta))
    searched = [mahalanobis_contact(body, obstacle.nominal, obstacle.chol,
                                    chol_inv=obstacle.chol_inv)
                for _, body in shapes]
    c, wa, wb = (np.array(v)[None, None] for v in zip(*searched))
    groups = posed_link_groups(robot, trajectory_frames(robot, [theta]))
    return certify_lanes(groups, c, wa, wb, [obstacle],
                         1e-6).certificate((0, 0))


def assert_same_risk(cert, oracle, robot, theta, obstacle):
    """Equal bounds, branch and gradient, bit for bit."""
    for name in ("eps1", "eps2", "eps_prime", "saturated"):
        assert getattr(cert, name) == getattr(oracle, name), name
    if not cert.saturated:
        np.testing.assert_array_equal(
            risk_gradient(cert, robot, theta, obstacle),
            risk_gradient(oracle, robot, theta, obstacle))


def counted_searches(monkeypatch):
    """Patch the cold path's ``mahalanobis_contact`` to record its calls;
    returns the list of calls."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[0])
        return mahalanobis_contact(*args, **kwargs)

    monkeypatch.setattr(risk, "mahalanobis_contact", counted)
    return calls


def check_second_contact(cert, robot, theta, obstacle):
    """The half-shadow contact is feasible and within the certified gap.

    Returns True if the certificate has a second contact.
    """
    if cert.saturated or cert.floored2:
        return False
    x2, n, c2 = cert.x2, cert.contact_normal, cert.c2
    bodies = [body for li, body in
              posed_link_shapes(robot, forward_kinematics(robot, theta))
              if li == cert.link_index2]
    on_link = min(distance(point_body(cert.contact_point2), b)
                  .signed_distance for b in bodies)
    assert on_link <= 1e-9
    assert distance(point_body(cert.contact_point2 - x2),
                    obstacle.nominal).signed_distance <= 1e-9
    assert float(n @ x2) >= -1e-12
    value = float(x2 @ obstacle.sigma_inv @ x2)
    scale = max(1.0, c2)
    assert c2 <= value + 1e-12 * scale
    assert value <= c2 + 1e-9 * scale
    return True


def random_scene(rng, dim):
    """A translating robot carrying several random bodies scattered around
    a random uncertain obstacle near the origin."""
    bodies = []
    for _ in range(rng.integers(2, 5)):
        u = rng.normal(size=dim)
        at = u / np.linalg.norm(u) * rng.uniform(0.4, 1.6)
        kind = rng.integers(4)
        if kind == 0:
            bodies.append(point_body(at))
        elif kind == 1:
            bodies.append(Sphere(at, rng.uniform(0.02, 0.2)))
        elif kind == 2:
            bodies.append(Capsule(at, at + rng.normal(size=dim) * 0.8,
                                  rng.uniform(0.0, 0.1)))
        else:
            bodies.append(box(rng.uniform(0.02, 0.4, size=dim), center=at))
    kind = rng.integers(3)
    centre = rng.normal(size=dim) * 0.1
    if kind == 0:
        nominal = Sphere(centre, rng.uniform(0.0, 0.2))
    elif kind == 1:
        nominal = box(rng.uniform(0.02, 0.2, size=dim), center=centre)
    else:
        nominal = Polytope(centre + rng.normal(size=(6, dim)) * 0.1)
    A = rng.normal(size=(dim, dim)) * rng.uniform(0.1, 0.5)
    obstacle = UncertainObstacle(nominal, A @ A.T + 0.01 * np.eye(dim))
    return translating_robot(bodies), rng.normal(size=dim) * 0.1, obstacle


def nondegenerate(cert):
    """Configurations where the contact-persistence gradient model applies.

    The second contact must sit on the curved part of the half-ellipsoid
    (at its rim the expansion constraint is active and contributes an extra
    multiplier term the analytic gradient deliberately omits).
    """
    if cert.saturated or cert.floored:
        return False
    if cert.floored2 or cert.x2 is None:
        return True  # only the smooth first term is nonzero
    nx = float(cert.contact_normal @ cert.x2)
    return nx > 0.02 * np.linalg.norm(cert.x2)


def check_fd_gradient(robot, th, obstacle, h=1e-4,
                      rel=1e-3, abs_tol=1e-6):
    """Assert analytic vs central-difference gradients; False if degenerate.

    Besides rim contacts, skips stencil points that cross a certification
    branch (contact jumps between robot features), detected by forward and
    backward differences disagreeing with each other.
    """
    th = np.asarray(th, dtype=float)
    cert = certify_risk(robot, th, obstacle)
    if not nondegenerate(cert):
        return False
    g = risk_gradient(cert, robot, th, obstacle)
    for k in range(robot.dof):
        d = np.zeros(robot.dof)
        d[k] = h
        cu = certify_risk(robot, th + d, obstacle)
        cd = certify_risk(robot, th - d, obstacle)
        if not (nondegenerate(cu) and nondegenerate(cd)):
            return False
        fwd = (cu.eps_prime - cert.eps_prime) / h
        bwd = (cert.eps_prime - cd.eps_prime) / h
        if abs(fwd - bwd) > 0.05 * max(abs(fwd), abs(bwd), 1e-3):
            return False  # kink between branches inside the stencil
        fd = 0.5 * (fwd + bwd)
        assert abs(g[k] - fd) <= max(rel * abs(fd), abs_tol), (
            f"joint {k}: analytic {g[k]} vs finite difference {fd}")
    return True


class TestObstacle:
    def test_requires_spd_covariance(self):
        with pytest.raises(ValueError):
            point_obstacle(np.diag([1.0, -1.0]))
        with pytest.raises(ValueError):
            point_obstacle(np.array([[1.0, 0.5], [0.0, 1.0]]))
        with pytest.raises(ValueError):
            point_obstacle(np.eye(3))  # dim mismatch with 2D geometry

    def test_cached_factors(self):
        S = np.array([[2.0, 0.3], [0.3, 1.0]])
        ob = point_obstacle(S)
        np.testing.assert_allclose(ob.chol @ ob.chol.T, S, atol=1e-12)
        np.testing.assert_allclose(ob.sigma_inv @ S, np.eye(2), atol=1e-12)

    def test_sigma_max_of_ill_conditioned_covariance(self):
        # sigma_max divides the planner's cull bound, which must stay a
        # lower bound: at condition number 1e10 it keeps the accuracy of
        # the covariance's largest eigenvalue, which the inverse Cholesky
        # factor's least singular value loses to the inversion's roundoff.
        rng = np.random.default_rng(11)
        for _ in range(50):
            Q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
            lam = np.array([1e-10, 3e-4, 1.0]) * rng.uniform(0.5, 2.0)
            ob = UncertainObstacle(point_body(np.zeros(3)),
                                   Q @ np.diag(lam) @ Q.T)
            assert ob.sigma_max == pytest.approx(
                math.sqrt(np.linalg.eigvalsh(ob.covariance)[-1]), rel=1e-15)
            assert ob.sigma_max == pytest.approx(math.sqrt(lam[-1]),
                                                 rel=1e-13)


class TestCertifyClosedForm:
    def test_point_robot_isotropic(self):
        # Point robot at distance r from a point obstacle, Sigma = s^2 I:
        # the exact first-search bound is exp(-r^2 / 2 s^2).
        s = 0.5
        robot = planar_point_robot()
        ob = point_obstacle(s * s * np.eye(2))
        for r in (0.7, 1.0, 1.3):
            cert = certify_risk(robot, [r, 0.0], ob)
            assert cert.eps1 == pytest.approx(math.exp(-r * r / (2 * s * s)),
                                              rel=1e-9)
            assert not cert.saturated
            # Nothing behind the obstacle: the half-shadow never reaches the
            # robot, so eps2 reports the resolution floor.
            assert cert.floored2
            assert cert.eps2 == pytest.approx(1e-6)
            assert cert.eps_prime == pytest.approx(0.5 * (cert.eps1 + 1e-6))
            np.testing.assert_allclose(cert.contact_normal, [-1.0, 0.0],
                                       atol=1e-9)

    def test_second_search_straddling_points(self):
        # Points at -1.5 and +2 around the obstacle: first contact at the
        # near point (c = 2.25), half-shadow expands toward +x and meets the
        # far point at c = 4.
        robot = straddle_robot(-1.5, 2.0)
        ob = point_obstacle(np.eye(2))
        cert = certify_risk(robot, [0.0, 0.0], ob)
        assert cert.c1 == pytest.approx(2.25, abs=1e-9)
        assert cert.eps1 == pytest.approx(math.exp(-2.25 / 2), rel=1e-9)
        np.testing.assert_allclose(cert.contact_normal, [1.0, 0.0], atol=1e-9)
        assert cert.c2 == pytest.approx(4.0, abs=1e-6)
        assert cert.eps2 == pytest.approx(math.exp(-2.0), rel=1e-6)
        assert cert.eps_prime == pytest.approx(
            0.5 * (cert.eps1 + cert.eps2), abs=1e-15)
        assert cert.eps2 <= cert.eps1

    def test_second_search_takes_the_smallest_over_bodies(self):
        # Bodies are searched in increasing first-search c: the triangle
        # (c = 2.56) meets the half-shadow only at its rim, at c2 = 4; the
        # point at (1.9, 0), searched after it, lies on the curved part at
        # c2 = 3.61.
        robot = translating_robot([
            point_body([-1.0, 0.0]),
            Polytope([[0.0, 2.0], [0.0, 3.0], [-2.0, 0.5]]),
            point_body([1.9, 0.0])])
        ob = point_obstacle(np.eye(2))
        cert = certify_risk(robot, [0.0, 0.0], ob)
        assert cert.c2 == pytest.approx(3.61, rel=1e-12)
        np.testing.assert_allclose(cert.x2, [1.9, 0.0])

    def test_saturated_inside_obstacle(self):
        robot = planar_point_robot()
        ob = UncertainObstacle(Sphere(np.zeros(2), 0.5), 0.01 * np.eye(2))
        cert = certify_risk(robot, [0.1, 0.0], ob)
        assert cert.saturated
        assert cert.eps_prime == 1.0
        with pytest.raises(ValueError):
            risk_gradient(cert, robot, [0.1, 0.0], ob)

    def test_floor_far_away(self):
        robot = planar_point_robot()
        ob = point_obstacle(0.01 * np.eye(2))
        cert = certify_risk(robot, [4.0, 0.0], ob)  # 40 sigma out
        assert cert.floored
        assert cert.eps1 == cert.eps2 == cert.eps_prime == pytest.approx(1e-6)
        np.testing.assert_allclose(risk_gradient(cert, robot, [4.0, 0.0], ob),
                                   0.0)

    def test_obstacle_extent_shifts_contact(self):
        # Sphere obstacle: effective separation shrinks by the radius.
        robot = planar_point_robot()
        ob = UncertainObstacle(Sphere(np.zeros(2), 0.25), np.eye(2))
        cert = certify_risk(robot, [1.25, 0.0], ob)
        assert cert.c1 == pytest.approx(1.0, abs=1e-6)
        assert cert.eps1 == pytest.approx(math.exp(-0.5), rel=1e-6)

    def test_monotone_retreat(self):
        robot = planar_point_robot()
        ob = point_obstacle(0.25 * np.eye(2))
        vals = [certify_risk(robot, [r, 0.0], ob).eps_prime
                for r in (0.5, 0.8, 1.2, 1.7)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_eps2_never_exceeds_eps1(self, monkeypatch):
        rng = np.random.default_rng(7)
        robot = planar_point_robot()
        for _ in range(30):
            A = rng.normal(size=(2, 2))
            ob = UncertainObstacle(Sphere(rng.normal(size=2) * 0.5, 0.1),
                                   A @ A.T + 0.05 * np.eye(2))
            th = rng.normal(size=2) * 1.5
            cert = certify_risk(robot, th, ob)
            if not cert.saturated:
                assert cert.eps2 <= cert.eps1 + 1e-12
        # Multi-body robots in 2D and 3D, where the half-shadow meets a
        # second body on the curved part (n.x2 > 0) or at the rim. Each
        # certificate equals the one with every body searched, though the
        # cold path culls bodies outside the eps_tol shadow.
        calls = counted_searches(monkeypatch)
        for dim in (2, 3):
            curved = rim = culled = 0
            for _ in range(100):
                robot, th, ob = random_scene(rng, dim)
                before = len(calls)
                cert = certify_risk(robot, th, ob)
                culled += (len(robot.link_shapes[-1])
                           - (len(calls) - before))
                assert_same_risk(cert, every_body_searched(robot, th, ob),
                                 robot, th, ob)
                if cert.saturated:
                    continue
                assert cert.eps2 <= cert.eps1 + 1e-12
                if check_second_contact(cert, robot, th, ob):
                    at_rim = (cert.contact_normal @ cert.x2
                              <= 1e-9 * np.linalg.norm(cert.x2))
                    rim += at_rim
                    curved += not at_rim
            assert curved >= 10 and rim >= 5
            assert culled >= 10

    def test_far_body_takes_no_search(self, monkeypatch):
        # The point 40 sigma out is beyond the eps_tol shadow by one
        # support's bound: only the near point is searched, and the
        # certificate is the one with both points searched.
        robot = straddle_robot(-1.5, 40.0)
        ob = point_obstacle(np.eye(2))
        theta = [0.1, -0.2]
        calls = counted_searches(monkeypatch)
        cert = certify_risk(robot, theta, ob)
        assert len(calls) == 1
        np.testing.assert_array_equal(calls[0].vertices, [[-1.4, -0.2]])
        assert_same_risk(cert, every_body_searched(robot, theta, ob), robot,
                         theta, ob)

    def test_deterministic(self):
        robot = straddle_robot(-1.5, 2.0)
        ob = point_obstacle(np.array([[1.0, 0.2], [0.2, 0.8]]))
        a = certify_risk(robot, [0.1, -0.2], ob)
        b = certify_risk(robot, [0.1, -0.2], ob)
        assert a.eps1 == b.eps1 and a.eps2 == b.eps2
        np.testing.assert_array_equal(a.contact_normal, b.contact_normal)

    def test_invalid_eps_tol(self):
        robot = planar_point_robot()
        ob = point_obstacle(np.eye(2))
        with pytest.raises(ValueError):
            certify_risk(robot, [1.0, 0.0], ob, eps_tol=0.7)

    def test_first_searches_need_their_shapes(self):
        robot = straddle_robot(-1.5, 2.0)
        ob = point_obstacle(np.array([[1.0, 0.2], [0.2, 0.8]]))
        theta = [0.1, -0.2]
        given = every_body_searched(robot, theta, ob)
        assert given.eps_prime == certify_risk(robot, theta, ob).eps_prime

    def test_eps1_survival_consistency(self):
        # eps1 must equal the survival function at the certified c1.
        robot = planar_point_robot()
        ob = point_obstacle(np.array([[0.5, 0.1], [0.1, 0.3]]))
        cert = certify_risk(robot, [0.8, -0.4], ob)
        assert cert.eps1 == pytest.approx(chi2_sf(cert.c1, 2), rel=1e-12)


class TestHalfShadowDegenerate:
    """Degenerate geometry of the half-shadow search: flat difference sets,
    faces and vertices on the cut plane, and touching bodies."""

    def test_point_bodies_flat_difference_set(self):
        # Each point body's difference set with a point obstacle is a single
        # point: the far one is the second contact, the near one is cut off.
        S = np.array([[1.0, 0.2], [0.2, 0.8]])
        robot = straddle_robot(-1.5, 2.0)
        ob = point_obstacle(S)
        cert = certify_risk(robot, [0.1, -0.2], ob)
        assert check_second_contact(cert, robot, [0.1, -0.2], ob)
        np.testing.assert_array_equal(cert.x2, [2.1, -0.2])
        assert cert.c2 == pytest.approx(cert.x2 @ np.linalg.solve(S, cert.x2),
                                        rel=1e-14)

    @pytest.mark.parametrize("far_vertex", [(0.0, 3.0), (-1.0, 3.0)])
    def test_cut_plane_touches_face_or_vertex(self, far_vertex):
        # The near point fixes n = +x. The triangle's closest point to the
        # obstacle has x < 0 and its largest x is exactly 0, on the face
        # from (0, 2) to (0, 3) or at the vertex (0, 2): the rim contact is
        # (0, 2), with c2 = 4.
        robot = translating_robot([
            point_body([-1.0, 0.0]),
            Polytope([[0.0, 2.0], far_vertex, [-2.0, 0.5]])])
        ob = point_obstacle(np.eye(2))
        cert = certify_risk(robot, [0.0, 0.0], ob)
        np.testing.assert_allclose(cert.contact_normal, [1.0, 0.0])
        assert check_second_contact(cert, robot, [0.0, 0.0], ob)
        assert cert.link_index2 == 1
        assert cert.c2 == pytest.approx(4.0, rel=1e-9)
        np.testing.assert_allclose(cert.x2, [0.0, 2.0], atol=1e-6)

    def test_cut_plane_touches_curved_body(self):
        # A body whose own closest point lies on the cut plane: the curved
        # branch, with c2 its unconstrained minimum.
        robot = translating_robot([point_body([-1.0, 0.0]),
                                   Capsule([-3.0, 2.0], [0.0, 2.0], 0.0)])
        ob = point_obstacle(np.eye(2))
        cert = certify_risk(robot, [0.0, 0.0], ob)
        assert check_second_contact(cert, robot, [0.0, 0.0], ob)
        assert cert.c2 == pytest.approx(4.0, rel=1e-12)

    def test_touching_bodies_saturate(self):
        # A link touching the nominal geometry (c1 = 0), with a second body
        # behind the obstacle.
        robot = translating_robot([box([0.25, 0.25], center=[-0.75, 0.0]),
                                   point_body([2.0, 0.0])])
        ob = UncertainObstacle(Sphere(np.zeros(2), 0.5), 0.04 * np.eye(2))
        cert = certify_risk(robot, [0.0, 0.0], ob)
        assert cert.saturated and cert.eps_prime == 1.0


class TestHalfShadowRegression:
    """A rim contact that the former bisection over-estimated (c2 too high,
    eps2 too low by 2.2e-5 relative): GJK probes of the half-shadow at
    radii between the two values stalled against the cut face."""

    ROBOT = {
        "formatVersion": 1, "name": "arm3link2d", "dimension": 2,
        "joints": [
            {"type": "revolute", "limits": [-3.1416, 3.1416]},
            {"type": "revolute", "offset": {"translation": [0.4, 0.0]},
             "limits": [-2.5, 2.5]},
            {"type": "revolute", "offset": {"translation": [0.4, 0.0]},
             "limits": [-2.5, 2.5]},
        ],
        "linkShapes": [[{"type": "capsule", "p0": [0.0, 0.0],
                         "p1": [0.4, 0.0], "radius": 0.03}]] * 3,
    }
    SCENE = {
        "formatVersion": 1, "dimension": 2, "obstacles": [{
            "shape": {"type": "sphere", "radius": 0.22468772340620669},
            "pose": {"translation": [0.884820303920105, -0.272552448425689]},
            "covariance": [[0.020510724765963897, 0.022709914454048973],
                           [0.022709914454048973, 0.04624414152702251]]}]}
    THETA = [-0.592355348212395, -0.12635471905270002, 0.2609501213828547]

    @staticmethod
    def supports(body, U):
        """Support points of a sphere-swept body in each row of ``U``."""
        V = body.vertices
        return V[np.argmax(U @ V.T, axis=1)] + body.radius * U

    def test_c2_below_a_scanned_feasible_point(self):
        robot = sceneio.parse_robot(self.ROBOT)
        ob = sceneio.parse_scene(self.SCENE).obstacles[0]
        cert = certify_risk(robot, self.THETA, ob)
        n = cert.contact_normal
        # Walk the boundary of each A - O by its outward normal angle:
        # d = s_A(u) - s_O(-u). Where n.d changes sign between neighbours,
        # the chord of the two boundary points meets the cut plane inside
        # A - O; the feasible chord of the cut plane joins the two crossings.
        psi = np.linspace(0.0, 2.0 * math.pi, 200_001)
        U = np.column_stack([np.cos(psi), np.sin(psi)])
        best = None
        for _, body in posed_link_shapes(
                robot, forward_kinematics(robot, self.THETA)):
            A, O = self.supports(body, U), self.supports(ob.nominal, -U)
            s = (A - O) @ n
            ends = []
            for k in np.flatnonzero((s[:-1] < 0.0) != (s[1:] < 0.0)):
                t = s[k] / (s[k] - s[k + 1])
                ends.append((A[k] + t * (A[k + 1] - A[k]),
                             O[k] + t * (O[k + 1] - O[k])))
            if not ends:
                continue
            (a0, o0), (a1, o1) = ends
            d0, e = a0 - o0, (a1 - o1) - (a0 - o0)
            tau = min(1.0, max(0.0, -(d0 @ ob.sigma_inv @ e)
                               / (e @ ob.sigma_inv @ e)))
            a, o = a0 + tau * (a1 - a0), o0 + tau * (o1 - o0)
            assert distance(point_body(a), body).signed_distance <= 1e-10
            assert distance(point_body(o), ob.nominal).signed_distance <= 1e-10
            d = a - o
            assert n @ d >= -1e-12
            value = float(d @ ob.sigma_inv @ d)
            best = value if best is None else min(best, value)
        assert cert.c2 <= best
        # The scan reaches the exact minimum to within its resolution.
        assert cert.c2 == pytest.approx(best, rel=1e-8)


class TestRimSearch:
    """The half-shadow dual search on rim bodies, where the cut is active:
    secant steps on the dual's slope s, which is affine in the multiplier
    while the projection stays on one face of the difference set."""

    @staticmethod
    def edge_case():
        # The point at (-1, 0) fixes c1 = 1 and n = +x. The segment's own
        # minimum, at t = 4/13 from (-2, 1), lies behind the cut, and its
        # rim contact is where it crosses x = 0: (0, 7/3), c2 = 49/9. Every
        # dual point up to lam = 6 projects onto the segment's interior.
        robot = translating_robot([point_body([-1.0, 0.0]),
                                   Capsule([-2.0, 1.0], [1.0, 3.0], 0.0)])
        return robot, [0.0, 0.0], point_obstacle(np.eye(2))

    @staticmethod
    def counted_queries(monkeypatch):
        """Patch ``_rim_contact`` and the ``_gjk`` that it alone calls in
        ``risk`` to record each rim body's dual queries; returns the list
        of counts, one per rim body."""
        counts = []
        rim, gjk = risk._rim_contact, risk._gjk

        def counted_rim(*args):
            counts.append(0)
            return rim(*args)

        def counted_gjk(*args, **kwargs):
            counts[-1] += 1
            return gjk(*args, **kwargs)

        monkeypatch.setattr(risk, "_rim_contact", counted_rim)
        monkeypatch.setattr(risk, "_gjk", counted_gjk)
        return counts

    def test_edge_closes_one_query_after_bracketing(self, monkeypatch):
        # The first guess lam = 28/13 and its double both project onto the
        # segment and bracket the root lam = 28/9: bracketing grows lam at
        # least twofold, and the secant through the two ends is the root.
        counts = self.counted_queries(monkeypatch)
        robot, theta, ob = self.edge_case()
        cert = certify_risk(robot, theta, ob)
        assert counts == [3]
        assert check_second_contact(cert, robot, theta, ob)
        assert cert.link_index2 == 1
        assert cert.c2 == pytest.approx(49.0 / 9.0, rel=1e-14)
        np.testing.assert_allclose(cert.x2, [0.0, 7.0 / 3.0], atol=1e-14)

    @pytest.mark.parametrize("radius", [0.0, 1e-12, 1e-6])
    def test_thin_vertex_arc_bounds_the_extrapolation(self, monkeypatch,
                                                       radius):
        # The segment's own minimum is its end (-0.5, 1.5). While lam m / 2
        # projects onto that end, or onto its arc of radius r, s stays flat
        # or moves by about r, and a secant through two points there has
        # its root far past the true one at lam = 70/9, where the segment
        # crosses x = 0 at (0, 7/3). A step grows lam at most 16-fold: an
        # unbounded secant step took 43 queries at r = 1e-12, 33 at 1e-9
        # and 21 at 1e-6.
        counts = self.counted_queries(monkeypatch)
        robot = translating_robot([
            point_body([-1.0, 0.0]),
            Capsule([-0.5, 1.5], [1.0, 4.0], radius)])
        theta, ob = [0.0, 0.0], point_obstacle(np.eye(2))
        cert = certify_risk(robot, theta, ob)
        assert counts[0] <= 5
        assert check_second_contact(cert, robot, theta, ob)
        # The rounded segment's near side crosses x = 0 sqrt(8.5) / 1.5
        # radii closer to the origin.
        exact = (7.0 / 3.0 - radius * math.sqrt(8.5) / 1.5) ** 2
        assert cert.c2 <= exact + 1e-12
        assert cert.c2 == pytest.approx(exact, rel=risk.HALF_GAP)

    def test_dual_queries_per_rim_body(self, monkeypatch):
        # Doubling lam, then stepping where the bracket ends' tangents of
        # the dual meet, took 13.0 queries per rim body here, and up to 21.
        counts = self.counted_queries(monkeypatch)
        rng = np.random.default_rng(7)
        rim_certificates = 0
        for dim in (2, 3):
            for _ in range(300):
                robot, th, ob = random_scene(rng, dim)
                before = len(counts)
                cert = certify_risk(robot, th, ob)
                if len(counts) > before:
                    rim_certificates += 1
                    check_second_contact(cert, robot, th, ob)
        assert rim_certificates >= 40 and len(counts) >= 60
        assert np.mean(counts) <= 7.0
        assert max(counts) <= 14


class TestInvariantErrors:
    """Broken certification invariants raise GeometryError (CLI exit 4),
    which ``python -O`` keeps, unlike an assert."""

    def test_eps2_above_eps1_raises(self, monkeypatch):
        # A half-shadow radius below c1 would make eps2 exceed eps1.
        robot, theta, ob = TestRimSearch.edge_case()
        monkeypatch.setattr(
            risk, "_rim_contact",
            lambda body, ob, n, first, far, cap: (0.5, *far))
        with pytest.raises(GeometryError, match="exceeded eps1"):
            certify_risk(robot, theta, ob)

    def test_dual_search_cap_raises(self, monkeypatch, tmp_path, capsys):
        # A rim search that reaches HALF_DUAL_MAX_ITER raises, and
        # ``ccplan certify`` reports it as a numerical failure.
        monkeypatch.setattr(risk, "HALF_DUAL_MAX_ITER", 1)
        with pytest.raises(GeometryError, match="did not converge"):
            certify_risk(*TestRimSearch.edge_case())
        case = TestHalfShadowRegression
        robot, scene = tmp_path / "robot.json", tmp_path / "scene.json"
        robot.write_text(json.dumps(case.ROBOT))
        scene.write_text(json.dumps(case.SCENE))
        code = main(["certify", "--scene", str(scene), "--robot", str(robot),
                     "--theta=" + ",".join(map(repr, case.THETA)),
                     "--out-dir", str(tmp_path)])
        assert code == EXIT_NUMERICAL
        assert "did not converge" in capsys.readouterr().err


class TestGradient:
    def test_cold_certificate_walks_the_chain_once(self, monkeypatch):
        # ``ccplan certify`` takes each gradient after its certificate:
        # both take the robot's last chain walk, which serves only the
        # joint state it was made for.
        R = TestHalfShadowRegression
        robot = sceneio.parse_robot(R.ROBOT)
        ob = sceneio.parse_scene(R.SCENE).obstacles[0]
        theta = np.array(R.THETA)
        walk = kinematics.trajectory_frames
        walks = []

        def counted(*args):
            walks.append(1)
            return walk(*args)

        monkeypatch.setattr(kinematics, "trajectory_frames", counted)

        def reference(state):
            # The mean of the per-shadow gradients, on an uncounted walk.
            g1, g2 = per_shadow_gradients(cert, robot, state, ob,
                                          walk(robot, state[None]))
            return 0.5 * (g1 + g2)

        cert = certify_risk(robot, theta, ob)
        assert not (cert.floored or cert.floored2)     # two Jacobians
        g = risk_gradient(cert, robot, theta, ob)
        assert len(walks) == 1
        np.testing.assert_allclose(g, reference(theta), rtol=1e-12,
                                   atol=1e-15)

        def walks_afresh(state):
            before = len(walks)
            g = risk_gradient(cert, robot, state, ob)
            assert len(walks) == before + 1
            np.testing.assert_allclose(g, reference(state), rtol=1e-12,
                                       atol=1e-15)

        walks_afresh(theta + 0.1)       # another joint state
        # The caller's array, changed in place to a state not walked yet.
        theta += 0.25
        walks_afresh(theta)

        # Two obstacles at one state: two certificates and two gradients
        # take one walk.
        other = UncertainObstacle(Sphere([0.2, 0.7], 0.1), ob.covariance)
        theta = np.array(R.THETA)
        before = len(walks)
        for o in (ob, other):
            c = certify_risk(robot, theta, o)
            assert not c.floored
            risk_gradient(c, robot, theta, o)
        assert len(walks) == before + 1

    def test_cold_certificates_pose_each_shape_once(self, monkeypatch):
        # The certificates of every obstacle at one joint state share the
        # link groups posed on its walk; another state poses them afresh.
        R = TestHalfShadowRegression
        ob = sceneio.parse_scene(R.SCENE).obstacles[0]
        obstacles = (ob, UncertainObstacle(Sphere([0.2, 0.7], 0.1),
                                           ob.covariance))
        theta = np.array(R.THETA)
        states = (theta + 0.1, theta + 0.1, theta)
        expected = [[certify_risk(sceneio.parse_robot(R.ROBOT), state, o)
                     for o in obstacles] for state in states]
        robot = sceneio.parse_robot(R.ROBOT)
        calls = []

        def counted(robot, frames):
            calls.append(len(frames.states))
            return posed_link_groups(robot, frames)

        monkeypatch.setattr(kinematics, "posed_link_groups", counted)
        for state, certs, new in zip(states, expected, (1, 0, 1)):
            before = len(calls)
            for o, cert in zip(obstacles, certs):
                got = certify_risk(robot, state, o)
                assert (got.eps1, got.eps2, got.c1, got.c2) == (
                    cert.eps1, cert.eps2, cert.c1, cert.c2)
            assert calls[before:] == [1] * new

    def test_slider_closed_form(self):
        # eps1(r) = exp(-r^2/2) so d eps1/dr = -r exp(-r^2/2).
        robot = slider_robot()
        ob = point_obstacle(np.eye(2))
        r = 1.0
        cert = certify_risk(robot, [r], ob)
        g1, g2 = per_shadow_gradients(cert, robot, [r], ob)
        assert g1[0] == pytest.approx(-math.exp(-0.5), rel=1e-9)
        np.testing.assert_allclose(g2, 0.0)  # second search floored
        g = risk_gradient(cert, robot, [r], ob)
        assert g[0] == pytest.approx(-0.5 * math.exp(-0.5), rel=1e-9)

    def test_straddle_closed_form(self):
        # Moving +x brings the near point (at -1.5) closer and pushes the far
        # point (at +2) away: d eps'/dx = (1.5 e^{-1.125} - 2 e^{-2}) / 2.
        robot = straddle_robot(-1.5, 2.0)
        ob = point_obstacle(np.eye(2))
        th = [0.0, 0.0]
        cert = certify_risk(robot, th, ob)
        g = risk_gradient(cert, robot, th, ob)
        expect_x = 0.5 * (1.5 * math.exp(-1.125) - 2.0 * math.exp(-2.0))
        assert g[0] == pytest.approx(expect_x, rel=1e-6)
        assert g[1] == pytest.approx(0.0, abs=1e-6)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        robot = straddle_robot(-1.2, 1.6)
        checked = 0
        for _ in range(30):
            A = rng.normal(size=(2, 2)) * 0.6
            ob = UncertainObstacle(Sphere(np.zeros(2), 0.1),
                                   A @ A.T + 0.3 * np.eye(2))
            th = rng.normal(size=2) * 0.4
            if check_fd_gradient(robot, th, ob):
                checked += 1
        assert checked >= 10

    def test_finite_differences_3d(self):
        rng = np.random.default_rng(13)
        joints = [Joint("prismatic", Pose.identity(3), np.eye(3)[i])
                  for i in range(3)]
        shapes = [[], [], [point_body([-1.0, 0, 0]), point_body([1.4, 0, 0])]]
        robot = RobotModel(joints, shapes, Pose.identity(3))
        checked = 0
        for _ in range(15):
            A = rng.normal(size=(3, 3)) * 0.4
            ob = UncertainObstacle(point_body(np.zeros(3)),
                                   A @ A.T + 0.3 * np.eye(3))
            th = rng.normal(size=3) * 0.3
            if check_fd_gradient(robot, th, ob):
                checked += 1
        assert checked >= 5

    @settings(max_examples=40, deadline=None, derandomize=True,
              database=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([2, 3]))
    def test_finite_differences_random_scenes(self, seed, dim):
        # Multi-body robots around random obstacles: check_fd_gradient
        # skips saturated, floored, rim and branch-crossing certificates.
        robot, th, ob = random_scene(np.random.default_rng(seed), dim)
        assume(check_fd_gradient(robot, th, ob))



def assert_same_certificate(a, b):
    """Two RiskCertificates, field by field, bit for bit."""
    for f in dataclasses.fields(a):
        u, v = getattr(a, f.name), getattr(b, f.name)
        assert (u is None) == (v is None), f.name
        if u is not None:
            assert type(u) is type(v), f.name
            assert np.asarray(u).tobytes() == np.asarray(v).tobytes(), f.name


class TestLanes:
    """The lane tail certifies each lane of a stack as it certifies that
    lane alone: no lane's certificate depends on the others."""

    @staticmethod
    def stack(robot, thetas, obstacles, rng):
        """The LinkGroups of ``thetas`` and the first searches of every
        (configuration, obstacle) lane, every body searched; a body beyond
        the shadow, and now and then a whole lane, is culled (c = inf)."""
        groups = posed_link_groups(robot, trajectory_frames(robot, thetas))
        shapes = [posed_link_shapes(robot, forward_kinematics(robot, th))
                  for th in thetas]
        found = [[[mahalanobis_contact(body, ob.nominal, ob.chol,
                                       chol_inv=ob.chol_inv)
                   for _, body in s] for ob in obstacles] for s in shapes]
        c = np.array([[[e[0] for e in row] for row in lane]
                      for lane in found])
        wa, wb = (np.array([[[e[i] for e in row] for row in lane]
                            for lane in found]) for i in (1, 2))
        c[c > 40.0] = np.inf
        c[rng.random(c.shape[:2]) < 0.1] = np.inf
        return groups, c, wa, wb

    def test_a_stack_certifies_each_lane_as_alone(self):
        rng = np.random.default_rng(11)
        kinds = set()
        for dim in (2, 3):
            for _ in range(40):
                robot, th, ob = random_scene(rng, dim)
                obstacles = [ob, random_scene(rng, dim)[2]]
                thetas = th + rng.normal(size=(4, dim)) * 0.4
                groups, c, wa, wb = self.stack(robot, thetas, obstacles, rng)
                lanes = certify_lanes(groups, c, wa, wb, obstacles, 1e-6)
                for t in range(len(thetas)):
                    one = [dataclasses.replace(g, vertices=g.vertices[t:t + 1])
                           for g in groups]
                    for o, obstacle in enumerate(obstacles):
                        cert = lanes.certificate((t, o))
                        assert_same_certificate(cert, certify_lanes(
                            one, c[t:t + 1, o:o + 1], wa[t:t + 1, o:o + 1],
                            wb[t:t + 1, o:o + 1], [obstacle],
                            1e-6).certificate((0, 0)))
                        kinds.add("saturated" if cert.saturated
                                  else "culled" if cert.c1 is None
                                  else "floored" if cert.floored
                                  else "floored2" if cert.floored2
                                  else "second")
        assert kinds == {"saturated", "culled", "floored", "floored2",
                         "second"}

    def test_lanes_without_a_second_contact_hold_nan(self):
        # x2 and point2 are NaN where link2 is -1 (and every field of a
        # stack without a first contact), so a stack's arrays depend on
        # its inputs alone.
        rng = np.random.default_rng(5)
        seen = set()
        for dim in (2, 3):
            for _ in range(20):
                robot, th, ob = random_scene(rng, dim)
                thetas = th + rng.normal(size=(4, dim)) * 0.4
                groups, c, wa, wb = self.stack(robot, thetas, [ob], rng)
                lanes = certify_lanes(groups, c, wa, wb, [ob], 1e-6)
                second = lanes.scalars[9] >= 0
                seen.update(second.ravel().tolist())
                assert np.isnan(lanes.vectors[[2, 4]][:, ~second]).all()
                assert not np.isnan(lanes.vectors[[2, 4]][:, second]).any()
                culled = certify_lanes(groups, np.full_like(c, np.inf), wa,
                                       wb, [ob], 1e-6)
                assert np.isnan(culled.vectors).all()
        assert seen == {True, False}
