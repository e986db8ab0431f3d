import math

import numpy as np
import pytest

from ccplan.chi2 import chi2_inv_cdf, chi2_sf
from ccplan import risk
from ccplan.geometry import GeometryError, Pose, Sphere, point_body
from ccplan.kinematics import Joint, RobotModel, planar_point_robot
from ccplan.risk import (
    RiskCertificate,
    UncertainObstacle,
    certify_risk,
    half_shadow,
    linearize_risk,
    risk_gradient,
    scene_risk,
    shadow,
    shadow_gradients,
)


def point_obstacle(sigma, dim=2):
    return UncertainObstacle(point_body(np.zeros(dim)), sigma)


def slider_robot():
    """1-dof prismatic robot along x carrying a single point."""
    joints = [Joint("prismatic", Pose.identity(2), np.array([1.0, 0.0]))]
    return RobotModel(joints, [[point_body([0.0, 0.0])]], Pose.identity(2))


def straddle_robot(left, right):
    """Prismatic x/y robot carrying two points at (left, 0) and (right, 0)."""
    joints = [
        Joint("prismatic", Pose.identity(2), np.array([1.0, 0.0])),
        Joint("prismatic", Pose.identity(2), np.array([0.0, 1.0])),
    ]
    shapes = [[], [point_body([left, 0.0]), point_body([right, 0.0])]]
    return RobotModel(joints, shapes, Pose.identity(2))


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


class TestShadowSets:
    def test_point_obstacle_shadow_extent(self):
        # Shadow of a point with Sigma = s^2 I is a disk of radius s*sqrt(c).
        s = 0.3
        ob = point_obstacle(s * s * np.eye(2))
        eps = 0.05
        sh = shadow(ob, eps)
        c = chi2_inv_cdf(1.0 - eps, 2)
        for d in (np.array([1.0, 0.0]), np.array([0.6, -0.8])):
            p = sh.support(d)
            assert np.linalg.norm(p) == pytest.approx(s * math.sqrt(c),
                                                      abs=1e-12)

    def test_half_shadow_one_sided(self):
        ob = point_obstacle(np.eye(2))
        hs = half_shadow(ob, 0.1, np.array([1.0, 0.0]))
        # Support toward -x stays on the slice plane x = 0.
        p = hs.support(np.array([-1.0, 0.0]))
        assert p[0] == pytest.approx(0.0, abs=1e-12)
        # Support toward +x reaches the full ellipsoid boundary.
        c = chi2_inv_cdf(0.9, 2)
        p = hs.support(np.array([1.0, 0.0]))
        assert p[0] == pytest.approx(math.sqrt(c), abs=1e-12)

    def test_invalid_eps(self):
        ob = point_obstacle(np.eye(2))
        for bad in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                shadow(ob, bad)


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

    def test_eps2_never_exceeds_eps1(self):
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


class TestInvariantErrors:
    """Broken certification invariants raise GeometryError (CLI exit 4),
    which ``python -O`` keeps, unlike an assert."""

    def test_eps2_above_eps1_raises(self, monkeypatch):
        # Every probe reports contact and the bisection is given no steps,
        # so the half-shadow radius stays at the known-miss end 0 and eps2
        # = 1 exceeds eps1.
        monkeypatch.setattr(risk, "intersects", lambda a, b: True)
        monkeypatch.setattr(risk, "HALF_SEARCH_ITERS", 0)
        ob = point_obstacle(0.25 * np.eye(2))
        with pytest.raises(GeometryError, match="exceeded eps1"):
            certify_risk(planar_point_robot(), [1.0, 0.0], ob)

    def test_invalid_bisection_bracket_raises(self, monkeypatch):
        # With saturation off, a robot on the nominal geometry has c1 = 0,
        # so the nominal-geometry end of the bracket is probed too; every
        # probe reporting contact leaves no known-miss end.
        monkeypatch.setattr(risk, "SATURATION_C", -1.0)
        monkeypatch.setattr(risk, "intersects", lambda a, b: True)
        monkeypatch.setattr(risk, "_half_shadow_at_c", lambda *args: None)
        ob = point_obstacle(0.25 * np.eye(2))
        with pytest.raises(GeometryError, match="bracket invalid"):
            certify_risk(planar_point_robot(), [0.0, 0.0], ob,
                         normal_override=[1.0, 0.0])


class TestGradient:
    def test_slider_closed_form(self):
        # eps1(r) = exp(-r^2/2) so d eps1/dr = -r exp(-r^2/2).
        robot = slider_robot()
        ob = point_obstacle(np.eye(2))
        r = 1.0
        cert = certify_risk(robot, [r], ob)
        g1, g2 = shadow_gradients(cert, robot, [r], ob)
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

    def test_normal_override_reproduces(self):
        robot = straddle_robot(-1.5, 2.0)
        ob = point_obstacle(np.eye(2))
        cert = certify_risk(robot, [0.0, 0.0], ob)
        again = certify_risk(robot, [0.0, 0.0], ob,
                             normal_override=cert.contact_normal)
        assert again.eps1 == cert.eps1
        assert again.eps2 == pytest.approx(cert.eps2, rel=1e-9)


class TestLinearizeAndScene:
    def test_linearization_evaluates(self):
        robot = planar_point_robot()
        ob = point_obstacle(np.eye(2))
        th = np.array([1.0, 0.0])
        cert = certify_risk(robot, th, ob)
        g = risk_gradient(cert, robot, th, ob)
        lin = linearize_risk(cert, g, th)
        assert lin(th) == pytest.approx(cert.eps_prime)
        step = np.array([0.1, 0.0])
        assert lin(th + step) == pytest.approx(cert.eps_prime + g @ step)

    def test_scene_risk_sums(self):
        robot = planar_point_robot()
        obs = [point_obstacle(np.eye(2)) for _ in range(3)]
        certs, total = scene_risk(robot, [1.0, 0.5], obs)
        assert len(certs) == 3
        assert total == pytest.approx(sum(c.eps_prime for c in certs))

    def test_eps1_survival_consistency(self):
        # eps1 must equal the survival function at the certified c1.
        robot = planar_point_robot()
        ob = point_obstacle(np.array([[0.5, 0.1], [0.1, 0.3]]))
        cert = certify_risk(robot, [0.8, -0.4], ob)
        assert cert.eps1 == pytest.approx(chi2_sf(cert.c1, 2), rel=1e-12)
