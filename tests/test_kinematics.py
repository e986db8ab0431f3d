import json
import math
from importlib.resources import files

import numpy as np
import pytest

from ccplan.geometry import Capsule, Pose, Sphere, box, point_body
from ccplan.kinematics import (
    Joint,
    RobotModel,
    chain_frames,
    forward_kinematics,
    point_jacobian,
    point_jacobians,
    posed_link_groups,
    posed_link_shapes,
    trajectory_frames,
)
from ccplan.sceneio import parse_robot


def apply_pose(pose, point):
    """The point x placed by ``pose``: R @ x + t."""
    return pose.rotation @ np.asarray(point, dtype=float) + pose.translation


def planar_point_robot(limits=5.0):
    """2D point robot driven by two prismatic joints (x then y)."""
    joints = [
        Joint("prismatic", Pose.identity(2), np.array([1.0, 0.0]),
              -limits, limits),
        Joint("prismatic", Pose.identity(2), np.array([0.0, 1.0]),
              -limits, limits),
    ]
    return RobotModel(joints, [[], [point_body([0.0, 0.0])]], Pose.identity(2))


def offset_x(d, dim=3):
    t = np.zeros(dim)
    t[0] = d
    return Pose(np.eye(dim), t)


def make_chain(n_joints, dim=3, link_len=1.0):
    """Serial chain of revolute joints about z, each link_len apart along x."""
    joints = []
    shapes = []
    for i in range(n_joints):
        joints.append(Joint("revolute", offset_x(link_len if i else 0.0, dim),
                            np.array([0.0, 0.0, 1.0]) if dim == 3 else None,
                            -math.pi, math.pi))
        shapes.append([Sphere(np.r_[link_len, np.zeros(dim - 1)], 0.1)])
    return RobotModel(joints, shapes, Pose.identity(dim))


def fk_oracle(robot, theta):
    """Independent homogeneous-transform chain product."""
    dim = robot.dim
    T = np.eye(dim + 1)
    T[:dim, :dim] = robot.base.rotation
    T[:dim, dim] = robot.base.translation
    out = []
    for joint, q in zip(robot.joints, theta):
        O = np.eye(dim + 1)
        O[:dim, :dim] = joint.offset.rotation
        O[:dim, dim] = joint.offset.translation
        M = np.eye(dim + 1)
        if joint.kind == "prismatic":
            M[:dim, dim] = q * joint.axis
        else:
            c, s = math.cos(q), math.sin(q)
            if dim == 2:
                M[:2, :2] = [[c, -s], [s, c]]
            else:
                a = joint.axis
                K = np.array([[0, -a[2], a[1]], [a[2], 0, -a[0]],
                              [-a[1], a[0], 0]])
                M[:3, :3] = np.eye(3) + s * K + (1 - c) * (K @ K)
        T = T @ O @ M
        out.append(T.copy())
    return out


def mixed_chain(dim):
    """Revolute and prismatic joints with capsule, box and sphere links."""
    axis = (lambda v: np.array(v, dtype=float)) if dim == 3 else (
        lambda v: None)
    joints = [Joint("revolute", Pose.identity(dim), axis([0, 0, 1])),
              Joint("prismatic", offset_x(0.4, dim),
                    np.array([0.0, 1.0, 1.0][:dim])),
              Joint("revolute", offset_x(0.3, dim), axis([1, 1, 0]))]
    zero = np.zeros(dim)
    tip = offset_x(0.3, dim).translation
    shapes = [[Capsule(zero, tip, 0.05), box(np.full(dim, 0.1))],
              [Capsule(zero, 2 * tip, 0.02)],
              [box(np.full(dim, 0.05), center=tip), Sphere(tip, 0.1)]]
    return RobotModel(joints, shapes, Pose.identity(dim))


class TestForwardKinematics:
    def test_zero_configuration_two_link(self):
        robot = make_chain(2)
        poses = forward_kinematics(robot, [0.0, 0.0])
        np.testing.assert_allclose(poses[0].translation, [0, 0, 0], atol=1e-12)
        np.testing.assert_allclose(poses[1].translation, [1, 0, 0], atol=1e-12)

    def test_quarter_turn(self):
        joints = [Joint("revolute", Pose.identity(3), np.array([0, 0, 1.0]))]
        child = Sphere([1.0, 0, 0], 0.1)
        robot = RobotModel(joints, [[child]], Pose.identity(3))
        poses = forward_kinematics(robot, [math.pi / 2])
        np.testing.assert_allclose(apply_pose(poses[0], [1.0, 0, 0]),
                                   [0, 1, 0], atol=1e-12)

    def test_matches_transform_chain_oracle(self):
        rng = np.random.default_rng(0)
        robot = make_chain(3)
        for _ in range(20):
            th = rng.uniform(-math.pi, math.pi, size=3)
            poses = forward_kinematics(robot, th)
            oracle = fk_oracle(robot, th)
            for p, T in zip(poses, oracle):
                np.testing.assert_allclose(p.rotation, T[:3, :3], atol=1e-12)
                np.testing.assert_allclose(p.translation, T[:3, 3], atol=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            forward_kinematics(make_chain(2), [0.0])
        with pytest.raises(ValueError):
            trajectory_frames(make_chain(2), np.zeros((4, 3)))
        with pytest.raises(ValueError):
            trajectory_frames(make_chain(2), [[0.0, np.nan]])

    @pytest.mark.parametrize("dim", [2, 3])
    def test_trajectory_walk_matches_oracle_per_step(self, dim):
        # One stacked walk over T states gives every state's frames: the
        # link poses of the transform-chain oracle, and per step the same
        # frames as a walk of that state alone.
        rng = np.random.default_rng(dim)
        robot = mixed_chain(dim)
        th = rng.uniform(-1.5, 1.5, size=(9, robot.dof))
        frames = trajectory_frames(robot, th)
        for t in range(len(th)):
            for i, T in enumerate(fk_oracle(robot, th[t])):
                np.testing.assert_allclose(frames.rotations[t, i],
                                           T[:dim, :dim], atol=1e-12)
                np.testing.assert_allclose(frames.translations[t, i],
                                           T[:dim, dim], atol=1e-12)
            one = chain_frames(robot, th[t])
            for field in ("states", "rotations", "translations", "origins",
                          "axes"):
                np.testing.assert_array_equal(getattr(frames, field)[t],
                                              getattr(one, field)[0])

    def test_link_groups_place_every_shape(self):
        # Shapes group by boundary topology (the capsules, the boxes) and
        # each group holds the vertices posed_link_shapes places.
        robot = mixed_chain(3)
        th = np.random.default_rng(4).uniform(-1, 1, size=(5, robot.dof))
        groups = posed_link_groups(robot, trajectory_frames(robot, th))
        assert sorted(len(g.bodies) for g in groups) == [1, 2, 2]
        for t in range(len(th)):
            shapes = posed_link_shapes(robot, forward_kinematics(robot,
                                                                 th[t]))
            for g in groups:
                for j, (k, li) in enumerate(zip(g.bodies, g.links)):
                    assert shapes[k][0] == li
                    assert shapes[k][1].radius == g.radii[j]
                    np.testing.assert_array_equal(g.vertices[t, j],
                                                  shapes[k][1].vertices)


    def test_planar_point_robot(self):
        robot = planar_point_robot()
        poses = forward_kinematics(robot, [0.3, -0.7])
        np.testing.assert_allclose(poses[1].translation, [0.3, -0.7])
        shapes = posed_link_shapes(robot, poses)
        assert len(shapes) == 1
        link_idx, body = shapes[0]
        np.testing.assert_allclose(body.center(), [0.3, -0.7])


class TestPointJacobian:
    def test_revolute_about_z(self):
        joints = [Joint("revolute", Pose.identity(3), np.array([0, 0, 1.0]))]
        robot = RobotModel(joints, [[Sphere([1, 0, 0], 0.1)]], Pose.identity(3))
        J = point_jacobian(robot, [0.0], 0, [1.0, 0.0, 0.0])
        np.testing.assert_allclose(J[:, 0], [0, 1, 0], atol=1e-12)

    def test_prismatic(self):
        joints = [Joint("prismatic", Pose.identity(3), np.array([1.0, 0, 0]))]
        robot = RobotModel(joints, [[Sphere([0, 0, 0], 0.1)]], Pose.identity(3))
        J = point_jacobian(robot, [0.4], 0, [5.0, 2.0, -1.0])
        np.testing.assert_allclose(J[:, 0], [1, 0, 0], atol=1e-12)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        robot = make_chain(3)
        h = 1e-6
        for _ in range(20):
            th = rng.uniform(-1.5, 1.5, size=3)
            link = int(rng.integers(0, 3))
            local = rng.normal(size=3) * 0.3
            poses = forward_kinematics(robot, th)
            p = apply_pose(poses[link], local)
            J = point_jacobian(robot, th, link, p)
            for k in range(3):
                dp = np.zeros(3)
                dp[k] = h
                pp = apply_pose(forward_kinematics(robot, th + dp)[link],
                                local)
                pm = apply_pose(forward_kinematics(robot, th - dp)[link],
                                local)
                np.testing.assert_allclose(J[:, k], (pp - pm) / (2 * h),
                                           atol=1e-6)

    def test_chain_locality(self):
        robot = make_chain(3)
        th = np.array([0.3, -0.2, 0.9])
        poses = forward_kinematics(robot, th)
        p = apply_pose(poses[0], [0.5, 0.1, 0.0])
        J = point_jacobian(robot, th, 0, p)
        np.testing.assert_allclose(J[:, 1:], 0.0, atol=1e-12)
        # Moving a distal joint leaves the attached point fixed.
        th2 = th + np.array([0.0, 0.5, -0.3])
        p2 = apply_pose(forward_kinematics(robot, th2)[0], [0.5, 0.1, 0.0])
        np.testing.assert_allclose(p, p2, atol=1e-12)

    def test_jacobian_step_consistency(self):
        rng = np.random.default_rng(2)
        robot = make_chain(3, link_len=0.3)  # desk-scale chain
        for _ in range(100):
            th = rng.uniform(-1.5, 1.5, size=3)
            link = int(rng.integers(0, 3))
            local = rng.normal(size=3) * 0.05
            poses = forward_kinematics(robot, th)
            p = apply_pose(poses[link], local)
            J = point_jacobian(robot, th, link, p)
            dth = rng.normal(size=3)
            dth *= 1e-4 / np.linalg.norm(dth)
            p2 = apply_pose(forward_kinematics(robot, th + dth)[link], local)
            err = np.linalg.norm(J @ dth - (p2 - p))
            assert err <= 1e-8 + 1e-4 * np.linalg.norm(dth) ** 2

    def test_shared_frames_give_the_same_jacobians(self):
        # One kinematics pass serves every Jacobian of a configuration,
        # prismatic and revolute joints alike.
        rng = np.random.default_rng(3)
        joints = [Joint("revolute", Pose.identity(3), np.array([0, 0, 1.0])),
                  Joint("prismatic", offset_x(0.4), np.array([0, 1.0, 1.0])),
                  Joint("revolute", offset_x(0.3), np.array([1.0, 1.0, 0]))]
        shapes = [[Sphere([0.2, 0, 0], 0.1)] for _ in joints]
        robot = RobotModel(joints, shapes, Pose.identity(3))
        for _ in range(20):
            th = rng.uniform(-1.5, 1.5, size=3)
            frames = chain_frames(robot, th)
            for a, b in zip(frames.poses, forward_kinematics(robot, th)):
                np.testing.assert_array_equal(a.rotation, b.rotation)
                np.testing.assert_array_equal(a.translation, b.translation)
            for link in range(3):
                p = rng.normal(size=3)
                np.testing.assert_array_equal(
                    point_jacobian(robot, th, link, p, frames),
                    point_jacobian(robot, th, link, p))
                h = 1e-6
                local = frames.poses[link].rotation.T @ (
                    p - frames.poses[link].translation)
                for k in range(3):
                    d = np.zeros(3)
                    d[k] = h
                    pp = apply_pose(forward_kinematics(robot, th + d)[link],
                                    local)
                    pm = apply_pose(forward_kinematics(robot, th - d)[link],
                                    local)
                    np.testing.assert_allclose(
                        point_jacobian(robot, th, link, p, frames)[:, k],
                        (pp - pm) / (2 * h), atol=1e-6)

    def test_invalid_link_index(self):
        robot = make_chain(2)
        with pytest.raises(ValueError):
            point_jacobian(robot, [0.0, 0.0], 5, [0, 0, 0])

    def test_2d_revolute_jacobian(self):
        joints = [Joint("revolute", Pose.identity(2))]
        robot = RobotModel(joints, [[point_body([1.0, 0.0])]], Pose.identity(2))
        J = point_jacobian(robot, [0.0], 0, [1.0, 0.0])
        np.testing.assert_allclose(J[:, 0], [0, 1], atol=1e-12)
        # Finite difference check at a nonzero angle.
        h = 1e-6
        th = 0.7
        J = point_jacobian(robot, [th], 0,
                           apply_pose(forward_kinematics(robot, [th])[0],
                                      [1, 0]))
        pp = apply_pose(forward_kinematics(robot, [th + h])[0], [1, 0])
        pm = apply_pose(forward_kinematics(robot, [th - h])[0], [1, 0])
        np.testing.assert_allclose(J[:, 0], (pp - pm) / (2 * h), atol=1e-6)


def bundled_robot(name):
    return parse_robot(json.loads(
        (files("ccplan") / "scenes" / name).read_text()))


JACOBIAN_ROBOTS = {
    "arm3link2d": lambda: make_chain(3, dim=2, link_len=0.4),
    "arm4dof3d": lambda: bundled_robot("arm4dof3d.json"),
    "pointbot2d": lambda: bundled_robot("pointbot2d.json"),
    "mixed3d": lambda: mixed_chain(3),
    "mixed2d": lambda: mixed_chain(2),
    "jointless": lambda: RobotModel([], [[Sphere([0.2, 0.1, 0.0], 0.1)]],
                                    Pose(np.eye(3), [0.0, 0.5, 1.0])),
}


class TestPointJacobians:
    @pytest.mark.parametrize("name", sorted(JACOBIAN_ROBOTS))
    def test_stack_matches_per_point_and_finite_differences(self, name):
        # Revolute (planar and spatial) and prismatic joints, a jointless
        # robot, and points on links proximal to some joints, whose
        # columns for the distal joints must be zero.
        robot = JACOBIAN_ROBOTS[name]()
        rng = np.random.default_rng(sorted(JACOBIAN_ROBOTS).index(name))
        T, N, h = 5, 30, 1e-6
        traj = rng.uniform(-1.0, 1.0, size=(T, robot.dof))
        frames = trajectory_frames(robot, traj)
        steps = rng.integers(0, T, size=N)
        links = rng.integers(0, robot.n_links, size=N)
        local = rng.normal(size=(N, robot.dim)) * 0.3
        points = (np.einsum("nij,nj->ni", frames.rotations[steps, links],
                            local) + frames.translations[steps, links])
        J = point_jacobians(robot, frames, steps, links, points)
        assert J.shape == (N, robot.dim, robot.dof)
        for i, (t, link) in enumerate(zip(steps, links)):
            np.testing.assert_array_equal(
                J[i], point_jacobian(robot, traj[t], link, points[i]))
            np.testing.assert_array_equal(J[i][:, link + 1:], 0.0)
            for k in range(robot.dof):
                d = np.zeros(robot.dof)
                d[k] = h
                moved = trajectory_frames(robot, traj[t] + np.stack([d, -d]))
                pp, pm = (moved.rotations[j, link] @ local[i]
                          + moved.translations[j, link] for j in (0, 1))
                np.testing.assert_allclose(J[i][:, k], (pp - pm) / (2 * h),
                                           atol=1e-6)

    def test_empty_stack(self):
        robot = make_chain(3)
        frames = trajectory_frames(robot, np.zeros((2, 3)))
        J = point_jacobians(robot, frames, [], [], np.zeros((0, 3)))
        assert J.shape == (0, 3, 3)
