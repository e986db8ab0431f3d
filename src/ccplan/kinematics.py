"""Serial-chain robot model: forward kinematics and contact-point Jacobians.

Joints are revolute or prismatic. In 3D a revolute joint rotates about its
axis vector; in 2D it rotates in the plane and the axis field is unused.
A robot with no joints is a rigid body fixed at the base pose (used for
point/sphere robots in certification-only scenes).
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import Pose


@dataclass(frozen=True)
class Joint:
    kind: str                   # "revolute" | "prismatic"
    offset: Pose                # parent-frame transform to the joint frame
    axis: np.ndarray = None     # unit vector; unused for 2D revolute
    lower: float = -np.inf
    upper: float = np.inf

    def __post_init__(self):
        if self.kind not in ("revolute", "prismatic"):
            raise ValueError(f"unknown joint kind {self.kind!r}")
        if self.lower > self.upper:
            raise ValueError("joint limits must satisfy lower <= upper")
        if self.axis is not None:
            a = np.asarray(self.axis, dtype=float)
            n = np.linalg.norm(a)
            if n < 1e-12:
                raise ValueError("joint axis must be nonzero")
            object.__setattr__(self, "axis", a / n)
        elif not (self.kind == "revolute" and self.offset.dim == 2):
            raise ValueError("joint axis required (except 2D revolute)")


@dataclass
class RobotModel:
    joints: list
    link_shapes: list           # per-link list of SweptHull in link frame
    base: Pose
    dim: int = field(init=False)

    def __post_init__(self):
        self.dim = self.base.dim
        if self.joints:
            if len(self.link_shapes) != len(self.joints):
                raise ValueError("need one link shape list per joint")
        elif len(self.link_shapes) != 1:
            raise ValueError("a jointless robot has exactly one base link")
        for j in self.joints:
            if j.offset.dim != self.dim:
                raise ValueError("joint offset dimension mismatch")

    @property
    def dof(self):
        return len(self.joints)

    @property
    def n_links(self):
        return len(self.link_shapes)

    def check_state(self, theta):
        th = np.asarray(theta, dtype=float)
        if th.shape != (self.dof,):
            raise ValueError(
                f"joint state length {th.shape} does not match dof {self.dof}")
        if not np.all(np.isfinite(th)):
            raise ValueError("joint state must be finite")
        return th


def _joint_motion(joint, q, dim):
    # Trusted: Joint normalized the axis and check_state made q finite.
    if joint.kind == "prismatic":
        return Pose._trusted(np.eye(dim), q * joint.axis)
    c, s = math.cos(q), math.sin(q)
    if dim == 2:
        return Pose._trusted(np.array([[c, -s], [s, c]]), np.zeros(2))
    a = joint.axis   # Rodrigues' formula
    K = np.array([[0, -a[2], a[1]], [a[2], 0, -a[0]], [-a[1], a[0], 0]])
    return Pose._trusted(np.eye(3) + s * K + (1 - c) * (K @ K), np.zeros(3))


@dataclass(frozen=True)
class ChainFrames:
    """One kinematics pass at a joint state: everything FK and Jacobians need.

    ``origins[i]`` and ``axes[i]`` are joint i's world position and world
    axis before its own motion (the axis is unused for 2D revolute joints).
    """

    poses: list             # world pose of every link frame
    origins: np.ndarray     # (dof, dim)
    axes: np.ndarray        # (dof, dim)


def chain_frames(robot, theta):
    """Walk the chain once at ``theta``; see ChainFrames."""
    th = robot.check_state(theta)
    dim = robot.dim
    origins = np.zeros((robot.dof, dim))
    axes = np.zeros((robot.dof, dim))
    if not robot.joints:
        return ChainFrames([robot.base], origins, axes)
    poses = []
    cur = robot.base
    for i, (joint, q) in enumerate(zip(robot.joints, th)):
        frame = cur.compose(joint.offset)  # joint frame before motion
        origins[i] = frame.translation
        if joint.axis is not None:
            axes[i] = frame.rotation @ joint.axis
        cur = frame.compose(_joint_motion(joint, float(q), dim))
        poses.append(cur)
    return ChainFrames(poses, origins, axes)


def forward_kinematics(robot, theta):
    """World pose of every link frame at joint state ``theta``."""
    return chain_frames(robot, theta).poses


def posed_link_shapes(robot, poses):
    """Flattened list of (link_index, world-space SweptHull)."""
    out = []
    for i, shapes in enumerate(robot.link_shapes):
        pose = poses[i]
        for s in shapes:
            out.append((i, s.posed(pose)))
    return out


def point_jacobian(robot, theta, link_index, world_point, frames=None):
    """Position Jacobian of a point rigidly attached to a link.

    Columns for joints distal to ``link_index`` are zero. ``frames`` is
    ``chain_frames(robot, theta)`` when the caller already has it.
    """
    th = robot.check_state(theta)
    if not 0 <= link_index < robot.n_links:
        raise ValueError(f"link index {link_index} out of range")
    p = np.asarray(world_point, dtype=float)
    J = np.zeros((robot.dim, robot.dof))
    if not robot.joints:
        return J
    if frames is None:
        frames = chain_frames(robot, th)
    for i, joint in enumerate(robot.joints[:link_index + 1]):
        a = frames.axes[i]
        if joint.kind == "prismatic":
            J[:, i] = a
            continue
        r = (p - frames.origins[i]).tolist()
        if robot.dim == 2:
            J[:, i] = (-r[1], r[0])
        else:
            a = a.tolist()
            J[:, i] = (a[1] * r[2] - a[2] * r[1],
                       a[2] * r[0] - a[0] * r[2],
                       a[0] * r[1] - a[1] * r[0])
    return J


def planar_point_robot(limits=5.0):
    """2D point robot driven by two prismatic joints (x then y)."""
    from .geometry import point_body
    joints = [
        Joint("prismatic", Pose.identity(2), np.array([1.0, 0.0]),
              -limits, limits),
        Joint("prismatic", Pose.identity(2), np.array([0.0, 1.0]),
              -limits, limits),
    ]
    return RobotModel(joints, [[], [point_body([0.0, 0.0])]], Pose.identity(2))
