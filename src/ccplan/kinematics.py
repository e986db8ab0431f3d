"""Serial-chain robot model: forward kinematics and contact-point Jacobians.

Joints are revolute or prismatic. In 3D a revolute joint rotates about its
axis vector; in 2D it rotates in the plane and the axis field is unused.
A robot with no joints is a rigid body fixed at the base pose (used for
point/sphere robots in certification-only scenes).
"""

from dataclasses import dataclass, field
from functools import cached_property

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
        # Constant terms of the joint's motion for the kinematics walk: a
        # revolute joint turns by c * I + s * J in 2D and by
        # I + s * K + (1 - c) * K^2 in 3D (Rodrigues' formula).
        dim = self.offset.dim
        if self.kind == "prismatic":
            terms = None
        elif dim == 2:
            terms = (np.eye(2), np.array([[0.0, -1.0], [1.0, 0.0]]))
        else:
            a = self.axis
            K = np.array([[0, -a[2], a[1]], [a[2], 0, -a[0]],
                          [-a[1], a[0], 0]])
            terms = (K, K @ K)
        object.__setattr__(self, "_motion_terms", terms)


@dataclass
class RobotModel:
    joints: list
    link_shapes: list           # per-link list of SweptHull in link frame
    base: Pose
    dim: int = field(init=False)
    # Which joints are revolute, for the stacked Jacobians.
    revolute: np.ndarray = field(init=False, repr=False, compare=False)
    # The last single-state walk of ``chain_frames``, which returns it again
    # at the same joint state, and (walk, link groups posed on it) of
    # ``chain_groups``.
    _last_frames: object = field(default=None, init=False, repr=False,
                                 compare=False)
    _last_groups: tuple = field(default=None, init=False, repr=False,
                                compare=False)

    def __post_init__(self):
        self.dim = self.base.dim
        self.revolute = np.array([j.kind == "revolute" for j in self.joints],
                                 dtype=bool)
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

    @cached_property
    def _link_groups(self):
        """The link shapes grouped by boundary topology, as LinkGroups in
        their link frames (vertices (G, k, dim)): built on first use, for
        ``posed_link_groups``, whose groups share all but the vertices."""
        members = {}
        k = 0
        for li, shapes in enumerate(self.link_shapes):
            for s in shapes:
                members.setdefault(s.boundary.key, []).append((k, li, s))
                k += 1
        return [LinkGroup([m[0] for m in group], [m[1] for m in group],
                          np.array([m[2].radius for m in group]),
                          group[0][2].boundary,
                          np.array([m[2].vertices for m in group]))
                for group in members.values()]

    def check_state(self, theta):
        th = np.asarray(theta, dtype=float)
        if th.shape != (self.dof,):
            raise ValueError(
                f"joint state length {th.shape} does not match dof {self.dof}")
        if not np.all(np.isfinite(th)):
            raise ValueError("joint state must be finite")
        return th


@dataclass(frozen=True)
class ChainFrames:
    """One kinematics pass over T joint states: everything FK, distances
    and Jacobians need. A single joint state is a trajectory of one.

    ``states[t]`` is the joint state of step t; ``rotations[t, i]`` and
    ``translations[t, i]`` place link frame i at step t; ``origins[t, i]``
    and ``axes[t, i]`` are joint i's world position and world axis before
    its own motion (the axis is unused for 2D revolute joints).
    """

    states: np.ndarray          # (T, dof), a copy of the walked states
    rotations: np.ndarray       # (T, n_links, dim, dim)
    translations: np.ndarray    # (T, n_links, dim)
    origins: np.ndarray         # (T, dof, dim)
    axes: np.ndarray            # (T, dof, dim)

    @property
    def poses(self):
        """World pose of every link frame at the first step."""
        return [Pose._trusted(R, p)
                for R, p in zip(self.rotations[0], self.translations[0])]


def trajectory_frames(robot, trajectory):
    """Walk the chain once for every row of ``trajectory`` (T, dof), with
    stacked rotations; see ChainFrames."""
    th = np.array(trajectory, dtype=float)
    if th.ndim != 2 or th.shape[1] != robot.dof:
        raise ValueError(f"trajectory shape {th.shape} does not match dof "
                         f"{robot.dof}")
    if not np.all(np.isfinite(th)):
        raise ValueError("joint state must be finite")
    T, dim = len(th), robot.dim
    origins = np.zeros((T, robot.dof, dim))
    axes = np.zeros((T, robot.dof, dim))
    # R and p take a leading step axis once a joint's motion moves them.
    R, p = robot.base.rotation, robot.base.translation
    if not robot.joints:
        return ChainFrames(th, np.tile(R, (T, 1, 1, 1)),
                           np.tile(p, (T, 1, 1)), origins, axes)
    rotations = np.empty((T, robot.dof, dim, dim))
    translations = np.empty((T, robot.dof, dim))
    for i, joint in enumerate(robot.joints):
        # The joint frame before motion, then the joint's own motion.
        R, p = R @ joint.offset.rotation, R @ joint.offset.translation + p
        origins[:, i] = p
        if joint.axis is not None:
            axes[:, i] = R @ joint.axis
        q = th[:, i]
        if joint.kind == "prismatic":
            p = (R @ (q[:, None] * joint.axis)[:, :, None])[:, :, 0] + p
        elif dim == 2:
            I, J = joint._motion_terms
            R = R @ (np.cos(q)[:, None, None] * I
                     + np.sin(q)[:, None, None] * J)
        else:
            K, KK = joint._motion_terms
            R = R @ (np.eye(3) + np.sin(q)[:, None, None] * K
                     + (1 - np.cos(q))[:, None, None] * KK)
        rotations[:, i] = R
        translations[:, i] = p
    return ChainFrames(th, rotations, translations, origins, axes)


def chain_frames(robot, theta):
    """``trajectory_frames`` for the single joint state ``theta``. The
    robot keeps its last such walk and returns it for a state with the
    same bytes, so the certificates and gradients of one configuration
    share one walk."""
    th = robot.check_state(theta)
    frames = robot._last_frames
    if frames is None or frames.states.tobytes() != th.tobytes():
        frames = robot._last_frames = trajectory_frames(robot, th[None])
    return frames


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


@dataclass(frozen=True)
class LinkGroup:
    """Link shapes of one boundary topology, posed at every step of a
    ChainFrames: one batched distance call serves the whole group.
    ``bodies`` index the flattened link shapes of ``posed_link_shapes``.
    The groups of one robot share ``bodies``, ``links`` and ``radii``:
    callers must not modify them."""

    bodies: list                # flat body index per member
    links: list                 # link index per member
    radii: np.ndarray           # (G,)
    boundary: object            # the members' shared boundary topology
    vertices: np.ndarray        # (T, G, k, dim) world vertices


def posed_link_groups(robot, frames):
    """Every link shape placed at every step of ``frames``, grouped by
    boundary topology (see LinkGroup): one product per group."""
    # ``take`` costs a fraction of fancy indexing on a step of one.
    return [LinkGroup(g.bodies, g.links, g.radii, g.boundary,
                      g.vertices @ frames.rotations.take(g.links, axis=1)
                      .swapaxes(2, 3)
                      + frames.translations.take(g.links, axis=1)[:, :, None])
            for g in robot._link_groups]


def chain_groups(robot, theta):
    """``posed_link_groups`` at the joint state ``theta``, a step of one,
    posed on the walk of ``chain_frames`` and kept with it, so the
    certificates of every obstacle at one configuration pose each link
    shape once. The list is shared: callers must not modify it."""
    frames = chain_frames(robot, theta)
    memo = robot._last_groups
    if memo is None or memo[0] is not frames:
        memo = robot._last_groups = (frames,
                                     posed_link_groups(robot, frames))
    return memo[1]


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
    # One point: a loop over the joints costs less than the fixed NumPy
    # overhead of ``point_jacobians``, which computes the same columns.
    for i, joint in enumerate(robot.joints[:link_index + 1]):
        a = frames.axes[0, i]
        if joint.kind == "prismatic":
            J[:, i] = a
            continue
        r = (p - frames.origins[0, i]).tolist()
        if robot.dim == 2:
            J[:, i] = (-r[1], r[0])
        else:
            a = a.tolist()
            J[:, i] = (a[1] * r[2] - a[2] * r[1],
                       a[2] * r[0] - a[0] * r[2],
                       a[0] * r[1] - a[1] * r[0])
    return J


# Coordinate orders of ``point_jacobians``' written-out cross products:
# (a x r)_i = a_{i+1} r_{i+2} - a_{i+2} r_{i+1}, and (-r_1, r_0) in 2D.
_NEXT, _LAST = np.array([1, 2, 0]), np.array([2, 0, 1])
_SWAP, _TURN = np.array([1, 0]), np.array([-1.0, 1.0])


def point_jacobians(robot, frames, steps, links, points):
    """Position Jacobians (N, dim, dof) of points rigidly attached to
    links: entry i is for row i of the (N, dim) array ``points``, on link
    ``links[i]`` at step ``steps[i]`` of ``frames``, a trajectory's
    ChainFrames. Columns for joints distal to a point's link are zero. The
    arguments are trusted: the frames come from a validated trajectory.
    """
    # ``take`` costs a fraction of fancy indexing on a cold gradient's stack.
    steps = np.asarray(steps, dtype=int)
    a = frames.axes.take(steps, axis=0)                     # (N, dof, dim)
    r = points[:, None, :] - frames.origins.take(steps, axis=0)
    # Revolute columns are a x r, written out over rolled coordinates (in
    # 2D the axis is out of the plane); prismatic columns are the axis.
    if robot.dim == 2:
        turn = r.take(_SWAP, axis=-1) * _TURN
    else:
        turn = (a.take(_NEXT, axis=-1) * r.take(_LAST, axis=-1)
                - a.take(_LAST, axis=-1) * r.take(_NEXT, axis=-1))
    proximal = np.arange(robot.dof) <= np.asarray(links)[:, None]
    J = np.where(robot.revolute[:, None], turn, a)
    return np.where(proximal[:, :, None], J, 0.0).transpose(0, 2, 1)
