"""Versioned JSON schemas for scenes and robots.

A scene file lists uncertain obstacles (convex shape + pose + positional
covariance); a robot file describes a serial kinematic chain with per-link
collision shapes. Both carry a top-level ``formatVersion`` and reject
unknown fields so that typos fail loudly instead of being ignored.
"""

import json
from dataclasses import dataclass, field

import numpy as np

from .geometry import Capsule, Polytope, Pose, Sphere, box
from .kinematics import Joint, RobotModel
from .risk import UncertainObstacle

FORMAT_VERSION = 1


class SceneFormatError(ValueError):
    """Raised for any structural or semantic problem in a scene/robot file."""


@dataclass
class SceneFile:
    dimension: int
    obstacles: list                       # UncertainObstacle per entry
    obstacle_names: list = field(default_factory=list)
    name: str = ""


def _require(condition, message):
    if not condition:
        raise SceneFormatError(message)


def _take(mapping, context, required=(), optional=()):
    """Field extraction that rejects anything outside the schema."""
    _require(isinstance(mapping, dict), f"{context}: expected a JSON object")
    unknown = set(mapping) - set(required) - set(optional)
    _require(not unknown,
             f"{context}: unknown field(s) {sorted(unknown)}")
    missing = [k for k in required if k not in mapping]
    _require(not missing, f"{context}: missing field(s) {missing}")
    return {k: mapping[k] for k in mapping}


# What converting a JSON value to numbers can raise: ValueError (ragged
# lists, text), TypeError (objects, null) and OverflowError (huge integers).
_CONVERSION_ERRORS = (ValueError, TypeError, OverflowError)


def _array(value, shape, context, what):
    try:
        arr = np.asarray(value, dtype=float)
    except _CONVERSION_ERRORS:
        arr = None
    _require(arr is not None and arr.shape == shape
             and np.all(np.isfinite(arr)), f"{context}: expected {what}")
    return arr


def _vector(value, dim, context):
    return _array(value, (dim,), context, f"a finite length-{dim} vector")


def _matrix(value, dim, context):
    return _array(value, (dim, dim), context,
                  f"a finite {dim}x{dim} row-major matrix")


def _dimension(fields, context):
    dim = fields["dimension"]
    _require(isinstance(dim, int) and dim in (2, 3),
             f"{context}.dimension: must be 2 or 3")
    return dim


def _parse_pose(value, dim, context):
    if value is None:
        return Pose.identity(dim)
    fields = _take(value, context, optional=("translation", "rotation",
                                            "angle"))
    t = (_vector(fields["translation"], dim, f"{context}.translation")
         if "translation" in fields else np.zeros(dim))
    _require(not ("rotation" in fields and "angle" in fields),
             f"{context}: give either rotation or angle, not both")
    if "angle" in fields:
        _require(dim == 2, f"{context}.angle: only valid in 2D")
        angle = _array(fields["angle"], (), f"{context}.angle",
                       "a finite number")
        return Pose.planar(float(angle), t)
    if "rotation" not in fields:
        return Pose._trusted(np.eye(dim), t)
    R = _matrix(fields["rotation"], dim, f"{context}.rotation")
    try:
        return Pose(R, t)
    except ValueError as exc:
        raise SceneFormatError(f"{context}.rotation: {exc}") from exc


def _parse_shape(value, dim, context):
    fields = _take(value, context, required=("type",),
                   optional=("radius", "halfExtents", "vertices", "p0", "p1"))
    kind = fields["type"]
    try:
        if kind == "sphere":
            _take(value, context, required=("type", "radius"))
            return Sphere(np.zeros(dim), float(fields["radius"]))
        if kind == "box":
            _take(value, context, required=("type", "halfExtents"))
            return box(_vector(fields["halfExtents"], dim,
                               f"{context}.halfExtents"))
        if kind == "convexHull":
            _take(value, context, required=("type", "vertices"))
            V = np.asarray(fields["vertices"], dtype=float)
            _require(V.ndim == 2 and V.shape[1] == dim
                     and np.all(np.isfinite(V)),
                     f"{context}.vertices: expected a finite (k, {dim}) array")
            return Polytope(V)
        if kind == "capsule":
            _take(value, context, required=("type", "p0", "p1", "radius"))
            return Capsule(_vector(fields["p0"], dim, f"{context}.p0"),
                           _vector(fields["p1"], dim, f"{context}.p1"),
                           float(fields["radius"]))
    except _CONVERSION_ERRORS as exc:
        if isinstance(exc, SceneFormatError):
            raise
        raise SceneFormatError(f"{context}: {exc}") from exc
    raise SceneFormatError(
        f"{context}.type: unknown shape type {kind!r} (expected sphere, "
        "box, convexHull, or capsule)")


def _check_version(fields, context):
    _require(fields["formatVersion"] == FORMAT_VERSION,
             f"{context}: unsupported formatVersion "
             f"{fields['formatVersion']!r} (expected {FORMAT_VERSION})")


def parse_scene(data):
    fields = _take(data, "scene",
                   required=("formatVersion", "dimension", "obstacles"),
                   optional=("name",))
    _check_version(fields, "scene")
    dim = _dimension(fields, "scene")
    _require(isinstance(fields["obstacles"], list),
             "scene.obstacles: expected a list")
    obstacles = []
    names = []
    for i, entry in enumerate(fields["obstacles"]):
        ctx = f"scene.obstacles[{i}]"
        ob = _take(entry, ctx, required=("shape", "covariance"),
                   optional=("name", "pose"))
        name = ob.get("name", f"obstacle {i}")
        shape = _parse_shape(ob["shape"], dim, f"{ctx}.shape")
        pose = _parse_pose(ob.get("pose"), dim, f"{ctx}.pose")
        sigma = _matrix(ob["covariance"], dim, f"{ctx}.covariance")
        try:
            obstacles.append(UncertainObstacle(shape.posed(pose), sigma))
        except ValueError as exc:
            raise SceneFormatError(
                f"{ctx}.covariance ({name}): {exc}") from exc
        names.append(name)
    return SceneFile(dim, obstacles, names, fields.get("name", ""))


def parse_robot(data):
    fields = _take(data, "robot",
                   required=("formatVersion", "dimension", "joints",
                             "linkShapes"),
                   optional=("name", "base"))
    _check_version(fields, "robot")
    dim = _dimension(fields, "robot")
    base = _parse_pose(fields.get("base"), dim, "robot.base")
    _require(isinstance(fields["joints"], list), "robot.joints: expected a "
             "list")
    joints = []
    for i, entry in enumerate(fields["joints"]):
        ctx = f"robot.joints[{i}]"
        j = _take(entry, ctx, required=("type",),
                  optional=("axis", "offset", "limits"))
        _require(j["type"] in ("revolute", "prismatic"),
                 f"{ctx}.type: unknown joint type {j['type']!r}")
        axis = (_vector(j["axis"], dim, f"{ctx}.axis")
                if "axis" in j else None)
        offset = _parse_pose(j.get("offset"), dim, f"{ctx}.offset")
        lo, hi = -np.inf, np.inf
        if "limits" in j:
            lims = _vector(j["limits"], 2, f"{ctx}.limits")
            lo, hi = float(lims[0]), float(lims[1])
        try:
            joints.append(Joint(j["type"], offset, axis, lo, hi))
        except ValueError as exc:
            raise SceneFormatError(f"{ctx}: {exc}") from exc
    shapes = fields["linkShapes"]
    _require(isinstance(shapes, list), "robot.linkShapes: expected a list")
    link_shapes = []
    for i, per_link in enumerate(shapes):
        ctx = f"robot.linkShapes[{i}]"
        _require(isinstance(per_link, list), f"{ctx}: expected a list")
        link_shapes.append([_parse_shape(s, dim, f"{ctx}[{k}]")
                            for k, s in enumerate(per_link)])
    try:
        return RobotModel(joints, link_shapes, base)
    except ValueError as exc:
        raise SceneFormatError(f"robot: {exc}") from exc


def _load_json(path, context):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise SceneFormatError(f"{context} {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SceneFormatError(
            f"{context} {path}: line {exc.lineno}: {exc.msg}") from exc


def load_scene(path):
    return parse_scene(_load_json(path, "scene file"))


def load_robot(path):
    return parse_robot(_load_json(path, "robot file"))
