"""Convex bodies as support mappings, GJK distance, and EPA penetration depth.

Every shape implements a support mapping (direction -> farthest point), which
makes implicit Minkowski sums and ellipsoid-augmented bodies collision-checkable
without ever constructing explicit set sums. Shapes whose geometry is a convex
polytope swept by a sphere (point, sphere, capsule, box, hull and sums of
those) additionally expose a (vertices, radius) decomposition used for fast
signed-distance queries.

Workspace dimension is 2 or 3 and is carried by each body.
"""

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

GJK_MAX_ITER = 128
GJK_REL_TOL = 1e-9
EPA_MAX_FACES = 255
EPA_TOL = 1e-9


class GeometryError(RuntimeError):
    """Numerical failure inside GJK/EPA (iteration cap or degenerate state)."""


def _as_vec(x, dim=None):
    v = np.asarray(x, dtype=float)
    if v.ndim != 1:
        raise ValueError(f"expected a vector, got shape {v.shape}")
    if dim is not None and v.shape[0] != dim:
        raise ValueError(f"expected a {dim}-vector, got {v.shape[0]}")
    # A single reduction catches any nan/inf entry (inf sums to inf or nan).
    if not math.isfinite(float(v.sum())):
        raise ValueError("vector has non-finite components")
    return v


def _check_direction(v):
    if float(np.dot(v, v)) == 0.0:
        raise ValueError("support direction must be nonzero")


@dataclass(frozen=True)
class Pose:
    """Rigid transform: x -> R @ x + t, with R a proper rotation."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        R = np.asarray(self.rotation, dtype=float)
        t = _as_vec(self.translation)
        if R.shape != (t.shape[0], t.shape[0]):
            raise ValueError("rotation/translation dimension mismatch")
        if not np.allclose(R @ R.T, np.eye(len(t)), atol=1e-9):
            raise ValueError("rotation matrix is not orthogonal")
        if np.linalg.det(R) < 0:
            raise ValueError("rotation matrix must have determinant +1")
        object.__setattr__(self, "rotation", R)
        object.__setattr__(self, "translation", t)

    @property
    def dim(self):
        return self.translation.shape[0]

    @staticmethod
    def identity(dim):
        return Pose(np.eye(dim), np.zeros(dim))

    @staticmethod
    def planar(angle, translation):
        c, s = math.cos(angle), math.sin(angle)
        return Pose(np.array([[c, -s], [s, c]]), translation)

    @staticmethod
    def _trusted(R, t):
        """Construct without re-validating (products of valid poses)."""
        p = object.__new__(Pose)
        object.__setattr__(p, "rotation", R)
        object.__setattr__(p, "translation", t)
        return p

    def compose(self, other):
        return Pose._trusted(
            self.rotation @ other.rotation,
            self.rotation @ other.translation + self.translation)

    def apply(self, point):
        return self.rotation @ np.asarray(point, dtype=float) + self.translation


class ConvexBody:
    """Interface: a convex set represented by its support mapping.

    Subclasses implement ``_support``, which trusts its argument to be a
    nonzero float vector of the body's dimension; queries inside this module
    call it directly. ``support`` is the validated public entry point.
    """

    dim = None

    def support(self, direction):
        """Farthest point of the body in ``direction`` (must be nonzero)."""
        v = _as_vec(direction, self.dim)
        _check_direction(v)
        return np.array(self._support(v))

    def _support(self, v):
        raise NotImplementedError

    def swept(self):
        """(vertices, radius) if the body is a sphere-swept polytope, else None."""
        return None

    def center(self):
        """Any interior-ish point; used to seed iterative queries."""
        sw = self.swept()
        if sw is not None:
            return sw[0].mean(axis=0)
        return np.zeros(self.dim)


class Sphere(ConvexBody):
    def __init__(self, center, radius):
        self._center = _as_vec(center)
        if radius < 0:
            raise ValueError("radius must be nonnegative")
        self.radius = float(radius)
        self.dim = self._center.shape[0]

    def _support(self, v):
        if self.radius == 0.0:
            return self._center
        return self._center + (self.radius / math.sqrt(float(v @ v))) * v

    def swept(self):
        return self._center[None, :], self.radius

    def center(self):
        return self._center.copy()


def point_body(position):
    """A single point as a degenerate sphere."""
    return Sphere(position, 0.0)


class Capsule(ConvexBody):
    def __init__(self, p0, p1, radius):
        self.p0 = _as_vec(p0)
        self.p1 = _as_vec(p1, self.p0.shape[0])
        if radius < 0:
            raise ValueError("radius must be nonnegative")
        self.radius = float(radius)
        self.dim = self.p0.shape[0]
        self._ends = np.stack([self.p0, self.p1])

    def _support(self, v):
        p = self.p0 if float(v @ self.p0) >= float(v @ self.p1) else self.p1
        if self.radius == 0.0:
            return p
        return p + (self.radius / math.sqrt(float(v @ v))) * v

    def swept(self):
        return self._ends, self.radius


class Polytope(ConvexBody):
    """Convex hull of an explicit vertex list; support is a linear scan."""

    def __init__(self, vertices):
        V = np.asarray(vertices, dtype=float)
        if V.ndim != 2 or V.shape[0] == 0:
            raise ValueError("vertices must be a nonempty (k, dim) array")
        if not np.all(np.isfinite(V)):
            raise ValueError("vertices must be finite")
        self.vertices = V
        self.dim = V.shape[1]

    def _support(self, v):
        return self.vertices[int(np.argmax(self.vertices @ v))]

    def swept(self):
        return self.vertices, 0.0


def box(half_extents, center=None):
    """Axis-aligned box as a Polytope."""
    h = _as_vec(half_extents)
    dim = h.shape[0]
    corners = np.array(list(itertools.product(*[(-e, e) for e in h])))
    if center is not None:
        corners = corners + _as_vec(center, dim)
    return Polytope(corners)


class Posed(ConvexBody):
    """A body placed in the workspace by a rigid transform."""

    def __init__(self, pose, body):
        if pose.dim != body.dim:
            raise ValueError("pose/body dimension mismatch")
        self.pose = pose
        self.body = body
        self.dim = body.dim
        # A sphere-swept body is placed once: its support is then a scan of
        # the world vertices.
        sw = body.swept()
        self._swept = None if sw is None else (
            sw[0] @ pose.rotation.T + pose.translation, sw[1])

    def _support(self, v):
        if self._swept is not None:
            V, r = self._swept
            p = V[int(np.argmax(V @ v))]
            if r == 0.0:
                return p
            return p + (r / math.sqrt(float(v @ v))) * v
        R = self.pose.rotation
        return R @ self.body._support(R.T @ v) + self.pose.translation

    def swept(self):
        return self._swept

    def center(self):
        return self.pose.apply(self.body.center())


class MinkowskiSum(ConvexBody):
    """Implicit Minkowski sum: support is the sum of component supports."""

    def __init__(self, a, b):
        if a.dim != b.dim:
            raise ValueError("dimension mismatch in Minkowski sum")
        self.a = a
        self.b = b
        self.dim = a.dim

    def _support(self, v):
        return self.a._support(v) + self.b._support(v)

    def swept(self):
        sa, sb = self.a.swept(), self.b.swept()
        if sa is None or sb is None:
            return None
        (Va, ra), (Vb, rb) = sa, sb
        V = (Va[:, None, :] + Vb[None, :, :]).reshape(-1, self.dim)
        return V, ra + rb

    def center(self):
        return self.a.center() + self.b.center()


class Ellipsoid(ConvexBody):
    """{d : d^T Sigma^{-1} d <= c} for SPD Sigma and Mahalanobis radius^2 c."""

    def __init__(self, sigma, c, center=None):
        S = np.asarray(sigma, dtype=float)
        if S.ndim != 2 or S.shape[0] != S.shape[1]:
            raise ValueError("covariance must be square")
        if not np.allclose(S, S.T, atol=1e-12):
            raise ValueError("covariance must be symmetric")
        if c < 0:
            raise ValueError("squared radius must be nonnegative")
        self.sigma = 0.5 * (S + S.T)
        # Raises LinAlgError if not positive definite.
        self.chol = np.linalg.cholesky(self.sigma)
        self.c = float(c)
        self.dim = S.shape[0]
        self._center = (np.zeros(self.dim) if center is None
                        else _as_vec(center, self.dim))

    def _support(self, v):
        if self.c == 0.0:
            return self._center
        sv = self.sigma @ v
        return self._center + math.sqrt(self.c) * sv / math.sqrt(float(v @ sv))

    def center(self):
        return self._center.copy()

    def contains(self, d, tol=0.0):
        y = np.linalg.solve(self.chol, np.asarray(d, dtype=float) - self._center)
        return float(y @ y) <= self.c + tol


class HalfEllipsoid(ConvexBody):
    """Ellipsoid sliced by the half-space n^T d >= 0."""

    def __init__(self, sigma, c, normal):
        self.ellipsoid = Ellipsoid(sigma, c)
        n = _as_vec(normal, self.ellipsoid.dim)
        nn = np.linalg.norm(n)
        if abs(nn - 1.0) > 1e-9:
            raise ValueError("half-space normal must be unit length")
        self.normal = n / nn
        self.dim = self.ellipsoid.dim
        self.sigma = self.ellipsoid.sigma
        self.c = self.ellipsoid.c
        # In whitened coordinates u = L^{-1} d the body is a ball of radius
        # sqrt(c) cut by the plane m^T u >= 0.
        self._m = self.ellipsoid.chol.T @ self.normal
        self._mm = float(self._m @ self._m)
        self._sc = math.sqrt(self.c)

    def _support(self, v):
        if self.c == 0.0:
            return np.zeros(self.dim)
        L = self.ellipsoid.chol
        m, mm, sc = self._m, self._mm, self._sc
        w = L.T @ v
        u = sc * w / np.linalg.norm(w)
        if float(m @ u) >= 0.0:
            return L @ u
        # Maximizer lies on the slice plane n^T d = 0: project w off m.
        w_sl = w - (float(w @ m) / mm) * m
        nw = np.linalg.norm(w_sl)
        if nw < 1e-14:
            # v antiparallel to the normal: any slice-boundary point attains
            # the max; pick a deterministic one from the first axis.
            e = np.zeros(self.dim)
            e[0] = 1.0
            w_sl = e - (float(e @ m) / mm) * m
            nw = np.linalg.norm(w_sl)
            if nw < 1e-14:
                e = np.zeros(self.dim)
                e[1] = 1.0
                w_sl = e - (float(e @ m) / mm) * m
                nw = np.linalg.norm(w_sl)
        return L @ (sc * w_sl / nw)

    def contains(self, d, tol=0.0):
        return (self.ellipsoid.contains(d, tol)
                and float(self.normal @ d) >= -tol)


@dataclass
class DistanceResult:
    """Signed distance with witness points and a unit normal from A into B."""

    signed_distance: float
    witness_a: np.ndarray
    witness_b: np.ndarray
    normal: np.ndarray


# ---------------------------------------------------------------------------
# GJK on a generic support-pair function
# ---------------------------------------------------------------------------

def _dot(u, v):
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def _same_sign(a, b):
    return (a > 0.0 and b > 0.0) or (a < 0.0 and b < 0.0)


def _closest_on_simplex(points):
    """Closest point to the origin on the convex hull of 1 to 4 points.

    Signed-volumes sub-algorithm (Montanari, Petrinic & Barbieri, "Improving
    the GJK algorithm for faster and more reliable distance queries between
    convex objects", ACM TOG 2017). The barycentric coordinates of the
    origin's projection come from signed volumes (areas) taken in the
    best-conditioned coordinate projection. If they all share the sign of
    the whole simplex's volume the projection is the answer; otherwise the
    closest point lies on a face opposite a vertex whose coordinate fails
    that test, and each such face is solved in turn.

    ``points`` are 3-vectors as float lists (2D problems lie in z = 0).
    Returns (v, lambdas, keep) with ``v = sum(lambdas[i] * points[keep[i]])``
    as a float list; v is exactly zero when a tetrahedron, or a triangle in
    the z = 0 plane, holds the origin.
    """
    k = len(points)
    if k == 1:
        return points[0], [1.0], [0]
    if k == 2:
        return _closest_on_segment(points, 0, 1)
    if k == 3:
        return _closest_on_triangle(points, 0, 1, 2)
    return _closest_on_tetrahedron(points)


def _closest_on_segment(P, i, j):
    (ax, ay, az), (bx, by, bz) = P[i], P[j]
    ex, ey, ez = bx - ax, by - ay, bz - az
    ee = ex * ex + ey * ey + ez * ez
    t = -(ax * ex + ay * ey + az * ez) / ee if ee > 0.0 else 0.0
    if t <= 0.0:
        return P[i], [1.0], [i]
    if t >= 1.0:
        return P[j], [1.0], [j]
    return [ax + t * ex, ay + t * ey, az + t * ez], [1.0 - t, t], [i, j]


def _closest_on_triangle(P, i, j, k):
    a, b, c = P[i], P[j], P[k]
    abx, aby, abz = b[0] - a[0], b[1] - a[1], b[2] - a[2]
    acx, acy, acz = c[0] - a[0], c[1] - a[1], c[2] - a[2]
    n = (aby * acz - abz * acy, abz * acx - abx * acz, abx * acy - aby * acx)
    # Project on the coordinate plane where the triangle's shadow is
    # largest; n's components are the shadows' signed double areas.
    x, y, mu = max(((1, 2, n[0]), (2, 0, n[1]), (0, 1, n[2])),
                   key=lambda e: abs(e[2]))
    C = (0.0, 0.0, 0.0)
    if mu != 0.0:
        s = _dot(a, n) / _dot(n, n)
        o = [s * n[0], s * n[1], s * n[2]]    # the origin projected
        ox, oy = o[x], o[y]
        px, py, qx, qy, rx, ry = a[x], a[y], b[x], b[y], c[x], c[y]
        C = ((qx - ox) * (ry - oy) - (qy - oy) * (rx - ox),    # (o, b, c)
             (ox - px) * (ry - py) - (oy - py) * (rx - px),    # (a, o, c)
             (qx - px) * (oy - py) - (qy - py) * (ox - px))    # (a, b, o)
        if all(_same_sign(mu, cr) for cr in C):
            return o, [cr / mu for cr in C], [i, j, k]
    best = None
    for cr, edge in zip(C, ((j, k), (i, k), (i, j))):
        if not _same_sign(mu, cr):
            cand = _closest_on_segment(P, *edge)
            d2 = _dot(cand[0], cand[0])
            if best is None or d2 < best[0]:
                best = (d2, cand)
    return best[1]


def _det3(p, q, r):
    return (p[0] * (q[1] * r[2] - q[2] * r[1])
            - p[1] * (q[0] * r[2] - q[2] * r[0])
            + p[2] * (q[0] * r[1] - q[1] * r[0]))


def _closest_on_tetrahedron(P):
    a, b, c, d = P
    # Cofactor expansion: C[r] is the signed volume with vertex r replaced
    # by the origin, and their sum is the tetrahedron's own signed volume.
    C = (_det3(b, c, d), -_det3(a, c, d), _det3(a, b, d), -_det3(a, b, c))
    vol = C[0] + C[1] + C[2] + C[3]
    if all(_same_sign(vol, cr) for cr in C):
        return [0.0, 0.0, 0.0], [cr / vol for cr in C], [0, 1, 2, 3]
    best = None
    for cr, face in zip(C, ((1, 2, 3), (0, 2, 3), (0, 1, 3), (0, 1, 2))):
        if not _same_sign(vol, cr):
            cand = _closest_on_triangle(P, *face)
            d2 = _dot(cand[0], cand[0])
            if best is None or d2 < best[0]:
                best = (d2, cand)
    return best[1]


def _gjk(support_pair, dim, tol=GJK_REL_TOL, max_iter=GJK_MAX_ITER,
         seed_direction=None, boolean_cutoff=None, start=None):
    """GJK distance between the origin and a convex set given by supports.

    ``support_pair(v)`` returns (p, a, b): the support point p of the set in
    direction v plus auxiliary witness payloads a, b carried through the
    barycentric combination. ``seed_direction`` estimates the set's position
    relative to the origin (e.g. a difference of centres); the first support
    is taken in the opposite direction, on the near side. ``start``, an
    entry (p, a, b) with p a point of the set near the closest one, replaces
    that first support.

    Returns (distance, closest_point, witness_a, witness_b). Distance 0 means
    the origin is inside (or within tolerance of) the set. If
    ``boolean_cutoff`` is given, iteration stops early once the distance lower
    bound exceeds it and the current (over-)estimate is returned. The
    estimate also stops where |v|^2 no longer decreases (the roundoff floor);
    reaching ``max_iter`` raises GeometryError.
    """
    if start is None:
        d0 = seed_direction
        if d0 is None or float(np.dot(d0, d0)) < 1e-18:
            d0 = np.zeros(dim)
            d0[0] = 1.0
        start = support_pair(-d0)
    pad = [0.0] * (3 - dim)     # a 2D problem runs in the z = 0 plane
    entries = [start]
    simplex = [entries[0][0].tolist() + pad]
    v, lam = simplex[0], [1.0]
    nv2 = _dot(v, v)
    for _ in range(max_iter):
        if nv2 <= tol * tol:
            break
        entry = support_pair(np.array([-v[0], -v[1], -v[2]][:dim]))
        p = entry[0].tolist() + pad
        vp = _dot(v, p)
        # Relative duality-gap test (an absolute test loses accuracy near
        # tangency, where nv2 itself is tiny), with a floor at roundoff.
        if nv2 - vp <= tol * nv2 + 1e-14:
            break
        # Supporting-plane lower bound on the distance.
        if boolean_cutoff is not None and vp > boolean_cutoff * math.sqrt(nv2):
            break
        simplex.append(p)
        entries.append(entry)
        w, lam_w, keep = _closest_on_simplex(simplex)
        nw2 = _dot(w, w)
        if nw2 >= nv2:
            # No progress (roundoff on a thin simplex): keep the estimate.
            simplex.pop()
            entries.pop()
            break
        entries = [entries[i] for i in keep]
        simplex = [simplex[i] for i in keep]
        v, lam, nv2 = w, lam_w, nw2
    else:
        raise GeometryError(
            f"GJK did not converge within {max_iter} iterations")
    dist = 0.0 if nv2 <= tol * tol else math.sqrt(nv2)
    return (dist, np.array(v[:dim]), _combine(entries, lam, 0),
            _combine(entries, lam, 1))


def _combine(entries, lam, slot):
    out = None
    for w, e in zip(lam, entries):
        part = e[1 + slot]
        if part is None:
            return None
        out = w * part if out is None else out + w * part
    return out


def _pair_support(body_a, body_b, linear_map=None):
    """Support-pair function for M @ (A - B) with witness tracking."""
    if linear_map is None:
        def sp(v):
            a = body_a._support(v)
            b = body_b._support(-v)
            return a - b, a, b
    else:
        M = linear_map
        MT = M.T

        def sp(v):
            w = MT @ v
            a = body_a._support(w)
            b = body_b._support(-w)
            return M @ (a - b), a, b
    return sp


# ---------------------------------------------------------------------------
# EPA penetration depth
# ---------------------------------------------------------------------------

def _epa_2d(support_pair, entries, tol=EPA_TOL, max_faces=EPA_MAX_FACES):
    """2D EPA: expand a polygon of Minkowski-difference points around the origin."""
    # Build an initial polygon enclosing the origin.
    pts = [e for e in entries]
    for d in (np.array([1.0, 0.0]), np.array([-0.5, 0.87]), np.array([-0.5, -0.87])):
        if len(pts) >= 3:
            break
        p, a, b = support_pair(d)
        if not any(np.allclose(p, q[0], atol=1e-12) for q in pts):
            pts.append((p, a, b))
    if len(pts) < 3:
        raise GeometryError("EPA: degenerate contact (flat difference set)")
    # Order counterclockwise around the centroid.
    cen = np.mean([p[0] for p in pts], axis=0)
    pts.sort(key=lambda e: math.atan2(e[0][1] - cen[1], e[0][0] - cen[0]))

    for _ in range(max_faces):
        # Closest edge to the origin.
        best = None
        for i in range(len(pts)):
            p1, p2 = pts[i][0], pts[(i + 1) % len(pts)][0]
            e = p2 - p1
            n = np.array([e[1], -e[0]])
            nn = np.linalg.norm(n)
            if nn < 1e-14:
                continue
            n = n / nn
            if float(n @ (p1 - cen)) < 0:
                n = -n
            d = float(n @ p1)
            if best is None or d < best[0]:
                best = (d, i, n)
        if best is None:
            raise GeometryError("EPA: no valid edge")
        d, i, n = best
        p, a, b = support_pair(n)
        if float(n @ p) - d < tol * max(1.0, abs(d)):
            # Converged: witness from projecting the origin onto the edge.
            e1, e2 = pts[i], pts[(i + 1) % len(pts)]
            wa, wb = _edge_witness(e1, e2, n, d)
            return d, n, wa, wb
        pts.insert(i + 1, (p, a, b))
    raise GeometryError("EPA did not converge within the face cap")


def _edge_witness(e1, e2, n, d):
    p1, p2 = e1[0], e2[0]
    seg = p2 - p1
    denom = float(seg @ seg)
    t = 0.0 if denom < 1e-18 else float((d * n - p1) @ seg) / denom
    t = min(max(t, 0.0), 1.0)
    wa = (1 - t) * e1[1] + t * e2[1] if e1[1] is not None else None
    wb = (1 - t) * e1[2] + t * e2[2] if e1[2] is not None else None
    return wa, wb


def _epa_3d(support_pair, entries, tol=EPA_TOL, max_faces=EPA_MAX_FACES):
    """3D EPA on a triangulated polytope of Minkowski-difference points."""
    verts = list(entries)
    seed_dirs = [np.array(d, dtype=float) for d in
                 [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1),
                  (0, 0, -1), (1, 1, 1), (-1, -1, -1)]]
    for d in seed_dirs:
        if len(verts) >= 4 and _volume_ok(verts):
            break
        p, a, b = support_pair(d / np.linalg.norm(d))
        if not any(np.allclose(p, q[0], atol=1e-12) for q in verts):
            verts.append((p, a, b))
    verts = _independent_four(verts)
    if verts is None:
        raise GeometryError("EPA: degenerate contact (flat difference set)")

    faces = [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]
    centroid = np.mean([v[0] for v in verts], axis=0)

    def face_data(f):
        p0, p1, p2 = (verts[i][0] for i in f)
        n = np.cross(p1 - p0, p2 - p0)
        nn = np.linalg.norm(n)
        if nn < 1e-16:
            return None
        n = n / nn
        if float(n @ (p0 - centroid)) < 0:
            n = -n
        return float(n @ p0), n

    for _ in range(max_faces):
        best = None
        for f in faces:
            fd = face_data(f)
            if fd is None:
                continue
            d, n = fd
            if best is None or d < best[0]:
                best = (d, n, f)
        if best is None:
            raise GeometryError("EPA: no valid face")
        d, n, f = best
        p, a, b = support_pair(n)
        if float(n @ p) - d < tol * max(1.0, abs(d)):
            wa, wb = _face_witness([verts[i] for i in f], n, d)
            return max(d, 0.0), n, wa, wb
        if any(np.allclose(p, v[0], atol=1e-14) for v in verts):
            wa, wb = _face_witness([verts[i] for i in f], n, d)
            return max(d, 0.0), n, wa, wb
        verts.append((p, a, b))
        new_idx = len(verts) - 1
        # Remove faces visible from p and stitch the horizon.
        visible, keep = [], []
        for g in faces:
            fd = face_data(g)
            if fd is None:
                visible.append(g)
                continue
            gd, gn = fd
            (visible if float(gn @ p) > gd + 1e-14 else keep).append(g)
        if not visible:
            keep.remove(f)
            visible = [f]
        edge_count = {}
        for g in visible:
            for e in ((g[0], g[1]), (g[1], g[2]), (g[2], g[0])):
                key = tuple(sorted(e))
                edge_count[key] = edge_count.get(key, 0) + 1
        horizon = [e for e, cnt in edge_count.items() if cnt == 1]
        faces = keep + [(e[0], e[1], new_idx) for e in horizon]
        if len(faces) > max_faces:
            raise GeometryError("EPA exceeded the face cap")
    raise GeometryError("EPA did not converge within the face cap")


def _volume_ok(verts):
    if len(verts) < 4:
        return False
    P = np.stack([v[0] for v in verts[:4]])
    return abs(np.linalg.det(P[1:] - P[0])) > 1e-18


def _independent_four(verts):
    for combo in itertools.combinations(range(len(verts)), 4):
        P = np.stack([verts[i][0] for i in combo])
        if abs(np.linalg.det(P[1:] - P[0])) > 1e-18:
            return [verts[i] for i in combo]
    return None


def _face_witness(face_entries, n, d):
    P = np.stack([e[0] for e in face_entries])
    target = d * n
    # Barycentric coordinates of the projected origin on the face triangle.
    A = np.column_stack([P[1] - P[0], P[2] - P[0]])
    rhs = target - P[0]
    sol, *_ = np.linalg.lstsq(A, rhs, rcond=None)
    lam = np.array([1 - sol[0] - sol[1], sol[0], sol[1]])
    lam = np.clip(lam, 0.0, None)
    lam = lam / lam.sum()
    wa = sum(w * e[1] for w, e in zip(lam, face_entries)) \
        if face_entries[0][1] is not None else None
    wb = sum(w * e[2] for w, e in zip(lam, face_entries)) \
        if face_entries[0][2] is not None else None
    return wa, wb


# ---------------------------------------------------------------------------
# Public queries
# ---------------------------------------------------------------------------

def distance(body_a, body_b, tolerance=1e-9):
    """Signed distance between two convex bodies.

    Positive: separation distance with a witness pair. Negative: penetration
    depth (EPA), with the normal giving the minimal translation direction
    from A into B.
    """
    if tolerance <= 0:
        raise ValueError("tolerance must be positive")
    if body_a.dim != body_b.dim:
        raise ValueError("dimension mismatch")
    sa, sb = body_a.swept(), body_b.swept()
    if sa is not None and sb is not None:
        return _distance_swept(sa, sb, tolerance)
    return _distance_generic(body_a, body_b, tolerance)


def _distance_swept(sa, sb, tolerance):
    (Va, ra), (Vb, rb) = sa, sb
    dim = Va.shape[1]
    R = ra + rb
    # Work on the difference polytope W = {a_i - b_j}.
    W = (Va[:, None, :] - Vb[None, :, :]).reshape(-1, dim)
    nb = Vb.shape[0]

    def sp(v):
        i = int(np.argmax(W @ v))
        return W[i], Va[i // nb], Vb[i % nb]

    seed = Va.mean(axis=0) - Vb.mean(axis=0)
    dist, v, wa, wb = _gjk(sp, dim, tol=tolerance, seed_direction=seed)
    if dist > tolerance:
        # v points from B-side toward A-side: witness direction A -> B is -v.
        n = -v / dist
        return DistanceResult(dist - R, wa + ra * n, wb - rb * n, n)
    # Cores overlap: EPA on the core difference polytope.
    entries = _seed_entries(sp, dim)
    try:
        depth, n, wa, wb = (_epa_2d if dim == 2 else _epa_3d)(sp, entries,
                                                             tol=tolerance)
    except GeometryError:
        # Flat core difference (e.g. coincident sphere centers): zero core
        # penetration; fall back to a deterministic normal.
        depth = 0.0
        nv = float(np.dot(v, v))
        if nv > tolerance * tolerance:
            n = -v / math.sqrt(nv)
        else:
            n = np.zeros(dim)
            n[0] = 1.0
    # n is the direction to translate A by -n*depth to separate cores; the
    # minimal translation pushes A along -n, so the normal A->B is n.
    return DistanceResult(-depth - R, wa + ra * n, wb - rb * n, n)


def _distance_generic(body_a, body_b, tolerance):
    sp = _pair_support(body_a, body_b)
    dim = body_a.dim
    seed = body_a.center() - body_b.center()
    dist, v, wa, wb = _gjk(sp, dim, tol=tolerance, seed_direction=seed)
    if dist > tolerance:
        n = -v / dist
        return DistanceResult(dist, wa, wb, n)
    entries = _seed_entries(sp, dim)
    depth, n, wa, wb = (_epa_2d if dim == 2 else _epa_3d)(sp, entries, tol=tolerance)
    return DistanceResult(-depth, wa, wb, n)


def _seed_entries(sp, dim):
    dirs = [np.eye(dim)[i] * s for i in range(dim) for s in (1.0, -1.0)]
    entries = []
    for d in dirs:
        p, a, b = sp(d)
        if not any(np.allclose(p, q[0], atol=1e-14) for q in entries):
            entries.append((p, a, b))
    return entries


def intersects(body_a, body_b, tolerance=1e-9):
    """True iff the bodies overlap (signed distance <= 0 within tolerance)."""
    if tolerance <= 0:
        raise ValueError("tolerance must be positive")
    sa, sb = body_a.swept(), body_b.swept()
    if sa is not None and sb is not None:
        (Va, ra), (Vb, rb) = sa, sb
        dim = Va.shape[1]
        W = (Va[:, None, :] - Vb[None, :, :]).reshape(-1, dim)

        def sp(v):
            return W[int(np.argmax(W @ v))], None, None

        seed = Va.mean(axis=0) - Vb.mean(axis=0)
        dist, *_ = _gjk(sp, dim, tol=tolerance, seed_direction=seed,
                        boolean_cutoff=ra + rb + tolerance)
        return dist <= ra + rb + tolerance
    sp = _pair_support(body_a, body_b)
    seed = body_a.center() - body_b.center()
    dist, *_ = _gjk(sp, body_a.dim, tol=tolerance, seed_direction=seed,
                    boolean_cutoff=tolerance)
    return dist <= tolerance


def mahalanobis_contact(body_a, body_b, chol_sigma, tolerance=1e-12,
                        chol_inv=None, guess=None):
    """Minimum squared Mahalanobis norm of (a - b) over a in A, b in B.

    ``chol_sigma`` is the lower Cholesky factor of the metric covariance;
    callers that query one covariance many times pass its inverse as
    ``chol_inv``. ``guess`` optionally gives points a in A and b in B near
    the minimizing pair (the Euclidean witness pair is exact for an
    isotropic covariance); the search starts there.
    Returns (c, witness_a, witness_b): c = min (a-b)^T Sigma^{-1} (a-b),
    with the attaining witness pair. c == 0 means the bodies intersect.
    """
    L_inv = np.linalg.inv(chol_sigma) if chol_inv is None else chol_inv
    sp = _pair_support(body_a, body_b, linear_map=L_inv)
    start = seed = None
    if guess is None:
        seed = L_inv @ (body_a.center() - body_b.center())
    else:
        a, b = guess
        start = (L_inv @ (a - b), a, b)
    dist, v, wa, wb = _gjk(sp, body_a.dim, tol=tolerance, seed_direction=seed,
                           start=start)
    return dist * dist, wa, wb
