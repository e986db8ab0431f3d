"""Sphere-swept hulls, GJK distance, exact facet-plane penetration, and
Mahalanobis contact.

Every body is a convex hull of vertices swept by a ball (a point, sphere,
capsule, box or hull), so one support mapping and one distance kernel
serve every shape. Separation comes from GJK on the difference vertices of
two bodies; penetration depth, normal and witnesses come exactly from the
facet planes of the difference hull. The Mahalanobis query runs GJK in
whitened coordinates and returns a certified lower bound.

Workspace dimension is 2 or 3 and is carried by each body.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

GJK_MAX_ITER = 128
GJK_REL_TOL = 1e-9


class GeometryError(RuntimeError):
    """Numerical failure: a search hit its iteration cap, or a certification
    invariant broke."""


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


@dataclass(eq=False)
class SweptHull:
    """conv(vertices) swept by a ball of ``radius``: every body of ccplan.

    Points, spheres, capsules, boxes and hulls are all of this form, so one
    support mapping and one distance kernel serve every shape. Build bodies
    with the validating constructors below (``Sphere``, ``Capsule``,
    ``Polytope``, ``box``, ``point_body``) and place them with ``posed``;
    the class itself trusts its arguments.
    """

    vertices: np.ndarray    # (k, dim) floats
    radius: float

    @property
    def dim(self):
        return self.vertices.shape[1]

    def support(self, direction):
        """Farthest point of the body in ``direction`` (must be nonzero)."""
        v = _as_vec(direction, self.dim)
        _check_direction(v)
        return np.array(self._support(v))

    def _support(self, v):
        """``support`` for a trusted nonzero float vector ``v``."""
        V = self.vertices
        p = V[int(np.argmax(V @ v))]
        if self.radius == 0.0:
            return p
        return p + (self.radius / math.sqrt(float(v @ v))) * v

    def center(self):
        """The vertex centroid, an interior point; seeds iterative queries."""
        return self.vertices.mean(axis=0)

    def posed(self, pose):
        """The body placed in the workspace by ``pose`` (of the same dim)."""
        return SweptHull(self.vertices @ pose.rotation.T + pose.translation,
                         self.radius)


def _radius(radius):
    r = float(radius)
    if not (math.isfinite(r) and r >= 0.0):
        raise ValueError("radius must be finite and nonnegative")
    return r


def Sphere(center, radius):
    """Ball of ``radius`` around ``center``."""
    return SweptHull(_as_vec(center)[None, :], _radius(radius))


def point_body(position):
    """A single point as a degenerate sphere."""
    return Sphere(position, 0.0)


def Capsule(p0, p1, radius):
    """Segment from ``p0`` to ``p1`` swept by a ball of ``radius``."""
    p0 = _as_vec(p0)
    return SweptHull(np.stack([p0, _as_vec(p1, p0.shape[0])]),
                     _radius(radius))


def Polytope(vertices):
    """Convex hull of an explicit (k, dim) vertex list."""
    V = np.asarray(vertices, dtype=float)
    if V.ndim != 2 or V.shape[0] == 0:
        raise ValueError("vertices must be a nonempty (k, dim) array")
    if not np.all(np.isfinite(V)):
        raise ValueError("vertices must be finite")
    return SweptHull(V, 0.0)


def box(half_extents, center=None):
    """Axis-aligned box as a Polytope."""
    h = _as_vec(half_extents)
    dim = h.shape[0]
    corners = np.array(list(itertools.product(*[(-e, e) for e in h])))
    if center is not None:
        corners = corners + _as_vec(center, dim)
    return Polytope(corners)


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
         seed_direction=None, start=None):
    """GJK distance between the origin and a convex set given by supports.

    ``support_pair(v)`` returns (p, a, b): the support point p of the set in
    direction v plus auxiliary witness payloads a, b carried through the
    barycentric combination. ``seed_direction`` estimates the set's position
    relative to the origin (e.g. a difference of centres); the first support
    is taken in the opposite direction, on the near side. ``start``, an
    entry (p, a, b) with p a point of the set near the closest one, replaces
    that first support.

    Returns (distance, closest_point, witness_a, witness_b, lower_bound).
    Distance 0 means the origin is inside (or within tolerance of) the set.
    The distance |v| of the closest-point estimate v bounds the true one
    from above; ``lower_bound`` = max(0, v.s(-v)) / |v|, with s(-v) the
    last support, bounds it from below (every point x of the set has
    |x| >= u.x >= u.s(-u) for the unit u along v), and the two meet at
    convergence. The estimate also stops where |v|^2 no longer decreases
    (the roundoff floor); reaching ``max_iter`` raises GeometryError.
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
        simplex.append(p)
        entries.append(entry)
        w, lam_w, keep = _closest_on_simplex(simplex)
        nw2 = _dot(w, w)
        if nw2 >= nv2:
            # No progress (roundoff on a thin simplex): keep the estimate,
            # whose last support still gives the lower bound.
            simplex.pop()
            entries.pop()
            break
        entries = [entries[i] for i in keep]
        simplex = [simplex[i] for i in keep]
        v, lam, nv2 = w, lam_w, nw2
    else:
        raise GeometryError(
            f"GJK did not converge within {max_iter} iterations")
    wa, wb = _combine(entries, lam, 0), _combine(entries, lam, 1)
    if nv2 <= tol * tol:
        return 0.0, np.array(v[:dim]), wa, wb, 0.0
    dist = math.sqrt(nv2)
    return dist, np.array(v[:dim]), wa, wb, max(0.0, vp) / dist


def _combine(entries, lam, slot):
    out = None
    for w, e in zip(lam, entries):
        part = e[1 + slot]
        if part is None:
            return None
        out = w * part if out is None else out + w * part
    return out


def _pair_support(body_a, body_b, M):
    """Support-pair function for M @ (A - B) with witness tracking."""
    MT = M.T

    def sp(v):
        w = MT @ v
        a = body_a._support(w)
        b = body_b._support(-w)
        return M @ (a - b), a, b
    return sp


def convex_hull(points):
    """Qhull's convex hull of the rows of ``points``, or None when they are
    flat (fewer than dim + 1 affinely independent points).

    ``equations`` rows are [n, offset] with n the unit outward normal and
    n.x + offset <= 0 on the hull; ``simplices`` triangulate its facets.
    SciPy's spatial module is imported here, on first use, because
    importing it costs more than importing the rest of ccplan.
    """
    from scipy.spatial import ConvexHull, QhullError
    try:
        return ConvexHull(points)
    except QhullError:
        return None


# ---------------------------------------------------------------------------
# Public queries
# ---------------------------------------------------------------------------

def distance(body_a, body_b, tolerance=1e-9):
    """Signed distance between two bodies.

    Positive: separation distance, from GJK on the difference vertices
    W = {a_i - b_j} of the cores (the hulls before the radii are added).
    Non-positive: minus the penetration depth, exact from the facet planes
    of conv(W). The normal is the unit direction from A into B; translating
    A by ``signed_distance * normal`` brings the bodies into touching
    contact, and witness_a - witness_b = -signed_distance * normal.
    """
    if tolerance <= 0:
        raise ValueError("tolerance must be positive")
    if body_a.dim != body_b.dim:
        raise ValueError("dimension mismatch")
    Va, Vb = body_a.vertices, body_b.vertices
    ra, rb = body_a.radius, body_b.radius
    dim = Va.shape[1]
    W = (Va[:, None, :] - Vb[None, :, :]).reshape(-1, dim)
    nb = Vb.shape[0]

    def sp(v):
        i = int(np.argmax(W @ v))
        return W[i], Va[i // nb], Vb[i % nb]

    seed = Va.mean(axis=0) - Vb.mean(axis=0)
    dist, v, wa, wb, _ = _gjk(sp, dim, tol=tolerance, seed_direction=seed)
    if dist > tolerance:
        # v points from B-side toward A-side: witness direction A -> B is -v.
        n = -v / dist
        return DistanceResult(dist - ra - rb, wa + ra * n, wb - rb * n, n)
    hull = convex_hull(W)
    if hull is None:
        # Flat core difference (e.g. coincident sphere centres): zero core
        # penetration, with a deterministic normal.
        depth = 0.0
        nv = float(np.dot(v, v))
        if nv > tolerance * tolerance:
            n = -v / math.sqrt(nv)
        else:
            n = np.zeros(dim)
            n[0] = 1.0
    else:
        depth, n, s, lam = _nearest_facet_point(hull, W, tolerance)
        wa, wb = lam @ Va[s // nb], lam @ Vb[s % nb]
    # Translating A by -depth * n separates the cores, so n points A -> B.
    return DistanceResult(-depth - ra - rb, wa + ra * n, wb - rb * n, n)


def _nearest_facet_point(hull, W, tolerance):
    """The facet plane of conv(W) nearest the origin (which lies within
    ``tolerance`` of the hull): (depth, unit outward normal n, indices,
    weights), with depth * n, the origin's projection on that plane, the
    combination sum(weights * W[indices]) over one facet simplex.

    Qhull splits a facet into simplices (a box face into two triangles),
    each carrying the facet's plane, so the simplex is chosen among all on
    the nearest plane: the one whose barycentric coordinates of depth * n
    have the largest minimum.
    """
    eq = hull.equations
    j = int(np.argmax(eq[:, -1]))
    n, depth = eq[j, :-1], -float(eq[j, -1])
    p = depth * n
    slack = tolerance * max(1.0, abs(depth))
    best = None
    for k in np.flatnonzero((eq[:, -1] >= eq[j, -1] - slack)
                            & (eq[:, :-1] @ n >= 1.0 - tolerance)):
        s = hull.simplices[k]
        P = W[s]
        # Affine coordinates within the simplex; the normal column takes
        # up the plane's roundoff.
        A = np.column_stack([*(P[1:] - P[0]), n])
        mu = np.linalg.lstsq(A, p - P[0], rcond=None)[0][:-1]
        lam = np.concatenate([[1.0 - mu.sum()], mu])
        if best is None or lam.min() > best[1].min():
            best = (s, lam)
    s, lam = best
    lam = np.maximum(lam, 0.0)
    return depth, n, s, lam / lam.sum()


def intersects(body_a, body_b, tolerance=1e-9):
    """True iff the bodies overlap (signed distance <= tolerance)."""
    return distance(body_a, body_b, tolerance).signed_distance <= tolerance


def mahalanobis_contact(body_a, body_b, chol_sigma, tolerance=1e-12,
                        chol_inv=None, guess=None):
    """Certified minimum squared Mahalanobis norm of (a - b), a in A, b in B.

    ``chol_sigma`` is the lower Cholesky factor of the metric covariance;
    callers that query one covariance many times pass its inverse as
    ``chol_inv``. ``guess`` optionally gives points a in A and b in B near
    the minimizing pair (the Euclidean witness pair is exact for an
    isotropic covariance); the search starts there.
    Returns (c, witness_a, witness_b). c is the square of GJK's supporting-
    plane lower bound, so it never exceeds the true minimum
    c* = min (a-b)^T Sigma^{-1} (a-b); the witness pair's value exceeds c
    by at most GJK's duality gap (``tolerance``, relative). c == 0 means
    the bodies intersect.
    """
    L_inv = np.linalg.inv(chol_sigma) if chol_inv is None else chol_inv
    sp = _pair_support(body_a, body_b, L_inv)
    start = seed = None
    if guess is None:
        seed = L_inv @ (body_a.center() - body_b.center())
    else:
        a, b = guess
        start = (L_inv @ (a - b), a, b)
    _, _, wa, wb, lb = _gjk(sp, body_a.dim, tol=tolerance,
                            seed_direction=seed, start=start)
    return lb * lb, wa, wb
