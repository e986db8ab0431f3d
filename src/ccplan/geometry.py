"""Sphere-swept hulls, an exact batched distance kernel with exact
penetration, and Mahalanobis contact.

Every body is a convex hull of vertices swept by a ball (a point, sphere,
capsule, box or hull), so one support mapping and one distance kernel
serve every shape. Each core (the hull before the radius is added) carries
its boundary complex (``Boundary``): vertex index pairs (edges) and, in
3D, triples (triangles) that cover its boundary, built on first use and
shared by every rigid placement. ``Boundary`` is the one place Qhull runs,
for hull cores; a box lays out its own complex, and dim or fewer points
need none. The distance kernel takes the closest pair over the candidate
features of a stack of placements of one core and a fixed one: vertices
projected on segments, interior pairs of edges, and in 3D vertices over
triangle interiors. The fixed body keeps the constants of its features
(edge and triangle vectors, normals, dual vectors) from its first query,
each candidate's squared distance comes from dot products with them, and
only the winner's witness pair is formed. The pair is a separation only
when the supporting planes normal to it are apart, which proves the cores
disjoint; otherwise (touching, containment, or an edge piercing a face)
the penetration depth and normal come exactly from support values along
candidate axes. The Monte Carlo hit test runs this kernel too, on the link
moved by minus the obstacle's displacement. The
Mahalanobis query runs GJK in whitened coordinates, where a sphere becomes
an ellipsoid, and returns a certified lower bound; every search solves the
cores first, then the ellipsoid term exactly on each core face (in closed
form on a hyperplane, from a scalar secular equation on a vertex or a 3D
line), so a full covariance costs about one verifying support per search,
as an isotropic one does. A search runs on 3-component float lists, its
supports included: bodies have a few vertices, and NumPy's per-call cost
exceeds the arithmetic on so few.
``mahalanobis_contacts`` takes GJK's first iteration for a stack of
placements at once, from their Euclidean witness pairs; a lane that the
first support leaves open runs the same search as a single query.

Workspace dimension is 2 or 3 and is carried by each body.
"""

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

GJK_MAX_ITER = 128
# Relative duality gap at which the whitened (Mahalanobis) searches stop;
# ``mahalanobis_contact`` and ``mahalanobis_contacts`` share it, so a batched
# lane and the cold search of the same pair close the same gap.
WHITENED_GAP_TOL = 1e-12
# Core distance at or below which ``distances`` takes the exact penetration
# path, and signed distance at or below which ``intersects`` reports overlap.
CONTACT_TOL = 1e-9


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
        return Pose._trusted(np.eye(dim), np.zeros(dim))

    @staticmethod
    def planar(angle, translation):
        """The 2D pose turning by ``angle``: its rotation is orthogonal by
        construction, so only the angle and translation are checked."""
        if not math.isfinite(angle):
            raise ValueError("angle must be finite")
        c, s = math.cos(angle), math.sin(angle)
        return Pose._trusted(np.array([[c, -s], [s, c]]),
                             _as_vec(translation, 2))

    @staticmethod
    def _trusted(R, t):
        """Construct without validating: products of valid poses, and
        rotations that are proper by construction."""
        p = object.__new__(Pose)
        object.__setattr__(p, "rotation", R)
        object.__setattr__(p, "translation", t)
        return p


@dataclass(eq=False)
class SweptHull:
    """conv(vertices) swept by a ball of ``radius``: every body of ccplan.

    Points, spheres, capsules, boxes and hulls are all of this form, so one
    support mapping and one distance kernel serve every shape. Build bodies
    with the validating constructors below (``Sphere``, ``Capsule``,
    ``Polytope``, ``box``, ``point_body``) and place them with ``posed``;
    the class itself trusts its arguments. ``posed`` copies share the
    boundary complex, which rigid motion leaves unchanged. A body is not
    changed after construction: the distance kernel caches the constants
    of its features on the body the first time it is the fixed body of a
    query, and the whitened searches its vertex rows as float lists.
    """

    vertices: np.ndarray    # (k, dim) floats
    radius: float
    boundary: "Boundary" = field(default=None, repr=False)

    def __post_init__(self):
        if self.boundary is None:
            self.boundary = Boundary(self.vertices)

    @property
    def dim(self):
        return self.vertices.shape[1]

    @cached_property
    def _features(self):
        """The core's ``_Features``, built on the first ``distances`` query
        against this body."""
        return _Features(self.vertices, self.boundary)

    @cached_property
    def _rows(self):
        """The vertices as 3-component float lists (z = 0 in 2D), which
        the whitened searches' supports scan; built on the first search
        of this body."""
        pad = [0.0] * (3 - self.dim)
        return [r + pad for r in self.vertices.tolist()]

    def _support(self, v):
        """Farthest point of the body along the nonzero float vector
        ``v``."""
        V = self.vertices
        p = V[(V @ v).argmax()]
        if self.radius == 0.0:
            return p
        return p + (self.radius / math.sqrt(float(v @ v))) * v

    def center(self):
        """The vertex centroid, an interior point; seeds iterative queries."""
        return self.vertices.sum(axis=0) / len(self.vertices)

    def posed(self, pose):
        """The body placed in the workspace by ``pose`` (of the same dim)."""
        return SweptHull(self.vertices @ pose.rotation.T + pose.translation,
                         self.radius, self.boundary)


class Boundary:
    """The boundary complex of a point set conv(V): ``edges``, (E, 2)
    vertex index pairs, and ``triangles``, (F, 3) index triples (none in
    2D), whose segments and triangles cover the boundary and lie in the
    hull. Every vertex is also a zero-length edge (i, i).

    A full-dimensional hull takes Qhull's facet simplices (in 3D, the
    triangles and every edge of them, once). A flat one (at most dim
    points, or Qhull finds no volume) takes every vertex pair and, in 3D,
    the fan triangles (V[0], V[i], V[j]); conv(V) is star-shaped about
    V[0], so by Caratheodory they cover it. Built on first use, since
    Qhull needs SciPy's spatial module. A caller that knows the complex
    (``box``) passes ``faces``, the (edges, triangles) pair without the
    zero-length edges, and Qhull does not run.
    """

    def __init__(self, vertices, faces=None):
        self._vertices = vertices
        if faces is not None:
            self._faces = faces

    @cached_property
    def hull(self):
        """Qhull's convex hull of the vertices, or None when they are flat
        (fewer than dim + 1 affinely independent points): the only Qhull
        call of ccplan, for the cores whose complex no constructor lays
        out. ``simplices`` triangulate its facets, and ``neighbors`` pairs
        them across their edges. SciPy's spatial module is imported here,
        on first use, because importing it costs more than importing the
        rest of ccplan.
        """
        V = self._vertices
        if len(V) <= V.shape[1]:
            return None
        from scipy.spatial import ConvexHull, QhullError
        try:
            return ConvexHull(V)
        except QhullError:
            return None

    @cached_property
    def _faces(self):
        V = self._vertices
        m, dim = V.shape
        none = np.zeros((0, 3), dtype=int)
        if m == 1:
            return np.zeros((0, 2), dtype=int), none
        hull = self.hull
        if hull is not None and dim == 2:
            return hull.simplices, none
        if hull is not None:
            # Each edge is shared by two triangles: keep it once.
            S, nbr = hull.simplices, hull.neighbors
            edges = [np.delete(S, k, axis=1)[np.arange(len(S)) < nbr[:, k]]
                     for k in range(3)]
            return np.sort(np.concatenate(edges), axis=1), S
        edges = np.stack(np.triu_indices(m, 1), axis=1)
        if dim == 2:
            return edges, none
        fan = edges[edges[:, 0] > 0]
        return edges, np.insert(fan, 0, 0, axis=1)

    @cached_property
    def edges(self):
        points = np.arange(len(self._vertices))
        return np.concatenate([self._faces[0],
                               np.stack([points, points], axis=1)])

    @cached_property
    def segments(self):
        """The edges of positive length in the complex, or the zero-length
        edge of a single point: the segments the distance kernel projects
        on, every vertex of the boundary being an end of one."""
        return self._faces[0] if len(self._faces[0]) else self.edges

    @property
    def triangles(self):
        return self._faces[1]

    @cached_property
    def key(self):
        """Equal for cores of the same topology, which can share one
        batched distance call. At most dim points are flat, and their
        complex follows from their count (``box``, the one caller that
        passes ``faces``, has more), so their key builds none."""
        m, dim = self._vertices.shape
        return m if m <= dim else (m, self.edges.tobytes(),
                                   self.triangles.tobytes())


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


# The boundary complex of a box, on its corners in ``itertools.product``
# order (corner i has coordinate j on the + side when bit dim - 1 - j of i
# is set). In 3D each face is split along its diagonal between the two
# corners with an even number of + sides, the edges of the inscribed
# tetrahedron (0, 3, 5, 6); the edges are the 12 box edges and these 6
# diagonals. Both are listed in the order Qhull reports them for every
# axis-aligned box, so that a box's distances are those of its Qhull
# complex bit for bit.
BOX_FACES = {
    2: (np.array([[2, 0], [1, 0], [3, 2], [3, 1]]),
        np.zeros((0, 3), dtype=int)),
    3: (np.array([[0, 2], [0, 4], [0, 1], [6, 7], [0, 6], [0, 5], [5, 7],
                  [0, 3], [3, 7], [2, 6], [4, 6], [4, 5], [1, 5], [5, 6],
                  [2, 3], [1, 3], [3, 6], [3, 5]]),
        np.array([[6, 2, 0], [6, 4, 0], [5, 4, 0], [5, 1, 0], [5, 6, 4],
                  [5, 6, 7], [3, 2, 0], [3, 1, 0], [3, 6, 2], [3, 6, 7],
                  [3, 5, 1], [3, 5, 7]])),
}


def box(half_extents, center=None):
    """Axis-aligned box as a Polytope, with its boundary complex
    (``BOX_FACES``) built without Qhull."""
    h = _as_vec(half_extents)
    dim = h.shape[0]
    corners = np.array(list(itertools.product(*[(-e, e) for e in h])))
    if center is not None:
        corners = corners + _as_vec(center, dim)
    body = Polytope(corners)
    body.boundary = Boundary(body.vertices, BOX_FACES.get(dim))
    return body


@dataclass
class DistanceResult:
    """Signed distance with witness points and a unit normal from A into B;
    from ``distances``, arrays with a leading axis over the stack."""

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
            # Normalized by their own sum, not by mu, which cancellation
            # on a thin triangle sets apart from it: the coordinates stay
            # convex, so the witness payloads stay in their bodies.
            total = C[0] + C[1] + C[2]
            return o, [cr / total for cr in C], [i, j, k]
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


def _gjk(support_pair, dim, tol, max_iter=GJK_MAX_ITER, seed_direction=None):
    """GJK distance between the origin and a convex set given by supports,
    to the relative duality gap ``tol``.

    The search runs on 3-component float lists; a 2D problem lies in the
    z = 0 plane. ``support_pair(v)`` takes a direction v as such a list
    and returns (p, a, b, ...): the support point p of the set along v
    plus witness payloads a, b, float lists carried through the
    barycentric combination (a ``_PairSupport`` adds the cores' part, for
    the face solve). The witnesses become arrays once, at the return.
    ``seed_direction``, a ``dim``-array, estimates the set's position
    relative to the origin (e.g. a difference of centres); the first
    support is taken in the opposite direction, on the near side.

    A search on a rounded whitened difference (a ``_PairSupport`` with a
    radius) solves the cores first, in the same loop: their difference is
    a polytope, on which GJK terminates finitely. The loop then goes on
    with full supports, each carrying its core part, and after the core
    phase and after each accepted full step it solves the ellipsoid term
    exactly on the current core face (``_face_step``): the simplex's core
    points, each shifted by the ball term's support along the face's
    optimal direction, replace the simplex when they lower |v|. When the
    face is the one that holds the minimizer, the next full support closes
    the gap; under an isotropic covariance that is the core phase's face,
    so one full support closes the search.

    Returns (distance, closest_point, witness_a, witness_b, lower_bound),
    the points as ``dim``-arrays. Distance 0 means the origin is inside
    (or within tolerance of) the set; cores that intersect give 0 from the
    first phase. The distance |v| of the closest-point estimate v bounds
    the true one from above; ``lower_bound`` = max(0, v.s(-v)) / |v|, with
    s(-v) the last support, always a full one, bounds it from below (every
    point x of the set has |x| >= u.x >= u.s(-u) for the unit u along v),
    and the two meet at convergence. A phase also ends where |v|^2 no
    longer decreases (the roundoff floor); reaching ``max_iter`` raises
    GeometryError. There the full phase keeps the larger of that bound and
    u.s(-u) / |u| for the stalled closest point u of the simplex, which
    may point nearer.
    """
    rounded = getattr(support_pair, "rounded", False)
    support = support_pair.core if rounded else support_pair
    full = not rounded
    d = [1.0, 0.0, 0.0]
    if seed_direction is not None:
        seed = seed_direction.tolist() + [0.0] * (3 - dim)
        if _dot(seed, seed) >= 1e-18:
            d = seed
    entries = [support([-d[0], -d[1], -d[2]])]
    simplex = [entries[0][0]]
    v, lam = simplex[0], [1.0]
    nv2 = _dot(v, v)
    stall_bound = 0.0
    for _ in range(max_iter):
        if nv2 <= tol * tol:
            break
        entry = support([-v[0], -v[1], -v[2]])
        p = entry[0]
        vp = _dot(v, p)
        # Relative duality-gap test (an absolute test loses accuracy near
        # tangency, where nv2 itself is tiny), with a floor at roundoff.
        if nv2 - vp > tol * nv2 + 1e-14:
            simplex.append(p)
            entries.append(entry)
            w, lam_w, keep = _closest_on_simplex(simplex)
            nw2 = _dot(w, w)
            if nw2 >= nv2:
                # Roundoff on a thin simplex can drop the new point, along
                # which the estimate improves in exact arithmetic: take the
                # best face through it instead.
                u, nu2 = w, nw2
                nw2, w, lam_w, keep = _closest_through_last(simplex)
            if nw2 < nv2:
                entries = [entries[i] for i in keep]
                simplex = [simplex[i] for i in keep]
                v, lam, nv2 = w, lam_w, nw2
                if full and rounded and nv2 > tol * tol:
                    step = _face_step(support_pair, entries, nv2, dim)
                    if step is not None:
                        entries, simplex, v, lam, nv2 = step
                continue
            # No progress even so (the improvement is below the roundoff
            # of |v|^2) ends the phase as a closed gap does: the estimate
            # stays, and its last support still gives the lower bound.
            simplex.pop()
            entries.pop()
            if full:
                pu = support([-u[0], -u[1], -u[2]])[0]
                stall_bound = max(0.0, _dot(u, pu)) / math.sqrt(nu2)
        if full:
            break
        # The cores are solved. Each core point is a point of the set (the
        # ball term holds the origin), and is its own core part.
        full, support = True, support_pair
        entries = [(x, a, b, (x, a, b)) for x, a, b in entries]
        step = _face_step(support_pair, entries, nv2, dim)
        if step is not None:
            entries, simplex, v, lam, nv2 = step
    else:
        raise GeometryError(
            f"GJK did not converge within {max_iter} iterations")
    wa = np.array(_combine(entries, lam, 1)[:dim])
    wb = np.array(_combine(entries, lam, 2)[:dim])
    if nv2 <= tol * tol:
        return 0.0, np.array(v[:dim]), wa, wb, 0.0
    dist = math.sqrt(nv2)
    return (dist, np.array(v[:dim]), wa, wb,
            max(max(0.0, vp) / dist, stall_bound))


def _face_step(support_pair, entries, nv2, dim):
    """The ellipsoid term solved exactly on the simplex's core face.

    ``entries`` are full-phase simplex entries (p, a, b, (x, a_core,
    b_core)), x the point's core part, all float lists. With F the affine
    hull of the distinct core points and E the whitened ball term,
    ``_face_direction`` gives the direction of the least point of F + E;
    the ball term's support e along minus it shifts every core point, and
    the closest point of the shifted simplex, a point of the set, is that
    least point when its core part lies in the simplex. When it lies
    outside, the closest point falls on a smaller face, which is solved in
    turn. Returns the best (entries, simplex, v, lambdas, |v|^2) found
    when it lowers |v|^2 below ``nv2``, else None.
    """
    cores, points = [], []
    for entry in entries:
        core = entry[3]
        if core[0] not in points:
            cores.append(core)
            points.append(core[0])
    best = None
    while True:
        u = _face_direction(points, dim, support_pair.axes,
                            support_pair.radius)
        if u is None:
            return best
        (e0, e1, e2), ea, eb = support_pair.ball([-u[0], -u[1], -u[2]])
        simplex = [[x0 + e0, x1 + e1, x2 + e2] for x0, x1, x2 in points]
        v, lam, keep = _closest_on_simplex(simplex)
        nw2 = _dot(v, v)
        if nw2 < nv2:
            nv2 = nw2
            best = ([(simplex[i], _add(cores[i][1], ea),
                      _add(cores[i][2], eb), cores[i]) for i in keep],
                    [simplex[i] for i in keep], v, lam, nw2)
        if len(keep) == len(points):
            return best
        cores = [cores[i] for i in keep]
        points = [points[i] for i in keep]


def _face_direction(points, dim, axes, radius):
    """A positive multiple of the least point of F + E, F the affine hull of
    ``points`` (one to three distinct 3-vectors as float lists) and E =
    {z : z = M x, |x| <= radius} the whitened ball term, whose principal
    ``axes`` come from ``ellipsoid_axes``; None when F passes through the
    origin.

    The foot f of F, its point nearest the origin, is normal to F. When F
    is a hyperplane (codimension 1), the least point of F + E is f - h_E(f)
    f / |f|, and when E is a ball (equal eigenvalues) it lies along f too:
    in both cases the direction is the foot itself, which after the core
    phase is the core phase's closest point, bit for bit. A vertex, or a
    segment's line in 3D, under an anisotropic E, takes the secular
    equation of ``_ellipsoid_direction``.
    """
    foot, edge, rank = _affine_foot(points)
    if not any(foot):
        return None
    values = axes[1]
    if rank == dim - 1 or values[0] == values[1] == values[2]:
        return foot
    return _ellipsoid_direction(foot, edge, axes, radius)


def _affine_foot(P):
    """(foot, edge, rank) of the affine hull of the distinct 3-vectors P
    (one to three float lists): its point nearest the origin, its direction
    when it is a line (else None), and its dimension. Three collinear
    points span the line through the farthest two, and two that coincide
    to roundoff count as one.

    The foot is computed as ``_closest_on_segment`` and
    ``_closest_on_triangle`` compute their projection, so that the foot
    of the face on which the core phase ends is its closest point v, bit
    for bit.
    """
    if len(P) == 3:
        a, b, c = P
        abx, aby, abz = b[0] - a[0], b[1] - a[1], b[2] - a[2]
        acx, acy, acz = c[0] - a[0], c[1] - a[1], c[2] - a[2]
        n = (aby * acz - abz * acy, abz * acx - abx * acz,
             abx * acy - aby * acx)
        nn = _dot(n, n)
        if nn > 1e-20 * (abx * abx + aby * aby + abz * abz) * (
                acx * acx + acy * acy + acz * acz):
            s = _dot(a, n) / nn
            return [s * n[0], s * n[1], s * n[2]], None, 2
        P = max(((a, b), (a, c), (b, c)),
                key=lambda e: sum((x - y) ** 2 for x, y in zip(*e)))
    if len(P) == 2:
        (ax, ay, az), (bx, by, bz) = P
        ex, ey, ez = bx - ax, by - ay, bz - az
        ee = ex * ex + ey * ey + ez * ez
        if ee > 1e-24 * (ax * ax + ay * ay + az * az):
            t = -(ax * ex + ay * ey + az * ez) / ee
            return ([ax + t * ex, ay + t * ey, az + t * ez], [ex, ey, ez],
                    1)
    return P[0], None, 0


# Newton steps of the face solve's secular equation, and its tolerance on
# |e|_E / r - 1 at the multiplier it returns.
SECULAR_MAX_ITER = 32
SECULAR_TOL = 1e-14


def _ellipsoid_direction(foot, edge, axes, radius):
    """The direction of the least point of F + E, F the point ``foot`` or
    the line through it along ``edge`` (foot the line's point nearest the
    origin), E = {z : z^T A z <= r^2} with A^-1 = M M^T = sum_i s_i u_i
    u_i^T (``axes``: the unit u_i and the s_i, largest first).

    For a multiplier mu >= 0 the nearest point of E to -f is
    e = -(I + mu A)^-1 f, and the least point v = f + e is, in the axes,
    v_i = mu w_i f_i with w_i = 1 / (s_i + mu). On a line, f = foot +
    tau edge with tau making v orthogonal to the edge. The secular
    equation |e|_E^2 = sum_i s_i (w_i f_i)^2 = r^2 has its root where the
    dual of min |f + e| is stationary, so its left side decreases in mu;
    Newton's method on 1/|e|_E - 1/r (More & Sorensen, 1983) climbs to
    the root, bisection guarding the bracket. It starts where the bound
    |e|_E >= sqrt(s_min) |foot| / (s_max + mu) (|f| >= |foot|) reaches r,
    which is the root itself when every s_i is equal. When -f already
    lies in E at mu = 0, F + E holds the origin, and the direction is the
    foot.

    The direction is returned as v / (mu w_0) = f + sum_i (w_i / w_0 - 1)
    f_i u_i. A 2D problem's third axis (z) meets no point, since its f_i
    and edge_i are zero.
    """
    (u0, u1, u2), (s0, s1, s2) = axes
    f0, f1, f2 = _dot(u0, foot), _dot(u1, foot), _dot(u2, foot)
    line = edge is not None
    if line:
        d0, d1, d2 = _dot(u0, edge), _dot(u1, edge), _dot(u2, edge)
    mu = max(0.0, math.sqrt(min(s1, s2) * _dot(foot, foot)) / radius - s0)
    if mu == math.inf:
        # E is negligible beside F (a radius near underflow): every w_i is
        # equal in the limit, and the least point lies along the foot.
        return foot
    lo, hi, tau = 0.0, math.inf, 0.0
    g0, g1, g2 = f0, f1, f2
    for _ in range(SECULAR_MAX_ITER):
        w0, w1, w2 = 1.0 / (s0 + mu), 1.0 / (s1 + mu), 1.0 / (s2 + mu)
        if line:
            den = w0 * d0 * d0 + w1 * d1 * d1 + w2 * d2 * d2
            # foot.edge = 0 removes w0 (f.edge) from the numerator.
            tau = -((w1 - w0) * d1 * f1 + (w2 - w0) * d2 * f2) / den
            g0, g1, g2 = f0 + tau * d0, f1 + tau * d1, f2 + tau * d2
        x0, x1, x2 = w0 * g0, w1 * g1, w2 * g2
        q = s0 * x0 * x0 + s1 * x1 * x1 + s2 * x2 * x2
        rho = math.sqrt(q) / radius     # |e|_E / r
        if rho <= 1.0:
            if mu == 0.0:
                return foot
            hi = mu
        else:
            lo = mu
        if abs(rho - 1.0) <= SECULAR_TOL:
            break
        # dq/dmu, with dtau/dmu = sum w_i d_i x_i / den on a line.
        if line:
            dt = (w0 * d0 * x0 + w1 * d1 * x1 + w2 * d2 * x2) / den
            dq = 2.0 * (s0 * x0 * w0 * (dt * d0 - x0)
                        + s1 * x1 * w1 * (dt * d1 - x1)
                        + s2 * x2 * w2 * (dt * d2 - x2))
        else:
            dq = -2.0 * (s0 * x0 * x0 * w0 + s1 * x1 * x1 * w1
                         + s2 * x2 * x2 * w2)
        if dq >= 0.0:
            break
        nxt = mu + 2.0 * q * (1.0 - rho) / dq
        if not lo < nxt < hi:
            nxt = 0.5 * (lo + hi)
        if nxt == mu or nxt == math.inf:
            break
        mu = nxt
    c1, c2 = (w1 / w0 - 1.0) * g1, (w2 / w0 - 1.0) * g2
    if line:
        foot = [foot[0] + tau * edge[0], foot[1] + tau * edge[1],
                foot[2] + tau * edge[2]]
    return [foot[0] + c1 * u1[0] + c2 * u2[0],
            foot[1] + c1 * u1[1] + c2 * u2[1],
            foot[2] + c1 * u1[2] + c2 * u2[2]]


def ellipsoid_axes(U, s):
    """The ``axes`` of the face solve for the whitening map M = U diag(s)
    V^T (an SVD of L^-1): the unit eigenvectors u_i of M M^T, the columns
    of U, as 3-component float lists, and their eigenvalues s_i^2. A 2D
    problem gets z as its third axis, with the first eigenvalue."""
    dim = len(s)
    rows = [U[:, k].tolist() + [0.0] * (3 - dim) for k in range(dim)]
    values = [float(x) * float(x) for x in s]
    if dim == 2:
        rows.append([0.0, 0.0, 1.0])
        values.append(values[0])
    return rows, values


def _closest_through_last(points):
    """The nearest of the faces of ``points`` that hold the last point, each
    without one of the others, by ``_closest_on_simplex``: (|w|^2, w,
    lambdas, keep), keep indexing ``points``."""
    best = None
    for drop in range(len(points) - 1):
        sub = [i for i in range(len(points)) if i != drop]
        w, lam, keep = _closest_on_simplex([points[i] for i in sub])
        w2 = _dot(w, w)
        if best is None or w2 < best[0]:
            best = (w2, w, lam, [sub[i] for i in keep])
    return best


def _add(u, v):
    return [u[0] + v[0], u[1] + v[1], u[2] + v[2]]


def _combine(entries, lam, slot):
    """sum_i lam_i entries[i][slot], a witness of the simplex's
    combination, as a float list."""
    x = y = z = 0.0
    for w, e in zip(lam, entries):
        p = e[slot]
        x += w * p[0]
        y += w * p[1]
        z += w * p[2]
    return [x, y, z]


def _farthest(rows, w0, w1, w2):
    """The first of ``rows`` (3-component float lists) farthest along
    (w0, w1, w2): a body's support point, in time linear in its
    vertices."""
    best, top = rows[0], -math.inf
    for r in rows:
        x, y, z = r
        d = x * w0 + y * w1 + z * w2
        if d > top:
            best, top = r, d
    return best


def whitening_rows(M):
    """The rows of M and of M^T as 3-component float lists, padded to
    3 x 3 with zeros in 2D, as ``_PairSupport`` applies them."""
    pad = [0.0] * (3 - len(M))
    zero = [[0.0, 0.0, 0.0] for _ in pad]
    return ([r + pad for r in M.tolist()] + zero,
            [r + pad for r in M.T.tolist()] + zero)


class _PairSupport:
    """Supports of the whitened swept difference Y = M (A - B) - q, with
    witness tracking, all on 3-component float lists: a 2D problem lies
    in the z = 0 plane (the bodies' ``_rows``, M's ``whitening_rows`` and
    q are padded with zeros), so its points keep z = 0 exactly. Called on
    a direction v, it returns (p, a, b, core), p the support point of Y
    along v, a, b the points of A and B with p = M (a - b) - q, and
    core = (x, a_core, b_core) the cores' support points along v and
    their whitened difference x, which the face solve shifts.

    Y is the core difference M (core A - core B) - q plus the ball term
    M B(r_A + r_B), an ellipsoid, and a support of Y is the sum of theirs:
    ``core(v)`` gives the cores' (p, a, b) and ``ball(v)`` the ball term's
    (its p without q), and the call adds them (without a radius the ball
    term is the origin). A support scans every vertex of both bodies, so
    it costs time linear in their count. ``rows`` are M's
    ``whitening_rows`` when the caller holds them, and ``axes`` the ball
    term's principal axes (``ellipsoid_axes`` of M), computed here from
    one SVD of M when the caller has none.
    """

    def __init__(self, body_a, body_b, M, q=None, axes=None, rows=None):
        self._va, self._vb = body_a._rows, body_b._rows
        self._ra, self._rb = body_a.radius, body_b.radius
        self._m, self._mt = whitening_rows(M) if rows is None else rows
        self._q = ([0.0, 0.0, 0.0] if q is None
                   else q.tolist() + [0.0] * (3 - len(q)))
        self.radius = self._ra + self._rb
        self.rounded = self.radius > 0.0
        if axes is None and self.rounded:
            axes = ellipsoid_axes(*np.linalg.svd(M)[:2])
        self.axes = axes

    def _whiten(self, v):
        """M^T v, the direction along which the bodies are searched."""
        (t0, t1, t2), (u0, u1, u2), (s0, s1, s2) = self._mt
        v0, v1, v2 = v
        return (t0 * v0 + t1 * v1 + t2 * v2, u0 * v0 + u1 * v1 + u2 * v2,
                s0 * v0 + s1 * v1 + s2 * v2)

    def _core(self, w0, w1, w2):
        a = _farthest(self._va, w0, w1, w2)
        b = _farthest(self._vb, -w0, -w1, -w2)
        x0, x1, x2 = a[0] - b[0], a[1] - b[1], a[2] - b[2]
        (m0, m1, m2), (n0, n1, n2), (k0, k1, k2) = self._m
        q0, q1, q2 = self._q
        return ([m0 * x0 + m1 * x1 + m2 * x2 - q0,
                 n0 * x0 + n1 * x1 + n2 * x2 - q1,
                 k0 * x0 + k1 * x1 + k2 * x2 - q2], a, b)

    def _ball(self, w0, w1, w2):
        n = math.sqrt(w0 * w0 + w1 * w1 + w2 * w2)
        u0, u1, u2 = w0 / n, w1 / n, w2 / n
        ra, rb = self._ra, -self._rb
        a = [ra * u0, ra * u1, ra * u2]
        b = [rb * u0, rb * u1, rb * u2]
        x0, x1, x2 = a[0] - b[0], a[1] - b[1], a[2] - b[2]
        (m0, m1, m2), (n0, n1, n2), (k0, k1, k2) = self._m
        return ([m0 * x0 + m1 * x1 + m2 * x2, n0 * x0 + n1 * x1 + n2 * x2,
                 k0 * x0 + k1 * x1 + k2 * x2], a, b)

    def __call__(self, v):
        w0, w1, w2 = self._whiten(v)
        core = x, ac, bc = self._core(w0, w1, w2)
        if not self.rounded:
            return x, ac, bc, core
        e, ea, eb = self._ball(w0, w1, w2)
        return _add(x, e), _add(ac, ea), _add(bc, eb), core

    def core(self, v):
        return self._core(*self._whiten(v))

    def ball(self, v):
        return self._ball(*self._whiten(v))


# ---------------------------------------------------------------------------
# Exact batched distance kernel
# ---------------------------------------------------------------------------

# Least supporting-plane gap, relative to the magnitude of the coordinates,
# that proves two cores disjoint: far above the gap's roundoff.
SEPARATION_RTOL = 1e-12
# Elements of the kernel's largest (placements x candidate pairs x dim)
# temporaries per block of placements: a few megabytes.
DISTANCE_BLOCK = 1 << 16
# The least positive normal float: the kernel inverts a squared length or
# area only at or above it, so that the inverse stays finite (a segment
# shorter than about 1e-154 projects as its origin).
_TINY = np.finfo(float).tiny


def _dots(u, v):
    """Dot products over the first axis (the coordinates), broadcast."""
    return np.einsum("i...,i...->...", u, v)


def _rdots(u, v):
    """Dot products over the last axis (the coordinates), broadcast.
    ``einsum`` sums them alike for all arrays contiguous in that axis,
    whatever their leading shape, but in another order on other layouts;
    the kernel passes it only contiguous arrays, so that a placement's
    values do not depend on the stack it comes in."""
    return np.einsum("...i,...i->...", u, v)


def _products(X, R):
    """The dot products of the rows of X (..., m, dim) with the columns of
    R (..., dim, n), as (..., m, n). ``einsum`` accumulates each over the
    coordinates in order, whatever the number of rows, which a BLAS
    product does not promise (a single row takes another path), so a
    stack gives its single calls bit for bit."""
    return np.einsum("...md,...dn->...mn", X, R)


def _cross(u, v):
    """Cross products of coordinate-first 3-vectors, broadcast."""
    return np.stack([u[1] * v[2] - u[2] * v[1],
                     u[2] * v[0] - u[0] * v[2],
                     u[0] * v[1] - u[1] * v[0]])


def _rcross(u, v):
    """Cross products of 3-vectors on the last axis, broadcast, as a
    contiguous array."""
    return np.stack([u[..., 1] * v[..., 2] - u[..., 2] * v[..., 1],
                     u[..., 2] * v[..., 0] - u[..., 0] * v[..., 2],
                     u[..., 0] * v[..., 1] - u[..., 1] * v[..., 0]], axis=-1)


class _Triangles:
    """Projection constants of the triangles ``tri`` (F, 3) on the rows of
    V (..., k, 3). The columns of ``rhs`` (..., 3, 4F) are each triangle's
    unit normal and the dual vectors of its three corners: a point's
    products with them plus ``shift`` are its height over the triangle's
    plane and the barycentric coordinates of its foot there, so one
    product per point projects it on every triangle. The duals come from
    cross products (e1 x n / n.n for the second corner), which keep their
    accuracy on a thin triangle. A triangle without area (n.n at most
    1e-12 of |e0|^2 |e1|^2, or below ``_TINY``) holds no foot: its second
    coordinate is -1.
    """

    def __init__(self, V, tri):
        t0 = V[..., tri[:, 0], :]
        e0 = V[..., tri[:, 1], :] - t0
        e1 = V[..., tri[:, 2], :] - t0
        n = _rcross(e0, e1)
        nn = _rdots(n, n)
        area = (nn > 1e-12 * _rdots(e0, e0) * _rdots(e1, e1)) & (nn >= _TINY)
        inv = np.divide(1.0, nn, out=np.zeros_like(nn), where=area)
        d1 = _rcross(e1, n) * inv[..., None]
        d2 = _rcross(n, e0) * inv[..., None]
        cols = np.concatenate([n * np.sqrt(inv)[..., None], -(d1 + d2), d1,
                               d2], axis=-2)
        self.rhs = np.swapaxes(cols, -1, -2)
        shift = -_rdots(np.concatenate([t0] * 4, axis=-2), cols)
        F = len(tri)
        shift[..., F:2 * F] += 1.0
        shift[..., 2 * F:3 * F] = np.where(area, shift[..., 2 * F:3 * F],
                                           -1.0)
        self.shift = shift

    @staticmethod
    def squared(Q):
        """Squared heights over the triangles' planes of the points whose
        foot lies in the triangle, inf for the others, from the points'
        products with ``rhs`` plus ``shift``, Q (..., m, 4F)."""
        F = Q.shape[-1] // 4
        inside = np.minimum(np.minimum(Q[..., F:2 * F], Q[..., 2 * F:3 * F]),
                            Q[..., 3 * F:]) >= 0.0
        h = Q[..., :F]
        return np.where(inside, h * h, np.inf)


class _Features:
    """The constants of a fixed core's boundary features, for the distance
    kernel: conv(V) with complex ``boundary``, built once per body
    (``SweptHull._features``).

    Coordinates are taken from the vertex centroid ``centre`` (``local``
    holds the vertices there), so that the squared distances the kernel
    expands from dot products lose to roundoff no more than the square of
    the core's size and distance. ``rhs`` (dim, cols) stacks the vertices,
    the directions e of ``Boundary.segments`` (from origins o at indices
    ``origins``) and, in 3D, the ``_Triangles`` columns: a point x's
    products with it plus ``shift`` are x.v, e.(x - o) and the triangle
    heights and foot coordinates. ``ee`` and ``ree`` are e.e and its
    inverse (0 below ``_TINY``), ``vv`` v.v, ``oo`` o.o and
    ``reach`` the largest v.v. A vertex drops to its foot on a triangle
    through ``corners`` along ``normals`` (e0 x e1, in the body's own
    coordinates). ``magnitude``, max(1, |V|_max), is the body's part of
    the scale of the separation test (``_unseparated``).
    """

    def __init__(self, V, boundary):
        self.vertices = V
        self.centre = V.sum(axis=0) / len(V)
        L = self.local = V - self.centre
        self.segments = boundary.segments
        self.origins = self.segments[:, 0]
        o = L[self.origins]
        e = L[self.segments[:, 1]] - o
        self.ee = _rdots(e, e)
        self.ree = np.divide(1.0, self.ee, out=np.zeros_like(self.ee),
                             where=self.ee >= _TINY)
        self.vv = _rdots(L, L)
        self.oo = self.vv[self.origins]
        self.reach = float(self.vv.max())
        self.magnitude = max(1.0, float(np.abs(V).max()))
        cols, shift = [L, e], [np.zeros(len(L)), -_rdots(o, e)]
        tri = self.triangles = boundary.triangles
        if len(tri):
            planes = _Triangles(L, tri)
            cols.append(planes.rhs.T)
            shift.append(planes.shift)
            self.corners = V[tri[:, 0]]
            self.normals = _rcross(V[tri[:, 1]] - self.corners,
                                   V[tri[:, 2]] - self.corners)
        self.rhs = np.concatenate(cols).T
        self.shift = np.concatenate(shift)
        self._pairs = {}

    def pairs(self, boundary_a):
        """The ``_Pairs`` of the cores with complex ``boundary_a`` against
        this one, built once per topology."""
        pairs = self._pairs.get(boundary_a.key)
        if pairs is None:
            pairs = self._pairs[boundary_a.key] = _Pairs(boundary_a, self)
        return pairs


class _Pairs:
    """The candidate families of a core A (complex ``boundary_a``) against
    fixed features F, in the order ``_closest_block`` lays them out: pairs
    of A's edges and F's segments (interior solutions, when both cores
    have edges), F's vertices on A's edges, A's vertices on F's segments
    (unless F is a point and A has edges, whose ends then cover them), and
    in 3D A's vertices on F's triangles and F's vertices on A's triangles.
    ``ends`` holds the (a0, a1, b0, b1) vertex indices of the candidates of
    the segment families, a vertex being a zero-length segment; ``width``
    counts all candidates."""

    def __init__(self, boundary_a, F):
        ka, kb = len(boundary_a._vertices), len(F.vertices)
        self.edges = boundary_a._faces[0]
        self.triangles = boundary_a.triangles
        na, ns = len(self.edges), len(F.segments)
        self.pairs = na > 0 and kb > 1
        self.on_b = kb > 1 or na == 0
        vb, va = np.arange(kb).repeat(2), np.arange(ka).repeat(2)
        ends = []
        if self.pairs:
            ends.append(np.hstack([self.edges.repeat(ns, axis=0),
                                   np.tile(F.segments, (na, 1))]))
        if na:
            ends.append(np.hstack([self.edges.repeat(kb, axis=0),
                                   np.tile(vb.reshape(-1, 2), (na, 1))]))
        if self.on_b:
            ends.append(np.hstack([va.reshape(-1, 2).repeat(ns, axis=0),
                                   np.tile(F.segments, (ka, 1))]))
        self.ends = np.concatenate(ends)
        self.width = (len(self.ends) + ka * len(F.triangles)
                      + kb * len(self.triangles))


def _closest_cores(Va, boundary_a, body_b):
    """Closest candidate pair of conv(Va[p]) and the core of ``body_b`` for
    every placement p: Va is (P, ka, dim), every placement sharing
    ``boundary_a``.

    The candidates are the segment pairs of the two complexes, a vertex
    being a zero-length segment (Ericson, Real-Time Collision Detection,
    2005, 5.1.9), and in 3D every vertex of one core against every
    triangle interior of the other. The closest pair of separated cores
    lies on a vertex and a facet or on two edges, so it is among them.
    Returns (witness_a, witness_b, d, n, gap): n is the unit direction
    from witness_a to witness_b (zero where d = 0) and gap = min(Vb n) -
    max(Va n) the separation of the supporting planes normal to n. gap
    never exceeds the core distance, and matches d, up to the roundoff of
    n, when the pair is the closest one of separated cores.

    B is the fixed body of the query: the constants of its features
    (``_Features``) are built on its first query and kept on it. Each
    candidate's squared distance is expanded from dot products of A's
    vertices and edges with them (``_closest_block``), one argmin over all
    families picks the closest, and only the winner's witnesses are
    formed, as points of the two cores.
    """
    P, ka, dim = Va.shape
    F = body_b._features
    pairs = F.pairs(boundary_a)
    step = max(1, DISTANCE_BLOCK // (pairs.width * dim))
    wa, wb = np.empty((P, dim)), np.empty((P, dim))
    for s in range(0, P, step):
        wa[s:s + step], wb[s:s + step] = _closest_block(Va[s:s + step], F,
                                                        pairs)
    diff = wb - wa
    d = np.sqrt(_dots(diff.T, diff.T))
    n = np.divide(diff, d[:, None], out=np.zeros_like(diff),
                  where=d[:, None] > 0.0)
    B = F.vertices.T
    gap = (_dots(B[:, None, :], n.T[:, :, None]).min(axis=1)
           - _dots(Va.transpose(2, 0, 1), n.T[:, :, None]).max(axis=1))
    return wa, wb, d, n, gap


def _closest_block(Va, F, pairs):
    """(witness_a, witness_b) of ``_closest_cores`` for one block of
    placements Va (p, ka, dim) against the fixed features F.

    Every family's squared distances come from the products of the
    placements' vertices with F's columns (and of their edges with F's
    vertices and segment directions, and of F's vertices with their
    triangles' ``_Triangles`` columns). A vertex projects on a segment by
    one clamped parameter; an edge pair keeps only the interior solution
    of its 2 x 2 system, its ends being the vertex families' candidates; a
    vertex over a triangle takes its height. Each value is the squared
    distance of a pair of points of the cores, up to the roundoff of the
    expansion, so an ill-conditioned pair never undercuts the closest one.
    A segment candidate also carries its parameters s and t along the A
    and B segments of ``_Pairs.ends``. The winner's witnesses are formed,
    in the cores' own coordinates, from those parameters or as the foot
    on its triangle. The expansion's roundoff, about eps D^2 with D the
    pair's extent, can misrank candidates whose distances differ by
    about eps D^2 / d: so a placement whose least value is below 1e-4 of
    D^2 (its cores within about D / 100) forms every candidate within
    that roundoff of it, and the nearest pair of points wins. Near
    contact, where the expansion cannot rank candidates at all, the
    witnesses are then as exact as the points themselves, and a farther
    pair's distance is within a few 1e-13 D of the closest.
    """
    p, ka, dim = Va.shape
    kb, ns = len(F.vertices), len(F.segments)
    X = Va - F.centre
    xx = _rdots(X, X)[..., None]
    Q = _products(X, F.rhs) + F.shift
    we = Q[..., kb:kb + ns]
    sq, s, t = [], [], []
    if len(pairs.edges):
        # A's edges from origins o along e: w = v - o for F's vertices v.
        ia = pairs.edges[:, 0]
        o = X[:, ia]
        e = X[:, pairs.edges[:, 1]] - o
        aa = _rdots(e, e)[..., None]
        E = _products(e, F.rhs[:, :kb + ns])
        we_a = E[..., :kb] - _rdots(o, e)[..., None]
        ww_a = (xx[:, ia] + F.vv) - 2.0 * Q[:, ia, :kb]
        if pairs.pairs:
            # r = o - o_b: c = e.r, f = e_b.r and r.r, from the vertex
            # families' values at o_b and o.
            b, c, f, ee = E[..., kb:], -we_a[..., F.origins], we[:, ia], F.ee
            den = aa * ee - b * b
            sn, tn = b * f - c * ee, aa * f - b * c
            inner = (np.minimum(sn, tn) > 0.0) & (np.maximum(sn, tn) < den)
            u = np.divide(sn, den, out=np.zeros_like(den), where=inner)
            v = np.divide(tn, den, out=np.zeros_like(den), where=inner)
            pair = ww_a[..., F.origins] + u * (u * aa + 2.0 * c) + v * (
                v * ee - 2.0 * (f + u * b))
            sq.append(np.where(inner, pair, np.inf))
            s.append(u)
            t.append(v)
        # F's vertices on A's edges; t is free on a vertex, as s below.
        d, u = _clamped(ww_a, we_a, aa, np.divide(
            1.0, aa, out=np.zeros_like(aa), where=aa >= _TINY))
        sq.append(d)
        s.append(u)
        t.append(u)
    if pairs.on_b:
        # A's vertices on F's segments.
        d, u = _clamped((xx + F.oo) - 2.0 * Q[..., F.origins], we,
                        F.ee, F.ree)
        sq.append(d)
        s.append(u)
        t.append(u)
    if len(F.triangles):
        sq.append(_Triangles.squared(Q[..., kb + ns:]))
    if len(pairs.triangles):
        planes = _Triangles(X, pairs.triangles)
        sq.append(_Triangles.squared(_products(F.local, planes.rhs)
                                     + planes.shift[:, None]))
    sq = _columns(sq, p)
    r, k = np.arange(p), np.argmin(sq, axis=1)
    least, reach = sq[r, k], xx.max(axis=(1, 2)) + F.reach
    near = least < 1e-4 * reach
    refine = near.any()
    if refine:
        # Every candidate within the expansion's roundoff of the least.
        i, j = np.nonzero(sq[near] <= (least + 2e-13 * reach)[near, None])
        far = np.flatnonzero(~near)
        r = np.concatenate([far, np.flatnonzero(near)[i]])
        k = np.concatenate([k[far], j])
    m = np.minimum(k, len(pairs.ends) - 1)
    s, t, ends = _columns(s, p)[r, m], _columns(t, p)[r, m], pairs.ends[m]
    a0, b0, Vb = Va[r, ends[:, 0]], F.vertices[ends[:, 2]], F.vertices
    wa = a0 + s[:, None] * (Va[r, ends[:, 1]] - a0)
    wb = b0 + t[:, None] * (Vb[ends[:, 3]] - b0)
    k -= len(pairs.ends)
    if pairs.width > len(pairs.ends) and k.max() >= 0:
        nf = len(F.triangles)
        top = np.flatnonzero((k >= 0) & (k < ka * nf))
        if len(top):
            i, j = np.divmod(k[top], nf)
            wa[top] = Va[r[top], i]
            wb[top] = _foot(wa[top], F.corners[j], F.normals[j])
        under = np.flatnonzero(k >= ka * nf)
        if len(under):
            i, j = np.divmod(k[under] - ka * nf, len(pairs.triangles))
            t0, t1, t2 = np.moveaxis(
                Va[r[under][:, None], pairs.triangles[j]], 1, 0)
            wb[under] = Vb[i]
            wa[under] = _foot(Vb[i], t0, _rcross(t1 - t0, t2 - t0))
    if refine:
        diff = wb - wa
        order = np.lexsort((_rdots(diff, diff), r))
        best = order[np.searchsorted(r[order], np.arange(p))]
        wa, wb = wa[best], wb[best]
    return wa, wb


def _foot(X, t0, nrm):
    """Feet of the points X (n, 3) on the planes through t0 with the
    nonzero normals nrm = e0 x e1 of their triangles, rows."""
    h = _rdots(X - t0, nrm) / _rdots(nrm, nrm)
    return X - h[:, None] * nrm


def _columns(arrays, p):
    """The families' (p, ...) arrays side by side, as (p, candidates)."""
    return np.concatenate([x.reshape(p, -1) for x in arrays], axis=1)


def _clamped(ww, we, ee, ree):
    """Squared distances |w - t e|^2 of points to segments, from w.w, w.e
    and e.e (w from the segment's origin), at the clamped projection
    t = w.e / e.e (``ree`` = 1 / e.e, or 0 on a segment of no length), and
    that t."""
    t = np.minimum(np.maximum(we * ree, 0.0), 1.0)
    return ww - t * (2.0 * we - t * ee), t


def _unseparated(vertices, gap, body_b):
    """Where the supporting-plane gap of ``_closest_cores`` fails to prove
    the placements ``vertices`` (P, k, dim) disjoint from the core of
    ``body_b``: it is at most SEPARATION_RTOL of the coordinates'
    magnitude. Overlapping cores have gap <= 0 along any direction, so
    they are all here, whatever their closest candidate pair."""
    scale = np.maximum(np.abs(vertices).max(axis=(1, 2)),
                       body_b._features.magnitude)
    return gap <= SEPARATION_RTOL * scale


def distances(vertices, radii, boundary, body_b):
    """Signed distances from a stack of placements of one core to
    ``body_b``, in one kernel call: vertices (P, k, dim), every placement
    sharing the boundary complex ``boundary`` and swept by ``radii`` (a
    scalar or (P,)). Returns a DistanceResult of arrays over the stack.

    A pair is separated when its closest candidate pair is more than
    CONTACT_TOL apart and the supporting planes normal to it are apart
    too, by more than SEPARATION_RTOL of the coordinates' magnitude: the
    gap then proves the cores disjoint, so the candidate pair is the
    closest and its distance exact (the gap matches it up to the roundoff
    of the direction). Any other pair, touching, contained, or with an
    edge through a face, takes the exact depth and normal of ``_depths``,
    and the witnesses of its cores translated apart by the depth.

    ``body_b`` is the fixed body of the call: the constants of its
    features are built on its first query and kept on it (not on the
    boundary complex that its ``posed`` copies share), so every later
    query against it costs products of the stack with them, and one
    argmin over all candidates (``_closest_cores``).
    """
    Vb, rb = body_b.vertices, body_b.radius
    wa, wb, d, n, gap = _closest_cores(vertices, boundary, body_b)
    ra = np.broadcast_to(np.asarray(radii, dtype=float), d.shape)
    pen = np.flatnonzero((d <= CONTACT_TOL)
                         | _unseparated(vertices, gap, body_b))
    if len(pen):
        depth, n[pen] = _depths(vertices[pen], boundary, Vb, body_b.boundary)
        shift = depth[:, None] * n[pen]
        wa[pen], wb[pen] = _closest_cores(vertices[pen] - shift[:, None],
                                          boundary, body_b)[:2]
        wa[pen] += shift
        d[pen] = -depth
    return DistanceResult(d - ra - rb, wa + ra[:, None] * n,
                          wb - rb * n, n)


# Squared lengths below this carry fewer bits than a normal float: the
# least normal float over the machine epsilon.
_SMALL_SQUARE = np.finfo(float).tiny / np.finfo(float).eps


def _depths(Va, boundary_a, Vb, boundary_b):
    """Penetration depth and unit normal from A into B of touching or
    overlapping cores, Va (P, ka, dim) against Vb (kb, dim).

    The depth is min over unit u of max u.a - min u.b, the least support
    value of W = A - B, and the normal the minimizing u. No unit u gives
    less, and a facet normal of W attains it: a face normal of A or B or,
    in 3D, the cross product of an edge of each (Cameron & Culley, ICRA
    1986; Ericson, Real-Time Collision Detection, 2005, 5.2.1). The
    candidates are these, with both signs, the coordinate axes and, in 3D,
    every edge crossed with them (normals of W's affine hull when W is a
    point or a segment); axes of zero length are masked. Blocks keep the
    (dim x placements x axes x vertices) temporaries within DISTANCE_BLOCK
    elements.
    """
    P, ka, dim = Va.shape
    (ea, fa), (eb, fb) = boundary_a._faces, boundary_b._faces
    edges = np.concatenate([ea, eb + ka])
    triangles = np.concatenate([fa, fb + ka])
    m = 2 * (len(triangles) + len(ea) * len(eb) + 3 * len(edges) + 3
             if dim == 3 else len(edges) + 2)
    step = max(1, DISTANCE_BLOCK // (m * (ka + len(Vb)) * dim))
    Y = np.concatenate([Va, np.broadcast_to(Vb, (P,) + Vb.shape)],
                       axis=1).transpose(2, 0, 1)
    depth, n = np.empty(P), np.empty((P, dim))
    for s in range(0, P, step):
        X = Y[:, s:s + step]
        p = X.shape[1]
        d = X[..., edges[:, 1]] - X[..., edges[:, 0]]
        eye = np.broadcast_to(np.eye(dim)[:, None], (dim, p, dim))
        if dim == 2:
            u = [np.stack([-d[1], d[0]]), eye]
        else:
            t0 = X[..., triangles[:, 0]]
            u = [_cross(X[..., triangles[:, 1]] - t0,
                        X[..., triangles[:, 2]] - t0),
                 _cross(d[..., :len(ea), None], d[..., None, len(ea):]),
                 _cross(d[..., None], eye[:, :, None]), eye]
            u = [x.reshape(3, p, -1) for x in u]
        u = np.concatenate(u + [-x for x in u], axis=2)
        uu = _dots(u, u)
        small = (uu > 0.0) & (uu < _SMALL_SQUARE)
        if small.any():
            # An edge shorter than about 1e-146 gives axes whose u.u has
            # lost bits to the subnormal range, and whose length would
            # come out short. Scaled by a power of two near its largest
            # component, an axis keeps them; the scaling is exact, so its
            # unit axis is the same wherever u.u had kept them.
            u = u * np.where(small, np.ldexp(
                1.0, -np.frexp(np.abs(u).max(axis=0))[1]), 1.0)
            uu = _dots(u, u)
        length = np.sqrt(uu)
        u = np.divide(u, length, out=np.zeros_like(u), where=length > 0.0)
        proj = _dots(u[..., None], X[:, :, None])
        h = np.where(length > 0.0, proj[..., :ka].max(axis=2)
                     - proj[..., ka:].min(axis=2), np.inf)
        k = np.argmin(h, axis=1)
        rows = np.arange(p)
        depth[s:s + step], n[s:s + step] = h[rows, k], u[:, rows, k].T
    return depth, n


# ---------------------------------------------------------------------------
# Public queries
# ---------------------------------------------------------------------------

def distance(body_a, body_b):
    """Signed distance between two bodies: ``distances`` for a stack of one.

    Positive: separation distance, exact over the cores' boundary features
    (the hulls before the radii are added). Non-positive: minus the
    penetration depth, exact from support values along candidate axes.
    The normal is the unit direction from A into B; translating A by
    ``signed_distance * normal`` brings the bodies into touching contact,
    and witness_a - witness_b = -signed_distance * normal.
    """
    if body_a.dim != body_b.dim:
        raise ValueError("dimension mismatch")
    res = distances(body_a.vertices[None], body_a.radius, body_a.boundary,
                    body_b)
    return DistanceResult(float(res.signed_distance[0]), res.witness_a[0],
                          res.witness_b[0], res.normal[0])


def intersects(body_a, body_b):
    """True iff the bodies overlap (signed distance <= CONTACT_TOL)."""
    return distance(body_a, body_b).signed_distance <= CONTACT_TOL


def mahalanobis_contact(body_a, body_b, chol_sigma, chol_inv=None, axes=None,
                        offset=None):
    """Certified minimum squared Mahalanobis norm of (a - b), a in A, b in B.

    ``chol_sigma`` is the lower Cholesky factor of the metric covariance;
    callers that query one covariance many times pass its inverse as
    ``chol_inv`` and the ball term's ``axes`` (``ellipsoid_axes``). The
    search is seeded by ``offset``, the difference of the centres of A and
    B (computed here when the caller holds none), and solves the cores
    first (see ``_gjk``): their whitened difference is a polytope, on
    which GJK ends after a few supports. The ellipsoid term is then solved
    exactly on the final core face, so when that face holds the minimizer
    (always, under an isotropic covariance) one full support closes the
    gap, and a wrong face costs one full step more.

    Returns (c, witness_a, witness_b). c is the square of GJK's supporting-
    plane lower bound at a full support, so it never exceeds the true
    minimum c* = min (a-b)^T Sigma^{-1} (a-b); the witness pair's value
    exceeds c by at most GJK's relative duality gap, WHITENED_GAP_TOL.
    c == 0 means the bodies intersect, as when their cores do.
    """
    L_inv = np.linalg.inv(chol_sigma) if chol_inv is None else chol_inv
    sp = _PairSupport(body_a, body_b, L_inv, axes=axes)
    if offset is None:
        offset = body_a.center() - body_b.center()
    _, _, wa, wb, lb = _gjk(sp, body_a.dim, tol=WHITENED_GAP_TOL,
                            seed_direction=L_inv @ offset)
    return lb * lb, wa, wb


def mahalanobis_contacts(vertices, radii, body_b, chol_inv, witness_a,
                         witness_b, axes=None):
    """``mahalanobis_contact`` for a stack of placements of one core against
    ``body_b``, each lane started from a pair of points near its minimizer
    (the Euclidean witness pair, exact for an isotropic covariance).

    vertices (N, k, dim), radii (N,), witness_a and witness_b (N, dim);
    ``chol_inv`` is the inverse lower Cholesky factor L^-1 of the metric
    covariance. GJK's first iteration runs on every lane at once: from
    y = L^-1 (witness_a - witness_b), a point of Y = L^-1 (A - B), one
    closed-form support of Y along -y gives the supporting-plane lower
    bound. A lane whose duality gap closes there, to ``WHITENED_GAP_TOL``
    as in the cold search, is done, with c the square of that bound and
    its start pair as witnesses. Every other lane, an open lane, runs the
    cold core-first search of ``mahalanobis_contact``, with its exact face
    solves on the ball term's ``axes`` (as ``_PairSupport`` takes them),
    seeded along its y, and keeps the larger of its two certified lower
    bounds. Returns (c, witness_a, witness_b) as arrays over the stack.
    """
    N, _, dim = vertices.shape
    tol = WHITENED_GAP_TOL
    c = np.zeros(N)
    wa, wb = witness_a.copy(), witness_b.copy()
    y = (witness_a - witness_b) @ chol_inv.T
    nv2 = _dots(y.T, y.T)
    # A start within the tolerance of the origin: the bodies intersect.
    lanes = np.flatnonzero(nv2 > tol * tol)
    y, nv2 = y[lanes], nv2[lanes]
    # The support of Y along -y is L^-1 (a - b), a the support of A and b
    # that of B along +-u, u = L^-T (-y).
    u = -y @ chol_inv
    V = vertices[lanes]
    top = np.argmax(np.einsum("nkd,nd->nk", V, u), axis=1)
    norm = np.sqrt(_dots(u.T, u.T))
    a = V[np.arange(len(lanes)), top] + (radii[lanes] / norm)[:, None] * u
    Vb = body_b.vertices
    b = Vb[np.argmin(u @ Vb.T, axis=1)] - (body_b.radius / norm)[:, None] * u
    p = (a - b) @ chol_inv.T
    vp = _dots(y.T, p.T)
    lb = np.maximum(vp, 0.0) / np.sqrt(nv2)
    c[lanes] = lb * lb
    # GJK's relative duality-gap test, as in ``_gjk``.
    open_lanes = np.flatnonzero(nv2 - vp > tol * nv2 + 1e-14)
    rows = whitening_rows(chol_inv)
    for i in open_lanes:
        n = lanes[i]
        body = SweptHull(vertices[n], float(radii[n]))
        _, _, wa[n], wb[n], lb2 = _gjk(
            _PairSupport(body, body_b, chol_inv, axes=axes, rows=rows), dim,
            tol=tol, seed_direction=y[i])
        c[n] = max(lb[i], lb2) ** 2
    return c, wa, wb

