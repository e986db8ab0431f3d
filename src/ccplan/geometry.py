"""Sphere-swept hulls, an exact batched distance kernel with exact
penetration, and Mahalanobis contact.

Every body is a convex hull of vertices swept by a ball (a point, sphere,
capsule, box or hull), so one support mapping and one distance kernel
serve every shape. Each core (the hull before the radius is added) carries
its boundary complex (``Boundary``): vertex index pairs (edges) and, in
3D, triples (triangles) that cover its boundary, built on first use and
shared by every rigid placement. ``Boundary`` is the one place Qhull runs
(cores, Monte Carlo difference hulls, plots). The distance kernel takes
the closest pair over the candidate features of two cores, clamped
segment-segment for every edge pair and vertex-triangle for every vertex
against every triangle interior, vectorized over a stack of placements.
The pair is a separation only when the supporting planes normal to it are
apart, which proves the cores disjoint; otherwise (touching, containment,
or an edge piercing a face) the penetration depth and normal come exactly
from support values along candidate axes. ``point_distances`` takes the
same edge and triangle features from a stack of points, for the Monte
Carlo hit test. The Mahalanobis query runs GJK in whitened coordinates,
where a sphere becomes an ellipsoid, and returns a certified lower bound;
``mahalanobis_contacts`` takes GJK's first iteration for a stack of
placements at once, from their Euclidean witness pairs.

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

    def apply(self, point):
        return self.rotation @ np.asarray(point, dtype=float) + self.translation


@dataclass(eq=False)
class SweptHull:
    """conv(vertices) swept by a ball of ``radius``: every body of ccplan.

    Points, spheres, capsules, boxes and hulls are all of this form, so one
    support mapping and one distance kernel serve every shape. Build bodies
    with the validating constructors below (``Sphere``, ``Capsule``,
    ``Polytope``, ``box``, ``point_body``) and place them with ``posed``;
    the class itself trusts its arguments. ``posed`` copies share the
    boundary complex, which rigid motion leaves unchanged.
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
    Qhull needs SciPy's spatial module.
    """

    def __init__(self, vertices):
        self._vertices = vertices

    @cached_property
    def hull(self):
        """Qhull's convex hull of the vertices, or None when they are flat
        (fewer than dim + 1 affinely independent points): the only Qhull
        call of ccplan, for cores, Monte Carlo difference sets and plots.

        ``equations`` rows are [n, offset] with n the unit outward normal
        and n.x + offset <= 0 on the hull; ``simplices`` triangulate its
        facets. SciPy's spatial module is imported here, on first use,
        because importing it costs more than importing the rest of ccplan.
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

    @property
    def triangles(self):
        return self._faces[1]

    @cached_property
    def key(self):
        """Equal for cores of the same topology, which can share one
        batched distance call."""
        return (len(self._vertices), self.edges.tobytes(),
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


def _gjk(support_pair, dim, tol, max_iter=GJK_MAX_ITER, seed_direction=None,
         start=None):
    """GJK distance between the origin and a convex set given by supports,
    to the relative duality gap ``tol``.

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


# ---------------------------------------------------------------------------
# Exact batched distance kernel
# ---------------------------------------------------------------------------

# Least supporting-plane gap, relative to the magnitude of the coordinates,
# that proves two cores disjoint: far above the gap's roundoff.
SEPARATION_RTOL = 1e-12
# Elements of the kernel's largest (placements x features x features x dim)
# temporaries per block of placements: a few megabytes.
DISTANCE_BLOCK = 1 << 16
# ``point_distances`` keeps its (rows x features x dim) temporaries within
# HIT_BLOCK x vertices x dim elements, a few megabytes; the Monte Carlo hit
# test takes its candidates this many at a time.
HIT_BLOCK = 4096


def _dots(u, v):
    """Dot products over the first axis (the coordinates), broadcast."""
    return np.einsum("i...,i...->...", u, v)


def _unit_ratio(num, den):
    """num / den clamped to [0, 1], and 0 where den is not positive; num
    has the broadcast shape."""
    out = np.zeros_like(num)
    np.divide(num, den, out=out, where=den > 0.0)
    return np.clip(out, 0.0, 1.0, out=out)


def _closest_cores(Va, boundary_a, Vb, boundary_b):
    """Closest candidate pair of conv(Va[p]) and conv(Vb) for every
    placement p: Va is (P, ka, dim), every placement sharing
    ``boundary_a``; Vb is (kb, dim).

    The candidates are every edge pair, by clamped segment-segment
    (Ericson, Real-Time Collision Detection, 2005, 5.1.9), a vertex being
    a zero-length edge, and in 3D every vertex of one core against every
    triangle interior of the other. The closest pair of separated cores
    lies on a vertex and a facet or on two edges, so it is among them.
    Returns (witness_a, witness_b, d, n, gap): n is the unit direction
    from witness_a to witness_b (zero where d = 0) and gap = min(Vb n) -
    max(Va n) the separation of the supporting planes normal to n. gap
    never exceeds the core distance, and matches d, up to the roundoff of
    n, when the pair is the closest one of separated cores.

    Points are computed coordinate-first, (dim, P, ...), so that every
    operation broadcasts over contiguous planes.
    """
    P, ka, dim = Va.shape
    ea, fa = boundary_a.edges, boundary_a.triangles
    eb, fb = boundary_b.edges, boundary_b.triangles
    width = max(len(ea) * len(eb), ka * len(fb), len(Vb) * len(fa))
    step = max(1, DISTANCE_BLOCK // (width * dim))
    wa, wb = np.empty((P, dim)), np.empty((P, dim))
    B = Vb.T
    for s in range(0, P, step):
        A = Va[s:s + step].transpose(2, 0, 1)
        wa[s:s + step], wb[s:s + step] = _closest_block(A, ea, fa, B, eb, fb)
    diff = wb - wa
    d = np.sqrt(_dots(diff.T, diff.T))
    n = np.divide(diff, d[:, None], out=np.zeros_like(diff),
                  where=d[:, None] > 0.0)
    gap = (_dots(B[:, None, :], n.T[:, :, None]).min(axis=1)
           - _dots(Va.transpose(2, 0, 1), n.T[:, :, None]).max(axis=1))
    return wa, wb, d, n, gap


def _closest_block(A, ea, fa, B, eb, fb):
    """(witness_a, witness_b) of ``_closest_cores`` for one block of
    placements, A (dim, P, ka) against B (dim, kb)."""
    best = _nearest(*_edge_pairs(A[:, :, ea[:, 0], None],
                                 A[:, :, ea[:, 1], None],
                                 B[:, None, None, eb[:, 0]],
                                 B[:, None, None, eb[:, 1]]))
    if len(fb):
        xa = A[:, :, :, None]
        y, inside = _onto_triangles(xa, *(B[:, None, None, fb[:, i]]
                                          for i in range(3)))
        best = _nearer(best, _nearest(xa, y, inside))
    if len(fa):
        xb = B[:, None, :, None]
        x, inside = _onto_triangles(xb, *(A[:, :, None, fa[:, i]]
                                          for i in range(3)))
        best = _nearer(best, _nearest(x, xb, inside))
    return best[1], best[2]


def _edge_pairs(a0, a1, b0, b1):
    """Closest points x = a0 + s (a1 - a0), y = b0 + t (b1 - b0) of the
    segment pairs, broadcast, by clamped segment-segment: the optimal s
    for the clamped t is taken last, which also settles parallel edges. A
    zero-length edge (a vertex) gets the clamped projection on the other
    segment: where nearly parallel edges make their pair ill-conditioned,
    the closest pair has an end of one of them."""
    d1, d2, r = a1 - a0, b1 - b0, a0 - b0
    a, e, b = _dots(d1, d1), _dots(d2, d2), _dots(d1, d2)
    c, f = _dots(d1, r), _dots(d2, r)
    s = _unit_ratio(b * f - c * e, a * e - b * b)
    t = _unit_ratio(b * s + f, e)
    s = _unit_ratio(b * t - c, a)
    return a0 + s * d1, b0 + t * d2


def _onto_triangles(X, A, B, C):
    """Feet of the points X on the planes of the triangles (A, B, C),
    broadcast, and whether each foot lies inside its triangle (a triangle
    without area holds none)."""
    e0, e1, w = B - A, C - A, X - A
    g00, g01, g11 = _dots(e0, e0), _dots(e0, e1), _dots(e1, e1)
    det = g00 * g11 - g01 * g01
    w0, w1 = _dots(w, e0), _dots(w, e1)
    # Barycentric coordinates of the foot, times det.
    u, v = g11 * w0 - g01 * w1, g00 * w1 - g01 * w0
    inside = (det > 1e-12 * g00 * g11) & (u >= 0.0) & (v >= 0.0) \
        & (u + v <= det)
    nrm = _cross(e0, e1)
    h = np.zeros(inside.shape)
    np.divide(_dots(w, nrm), _dots(nrm, nrm), out=h, where=inside)
    return X - h * nrm, inside


def _cross(u, v):
    """Cross products of coordinate-first 3-vectors, broadcast."""
    return np.stack([u[1] * v[2] - u[2] * v[1],
                     u[2] * v[0] - u[0] * v[2],
                     u[0] * v[1] - u[1] * v[0]])


def _nearest(x, y, valid=None):
    """The closest of the candidate pairs (x, y), coordinate-first
    (dim, P, m, n) after broadcasting, among the ``valid`` ones: (squared
    distance, x, y) per placement, the points as (P, dim)."""
    diff = x - y
    sq = _dots(diff, diff)
    if valid is not None:
        sq = np.where(valid, sq, np.inf)
    P, m, n = sq.shape
    i, j = np.divmod(np.argmin(sq.reshape(P, -1), axis=1), n)
    rows = np.arange(P)
    return sq[rows, i, j], _pick(x, rows, i, j), _pick(y, rows, i, j)


def _pick(x, rows, i, j):
    """Rows (P, dim) of the coordinate-first x at the broadcast indices
    (rows, i, j); an axis of length 1 is broadcast."""
    _, P, m, n = x.shape
    return x[:, rows % P, i % m, j % n].T


def _nearer(p, q):
    """Per placement, the nearer of two (squared distance, x, y) triples;
    ties keep p."""
    take = q[0] < p[0]
    return (np.where(take, q[0], p[0]), np.where(take[:, None], q[1], p[1]),
            np.where(take[:, None], q[2], p[2]))


def distances(vertices, radii, boundary, body_b, tolerance=1e-9):
    """Signed distances from a stack of placements of one core to
    ``body_b``, in one kernel call: vertices (P, k, dim), every placement
    sharing the boundary complex ``boundary`` and swept by ``radii`` (a
    scalar or (P,)). Returns a DistanceResult of arrays over the stack.

    A pair is separated when its closest candidate pair is more than
    ``tolerance`` apart and the supporting planes normal to it are apart
    too, by more than SEPARATION_RTOL of the coordinates' magnitude: the
    gap then proves the cores disjoint, so the candidate pair is the
    closest and its distance exact (the gap matches it up to the roundoff
    of the direction). Any other pair, touching, contained, or with an
    edge through a face, takes the exact depth and normal of ``_depths``,
    and the witnesses of its cores translated apart by the depth.
    """
    Vb, rb = body_b.vertices, body_b.radius
    wa, wb, d, n, gap = _closest_cores(vertices, boundary, Vb,
                                       body_b.boundary)
    ra = np.broadcast_to(np.asarray(radii, dtype=float), d.shape)
    scale = np.maximum(np.abs(vertices).max(axis=(1, 2)),
                       max(1.0, float(np.abs(Vb).max())))
    pen = np.flatnonzero((d <= tolerance) | (gap <= SEPARATION_RTOL * scale))
    if len(pen):
        depth, n[pen] = _depths(vertices[pen], boundary, Vb, body_b.boundary)
        shift = depth[:, None] * n[pen]
        wa[pen], wb[pen] = _closest_cores(vertices[pen] - shift[:, None],
                                          boundary, Vb, body_b.boundary)[:2]
        wa[pen] += shift
        d[pen] = -depth
    return DistanceResult(d - ra - rb, wa + ra[:, None] * n,
                          wb - rb * n, n)


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
        length = np.sqrt(_dots(u, u))
        u = np.divide(u, length, out=np.zeros_like(u), where=length > 0.0)
        proj = _dots(u[..., None], X[:, :, None])
        h = np.where(length > 0.0, proj[..., :ka].max(axis=2)
                     - proj[..., ka:].min(axis=2), np.inf)
        k = np.argmin(h, axis=1)
        rows = np.arange(p)
        depth[s:s + step], n[s:s + step] = h[rows, k], u[:, rows, k].T
    return depth, n


def point_distances(points, vertices, boundary):
    """Distances from the rows of ``points`` (n, dim) to the features of
    ``boundary``, the boundary complex of conv(vertices): the distances to
    conv(vertices) of the points outside it, and of every point when it is
    flat, since its complex then covers it.

    Each is the least over the complex's edges, by clamped projection on
    the segment, and, in 3D, over the triangles whose interior holds the
    point's foot on their plane (``_onto_triangles``). Rows go in blocks
    whose (rows x features x dim) temporaries stay within HIT_BLOCK x
    vertices x dim elements; a flat point set has every vertex pair as an
    edge.
    """
    edges, triangles = boundary._faces
    if not len(edges):
        edges = boundary.edges      # one point: its zero-length edge
    V = vertices.T[:, None, :]
    a0 = V[:, :, edges[:, 0]]
    e = V[:, :, edges[:, 1]] - a0
    ee = _dots(e, e)
    corners = [V[:, :, triangles[:, i]] for i in range(3)]
    step = max(1, HIT_BLOCK * len(vertices) // (len(edges) + len(triangles)))
    out = np.empty(len(points))
    for s in range(0, len(points), step):
        X = points[s:s + step].T[:, :, None]
        w = X - a0
        w -= _unit_ratio(_dots(w, e), ee) * e
        sq = _dots(w, w).min(axis=1)
        if len(triangles):
            y, inside = _onto_triangles(X, *corners)
            w = X - y
            sq = np.minimum(sq, np.where(inside, _dots(w, w), np.inf)
                            .min(axis=1))
        out[s:s + step] = np.sqrt(sq)
    return out


# ---------------------------------------------------------------------------
# Public queries
# ---------------------------------------------------------------------------

def distance(body_a, body_b, tolerance=1e-9):
    """Signed distance between two bodies: ``distances`` for a stack of one.

    Positive: separation distance, exact over the cores' boundary features
    (the hulls before the radii are added). Non-positive: minus the
    penetration depth, exact from support values along candidate axes.
    The normal is the unit direction from A into B; translating A by
    ``signed_distance * normal`` brings the bodies into touching contact,
    and witness_a - witness_b = -signed_distance * normal.
    """
    if tolerance <= 0:
        raise ValueError("tolerance must be positive")
    if body_a.dim != body_b.dim:
        raise ValueError("dimension mismatch")
    res = distances(body_a.vertices[None], body_a.radius, body_a.boundary,
                    body_b, tolerance)
    return DistanceResult(float(res.signed_distance[0]), res.witness_a[0],
                          res.witness_b[0], res.normal[0])


def intersects(body_a, body_b, tolerance=1e-9):
    """True iff the bodies overlap (signed distance <= tolerance)."""
    return distance(body_a, body_b, tolerance).signed_distance <= tolerance


def mahalanobis_contact(body_a, body_b, chol_sigma,
                        tolerance=WHITENED_GAP_TOL, chol_inv=None):
    """Certified minimum squared Mahalanobis norm of (a - b), a in A, b in B.

    ``chol_sigma`` is the lower Cholesky factor of the metric covariance;
    callers that query one covariance many times pass its inverse as
    ``chol_inv``. The search is seeded by the difference of the centres.
    Returns (c, witness_a, witness_b). c is the square of GJK's supporting-
    plane lower bound, so it never exceeds the true minimum
    c* = min (a-b)^T Sigma^{-1} (a-b); the witness pair's value exceeds c
    by at most GJK's duality gap (``tolerance``, relative). c == 0 means
    the bodies intersect.
    """
    L_inv = np.linalg.inv(chol_sigma) if chol_inv is None else chol_inv
    sp = _pair_support(body_a, body_b, L_inv)
    seed = L_inv @ (body_a.center() - body_b.center())
    _, _, wa, wb, lb = _gjk(sp, body_a.dim, tol=tolerance,
                            seed_direction=seed)
    return lb * lb, wa, wb


def mahalanobis_contacts(vertices, radii, body_b, chol_inv, witness_a,
                         witness_b):
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
    its start pair as witnesses. Every other lane continues in ``_gjk``
    from that support, a support point of Y (a start inside a face can
    stall GJK's no-progress test), and keeps the larger of its two
    certified lower bounds. Returns (c, witness_a, witness_b) as arrays
    over the stack.
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
    for i in np.flatnonzero(nv2 - vp > tol * nv2 + 1e-14):
        n = lanes[i]
        body = SweptHull(vertices[n], float(radii[n]))
        _, _, wa[n], wb[n], lb2 = _gjk(
            _pair_support(body, body_b, chol_inv), dim, tol=tol,
            start=(p[i], a[i], b[i]))
        c[n] = max(lb[i], lb2) ** 2
    return c, wa, wb

