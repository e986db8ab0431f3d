"""Collision-risk certificates from shadow sets, and their gradients.

An uncertain obstacle is a convex nominal shape displaced by a zero-mean
Gaussian translation. A shadow with squared Mahalanobis radius c contains the
obstacle with probability cdf_n(c); if a shadow misses the robot, the survival
probability certifies an upper bound on collision risk.

Both searches are exact. The first (full-ellipsoid) search gives the
smallest squared radius c1 whose shadow touches the robot: the minimum
squared Mahalanobis norm over the robot/obstacle difference set, from one
whitened GJK query per body whose supporting-plane lower bound is kept, so
eps1 is never under-stated. The second (half-ellipsoid) search expands
away from the robot along the contact normal n; its radius is
c2 = min { d^T Sigma^-1 d : d in A - O, n^T d >= 0 }, a convex program whose
Lagrangian dual is a concave function of one multiplier. Each dual value is
one whitened GJK query, and is a certified lower bound on c2, so eps2 is
never under-stated; the search stops when a feasible primal point is within
HALF_GAP of the best dual value. Where the cut is active (a rim body), it
steps by safeguarded secant steps on the dual's slope, which is affine in
the multiplier on each face of the difference set: about 6 dual values per
rim body (``_rim_contact``).

Everything after the first searches is one tail, ``_lanes``, that
certifies a stack of lanes, each one configuration against one obstacle,
with arrays over (lane, body): a constraint pass certifies its
(timestep, obstacle) pairs in one ``certify_lanes`` call, and a cold
``certify_risk`` is a lane of one. Only the walk of a lane whose first
reaching body is a rim body runs in Python. The result,
``LaneCertificates``, holds the stack's certificates in two arrays and
forms a RiskCertificate on demand.

Every GJK query (a cold first search, a lane of the planner's batched
first step that one support leaves open, and every dual value) solves the
polytope cores first, then the ellipsoid term exactly on each core face
(see ``geometry._gjk``), in the axes that each obstacle takes from one SVD
of L^-1: one full support of the swept bodies closes it when the face is
right, as it always is under an isotropic covariance, and a wrong face
costs one full step more.

The gradient of eps_prime is a sum of w . J, one term per shadow with a
gradient (``risk_weights``), J the Jacobian of its robot contact point;
``weighted_jacobians`` sums such terms for one joint state or for a
whole trajectory. A cold certificate and its gradient share the
robot's last single-state chain walk (``kinematics.chain_frames``), and
the certificates of every obstacle share the link shapes posed on it
(``kinematics.chain_shapes``).
"""

import math
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from . import chi2
from .geometry import (
    GeometryError,
    SweptHull,
    _PairSupport,
    _gjk,
    ellipsoid_axes,
    mahalanobis_contact,
)
from .kinematics import (LaneBodies, chain_frames, chain_shapes,
                         point_jacobians)

# Squared Mahalanobis distances below this are treated as contact with the
# nominal geometry (risk saturates at 1).
SATURATION_C = 1e-16

# Relative gap at which the half-shadow dual search stops: the feasible
# primal point's value is within HALF_GAP * max(1, c) of the returned c2.
HALF_GAP = 1e-9

# Dual evaluations per body in the half-shadow search; reaching the cap
# raises GeometryError.
HALF_DUAL_MAX_ITER = 64


@dataclass
class UncertainObstacle:
    """Convex nominal geometry plus positional covariance."""

    nominal: SweptHull
    covariance: np.ndarray
    chol: np.ndarray = field(init=False, repr=False)
    chol_inv: np.ndarray = field(init=False, repr=False)
    sigma_inv: np.ndarray = field(init=False, repr=False)
    axes: tuple = field(init=False, repr=False)

    def __post_init__(self):
        S = np.asarray(self.covariance, dtype=float)
        dim = self.nominal.dim
        if S.shape != (dim, dim):
            raise ValueError("covariance shape does not match geometry dim")
        if not np.allclose(S, S.T, atol=1e-12):
            raise ValueError("covariance must be symmetric")
        self.covariance = 0.5 * (S + S.T)
        try:
            self.chol = np.linalg.cholesky(self.covariance)
        except np.linalg.LinAlgError as e:
            raise ValueError("covariance must be positive definite") from e
        self.chol_inv = np.linalg.inv(self.chol)
        self.sigma_inv = np.linalg.inv(self.covariance)
        # The whitened ball term's axes for GJK's face solves, from one SVD
        # of L^-1. sigma_max enters the planner's cull bound
        # (sd / sigma_max)^2, which must stay a lower bound, so it comes
        # from the covariance itself: 1 / min(s) of that SVD would carry
        # the roundoff of inverting L, which grows with the condition number.
        self.axes = ellipsoid_axes(*np.linalg.svd(self.chol_inv)[:2])
        self.sigma_max = math.sqrt(float(np.linalg.eigvalsh(
            self.covariance)[-1]))

    @property
    def dim(self):
        return self.nominal.dim


@dataclass
class RiskCertificate:
    """Certified risk bound for one robot/obstacle pair, with contact data."""

    eps1: float
    eps2: float
    eps_prime: float
    saturated: bool
    contact_normal: np.ndarray = None    # unit, robot -> obstacle
    x1: np.ndarray = None                # ellipsoid center -> contact vector
    x2: np.ndarray = None                # half-ellipsoid contact vector
    link_index: int = None
    contact_point: np.ndarray = None     # on the robot, world frame
    link_index2: int = None
    contact_point2: np.ndarray = None
    c1: float = None
    c2: float = None
    floored: bool = False                # eps1 hit the resolution floor
    floored2: bool = False               # no second contact below the floor


@dataclass
class LaneCertificates:
    """The certificates of a stack of lanes (``certify_lanes``), as arrays
    over the lanes in two blocks, so that a stack is stored or copied in
    two assignments: ``scalars`` (10, *lanes) holds eps1, eps2,
    eps_prime, c1 and c2, the flags saturated, floored and floored2 (as
    0 or 1) and the link indices link1 and link2, and ``vectors``
    (5, *lanes, dim) holds the contact normal, x1, x2 and the robot
    points point1 and point2. ``certificate`` forms one lane's
    RiskCertificate. A lane without a first (second) contact has link1
    (link2) -1, and then its contact fields are undefined; c2 is NaN where
    the certificate has none."""

    scalars: np.ndarray
    vectors: np.ndarray

    eps_prime = property(lambda self: self.scalars[2])
    saturated = property(lambda self: self.scalars[5] != 0.0)

    @staticmethod
    def _of(records, vectors, L, O):
        """Lanes (L, O) from per-lane records in ``scalars`` order and
        ``vectors`` (5, L O, dim)."""
        scalars = np.array(records, dtype=float).T
        return LaneCertificates(scalars.reshape(10, L, O),
                                vectors.reshape(5, L, O, -1))

    @staticmethod
    def empty(shape, dim):
        """Lanes of the leading ``shape``, to be filled by ``put``."""
        return LaneCertificates(np.empty((10,) + shape),
                                np.empty((5,) + shape + (dim,)))

    def put(self, index, lanes):
        """Write the stack ``lanes`` into the lanes at ``index``."""
        index = (slice(None),) + index
        self.scalars[index] = lanes.scalars
        self.vectors[index] = lanes.vectors

    def copy(self):
        return LaneCertificates(self.scalars.copy(), self.vectors.copy())

    def certificate(self, index):
        """The RiskCertificate of the lane at ``index``, a tuple."""
        index = (slice(None),) + index
        return _certificate(self.scalars[index].tolist(),
                            self.vectors[index])


def _certificate(values, vectors):
    """The RiskCertificate of one lane from its ``scalars`` values (a
    list) and its ``vectors`` rows."""
    (eps1, eps2, eps_prime, c1, c2, saturated, floored, floored2, link,
     link2) = values
    if saturated:
        return RiskCertificate(1.0, 1.0, 1.0, True)
    normal = x1 = point1 = x2 = point2 = None
    if link < 0:
        c1 = link = None
    else:
        normal, x1, point1 = vectors[0], vectors[1], vectors[3]
        link = int(link)
    if link2 < 0:
        link2 = None
    else:
        x2, point2, link2 = vectors[2], vectors[4], int(link2)
    return RiskCertificate(eps1, eps2, eps_prime, False, normal, x1, x2,
                           link, point1, link2, point2, c1,
                           None if math.isnan(c2) else c2, bool(floored),
                           bool(floored2))


_TINY = np.finfo(float).tiny


def certify_risk(robot, theta, obstacle, eps_tol=1e-6):
    """Certify an upper bound on the collision risk of one configuration.

    Returns a RiskCertificate with eps_prime = (eps1 + eps2)/2. If the robot
    touches the nominal geometry the certificate saturates at 1. eps values
    below ``eps_tol`` are reported as eps_tol (risk below resolution).

    c2, which gives eps2, is the best value of the half-shadow search's
    Lagrangian dual, a lower bound on the exact minimum; x2 (robot point
    contact_point2) is a feasible point whose value exceeds c2 by at most
    HALF_GAP * max(1, c2).

    The certificate is a lane of one of ``certify_lanes``: the link shapes
    that ``chain_shapes`` poses on the walk of ``chain_frames``, which the
    other obstacles' certificates and ``risk_gradient`` at ``theta``
    share, with the first searches of ``_cold_first``.
    """
    if not 0.0 < eps_tol < 0.5:
        raise ValueError(f"eps_tol must lie in (0, 0.5), got {eps_tol}")
    shapes = chain_shapes(robot, theta)     # validates theta
    if not shapes:
        raise ValueError("robot has no collision shapes")
    c, wa, wb = _cold_first(shapes, obstacle,
                            chi2.chi2_inv_cdf(1.0 - eps_tol, obstacle.dim))
    records, vectors = _lanes(LaneBodies.of_shapes(shapes), c[None, None],
                              wa[None, None], wb[None, None], [obstacle],
                              eps_tol)
    return _certificate(records[0], vectors[:, 0])


def _cold_first(shapes, obstacle, c_max):
    """``certify_risk``'s first searches of ``shapes``, (link index, posed
    body) pairs, as arrays over the bodies: c, the witness on the body and
    the witness on the nominal geometry, from a ``mahalanobis_contact`` per
    body, or c = inf for a body outside the c_max shadow (both witnesses
    then the nominal geometry's centre). With d the
    difference of the centres and g = Sigma^-1 d, y = L^-1 d is a point of
    Y = L^-1 (A - O) with |y|^2 = d.g, and every z = L^-1 x of Y has
    |z| >= y.z / |y| = g.x / |y|: the gap between A and O along g, over
    |y|, is GJK's supporting-plane bound u.s_Y(-u), u = y / |y|, from one
    support of each body. A body that is searched is seeded from the same
    d.
    """
    nominal = obstacle.nominal
    centre = nominal.center()
    out = []
    for _, body in shapes:
        d = body.center() - centre
        g = obstacle.sigma_inv @ d
        yy = float(d @ g)
        if yy > 0.0:
            gap = (float((body.vertices @ g).min())
                   - float((nominal.vertices @ g).max())
                   - (body.radius + nominal.radius) * math.sqrt(float(g @ g)))
            if gap > 0.0 and gap * gap > c_max * yy:
                out.append((math.inf, centre, centre))
                continue
        out.append(mahalanobis_contact(
            body, nominal, obstacle.chol, chol_inv=obstacle.chol_inv,
            axes=obstacle.axes, offset=d))
    c, wa, wb = zip(*out)
    return np.array(c), np.array(wa), np.array(wb)


def _first_least(row):
    """The index of the first contact among a lane's c values: a later
    body replaces the best so far only if its c is smaller by more than
    1e-15, so near-ties go to the body first in link order."""
    k = 0
    for j, v in enumerate(row):
        if v < row[k] - 1e-15:
            k = j
    return k


def certify_lanes(bodies, c, wa, wb, obstacles, eps_tol):
    """The certificates of a stack of lanes, as LaneCertificates over
    (L, O): lane (t, o) is configuration t, whose posed link shapes are
    lane t of ``bodies`` (``LaneBodies``), against ``obstacles[o]``. See
    ``_lanes``, the tail, for the arguments."""
    L, O = c.shape[:2]
    return LaneCertificates._of(*_lanes(bodies, c, wa, wb, obstacles,
                                        eps_tol), L, O)


def _lanes(bodies, c, wa, wb, obstacles, eps_tol):
    """The lane tail: every lane's ``LaneCertificates.scalars`` values, a
    list per lane, and the lanes' ``vectors`` (5, L O, dim).

    c (L, O, B), wa and wb (L, O, B, dim) are each lane's first searches:
    each body's certified squared Mahalanobis distance, c = inf for a body
    provably outside the eps_tol shadow, and its witness pair (on the
    body, on the nominal geometry). A lane whose bodies all are gets the
    floored certificate, without contact data.

    The first contact is the body of least c (``_first_least``). The
    second (half-shadow) contact visits the bodies in increasing c, which
    bounds their c2 from below, and stops once that bound reaches the best
    c2 so far, the cap (at first the eps_tol shadow's c_max). A body whose
    support along the contact normal n lies behind the nominal geometry's
    support along -n cannot reach the half-space, and a body whose own
    minimum has n.x >= 0 (the cut inactive) has c2 = c, which ends the
    walk. The normals and both tests run over arrays of (lane, body);
    only a lane whose first reaching body has the cut active (a rim body)
    walks its bodies in Python, with ``_rim_contact`` on each rim body,
    whose SweptHull is formed then.
    """
    L, O, B = c.shape
    n = obstacles[0].dim
    N = L * O
    links = bodies.links
    rows = c.reshape(N, B).tolist()
    # Each lane's record: eps1, eps2, eps_prime, c1, c2, saturated,
    # floored, floored2, link1, link2. A lane without contact data is
    # saturated, or floored with every body outside the shadow.
    records, first, live = [], [], []
    for i, row in enumerate(rows):
        k = _first_least(row)
        v = row[k]
        first.append(i * B + k)
        if v <= SATURATION_C:
            records.append([1.0, 1.0, 1.0, v, math.nan, 1, 0, 0, -1, -1])
            continue
        records.append([eps_tol, eps_tol, eps_tol, v, math.nan, 0, 1, 1,
                        -1, -1])
        if v < math.inf:
            records[i][8] = links[k]
            live.append(i)
    if not live:
        return records, np.zeros((5, N, n))
    # Rows of (lane, body) pairs: a lane's first contact is row i B + k.
    x = (wa - wb).reshape(N * B, n)
    wa, wb = wa.reshape(N * B, n), wb.reshape(N * B, n)
    vectors = np.empty((5, N, n))
    normal, x1, point1 = vectors[0], vectors[1], vectors[3]
    wa.take(first, axis=0, out=point1)
    x.take(first, axis=0, out=x1)
    g = (np.array([ob.sigma_inv for ob in obstacles])
         @ x1.reshape(L, O, n, 1)).reshape(N, n)
    gg = g[:, None, :] @ g[:, :, None]
    if len(live) < N:
        # Where x1 vanishes (a lane without contact data), the floor on
        # |g|^2 makes the unused normal zero.
        gg = np.maximum(gg, _TINY)
    np.divide(-g, np.sqrt(gg)[:, 0], out=normal)
    half = []
    for i in live:
        r = records[i]
        e = chi2.chi2_sf(r[3], n)
        # Below resolution even the largest shadow considered misses the
        # robot, and the lane stays floored without a half-shadow search.
        if e >= eps_tol:
            r[0], r[6] = e, 0
            half.append(i)
    if not half:
        return records, vectors
    # Whether each body's support along n reaches the nominal geometry's
    # support along -n, and n.x at each body's own minimum.
    c_max = chi2.chi2_inv_cdf(1.0 - eps_tol, n)
    along = normal.reshape(L, O, n, 1)
    top = np.maximum.reduceat(
        (np.concatenate(bodies.parts, axis=1)[:, None] @ along)[..., 0],
        bodies.starts, axis=2) + np.array(bodies.radii)
    low = np.empty((L, O))
    for o, ob in enumerate(obstacles):
        low[:, o] = ((along[:, o, None, :, 0] @ ob.nominal.vertices.T)[
            :, 0].min(axis=1) - ob.nominal.radius)
    reach = (top >= low[..., None]).reshape(N, B)
    s = (x.reshape(N, B, n) @ normal[:, :, None])[..., 0].tolist()
    nearest = np.where(reach, c.reshape(N, B), math.inf)
    kf = nearest.argmin(axis=1).tolist()
    nearest = nearest.tolist()
    hits = []
    for i in half:
        r, b = records[i], kf[i]
        if nearest[i][b] >= c_max:
            cap = c_max
        elif s[i][b] >= 0.0:
            cap, r[9] = nearest[i][b], links[b]
            hits.append(i * B + b)
        else:
            # A rim body comes first: the walk, with the exact far test
            # (that of the rim search's far end) on each rim body.
            cap, nrm, ob = c_max, normal[i], obstacles[i % O]
            for cb, b in sorted((v, b) for b, v in enumerate(rows[i])
                                if v < c_max):
                if cb >= cap:
                    break
                if not reach[i, b]:
                    continue
                k = i * B + b
                if s[i][b] >= 0.0:
                    found = (cb, wa[k], x[k])
                else:
                    body = bodies.body(i // O, b)
                    far = (body._support(nrm), ob.nominal._support(-nrm))
                    if float(nrm @ (far[0] - far[1])) < 0.0:
                        continue
                    found = _rim_contact(body, ob, nrm, (cb, wa[k], wb[k]),
                                         far, cap)
                if found is not None:
                    cap, vectors[4, i], vectors[2, i] = found
                    r[9] = links[b]
        r[4] = cap
        if r[9] < 0:
            # No body reaches the half-space below resolution.
            continue
        r[7] = 0
        e2 = chi2.chi2_sf(cap, n)
        if e2 > r[0] + 1e-12:
            raise GeometryError("half-shadow search exceeded eps1")
        r[1] = min(e2, r[0])
    if hits:
        lanes = [k // B for k in hits]
        vectors[4, lanes], vectors[2, lanes] = wa[hits], x[hits]
    for i in half:
        r = records[i]
        r[2] = 0.5 * (r[0] + r[1])
    return records, vectors


# A dual evaluation: phi(lam), s = n^T x of the projection y(lam) = L^-1 x,
# and the witness pair (a on the robot, b on the nominal geometry), x = a - b.
_DualPoint = namedtuple("_DualPoint", "lam phi s a b")


def _rim_contact(body, obstacle, normal, first, far, cap):
    """One body's c2 when the cut is active, from the concave 1-D dual.

    With Y = L^-1 (A - O) and m = L^T n, c2 = min { |y|^2 : y in Y,
    m^T y >= 0 } and its dual is phi(lam) = dist^2(lam m / 2, Y)
    - lam^2 |m|^2 / 4 for lam >= 0, with phi(lam) <= c2 and slope
    phi'(lam) = -s(lam), s = m^T y(lam) = n^T x(lam), y(lam) the projection
    of lam m / 2 onto Y. ``first`` is the first search's (c, witness pair):
    phi(0) = c, with s < 0; ``far`` is the pair farthest along n (s >= 0,
    the end at lam = infinity). s is nondecreasing, and affine in lam while
    y(lam) stays on one face of Y, so each step is the secant root of s
    through the two latest dual points, exact once both lie on the face
    that holds the root. Until some s >= 0 brackets the root, the step
    extrapolates and grows lam 2 to 16 times (so an overshoot costs at most
    four halvings); inside the bracket, a step that leaves it, or one after
    two steps that have not halved it, bisects instead (Brent, *Algorithms
    for Minimization without Derivatives*, 1973, ch. 4). The primal point
    is the combination of the bracket ends' points that meets the cut,
    feasible by convexity.

    Returns (c2, robot point, x2), c2 the best dual value, a lower bound
    within HALF_GAP of x2's value; None once a dual value exceeds ``cap``.
    """
    L_inv = obstacle.chol_inv
    m = obstacle.chol.T @ normal
    mm = float(m @ m)
    c, wa, wb = first
    scale = max(1.0, c)

    def dual(lam, a, b):
        # phi from GJK's supporting-plane lower bound on the distance,
        # never from its |v|, which bounds it from above.
        q = 0.5 * lam * m
        # Seeded along the previous projection (starting at the old witness,
        # a combination of supports, can stall on a face). The tolerance,
        # relative to |v|^2, which far exceeds c when the cut is nearly
        # parallel to a face of A - O, keeps the gap ~1e-12 c.
        v = L_inv @ (a - b) - q
        tol = 1e-12 * scale / max(scale, float(v @ v))
        _, _, a, b, lb = _gjk(
            _PairSupport(body, obstacle.nominal, L_inv, q, obstacle.axes),
            body.dim, tol=tol, seed_direction=v)
        return _DualPoint(lam, lb * lb - 0.25 * lam * lam * mm,
                          float(normal @ (a - b)), a, b)

    lo = last = _DualPoint(0.0, c, float(normal @ (wa - wb)), wa, wb)
    hi = _DualPoint(math.inf, None, float(normal @ (far[0] - far[1])), *far)
    best = lo.phi
    lam = -2.0 * lo.s / mm
    widths = [math.inf] * 3     # the bracket's, after the last three steps
    for _ in range(HALF_DUAL_MAX_ITER):
        prev, last = last, dual(lam, last.a, last.b)
        if last.phi > cap:
            return None
        best = max(best, last.phi)
        if last.s >= 0.0:
            hi = last
        else:
            lo = last
        t = lo.s / (lo.s - hi.s)
        a = lo.a + t * (hi.a - lo.a)
        x = a - (lo.b + t * (hi.b - lo.b))
        value = float(x @ obstacle.sigma_inv @ x)
        if value - best <= HALF_GAP * max(1.0, best):
            return best, a, x
        # The secant root of s through the two latest dual points.
        slope = (last.s - prev.s) / (last.lam - prev.lam)
        lam = last.lam - last.s / slope if slope > 0.0 else math.nan
        if hi.lam == math.inf:
            lam = (min(max(lam, 2.0 * last.lam), 16.0 * last.lam)
                   if slope > 0.0 else 2.0 * last.lam)
            continue
        widths = [widths[1], widths[2], hi.lam - lo.lam]
        if not lo.lam < lam < hi.lam or widths[2] > 0.5 * widths[0]:
            lam = 0.5 * (lo.lam + hi.lam)
    raise GeometryError("half-shadow dual search did not converge within "
                        f"{HALF_DUAL_MAX_ITER} steps")


def risk_weights(cert, obstacle):
    """(slot, w, link index, robot point) for each shadow of ``cert`` whose
    bound has a gradient, one neither floored nor without a contact: slot 0
    is the full shadow (eps1), slot 1 the half shadow (eps2). w is the
    gradient of eps_prime = (eps1 + eps2)/2 with respect to the shadow's
    robot contact point: half that of its eps = sf(c), c = x^T Sigma^-1 x,
    so w = -pdf(c) Sigma^-1 x."""
    for slot, (c, x, link, point, floored) in enumerate((
            (cert.c1, cert.x1, cert.link_index, cert.contact_point,
             cert.floored),
            (cert.c2, cert.x2, cert.link_index2, cert.contact_point2,
             cert.floored2))):
        if not (floored or x is None or c is None):
            w = -chi2.chi2_pdf(c, obstacle.dim) * (obstacle.sigma_inv @ x)
            yield slot, w, link, point


def weighted_jacobians(robot, frames, steps, w, links, points, n_steps):
    """Per step of ``frames`` (a ChainFrames of ``n_steps`` joint states),
    the sum of w . J over the terms (steps[i], w[i], links[i],
    points[i]), J the Jacobian of the robot point on its link at that
    step: an (n_steps, dof) array, with the Jacobians from one
    ``point_jacobians`` call. Each step's terms are added in their
    order."""
    dof = robot.dof
    if not len(steps):
        return np.zeros((n_steps, dof))
    J = point_jacobians(robot, frames, steps, links, points)
    wJ = np.einsum("md,mdk->mk", w, J)
    cells = np.add.outer(np.asarray(steps) * dof, np.arange(dof))
    return np.bincount(cells.ravel(), wJ.ravel(),
                       n_steps * dof).reshape(n_steps, dof)


def risk_gradient(cert, robot, theta, obstacle):
    """Gradient of the certified bound eps_prime with respect to theta: the
    sum of w . J over the ``risk_weights`` of ``cert``, on the chain walk
    that ``chain_frames`` shares with the certificate at the same state."""
    if cert.saturated:
        raise ValueError("saturated certificate has no usable gradient; "
                         "use the signed-distance constraint instead")
    frames = chain_frames(robot, theta)     # validates theta
    terms = [term[1:] for term in risk_weights(cert, obstacle)]
    if not terms:
        return np.zeros(robot.dof)
    w, links, points = zip(*terms)
    return weighted_jacobians(robot, frames, [0] * len(w), np.array(w),
                              links, np.array(points), 1)[0]
