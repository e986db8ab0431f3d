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
from .kinematics import chain_frames, chain_shapes, point_jacobians

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


def certify_risk(robot, theta, obstacle, eps_tol=1e-6, first=None):
    """Certify an upper bound on the collision risk of one configuration.

    Returns a RiskCertificate with eps_prime = (eps1 + eps2)/2. If the robot
    touches the nominal geometry the certificate saturates at 1. eps values
    below ``eps_tol`` are reported as eps_tol (risk below resolution).

    c2, which gives eps2, is the best value of the half-shadow search's
    Lagrangian dual, a lower bound on the exact minimum; x2 (robot point
    contact_point2) is a feasible point whose value exceeds c2 by at most
    HALF_GAP * max(1, c2).

    ``first`` optionally supplies every posed link shape of this
    configuration with its first search, from a caller that has validated
    ``theta`` and shares one kinematics pass over many obstacles: entries
    (link index, body, c, witness on the body, witness on the nominal
    geometry), as from ``mahalanobis_contact``, with c = inf for a body
    provably outside the largest shadow considered. Without it the
    certificate takes the link shapes that ``chain_shapes`` poses on the
    walk of ``chain_frames``, which the other obstacles' certificates and
    ``risk_gradient`` at ``theta`` share, and the entries of
    ``_cold_first``: a body provably outside the eps_tol
    shadow is not searched, and a configuration whose bodies all are gets
    the floored certificate, without contact data.
    """
    if not 0.0 < eps_tol < 0.5:
        raise ValueError(f"eps_tol must lie in (0, 0.5), got {eps_tol}")
    n = obstacle.dim
    c_max = chi2.chi2_inv_cdf(1.0 - eps_tol, n)
    if first is None:
        shapes = chain_shapes(robot, theta)     # validates theta
        if not shapes:
            raise ValueError("robot has no collision shapes")
        first = _cold_first(shapes, obstacle, c_max)

    per_shape = [e for e in first if e[2] != math.inf]
    if not per_shape:
        # Every body is beyond the eps_tol shadow radius.
        return RiskCertificate(eps_tol, eps_tol, eps_tol, False,
                               floored=True, floored2=True)
    best = per_shape[0]
    for e in per_shape[1:]:
        if e[2] < best[2] - 1e-15:
            best = e
    link_idx, _, c_min, wit_robot, wit_obs = best

    if c_min <= SATURATION_C:
        return RiskCertificate(1.0, 1.0, 1.0, True)

    eps1 = chi2.chi2_sf(c_min, n)
    x1 = wit_robot - wit_obs
    g = obstacle.sigma_inv @ x1
    n_hat = -g / np.linalg.norm(g)

    if eps1 < eps_tol:
        # Even the largest shadow considered misses the robot: risk is below
        # resolution and the half-shadow search is skipped.
        return RiskCertificate(
            eps_tol, eps_tol, eps_tol, False, contact_normal=n_hat, x1=x1,
            link_index=link_idx,
            contact_point=np.asarray(wit_robot, dtype=float),
            c1=c_min, floored=True, floored2=True)

    found = _half_contact(per_shape, obstacle, n_hat, c_max)
    # Without a body reaching the half-space below resolution, eps2 floors.
    c2, link_idx2, wa2, x2 = found or (c_max, None, None, None)
    eps2 = eps_tol if found is None else chi2.chi2_sf(c2, n)
    if eps2 > eps1 + 1e-12:
        raise GeometryError("half-shadow search exceeded eps1")
    eps2 = min(eps2, eps1)
    return RiskCertificate(
        eps1, eps2, 0.5 * (eps1 + eps2), False, contact_normal=n_hat, x1=x1,
        link_index=link_idx, contact_point=np.asarray(wit_robot, dtype=float),
        link_index2=link_idx2, contact_point2=wa2, x2=x2, c1=c_min, c2=c2,
        floored2=found is None)


def _cold_first(shapes, obstacle, c_max):
    """``certify_risk``'s first-search entries for ``shapes``, (link
    index, posed body): a ``mahalanobis_contact`` per body, or c = inf for
    a body outside the c_max shadow. With d the difference of the centres
    and g = Sigma^-1 d, y = L^-1 d is a point of Y = L^-1 (A - O) with
    |y|^2 = d.g, and every z = L^-1 x of Y has |z| >= y.z / |y| = g.x / |y|:
    the gap between A and O along g, over |y|, is GJK's supporting-plane
    bound u.s_Y(-u), u = y / |y|, from one support of each body. A body
    that is searched is seeded from the same d.
    """
    nominal = obstacle.nominal
    centre = nominal.center()
    out = []
    for li, body in shapes:
        d = body.center() - centre
        g = obstacle.sigma_inv @ d
        yy = float(d @ g)
        if yy > 0.0:
            gap = (float((body.vertices @ g).min())
                   - float((nominal.vertices @ g).max())
                   - (body.radius + nominal.radius) * math.sqrt(float(g @ g)))
            if gap > 0.0 and gap * gap > c_max * yy:
                out.append((li, body, math.inf, None, None))
                continue
        out.append((li, body, *mahalanobis_contact(
            body, nominal, obstacle.chol, chol_inv=obstacle.chol_inv,
            axes=obstacle.axes, offset=d)))
    return out


def _half_contact(per_shape, obstacle, normal, c_max):
    """Second (half-shadow) contact over the bodies of ``per_shape``.

    Entries are (link index, body, c, witness on the body, witness on the
    nominal geometry) from the first search. Bodies are visited in
    increasing c, which bounds their c2 from below, and the search stops
    once that bound reaches the best c2 so far. Returns (c2, link index,
    robot point, x2), or None if no body gets below ``c_max``.
    """
    nominal = obstacle.nominal
    best, cap = None, c_max
    for li, body, c, wa, wb in sorted(per_shape, key=lambda e: e[2]):
        if c >= cap:
            break
        # The farthest point of A - O along n: if it lies behind the cut,
        # the body cannot reach the half-space.
        far = (body._support(normal), nominal._support(-normal))
        if float(normal @ (far[0] - far[1])) < 0.0:
            continue
        if float(normal @ (wa - wb)) >= 0.0:
            # The cut is inactive at the body's own minimum.
            found = (c, wa, wa - wb)
        else:
            found = _rim_contact(body, obstacle, normal, (c, wa, wb), far,
                                 cap)
        if found is not None:
            cap, a, x = found
            best = (cap, li, a, x)
    return best


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


def weighted_jacobians(robot, frames, terms, n_steps):
    """Per step of ``frames`` (a ChainFrames of ``n_steps`` joint states),
    the sum of w . J over ``terms``, (step, w, link index, robot point),
    J the Jacobian of the point on its link at that step: an
    (n_steps, dof) array, with the Jacobians from one ``point_jacobians``
    call. Each step's terms are added in their order in ``terms``."""
    dof = robot.dof
    if not terms:
        return np.zeros((n_steps, dof))
    steps, w, links, points = zip(*terms)
    J = point_jacobians(robot, frames, steps, links, np.array(points))
    wJ = np.einsum("md,mdk->mk", np.array(w), J)
    cells = np.add.outer(np.array(steps) * dof, np.arange(dof))
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
    terms = [(0, *term[1:]) for term in risk_weights(cert, obstacle)]
    return weighted_jacobians(robot, frames, terms, 1)[0]
