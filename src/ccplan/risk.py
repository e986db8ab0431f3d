"""Collision-risk certificates from shadow sets, and their gradients.

An uncertain obstacle is a convex nominal shape displaced by a zero-mean
Gaussian translation. A shadow with squared Mahalanobis radius c contains the
obstacle with probability cdf_n(c); if a shadow misses the robot, the survival
probability certifies an upper bound on collision risk.

The first (full-ellipsoid) search is computed exactly: the smallest bound
corresponds to the minimum squared Mahalanobis norm over the robot/obstacle
difference set, a single whitened GJK query. The second (half-ellipsoid)
search expands away from the robot along the contact normal and is found by
bisection over the squared radius, warm-started at the first contact.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import chi2
from .geometry import (
    ConvexBody,
    Ellipsoid,
    GeometryError,
    HalfEllipsoid,
    MinkowskiSum,
    _gjk,
    intersects,
    mahalanobis_contact,
)
from .kinematics import forward_kinematics, point_jacobian, posed_link_shapes

# Squared Mahalanobis distances below this are treated as contact with the
# nominal geometry (risk saturates at 1).
SATURATION_C = 1e-16

# Bisection iteration cap for the half-shadow search. Moderate precision is
# enough: curved-branch contacts are refined to an exact value afterwards,
# and bisection always terminates on the certified (miss) side.
HALF_SEARCH_ITERS = 48


@dataclass
class UncertainObstacle:
    """Convex nominal geometry plus positional covariance."""

    nominal: ConvexBody
    covariance: np.ndarray
    chol: np.ndarray = field(init=False, repr=False)
    chol_inv: np.ndarray = field(init=False, repr=False)
    sigma_inv: np.ndarray = field(init=False, repr=False)

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
class RiskLinearization:
    """First-order model eps(theta) ~ eps0 + g . (theta - theta0)."""

    eps0: float
    gradient: np.ndarray
    theta0: np.ndarray

    def __call__(self, theta):
        d = np.asarray(theta, dtype=float) - self.theta0
        return self.eps0 + float(self.gradient @ d)


def _check_eps(eps):
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must lie in (0, 1), got {eps}")


def shadow(obstacle, eps):
    """Maximal eps-shadow: nominal geometry swollen by the covariance ellipsoid."""
    _check_eps(eps)
    c = chi2.chi2_inv_cdf(1.0 - eps, obstacle.dim)
    return MinkowskiSum(obstacle.nominal, Ellipsoid(obstacle.covariance, c))


def half_shadow(obstacle, eps, normal):
    """Maximal eps/2-shadow extending away from the robot along ``normal``."""
    _check_eps(eps)
    n = np.asarray(normal, dtype=float)
    if abs(np.linalg.norm(n) - 1.0) > 1e-9:
        raise ValueError("contact normal must be unit length")
    c = chi2.chi2_inv_cdf(1.0 - eps, obstacle.dim)
    return MinkowskiSum(obstacle.nominal,
                        HalfEllipsoid(obstacle.covariance, c, n))


def _half_shadow_at_c(obstacle, c, normal):
    return MinkowskiSum(obstacle.nominal,
                        HalfEllipsoid(obstacle.covariance, c, normal))


def certify_risk(robot, theta, obstacle, eps_tol=1e-6, normal_override=None,
                 shapes=None, body_contacts=None):
    """Certify an upper bound on the collision risk of one configuration.

    Returns a RiskCertificate with eps_prime = (eps1 + eps2)/2. If the robot
    touches the nominal geometry the certificate saturates at 1. eps values
    below ``eps_tol`` are reported as eps_tol (risk below resolution).

    ``normal_override`` pins the half-shadow expansion direction; it is used
    by finite-difference checks that hold the contact normal fixed.
    ``shapes`` optionally supplies precomputed posed link shapes for this
    configuration (callers evaluating many obstacles share one kinematics
    pass). ``body_contacts``, aligned with ``shapes``, gives each body's
    Euclidean DistanceResult against the nominal geometry: bodies provably
    outside the largest shadow considered (distance^2 / lambda_max(Sigma)
    beyond the eps_tol radius) are skipped, and the witness pair seeds the
    Mahalanobis search of the others.
    """
    if not 0.0 < eps_tol < 0.5:
        raise ValueError(f"eps_tol must lie in (0, 0.5), got {eps_tol}")
    n = obstacle.dim
    theta = robot.check_state(theta)
    if shapes is None:
        poses = forward_kinematics(robot, theta)
        shapes = posed_link_shapes(robot, poses)
    if not shapes:
        raise ValueError("robot has no collision shapes")

    c_max = chi2.chi2_inv_cdf(1.0 - eps_tol, n)
    per_shape = []
    best = None
    for k, (li, body) in enumerate(shapes):
        guess = None
        if body_contacts is not None:
            res = body_contacts[k]
            sd = res.signed_distance
            # Cheap lower bound on this body's Mahalanobis minimum.
            if sd > 0.0 and (sd / obstacle.sigma_max) ** 2 > c_max:
                continue
            guess = (res.witness_a, res.witness_b)
        c, wa, wb = mahalanobis_contact(body, obstacle.nominal, obstacle.chol,
                                        chol_inv=obstacle.chol_inv,
                                        guess=guess)
        per_shape.append((c, li, body, wa, wb))
        if best is None or c < best[0] - 1e-15:
            best = (c, li, body, wa, wb)
    if best is None:
        # Every body is beyond the eps_tol shadow radius.
        return RiskCertificate(eps_tol, eps_tol, eps_tol, False,
                               floored=True, floored2=True)
    c_min, link_idx, link_body, wit_robot, wit_obs = best

    if c_min <= SATURATION_C:
        return RiskCertificate(1.0, 1.0, 1.0, True)

    eps1_exact = chi2.chi2_sf(c_min, n)
    x1 = wit_robot - wit_obs
    if normal_override is not None:
        n_hat = np.asarray(normal_override, dtype=float)
        n_hat = n_hat / np.linalg.norm(n_hat)
    else:
        g = obstacle.sigma_inv @ x1
        n_hat = -g / np.linalg.norm(g)

    if eps1_exact < eps_tol:
        # Even the largest shadow considered misses the robot: risk is below
        # resolution and the half-shadow search is skipped.
        return RiskCertificate(
            eps_tol, eps_tol, eps_tol, False, contact_normal=n_hat, x1=x1,
            link_index=link_idx,
            contact_point=np.asarray(wit_robot, dtype=float),
            c1=c_min, floored=True, floored2=True)

    eps1 = eps1_exact
    active = [(c, li, body) for c, li, body, _, _ in per_shape if c <= c_max]

    def hits(c):
        # A body whose unconstrained Mahalanobis minimum exceeds c cannot
        # touch the (smaller) half-shadow at radius^2 c.
        hs = _half_shadow_at_c(obstacle, c, n_hat)
        return any(intersects(body, hs)
                   for cb, _, body in active if cb <= c)

    # A body whose first-search contact vector lies on the feasible side of
    # the cut touches the half-shadow exactly at its own Mahalanobis minimum
    # (the cut is inactive there): the smallest such value is a known curved
    # tangency and an upper bound for the search.
    c_cand = math.inf
    for c, li, body, wa, wb in per_shape:
        if c <= c_max and float(n_hat @ (wa - wb)) > 0.0:
            c_cand = min(c_cand, c)

    c2 = None
    if c_cand < math.inf:
        # Probe just below the candidate: a miss there rules out any earlier
        # rim contact, so the candidate itself is the tangency.
        probe = c_cand - 1e-6 * max(1.0, c_cand)
        if probe <= c_min or not hits(probe):
            c2 = c_cand
        else:
            hi = probe
    else:
        hi = c_max
        if not hits(hi):
            # Free space all around: no second contact below resolution.
            cert_eps2 = eps_tol
            return RiskCertificate(
                eps1, cert_eps2, 0.5 * (eps1 + cert_eps2), False,
                contact_normal=n_hat, x1=x1, link_index=link_idx,
                contact_point=np.asarray(wit_robot, dtype=float),
                c1=c_min, c2=c_max, floored2=True)

    if c2 is None:
        lo = c_min
        if hits(lo):
            # Only possible with an overridden (off-tangent) normal; fall
            # back to the nominal geometry as the known-miss bracket end.
            lo = 0.0
            if hits(lo):
                raise GeometryError("half-shadow bisection bracket invalid")
        for _ in range(HALF_SEARCH_ITERS):
            if hi - lo <= 1e-9 * max(1.0, hi):
                break
            mid = 0.5 * (lo + hi)
            if hits(mid):
                hi = mid
            else:
                lo = mid
        c2 = lo
    eps2 = chi2.chi2_sf(c2, n)
    if normal_override is None and eps2 > eps1 + 1e-12:
        raise GeometryError("half-shadow search exceeded eps1")

    # Contact data of the second (half-shadow) tangency. The displacement x2
    # that realizes the contact is recovered from a decomposed GJK query, not
    # from the witness normal, which is ill-conditioned at near-zero gap.
    half = HalfEllipsoid(obstacle.covariance, c2, n_hat)
    best2 = None
    for cb, li, body in active:
        if cb > c2 + 1e-3 * max(1.0, c2):
            continue
        d2, wa2, x2c = _second_contact(body, obstacle, half)
        if best2 is None or d2 < best2[0]:
            best2 = (d2, li, body, wa2, x2c)
    _, link_idx2, body2, wa2, x2 = best2

    # On the curved branch the half-space cut is inactive at the tangency, so
    # c2 equals the unconstrained Mahalanobis minimum of the winning body;
    # replace the bisection estimate with that exact value (the bisection
    # carries the intersection test's detection noise, ~1e-6 in c).
    cb, we_a, we_b = mahalanobis_contact(body2, obstacle.nominal,
                                         obstacle.chol,
                                         chol_inv=obstacle.chol_inv)
    x_e = we_a - we_b
    if (float(n_hat @ x_e) > 1e-9 * np.linalg.norm(x_e)
            and abs(cb - c2) <= 1e-3 * max(1.0, c2)):
        c2 = cb
        x2 = x_e
        wa2 = we_a
        eps2 = chi2.chi2_sf(c2, n)

    return RiskCertificate(
        eps1, min(eps2, eps1), 0.5 * (eps1 + min(eps2, eps1)), False,
        contact_normal=n_hat, x1=x1, link_index=link_idx,
        contact_point=np.asarray(wit_robot, dtype=float),
        link_index2=link_idx2,
        contact_point2=np.asarray(wa2, dtype=float),
        x2=x2, c1=c_min, c2=c2)


def _second_contact(body, obstacle, half):
    """Gap, robot witness, and displacement witness against a half-shadow.

    Runs GJK on robot - (nominal + half_ellipsoid), carrying the robot and
    nominal witnesses; the displacement component is their difference minus
    the (near-zero) separation vector.
    """
    nominal = obstacle.nominal

    def sp(v):
        a = body._support(v)
        bn = nominal._support(-v)
        bh = half._support(-v)
        return a - bn - bh, a, bn

    seed = body.center() - nominal.center()
    dist, v, wa, wbn = _gjk(sp, body.dim, tol=1e-12, seed_direction=seed)
    return dist, wa, wa - wbn - v


def shadow_gradients(cert, robot, theta, obstacle, frames=None):
    """Per-shadow risk gradients (full ellipsoid, half ellipsoid).

    ``frames`` is ``chain_frames(robot, theta)`` when the caller has it.
    """
    if cert.saturated:
        raise ValueError("saturated certificate has no usable gradient; "
                         "use the signed-distance constraint instead")
    n = obstacle.dim
    dof = robot.dof
    theta = robot.check_state(theta)

    def term(c, x, link_idx, point, floored):
        if floored or x is None or c is None:
            return np.zeros(dof)
        J = point_jacobian(robot, theta, link_idx, point, frames)
        row = 2.0 * (obstacle.sigma_inv @ x)
        return -chi2.chi2_pdf(c, n) * (row @ J)

    g1 = term(cert.c1, cert.x1, cert.link_index, cert.contact_point,
              cert.floored)
    g2 = term(cert.c2, cert.x2, cert.link_index2, cert.contact_point2,
              cert.floored2)
    return g1, g2


def risk_gradient(cert, robot, theta, obstacle, frames=None):
    """Gradient of the certified bound eps_prime with respect to theta."""
    g1, g2 = shadow_gradients(cert, robot, theta, obstacle, frames)
    return 0.5 * (g1 + g2)


def linearize_risk(cert, gradient, theta0):
    """Affine model of the certified risk around ``theta0``."""
    return RiskLinearization(cert.eps_prime, np.asarray(gradient, dtype=float),
                             np.asarray(theta0, dtype=float))


def scene_risk(robot, theta, obstacles, eps_tol=1e-6):
    """Certificates against every obstacle plus their eps_prime sum."""
    certs = [certify_risk(robot, theta, ob, eps_tol) for ob in obstacles]
    total = float(sum(c.eps_prime for c in certs))
    return certs, total
