"""Chance-constrained trajectory optimization by sequential convexification.

The planner minimizes joint-space path length subject to, at every timestep:
a signed-distance margin against nominal obstacle geometry, certified
collision risk within a per-timestep allocation delta_t, and a global budget
sum(delta_t) <= Delta. Each iteration linearizes the distance and risk
constraints around the current trajectory, solves a convex QP with exact-l1
constraint slacks inside a trust region, and accepts steps by a true-merit
improvement ratio. The penalty weight on slacks grows until the true
(re-certified) constraints are satisfied.
"""

import time
from dataclasses import dataclass, field

import numpy as np

from .geometry import DistanceResult, SweptHull, distances
from .kinematics import point_jacobian, posed_link_groups, trajectory_frames
from .chi2 import chi2_sf
from .qp import (OPTIMAL, ActiveSet, HessianFactors, QuadraticProgram,
                 solve_qp)
from .risk import RiskCertificate, certify_risk, risk_gradient

CONVERGED = "converged"
ITERATION_LIMIT = "iteration-limit"
# Re-exported for callers checking plan status against solver failures.
PLAN_INFEASIBLE = "infeasible"


@dataclass
class TrajectoryProblem:
    robot: object
    obstacles: list
    timesteps: int
    start: np.ndarray
    goal: np.ndarray
    risk_budget: float
    margin: float = 0.0

    def __post_init__(self):
        if self.timesteps < 2:
            raise ValueError("need at least two timesteps")
        if not 0.0 < self.risk_budget < 1.0:
            raise ValueError("risk budget must lie in (0, 1)")
        if self.margin < 0.0:
            raise ValueError("safety margin must be nonnegative")
        self.start = self.robot.check_state(self.start)
        self.goal = self.robot.check_state(self.goal)


# The slack penalty weight mu and the trust-region radius of ``solve``.
MU_INITIAL = 10.0
MU_GROWTH = 10.0
MU_MAX = 1e6
RADIUS_INITIAL = 0.3
RADIUS_EXPAND = 1.5
RADIUS_SHRINK = 0.25
RADIUS_MIN = 1e-4
RATIO_THRESHOLD = 0.25      # least actual/predicted decrease accepted
MAX_INNER = 50
MAX_OUTER = 12
# Once the true constraints are satisfied, stop refining when the predicted
# merit decrease falls below this fraction of the current merit (each
# refinement step costs a full re-certification).
POLISH_TOLERANCE = 0.02
# Slack variables get a small quadratic term (this fraction of mu) so the QP
# Hessian stays well-conditioned; the l1 penalty still dominates.
SLACK_CURVATURE = 1e-2
# Small regularization on the allocation variables; keeps the QP Hessian
# well-conditioned while biasing delta by far less than the tolerance.
DELTA_REG = 1e-4


@dataclass
class SCOConfig:
    """Convergence tolerance on the true constraint violation, and
    ``certify_risk``'s eps_tol."""

    tolerance: float = 1e-4
    eps_tol: float = 1e-6

    def __post_init__(self):
        for name in ("tolerance", "eps_tol"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")


@dataclass
class ConstraintReport:
    signed_distances: np.ndarray      # (T, n_obstacles)
    certificates: list                # [t][o] RiskCertificate
    risk_totals: np.ndarray           # (T,) sum of eps_prime over obstacles
    risk_residuals: np.ndarray        # (T,) max(0, risk_total - delta_t)
    sd_residuals: np.ndarray          # (T, n_obstacles) max(0, margin - sd)
    allocation_residual: float        # max(0, sum delta - budget)
    max_violation: float
    total_violation: float            # l1 sum used by the merit function
    # The closest link of every (timestep, obstacle) pair: the direction of
    # increasing clearance, the robot witness point and the link index,
    # plus the trajectory's ChainFrames, kept so convexification reuses the
    # distance queries and the kinematics pass done here.
    normals: np.ndarray               # (T, n_obstacles, dim)
    witnesses: np.ndarray             # (T, n_obstacles, dim)
    links: np.ndarray                 # (T, n_obstacles) link indices
    frames: object


@dataclass
class PlanResult:
    trajectory: np.ndarray
    allocation: np.ndarray
    status: str
    objective: float
    certified_risks: np.ndarray
    report: ConstraintReport
    iterations: list = field(default_factory=list)
    runtime: float = 0.0

    @property
    def total_risk(self):
        return float(self.certified_risks.sum())


def seed_trajectory(problem):
    """Straight-line joint-space seed with a uniform risk allocation."""
    T = problem.timesteps
    w = np.linspace(0.0, 1.0, T)[:, None]
    traj = (1.0 - w) * problem.start + w * problem.goal
    allocation = np.full(T, problem.risk_budget / T)
    return traj, allocation


def path_objective(trajectory):
    steps = np.diff(trajectory, axis=0)
    return float(np.sum(steps * steps))


def _body_distances(groups, n_bodies, obstacle):
    """Signed distances of every posed link shape to the obstacle's nominal
    geometry: a DistanceResult of (T, n_bodies) arrays, one kernel call per
    link group."""
    T, _, _, dim = groups[0].vertices.shape
    sd = np.empty((T, n_bodies))
    wa, wb, n = (np.empty((T, n_bodies, dim)) for _ in range(3))
    for g in groups:
        G, k = g.vertices.shape[1:3]
        res = distances(g.vertices.reshape(T * G, k, dim),
                        np.tile(g.radii, T), g.boundary, obstacle.nominal)
        sd[:, g.bodies] = res.signed_distance.reshape(T, G)
        wa[:, g.bodies] = res.witness_a.reshape(T, G, dim)
        wb[:, g.bodies] = res.witness_b.reshape(T, G, dim)
        n[:, g.bodies] = res.normal.reshape(T, G, dim)
    return DistanceResult(sd, wa, wb, n)


def _certify_pair(robot, theta, obstacle, sd, eps_tol, shapes=None,
                  body_contacts=None):
    """Certification with a cheap far-pair shortcut.

    Touching the obstacle requires a displacement of Euclidean length at
    least ``sd``, so sd^2 / lambda_max(Sigma) bounds the squared Mahalanobis
    distance from below; when even that survival probability is under the
    floor, the full search is skipped.
    """
    if sd > 0.0:
        c_low = (sd / obstacle.sigma_max) ** 2
        if chi2_sf(c_low, obstacle.dim) < eps_tol:
            return RiskCertificate(eps_tol, eps_tol, eps_tol, False,
                                   floored=True, floored2=True)
    return certify_risk(robot, theta, obstacle, eps_tol=eps_tol,
                        shapes=shapes, body_contacts=body_contacts)


def evaluate_constraints(problem, trajectory, allocation, eps_tol=1e-6,
                         include_risk=True, margins=None):
    """Fresh certification and signed distances along a trajectory.

    ``include_risk=False`` skips certification (risk-blind solves constrain
    signed distance only); ``margins`` optionally overrides the problem's
    scalar margin with a per-(timestep, obstacle) array.
    """
    T = problem.timesteps
    robot = problem.robot
    n_obs = len(problem.obstacles)
    if margins is None:
        margins = np.full((T, n_obs), problem.margin)
    frames = trajectory_frames(robot, trajectory)
    groups = posed_link_groups(robot, frames)
    n_bodies = sum(len(g.bodies) for g in groups)
    links = np.empty(n_bodies, dtype=int)
    for g in groups:
        links[g.bodies] = g.links
    steps = np.arange(T)
    sds = np.zeros((T, n_obs))
    normals = np.zeros((T, n_obs, robot.dim))
    witnesses = np.zeros((T, n_obs, robot.dim))
    nearest = np.zeros((T, n_obs), dtype=int)
    contacts = []
    for o, ob in enumerate(problem.obstacles):
        res = _body_distances(groups, n_bodies, ob)
        k = np.argmin(res.signed_distance, axis=1)
        sds[:, o] = res.signed_distance[steps, k]
        # res.normal points from the robot into the obstacle; its negation
        # is the direction of increasing clearance.
        normals[:, o] = -res.normal[steps, k]
        witnesses[:, o] = res.witness_a[steps, k]
        nearest[:, o] = links[k]
        contacts.append(res)
    certs = []
    risk_totals = np.zeros(T)
    for t in range(T):
        if not include_risk:
            certs.append([])
            continue
        shapes = [None] * n_bodies
        for g in groups:
            for j, b in enumerate(g.bodies):
                shapes[b] = (g.links[j], SweptHull(g.vertices[t, j],
                                                   g.radii[j], g.boundary))
        row = []
        for o, ob in enumerate(problem.obstacles):
            res = contacts[o]
            cert = _certify_pair(
                robot, trajectory[t], ob, sds[t, o], eps_tol, shapes,
                DistanceResult(res.signed_distance[t], res.witness_a[t],
                               res.witness_b[t], res.normal[t]))
            row.append(cert)
            risk_totals[t] += cert.eps_prime
        certs.append(row)
    sd_res = np.maximum(0.0, margins - sds)
    if include_risk:
        risk_res = np.maximum(0.0, risk_totals - allocation)
        alloc_res = max(0.0, float(allocation.sum()) - problem.risk_budget)
    else:
        risk_res = np.zeros(T)
        alloc_res = 0.0
    total = float(sd_res.sum() + risk_res.sum() + alloc_res)
    max_v = float(max(sd_res.max(initial=0.0), risk_res.max(initial=0.0),
                      alloc_res))
    return ConstraintReport(sds, certs, risk_totals, risk_res, sd_res,
                            alloc_res, max_v, total, normals, witnesses,
                            nearest, frames)


def convexify(problem, trajectory, allocation, report, mu, radius,
              include_risk=True, margins=None):
    """Build the convex subproblem around the current iterate.

    Decision variables: [theta_0..theta_{T-1} | delta_0..delta_{T-1} |
    slack per signed-distance row | slack per risk row]. Endpoints enter as
    equality rows; the trust region and joint limits as box bounds.
    With ``include_risk=False`` the risk and allocation rows are dropped
    (the variables remain, pinned harmlessly by their regularizer), and
    ``margins`` overrides the scalar margin per (timestep, obstacle).
    """
    robot = problem.robot
    T = problem.timesteps
    dof = robot.dof
    n_obs = len(problem.obstacles)
    n_th = T * dof
    n_sd = T * n_obs
    n_risk = T
    n = n_th + T + n_sd + n_risk

    def th_slice(t):
        return slice(t * dof, (t + 1) * dof)

    def delta_idx(t):
        return n_th + t

    def sd_slack(t, o):
        return n_th + T + t * n_obs + o

    def risk_slack(t):
        return n_th + T + n_sd + t

    # Objective: sum of squared steps + mu * slacks (+ small curvature).
    H = np.zeros((n, n))
    D = np.zeros((T - 1, T))
    for t in range(T - 1):
        D[t, t] = -1.0
        D[t, t + 1] = 1.0
    K = D.T @ D
    # Anchor the endpoint blocks so the path Hessian is positive definite
    # (K alone is blind to a constant shift). The added terms
    # |theta_0 - start|^2 + |theta_{T-1} - goal|^2 vanish on the equality
    # rows, so the optimum is unchanged.
    K[0, 0] += 1.0
    K[T - 1, T - 1] += 1.0
    H[:n_th, :n_th] = 2.0 * np.kron(K, np.eye(dof))
    for t in range(T):
        H[delta_idx(t), delta_idx(t)] = 2.0 * DELTA_REG
    sq = 2.0 * SLACK_CURVATURE * mu
    for i in range(n_th + T, n):
        H[i, i] = sq
    f = np.zeros(n)
    f[th_slice(0)] = -2.0 * problem.start
    f[th_slice(T - 1)] = -2.0 * problem.goal
    f[n_th + T:] = mu

    # Endpoint equalities.
    a_eq = np.zeros((2 * dof, n))
    b_eq = np.concatenate([problem.start, problem.goal])
    a_eq[:dof, th_slice(0)] = np.eye(dof)
    a_eq[dof:, th_slice(T - 1)] = np.eye(dof)

    if margins is None:
        margins = np.full((T, n_obs), problem.margin)
    rows = []
    rhs = []
    for t in range(T):
        th = trajectory[t]
        frames = report.frames.step(t)
        # Signed-distance rows: sd0 + n.J (theta - th) + s >= margin.
        for o, ob in enumerate(problem.obstacles):
            sd0 = report.signed_distances[t, o]
            J = point_jacobian(robot, th, report.links[t, o],
                               report.witnesses[t, o], frames)
            g = report.normals[t, o] @ J
            row = np.zeros(n)
            row[th_slice(t)] = -g
            row[sd_slack(t, o)] = -1.0
            rows.append(row)
            rhs.append(sd0 - margins[t, o] - float(g @ th))
        if not include_risk:
            continue
        # Risk row: sum_O [eps0 + grad.(theta - th)] <= delta_t + s.
        # Saturated pairs are omitted (escape is driven by the distance row).
        eps_sum = 0.0
        grad_sum = np.zeros(dof)
        for o, ob in enumerate(problem.obstacles):
            cert = report.certificates[t][o]
            if cert.saturated:
                continue
            eps_sum += cert.eps_prime
            grad_sum += risk_gradient(cert, robot, th, ob, frames)
        row = np.zeros(n)
        row[th_slice(t)] = grad_sum
        row[delta_idx(t)] = -1.0
        row[risk_slack(t)] = -1.0
        rows.append(row)
        rhs.append(float(grad_sum @ th) - eps_sum)
    if include_risk:
        # Allocation budget.
        row = np.zeros(n)
        row[n_th:n_th + T] = 1.0
        rows.append(row)
        rhs.append(problem.risk_budget)

    lo = np.full(n, -np.inf)
    hi = np.full(n, np.inf)
    limits_lo = np.array([j.lower for j in robot.joints])
    limits_hi = np.array([j.upper for j in robot.joints])
    for t in range(T):
        lo[th_slice(t)] = np.maximum(trajectory[t] - radius, limits_lo)
        hi[th_slice(t)] = np.minimum(trajectory[t] + radius, limits_hi)
    lo[n_th:n_th + T] = 0.0
    hi[n_th:n_th + T] = problem.risk_budget
    lo[n_th + T:] = 0.0

    const = float(problem.start @ problem.start + problem.goal @ problem.goal)
    a_ineq = np.array(rows) if rows else None
    b_ineq = np.array(rhs) if rhs else None
    return QuadraticProgram(H, f, a_ineq=a_ineq, b_ineq=b_ineq,
                            a_eq=a_eq, b_eq=b_eq, lo=lo, hi=hi,
                            constant=const)


def _merit(problem, trajectory, allocation, mu, eps_tol, include_risk=True,
           margins=None):
    report = evaluate_constraints(problem, trajectory, allocation, eps_tol,
                                  include_risk, margins)
    return path_objective(trajectory) + mu * report.total_violation, report


def _model_merit(sol, n_th, T, mu):
    """QP objective with the regularization terms stripped."""
    s = sol.z[n_th + T:]
    d = sol.z[n_th:n_th + T]
    return (sol.objective
            - SLACK_CURVATURE * mu * float(s @ s)
            - DELTA_REG * float(d @ d))


def solve(problem, config=None, include_risk=True, margins=None):
    """Run the penalty / trust-region sequential convex optimization loop.

    ``include_risk=False`` plans against nominal geometry only (deterministic
    signed-distance constraints); ``margins`` optionally gives per-(timestep,
    obstacle) clearance margins overriding the problem's scalar margin.
    """
    cfg = config or SCOConfig()
    t_start = time.perf_counter()
    trajectory, allocation = seed_trajectory(problem)
    T = problem.timesteps
    dof = problem.robot.dof
    n_th = T * dof
    log = []

    report = evaluate_constraints(problem, trajectory, allocation,
                                  cfg.eps_tol, include_risk, margins)
    mu = MU_INITIAL
    # Every QP of a solve has the same rows and, per penalty weight, the
    # same Hessian: factor each Hessian once and start each QP from the
    # previous QP's active set.
    factors = HessianFactors()
    warm = None
    status = PLAN_INFEASIBLE
    outer = 0
    while True:
        outer += 1
        if outer > MAX_OUTER:
            status = ITERATION_LIMIT
            break
        radius = RADIUS_INITIAL
        merit_cur = path_objective(trajectory) + mu * report.total_violation
        for inner in range(MAX_INNER):
            qp = convexify(problem, trajectory, allocation, report, mu,
                           radius, include_risk, margins)
            if warm is None:
                # The first QP starts with every allocation and slack fixed
                # at zero, the state in which no constraint needs slack.
                warm = ActiveSet(lower=tuple(range(n_th, qp.n)))
            sol = solve_qp(qp, warm_start=warm, factors=factors)
            if sol.status != OPTIMAL:
                # The slacks make every subproblem feasible, yet the solver
                # can stop short of the optimum (its iteration limit, or
                # roundoff read as infeasibility); that z need not satisfy
                # the model's constraints, so it is no step to try.
                break
            warm = sol.active_set
            cand_traj = sol.z[:n_th].reshape(T, dof).copy()
            cand_traj[0] = problem.start
            cand_traj[-1] = problem.goal
            cand_alloc = np.maximum(sol.z[n_th:n_th + T], 0.0)
            model_new = _model_merit(sol, n_th, T, mu)
            predicted = merit_cur - model_new
            if predicted <= cfg.tolerance:
                break
            if (report.max_violation <= cfg.tolerance
                    and predicted <= POLISH_TOLERANCE
                    * max(1.0, merit_cur)):
                break
            merit_new, cand_report = _merit(problem, cand_traj, cand_alloc,
                                            mu, cfg.eps_tol, include_risk,
                                            margins)
            ratio = (merit_cur - merit_new) / predicted
            accepted = ratio >= RATIO_THRESHOLD
            log.append({
                "mu": mu, "inner": inner, "radius": radius,
                "objective": path_objective(cand_traj),
                "merit": merit_new, "predicted": predicted,
                "ratio": ratio, "accepted": bool(accepted),
                "max_violation": cand_report.max_violation,
                "allocation_total": float(cand_alloc.sum()),
                "qp_steps": sol.iterations,
                "qp_active_rows": len(sol.active_set.rows),
                "qp_fixed_variables": len(sol.active_set.lower)
                + len(sol.active_set.upper),
            })
            if accepted:
                trajectory, allocation = cand_traj, cand_alloc
                report = cand_report
                merit_cur = merit_new
                radius = min(radius * RADIUS_EXPAND, RADIUS_INITIAL)
            else:
                radius *= RADIUS_SHRINK
                if radius < RADIUS_MIN:
                    break
        if report.max_violation <= cfg.tolerance:
            status = CONVERGED
            break
        mu *= MU_GROWTH
        if mu > MU_MAX:
            status = PLAN_INFEASIBLE
            break

    risks = report.risk_totals.copy()
    return PlanResult(trajectory, allocation, status,
                      path_objective(trajectory), risks, report, log,
                      runtime=time.perf_counter() - t_start)
