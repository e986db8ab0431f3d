"""Chance-constrained trajectory optimization by sequential convexification.

The planner minimizes joint-space path length subject to, at every timestep:
a signed-distance margin against nominal obstacle geometry, certified
collision risk within a per-timestep allocation delta_t, and a global budget
sum(delta_t) <= Delta. Each iteration linearizes the distance and risk
constraints around the current trajectory, solves a convex QP with exact-l1
constraint slacks inside a trust region, and accepts steps by a true-merit
improvement ratio. The penalty weight on slacks grows until the true
(re-certified) constraints are satisfied.

A solve computes its constants once: the start and goal rows of the
constraint passes in the first pass, one linearization per accepted iterate
(a rejected step only shrinks the trust region), and one objective, checked
and factored once, per penalty weight.
"""

import dataclasses
import time
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .geometry import DistanceResult, distances
from .kinematics import point_jacobians, posed_link_groups, trajectory_frames
from .chi2 import chi2_pdf
from .qp import (OPTIMAL, ActiveSet, HessianFactors, QuadraticProgram,
                 check_hessian, solve_qp)
from .risk import (LaneCertificates, certify_lanes, first_contacts,
                   weighted_jacobians)

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
    """Convergence tolerance on the true constraint violation, and the
    certificates' eps_tol."""

    tolerance: float = 1e-4
    eps_tol: float = 1e-6

    def __post_init__(self):
        for name in ("tolerance", "eps_tol"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")


@dataclass
class ConstraintReport:
    signed_distances: np.ndarray      # (T, n_obstacles)
    # The certificate of every (timestep, obstacle) pair, LaneCertificates
    # over (T, n_obstacles); None when the pass skips certification.
    risk: LaneCertificates
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

    @cached_property
    def certificates(self):
        """[t][o] RiskCertificate of every pair (empty rows without
        certification)."""
        T, n_obs = self.signed_distances.shape
        if self.risk is None:
            return [[] for _ in range(T)]
        return [[self.risk.certificate((t, o)) for o in range(n_obs)]
                for t in range(T)]


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
    """Straight-line joint-space seed with a uniform risk allocation. Its
    first and last rows are the start and goal themselves (the blend can
    flip the sign of a zero), as in every later iterate of a solve."""
    T = problem.timesteps
    w = np.linspace(0.0, 1.0, T)[:, None]
    traj = (1.0 - w) * problem.start + w * problem.goal
    traj[0], traj[-1] = problem.start, problem.goal
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


def evaluate_constraints(problem, trajectory, allocation, eps_tol=1e-6,
                         include_risk=True, margins=None, ends=None):
    """Fresh certification and signed distances along a trajectory.

    ``include_risk=False`` skips certification (risk-blind solves constrain
    signed distance only); ``margins`` optionally overrides the problem's
    scalar margin with a per-(timestep, obstacle) array. ``ends`` is the
    report of an earlier pass over a trajectory with the same first and
    last rows, at the same ``eps_tol`` and ``include_risk``: the start and
    goal are constants of a solve, so their rows (distances, witnesses,
    certificates) are taken from it and only the interior rows are
    computed. The residuals are formed from ``margins`` in every pass.

    Every layer runs over arrays: one kinematics walk, then per obstacle
    one distance call and one first search per link group over the
    computed steps, and one ``certify_lanes`` call over every (step,
    obstacle) pair.
    """
    T = problem.timesteps
    robot = problem.robot
    n_obs = len(problem.obstacles)
    if margins is None:
        margins = np.full((T, n_obs), problem.margin)
    frames = trajectory_frames(robot, trajectory)
    sds = np.zeros((T, n_obs))
    normals = np.zeros((T, n_obs, robot.dim))
    witnesses = np.zeros((T, n_obs, robot.dim))
    nearest = np.zeros((T, n_obs), dtype=int)
    risk = None
    if include_risk:
        risk = (LaneCertificates.empty((T, n_obs), robot.dim)
                if ends is None else ends.risk.copy())
    first, stop = 0, T      # the rows computed here
    if ends is not None:
        if not (ends.signed_distances.shape == sds.shape
                and np.array_equal(ends.frames.states[[0, -1]],
                                   frames.states[[0, -1]])):
            raise ValueError("ends is not a report of this problem's "
                             "start and goal")
        first, stop = 1, T - 1
        for t in (0, T - 1):
            sds[t], normals[t] = ends.signed_distances[t], ends.normals[t]
            witnesses[t], nearest[t] = ends.witnesses[t], ends.links[t]
    if stop > first:
        groups = posed_link_groups(robot, frames)
        if ends is not None:
            groups = [dataclasses.replace(g, vertices=g.vertices[first:stop])
                      for g in groups]
        n_bodies = sum(len(g.bodies) for g in groups)
        links = np.empty(n_bodies, dtype=int)
        for g in groups:
            links[g.bodies] = g.links
        steps = np.arange(stop - first)
        if include_risk:
            # The first searches of every (step, obstacle, body) lane.
            c = np.empty((stop - first, n_obs, n_bodies))
            wa, wb = np.empty((2, stop - first, n_obs, n_bodies, robot.dim))
        for o, ob in enumerate(problem.obstacles):
            res = _body_distances(groups, n_bodies, ob)
            k = np.argmin(res.signed_distance, axis=1)
            sds[first:stop, o] = res.signed_distance[steps, k]
            # res.normal points from the robot into the obstacle; its
            # negation is the direction of increasing clearance.
            normals[first:stop, o] = -res.normal[steps, k]
            witnesses[first:stop, o] = res.witness_a[steps, k]
            nearest[first:stop, o] = links[k]
            if include_risk:
                c[:, o], wa[:, o], wb[:, o] = first_contacts(groups, res, ob,
                                                             eps_tol)
        if include_risk and n_obs:
            risk.put((slice(first, stop),), certify_lanes(
                groups, c, wa, wb, problem.obstacles, eps_tol))
    sd_res = np.maximum(0.0, margins - sds)
    risk_totals = np.zeros(T)
    if include_risk:
        for o in range(n_obs):
            risk_totals += risk.eps_prime[:, o]
        risk_res = np.maximum(0.0, risk_totals - allocation)
        alloc_res = max(0.0, float(allocation.sum()) - problem.risk_budget)
    else:
        risk_res = np.zeros(T)
        alloc_res = 0.0
    total = float(sd_res.sum() + risk_res.sum() + alloc_res)
    max_v = float(max(sd_res.max(initial=0.0), risk_res.max(initial=0.0),
                      alloc_res))
    return ConstraintReport(sds, risk, risk_totals, risk_res, sd_res,
                            alloc_res, max_v, total, normals, witnesses,
                            nearest, frames)


def _risk_terms(problem, report):
    """The risk rows' terms, (T, dof) gradients and (T,) values: per
    timestep, the sum of eps_prime over the unsaturated certificates and
    of its gradient (zero at the fixed endpoints), from the pass's
    LaneCertificates. The gradient is the sum of w . J over each shadow
    with a gradient (as ``risk.risk_weights`` gives them), in (step,
    obstacle, shadow) order, from one ``weighted_jacobians`` call."""
    T = problem.timesteps
    risk = report.risk
    eps = np.zeros(T)
    for o in range(len(problem.obstacles)):
        eps += np.where(risk.saturated[:, o], 0.0, risk.eps_prime[:, o])
    # (step, obstacle, shadow) arrays over the interior steps: a shadow
    # has a gradient if it has a contact and is not floored.
    inner = slice(1, T - 1)
    scalars = risk.scalars[:, inner].transpose(1, 2, 0)
    live = (scalars[..., 8:] >= 0.0) & (scalars[..., 6:8] == 0.0)
    t, o, _ = np.nonzero(live)
    c = scalars[..., 3:5][live]
    links = scalars[..., 8:][live].astype(int)
    x = risk.vectors[1:3, inner].transpose(1, 2, 0, 3)[live]
    points = risk.vectors[3:, inner].transpose(1, 2, 0, 3)[live]
    dim = problem.robot.dim
    sigma_inv = np.array([ob.sigma_inv for ob in problem.obstacles]).reshape(
        -1, dim, dim)[o]
    pdf = np.array([chi2_pdf(v, dim) for v in c.tolist()])
    w = -pdf[:, None] * (sigma_inv @ x[:, :, None])[:, :, 0]
    return weighted_jacobians(problem.robot, report.frames, t + 1, w,
                              links, points, T), eps


def convexify(problem, trajectory, report, mu, radius, include_risk=True,
              margins=None, objective=None):
    """Build the convex subproblem around the current iterate.

    Decision variables: [theta_1..theta_{T-2} | delta_0..delta_{T-1} |
    slack per signed-distance row | slack per risk row]. The endpoints
    theta_0 = start and theta_{T-1} = goal are constants; the trust region
    and joint limits are box bounds (``_trust_region``). With
    ``include_risk=False`` the risk and allocation rows are dropped (the
    variables remain, pinned harmlessly by their regularizer), and
    ``margins`` overrides the scalar margin per (timestep, obstacle).
    ``objective`` is the ``_objective`` at this ``mu``, which a solve
    builds once per penalty weight.

    Rows, per timestep t: a signed-distance row per obstacle,
    sd0 + n.J (theta_t - th) + s >= margin, then (with risk) the risk row
    sum_O [eps0 + grad.(theta_t - th)] <= delta_t + s; the allocation budget
    row comes last. Saturated pairs are left out of the risk row (escape is
    driven by the distance row). An endpoint's rows have no theta columns.
    Every row block is filled from arrays.
    """
    robot = problem.robot
    T = problem.timesteps
    dof = robot.dof
    n_obs = len(problem.obstacles)
    n_th = (T - 2) * dof
    n_sd = T * n_obs
    n = n_th + T + n_sd + T
    if margins is None:
        margins = np.full((T, n_obs), problem.margin)
    H, f, const = objective or _objective(problem, mu)

    per = n_obs + include_risk
    theta_cols = np.arange(n_th).reshape(T - 2, dof)
    inner = np.arange(1, T - 1)
    A = np.zeros((per * T + include_risk, n))
    b = np.empty(len(A))
    # Signed-distance rows, from the closest link of every pair.
    sd_rows = per * np.arange(T)[:, None] + np.arange(n_obs)
    J = point_jacobians(robot, report.frames, np.repeat(inner, n_obs),
                        report.links[inner].ravel(),
                        report.witnesses[inner].reshape(-1, robot.dim))
    g = np.zeros((T, n_obs, dof))
    g[inner] = np.einsum("nd,ndk->nk",
                         report.normals[inner].reshape(-1, robot.dim),
                         J).reshape(T - 2, n_obs, dof)
    A[sd_rows[inner, :, None], theta_cols[:, None]] = -g[inner]
    A[sd_rows, n_th + T + np.arange(n_sd).reshape(T, n_obs)] = -1.0
    b[sd_rows] = (report.signed_distances - margins
                  - np.einsum("tok,tk->to", g, trajectory))
    if include_risk:
        risk_rows = per * np.arange(T) + n_obs
        grad, eps = _risk_terms(problem, report)
        A[risk_rows[inner, None], theta_cols] = grad[inner]
        A[risk_rows, n_th + np.arange(T)] = -1.0
        A[risk_rows, n_th + T + n_sd + np.arange(T)] = -1.0
        b[risk_rows] = np.einsum("tk,tk->t", grad, trajectory) - eps
        # Allocation budget.
        A[-1, n_th:n_th + T] = 1.0
        b[-1] = problem.risk_budget

    if not len(A):
        A = b = None
    return QuadraticProgram._trusted(
        H, f, A, b, *_trust_region(problem, trajectory, radius), const)


def _objective(problem, mu):
    """The subproblems' objective at penalty weight ``mu``, (H, f,
    constant) over ``convexify``'s variables: the sum of squared steps over
    [start; theta; goal], mu times the slacks, and the small curvature of
    the allocations and slacks. H is checked here, once per weight.

    The path block of H is 2 K (x) I_dof: K, the interior block of D^T D
    for the step difference operator D, is tridiagonal with 2 on and -1
    beside the diagonal, and positive definite. The first and last steps
    give the linear term and the constant.
    """
    T = problem.timesteps
    dof = problem.robot.dof
    n_th = (T - 2) * dof
    n = n_th + T + T * len(problem.obstacles) + T
    H = np.zeros((n, n))
    diag = np.arange(n)
    H[diag, diag] = np.select([diag < n_th, diag < n_th + T],
                              [4.0, 2.0 * DELTA_REG],
                              2.0 * SLACK_CURVATURE * mu)
    off = np.arange(n_th - dof)
    H[off, off + dof] = H[off + dof, off] = -2.0
    check_hessian(H)
    f = np.zeros(n)
    if T > 2:
        f[:dof] -= 2.0 * problem.start
        f[n_th - dof:n_th] -= 2.0 * problem.goal
        const = float(problem.start @ problem.start
                      + problem.goal @ problem.goal)
    else:
        const = path_objective(np.array([problem.start, problem.goal]))
    f[n_th + T:] = mu
    return H, f, const


def _trust_region(problem, trajectory, radius):
    """The subproblem's box bounds (lo, hi): each interior waypoint within
    ``radius`` of ``trajectory`` and inside the joint limits, allocations
    in [0, budget], slacks nonnegative."""
    T = problem.timesteps
    n_th = (T - 2) * problem.robot.dof
    n = n_th + T + T * len(problem.obstacles) + T
    limits = np.array([[j.lower, j.upper] for j in problem.robot.joints])
    lo = np.full(n, -np.inf)
    hi = np.full(n, np.inf)
    lo[:n_th] = np.maximum(trajectory[1:-1] - radius, limits[:, 0]).ravel()
    hi[:n_th] = np.minimum(trajectory[1:-1] + radius, limits[:, 1]).ravel()
    lo[n_th:] = 0.0
    hi[n_th:n_th + T] = problem.risk_budget
    return lo, hi


def _merit(problem, trajectory, allocation, mu, eps_tol, include_risk,
           margins, ends):
    report = evaluate_constraints(problem, trajectory, allocation, eps_tol,
                                  include_risk, margins, ends)
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
    With risk, a problem whose start and goal alone carry more certified
    risk than the budget is infeasible after the first pass, before any QP.
    """
    cfg = config or SCOConfig()
    t_start = time.perf_counter()
    trajectory, allocation = seed_trajectory(problem)
    T = problem.timesteps
    dof = problem.robot.dof
    n_th = (T - 2) * dof
    log = []

    # The first pass certifies the start and goal; every later pass takes
    # their rows from it.
    report = ends = evaluate_constraints(problem, trajectory, allocation,
                                         cfg.eps_tol, include_risk, margins)
    if include_risk and (float(ends.risk_totals[0] + ends.risk_totals[-1])
                         > problem.risk_budget):
        # The endpoints alone exceed the budget: no trajectory meets it.
        return PlanResult(trajectory, allocation, PLAN_INFEASIBLE,
                          path_objective(trajectory),
                          report.risk_totals.copy(), report, log,
                          runtime=time.perf_counter() - t_start)
    mu = MU_INITIAL
    # Every QP of a solve has the same rows and, per penalty weight, the
    # same objective: build and factor each Hessian once and start each QP
    # from the previous QP's active set.
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
        objective = _objective(problem, mu)
        qp = None
        for inner in range(MAX_INNER):
            if qp is None:
                qp = convexify(problem, trajectory, report, mu, radius,
                               include_risk, margins, objective)
            else:
                # A rejected step leaves the iterate and so its
                # linearization: only the trust region shrinks.
                qp = QuadraticProgram._trusted(
                    qp.hessian, qp.linear, qp.a_ineq, qp.b_ineq,
                    *_trust_region(problem, trajectory, radius),
                    qp.constant)
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
            cand_traj = np.concatenate([problem.start, sol.z[:n_th],
                                        problem.goal]).reshape(T, dof)
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
                                            margins, ends)
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
                qp = None
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
