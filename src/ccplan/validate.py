"""Monte Carlo ground truth for collision risk, and the baseline planners.

Obstacle positions are uncertain but static: each trial draws one Gaussian
displacement per obstacle and holds it fixed along the whole trajectory.
Random streams are counter-based (Philox) keyed by (seed, obstacle index), so
reports are bit-reproducible and trials can be partitioned across workers.
"""

import math
from dataclasses import dataclass

import numpy as np

from .geometry import DISTANCE_BLOCK, _closest_cores, _unseparated
from .kinematics import posed_link_groups, trajectory_frames
from .planner import CONVERGED, ITERATION_LIMIT, solve

# Margin growth step for iterative risk allocation, as a multiple of the
# obstacle's largest displacement standard deviation.
IRA_MARGIN_ETA = 0.5

# Tolerance of the exact Monte Carlo hit test: a sample hits when the
# distance between the link's and the displaced obstacle's cores is within
# the radius plus this.
HIT_TOL = 1e-9
# Room the supporting-plane cull leaves beyond HIT_TOL, so that roundoff in
# |d|, n.d and the plane gap never drops a sample the exact test would
# count (all are absolute, like the scene's coordinates).
CULL_SLACK = 1e-9


@dataclass
class MonteCarloReport:
    sample_count: int
    hit_count: int
    estimate: float
    standard_error: float
    seed: int

    def to_dict(self):
        return {
            "sampleCount": self.sample_count,
            "hitCount": self.hit_count,
            "estimate": self.estimate,
            "standardError": self.standard_error,
            "seed": self.seed,
        }


def _report(n, hits, seed):
    p = hits / n
    se = math.sqrt(p * (1.0 - p) / n)
    return MonteCarloReport(n, int(hits), float(p), float(se), int(seed))


def _displacements(obstacle, n, seed, obstacle_index):
    gen = np.random.Generator(
        np.random.Philox(key=np.uint64([seed, obstacle_index])))
    z = gen.standard_normal(size=(n, obstacle.dim))
    return z @ obstacle.chol.T


class _ObstacleSamples:
    """One obstacle's displacement draws, with their norms sorted once so
    that the pairs of a link group find their candidates with one binary
    search."""

    def __init__(self, obstacle, n_samples, seed, obstacle_index):
        self.nominal = obstacle.nominal
        self.radius = obstacle.nominal.radius
        self.D = _displacements(obstacle, n_samples, seed, obstacle_index)
        norms = np.sqrt(np.einsum("ij,ij->i", self.D, self.D))
        self.order = np.argsort(norms)
        self.sorted_norms = norms[self.order]

    def mark_hits(self, group, done, rows):
        """Mark in ``done`` the samples that hit a member of the link group
        ``group`` (see ``_swept_shapes``): a hit at timestep t is marked in
        row ``rows[t]`` of the (R, n) mask ``done``, and samples already
        marked in that row are not tested again. The one Monte Carlo hit
        test.

        The obstacle displaced by d hits a link shape when the link placed
        at Vt - d comes within r = rt + radius of the nominal obstacle
        core. One kernel call on the nominal placements gives, per pair,
        the closest candidate pair (wa, wb) of the cores and their
        supporting plane (gap, n), n the unit direction from wa to wb
        (zero where they touch). The cores are then dist(d, W) apart, W =
        conv(Vt) - core, and every w of W has n.w <= -gap, so dist(d, W)
        >= gap + n.d and, as |n| <= 1, >= gap - |d|; gap < 0 where n does
        not separate the cores, and n = 0 culls nothing. A sample whose
        bound exceeds r + HIT_TOL + CULL_SLACK cannot hit and is skipped:
        first the short displacements, by one binary search in the sorted
        norms, then, among those left and not marked, the ones that stop
        short of the plane. wa - d and wb are points of the displaced link
        and of the obstacle core, so dist(d, W) <= |wb - wa + d|, summed
        as vectors (its expansion by dot products would lose about
        sqrt(eps) |d| where it nears 0). A sample whose bound is at most
        r + HIT_TOL - CULL_SLACK is a hit without the exact test, which
        would count it too: the kernel's distance is within a few 1e-13
        of the scene's extent of the true one. The rest are queued over
        the group's pairs and go to the planner's distance kernel
        together, once they fill DISTANCE_BLOCK elements of placements
        and at the group's end: a sample hits where the cores' closest
        candidate pair is within r + HIT_TOL, or where their supporting
        planes do not prove them apart (``_unseparated``), as overlapping
        cores do. So the hits are those of testing every sample.
        """
        steps, members = group.vertices.shape[:2]
        V = group.vertices.reshape(-1, *group.vertices.shape[2:])
        wa, wb, _, n, gap = _closest_cores(V, group.boundary, self.nominal)
        w = wb - wa
        r = np.tile(group.radii + self.radius, steps)
        row = np.repeat(rows, members)
        reach = r + HIT_TOL + CULL_SLACK
        sure = r + HIT_TOL - CULL_SLACK
        starts = np.searchsorted(self.sorted_norms, gap - reach)
        block = max(1, DISTANCE_BLOCK // V[0].size)
        queue, queued = [], 0
        for p in np.flatnonzero(starts < len(self.order)):
            marked = done[row[p]]
            candidates = self.order[starts[p]:]
            candidates = candidates[~marked[candidates]]
            d = self.D[candidates]
            near = d @ n[p] <= reach[p] - gap[p]
            candidates, e = candidates[near], d[near] + w[p]
            sure_hit = np.sqrt(np.einsum("ij,ij->i", e, e)) <= sure[p]
            marked[candidates[sure_hit]] = True
            queue.append((p, candidates[~sure_hit]))
            queued += len(queue[-1][1])
            if queued >= block:
                self._flush(V, group.boundary, r, row, queue, done)
                queue, queued = [], 0
        if queued:
            self._flush(V, group.boundary, r, row, queue, done)

    def _flush(self, V, boundary, r, row, queue, done):
        """The exact test of the (placement, samples) pairs queued by
        ``mark_hits``, in one kernel call: marks the hits in ``done``."""
        p = np.concatenate([np.full(len(s), q) for q, s in queue])
        s = np.concatenate([s for _, s in queue])
        Va = V[p] - self.D[s, None, :]
        _, _, d, _, gap = _closest_cores(Va, boundary, self.nominal)
        hit = (d <= r[p] + HIT_TOL) | _unseparated(Va, gap, self.nominal)
        done[row[p[hit]], s[hit]] = True


def _swept_shapes(robot, trajectory):
    """The link shapes posed at every timestep, grouped by topology
    (``posed_link_groups``), from one kinematics pass."""
    trajectory = np.atleast_2d(np.asarray(trajectory, dtype=float))
    return posed_link_groups(robot, trajectory_frames(robot, trajectory))


def monte_carlo_risk(robot, trajectory, obstacles, n_samples, seed):
    """Estimate the probability that the swept trajectory hits any obstacle.

    A trial is a joint draw of one displacement per obstacle; it counts as a
    hit if any timestep configuration intersects any displaced obstacle.

    Each (timestep, link shape, obstacle) pair tests only the trials not yet
    hit, and culls those whose displacement d cannot bring the cores within
    the hit radius: the supporting plane that separates the nominal link
    and obstacle cores, at gap along its unit normal n, bounds their
    distance after the displacement by gap + n.d, so a trial is skipped
    only when that bound exceeds the hit radius plus the exact test's
    tolerance and a slack. The nominal cores' closest points bound that
    distance from above, so a trial they bring within the hit radius is a
    hit at once; the others go to the exact test, a block of them per
    kernel call (``_ObstacleSamples.mark_hits``). The hit count is the one
    that testing every trial exactly gives.
    """
    if n_samples < 1:
        raise ValueError("sample count must be >= 1")
    groups = _swept_shapes(robot, trajectory)
    rows = np.zeros(len(np.atleast_2d(trajectory)), dtype=int)
    hit = np.zeros((1, n_samples), dtype=bool)
    for oi, ob in enumerate(obstacles):
        samples = _ObstacleSamples(ob, n_samples, seed, oi)
        for g in groups:
            samples.mark_hits(g, hit, rows)
    return _report(n_samples, int(hit.sum()), seed)


def _pair_hit_estimates(robot, trajectory, draws):
    """Sampled hit probability per (timestep, obstacle) plus the joint
    trajectory-level estimate, from ``draws``, one ``_ObstacleSamples``
    per obstacle (at least one), all of the same sample count."""
    groups = _swept_shapes(robot, trajectory)
    T = len(np.atleast_2d(trajectory))
    n_samples = len(draws[0].D)
    probs = np.zeros((T, len(draws)))
    any_hit = np.zeros(n_samples, dtype=bool)
    for oi, samples in enumerate(draws):
        hit_t = np.zeros((T, n_samples), dtype=bool)
        for g in groups:
            samples.mark_hits(g, hit_t, np.arange(T))
        probs[:, oi] = hit_t.mean(axis=1)
        any_hit |= hit_t.any(axis=0)
    return probs, float(any_hit.mean())


def risk_blind_plan(problem, config=None):
    """Baseline planner that ignores obstacle uncertainty entirely.

    Runs the same sequential convex optimization with only the
    signed-distance constraints: no risk rows, no allocation.
    The returned result's certified risks are zero by construction (nothing
    was certified); validate the trajectory with ``monte_carlo_risk``.
    """
    return solve(problem, config, include_risk=False)


def ira_plan(problem, config=None, sample_count=1000, max_rounds=10, seed=0):
    """Iterative risk allocation baseline.

    Alternates deterministic solves (signed-distance constraints with
    per-(timestep, obstacle) margins) with sampling-based risk estimation.
    Whenever the estimated trajectory risk exceeds the budget, margins grow
    by ``IRA_MARGIN_ETA * sigma_max`` on every interior pair whose sampled
    risk share exceeds its uniform allocation, and the problem is
    re-solved. The fixed start and goal keep their margins: no plan can
    move them, and a margin past their clearance makes every later solve
    infeasible. Terminates when the *estimated* risk satisfies the budget
    (which a larger independent sample may contradict), when no margin
    grows (the next solve would repeat this one), or after ``max_rounds``.

    Every round estimates from the same draws, ``sample_count`` per
    obstacle from ``seed``. The per-round estimates are appended to the
    result's iteration log as entries with a "round" key.
    """
    if sample_count < 1:
        raise ValueError("sample count must be >= 1")
    if max_rounds < 1:
        raise ValueError("round count must be >= 1")
    T = problem.timesteps
    n_obs = len(problem.obstacles)
    margins = np.full((T, n_obs), problem.margin)
    sigma_max = np.array([ob.sigma_max for ob in problem.obstacles])
    uniform = problem.risk_budget / max(T * n_obs, 1)
    draws = [_ObstacleSamples(ob, sample_count, seed, oi)
             for oi, ob in enumerate(problem.obstacles)]

    result = None
    rounds = []
    for rnd in range(max_rounds):
        result = solve(problem, config, include_risk=False, margins=margins)
        if n_obs == 0:
            rounds.append({"round": rnd, "estimated_risk": 0.0,
                           "margin_max": float(margins.max(initial=0.0))})
            break
        probs, estimate = _pair_hit_estimates(
            problem.robot, result.trajectory, draws)
        rounds.append({"round": rnd, "estimated_risk": estimate,
                       "margin_max": float(margins.max())})
        grow = probs > uniform
        grow[[0, -1]] = False
        if estimate <= problem.risk_budget or not grow.any():
            break
        margins += grow * sigma_max[None, :] * IRA_MARGIN_ETA
    satisfied = rounds[-1]["estimated_risk"] <= problem.risk_budget
    if result.status == CONVERGED and not satisfied:
        result.status = ITERATION_LIMIT
    result.iterations = result.iterations + rounds
    return result
