"""Monte Carlo ground truth for collision risk, and the baseline planners.

Obstacle positions are uncertain but static: each trial draws one Gaussian
displacement per obstacle and holds it fixed along the whole trajectory.
Random streams are counter-based (Philox) keyed by (seed, obstacle index), so
reports are bit-reproducible and trials can be partitioned across workers.
"""

import math
from dataclasses import dataclass

import numpy as np

from .geometry import HIT_BLOCK, Boundary, _closest_cores, point_distances
from .kinematics import posed_link_groups, trajectory_frames
from .planner import CONVERGED, ITERATION_LIMIT, solve

# Margin growth step for iterative risk allocation, as a multiple of the
# obstacle's largest displacement standard deviation.
IRA_MARGIN_ETA = 0.5

# Tolerance of the exact Monte Carlo hit test: a sample hits when its
# distance to the difference hull is within the radius plus this.
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


def _point_polytope_hits(D, W, radius, candidates):
    """Which displacement rows of ``D[candidates]`` lie within ``radius``
    (plus HIT_TOL) of conv(W). Returns a boolean array over ``candidates``.

    A full-dimensional W is tested against its Qhull facet planes first: a
    sample with no positive plane value lies inside the hull and hits; one
    with a plane value beyond ``radius + HIT_TOL`` misses (the value bounds
    the distance from below). The others, and every sample of a flat W,
    which has no facets, are settled by their exact distance to the
    boundary complex of conv(W) (``geometry.point_distances``). Candidates
    go HIT_BLOCK at a time; each sample's answer is its own.
    """
    boundary = Boundary(W)
    reach = radius + HIT_TOL
    hit = np.empty(len(candidates), dtype=bool)
    for s in range(0, len(candidates), HIT_BLOCK):
        hit[s:s + HIT_BLOCK] = _block_hits(
            D[candidates[s:s + HIT_BLOCK]], W, boundary, reach)
    return hit


def _block_hits(d, W, boundary, reach):
    """``_point_polytope_hits`` for rows ``d``; reach = radius + HIT_TOL."""
    if boundary.hull is None:
        return point_distances(d, W, boundary) <= reach
    eq = boundary.hull.equations
    plane = np.max(d @ eq[:, :-1].T + eq[:, -1], axis=1)
    hit = plane <= 0.0
    band = np.flatnonzero(~hit & (plane <= reach))
    if band.size:
        hit[band] = point_distances(d[band], W, boundary) <= reach
    return hit


class _ObstacleSamples:
    """One obstacle's displacement draws, with their norms sorted once so
    that each pair test finds its candidates with one binary search."""

    def __init__(self, obstacle, n_samples, seed, obstacle_index):
        self.nominal = obstacle.nominal
        self.vertices = obstacle.nominal.vertices
        self.radius = obstacle.nominal.radius
        self.D = _displacements(obstacle, n_samples, seed, obstacle_index)
        norms = np.sqrt(np.einsum("ij,ij->i", self.D, self.D))
        self.order = np.argsort(norms)
        self.sorted_norms = norms[self.order]

    def pairs(self, groups):
        """(timestep, Vt, rt, gap, n) for every posed link shape of
        ``groups`` (see ``_swept_shapes``), timestep by timestep. n is the
        distance kernel's unit direction from the link's core to the
        obstacle's (zero where they touch) and gap the separation of their
        supporting planes normal to n, from one kernel call per group."""
        planes = []
        for g in groups:
            shape = g.vertices.shape
            _, _, _, n, gap = _closest_cores(
                g.vertices.reshape(-1, *shape[2:]), g.boundary,
                self.nominal)
            planes.append((gap.reshape(shape[:2]),
                           n.reshape(*shape[:2], -1)))
        steps = len(groups[0].vertices) if groups else 0
        for t in range(steps):
            for g, (gap, n) in zip(groups, planes):
                for j, rt in enumerate(g.radii):
                    yield t, g.vertices[t, j], rt, gap[t, j], n[t, j]

    def pair_hits(self, Vt, rt, gap, n, done):
        """Indices of the samples not marked in ``done`` that hit the link
        shape swept from vertices ``Vt`` by radius ``rt``: the one Monte
        Carlo pair test.

        A sample hits when its displacement d lies within r = rt + radius
        of conv(W), W the difference vertices. Every w of conv W has n.w
        <= -gap, for the link's plane (gap, n) of ``pairs``, so dist(d,
        conv W) >= gap + n.d and, as |n| <= 1, >= gap - |d|; gap < 0 where
        n does not separate the cores, and n = 0 culls nothing. A sample
        whose bound exceeds r + HIT_TOL + CULL_SLACK cannot hit and is
        skipped: first the short displacements, by one binary search in
        the sorted norms, then, among those left and not done, the ones
        that stop short of the plane. The others go to the exact test, so
        the hits are those of testing every sample.
        """
        W = (Vt[:, None, :] - self.vertices[None, :, :]).reshape(
            -1, Vt.shape[1])
        r = rt + self.radius
        reach = r + HIT_TOL + CULL_SLACK
        candidates = self.order[np.searchsorted(self.sorted_norms,
                                                gap - reach):]
        candidates = candidates[~done[candidates]]
        candidates = np.sort(
            candidates[self.D[candidates] @ n <= reach - gap])
        if candidates.size == 0:
            return candidates
        return candidates[_point_polytope_hits(self.D, W, r, candidates)]


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
    hit, and culls those whose displacement d cannot reach the difference
    hull W: the supporting plane that separates the nominal link and
    obstacle cores, at gap along its unit normal n, gives dist(d, conv W)
    >= gap + n.d, so a trial is skipped only when that bound exceeds the
    hit radius plus the exact test's tolerance and a slack. The cull is
    conservative: the hit count is the one that testing every trial
    exactly gives.
    """
    if n_samples < 1:
        raise ValueError("sample count must be >= 1")
    groups = _swept_shapes(robot, trajectory)
    hit = np.zeros(n_samples, dtype=bool)
    for oi, ob in enumerate(obstacles):
        samples = _ObstacleSamples(ob, n_samples, seed, oi)
        for _, Vt, rt, gap, n in samples.pairs(groups):
            hit[samples.pair_hits(Vt, rt, gap, n, hit)] = True
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
        for t, Vt, rt, gap, n in samples.pairs(groups):
            hit_t[t, samples.pair_hits(Vt, rt, gap, n, hit_t[t])] = True
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
