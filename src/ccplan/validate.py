"""Monte Carlo ground truth for collision risk, and the baseline planners.

Obstacle positions are uncertain but static: each trial draws one Gaussian
displacement per obstacle and holds it fixed along the whole trajectory.
Random streams are counter-based (Philox) keyed by (seed, obstacle index), so
reports are bit-reproducible and trials can be partitioned across workers.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .geometry import _gjk, convex_hull
from .kinematics import forward_kinematics, posed_link_shapes
from .planner import CONVERGED, ITERATION_LIMIT, solve

# Margin growth step for iterative risk allocation, as a multiple of the
# obstacle's largest displacement standard deviation.
IRA_MARGIN_ETA = 0.5

# Tolerance of the exact Monte Carlo hit test: a sample hits when its
# distance to the difference hull is within the radius plus this.
HIT_TOL = 1e-9
# Room the triangle-inequality cull leaves beyond HIT_TOL, so that roundoff
# in |d| and in the hull distance bound never drops a sample the exact test
# would count (both are absolute, like the scene's coordinates).
CULL_SLACK = 1e-9
# Candidates the exact hit test takes at a time, which bounds its
# (candidates x hull vertices x dim) temporaries to a few megabytes; the
# facet-simplex distance takes sub-blocks of the same element count.
HIT_BLOCK = 4096


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


class _HullBoundary:
    """conv(W) for the exact hit test, as ``simplices``: vertex index pairs
    in 2D, triples in 3D. For a full-dimensional W they are the Qhull
    facets, which cover the boundary, and ``normals``/``offsets`` hold
    their planes. A flat W has no facets (``normals`` is None): conv(W) is
    a point, segment or polygon, star-shaped about W[0], so the vertex
    pairs and, in 3D, the triangles (W[0], W[i], W[j]) cover it
    (Caratheodory). One point is a zero-length segment."""

    def __init__(self, W):
        self.W = W
        m, dim = W.shape
        hull = convex_hull(W) if m > dim else None
        if hull is not None:
            # Rows [normal, offset] with normal.x + offset <= 0 on conv(W).
            self.normals = hull.equations[:, :-1]
            self.offsets = hull.equations[:, -1]
            self.simplices = hull.simplices
            return
        self.normals = None
        pairs = (np.stack(np.triu_indices(m, 1), axis=1) if m > 1
                 else np.zeros((1, 2), dtype=int))
        self.simplices = pairs if dim == 2 else np.insert(pairs, 0, 0, axis=1)

    def plane_values(self, d):
        """Each row's largest facet-plane value: <= 0 inside the hull, and
        outside a lower bound on the distance to it."""
        return np.max(d @ self.normals.T + self.offsets, axis=1)

    @cached_property
    def _edges(self):
        """(start points, directions, squared lengths) of the simplices'
        edges; a zero-length edge gets squared length 1, so that its
        clamped projection is its start point."""
        W, S = self.W, self.simplices
        if W.shape[1] == 3:
            # Each edge is shared by two triangles; keep it once.
            m = W.shape[0]
            pairs = np.sort(S[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2), axis=1)
            keys = np.unique(pairs[:, 0] * m + pairs[:, 1])
            S = np.stack([keys // m, keys % m], axis=1)
        p0 = W[S[:, 0]]
        e = W[S[:, 1]] - p0
        ee = np.einsum("ij,ij->i", e, e)
        ee[ee == 0.0] = 1.0
        return p0, e, ee

    @cached_property
    def _triangles(self):
        """(B, B0, normals, offsets): the rows of ``x @ B.T - B0`` are the
        barycentric coordinates (u, v) of x's projection on each triangle's
        plane, u over the first half of the columns and v over the second,
        and ``x @ normals.T + offsets`` its signed distance from the plane;
        None in 2D or when no triangle has a positive area."""
        W, S = self.W, self.simplices
        if W.shape[1] == 2:
            return None
        a = W[S[:, 0]]
        e0, e1 = W[S[:, 1]] - a, W[S[:, 2]] - a
        g00 = np.einsum("ij,ij->i", e0, e0)
        g01 = np.einsum("ij,ij->i", e0, e1)
        g11 = np.einsum("ij,ij->i", e1, e1)
        det = g00 * g11 - g01 * g01
        # Zero-area triangles (from Qhull, or collinear vertices of a flat
        # W) hold only points of their edges.
        ok = det > 1e-12 * g00 * g11
        if not ok.any():
            return None
        a, e0, e1, det = a[ok], e0[ok], e1[ok], det[ok, None]
        g00, g01, g11 = (g[ok, None] / det for g in (g00, g01, g11))
        # (u, v) = G^-1 [e0; e1] (x - a), G the Gram matrix of e0 and e1.
        B = np.concatenate([g11 * e0 - g01 * e1, g00 * e1 - g01 * e0])
        B0 = np.einsum("ij,ij->i", B, np.concatenate([a, a]))
        if self.normals is None:
            # A flat W's triangle planes; |e0 x e1|^2 = det (Lagrange).
            normals = np.cross(e0, e1) / np.sqrt(det)
            return B, B0, normals, -np.einsum("ij,ij->i", normals, a)
        return B, B0, self.normals[ok], self.offsets[ok]

    def distances(self, d):
        """Exact distances to conv(W) from the rows of ``d``, points outside
        a full-dimensional hull: the least distance to an edge (clamped
        projection on the segment) or to the plane of a triangle that holds
        the point's projection. Rows go in sub-blocks whose (rows x edges x
        dim) temporaries stay within HIT_BLOCK x vertices x dim elements."""
        p0, e, ee = self._edges
        triangles = self._triangles
        step = max(1, HIT_BLOCK * self.W.shape[0] // len(p0))
        out = np.empty(len(d))
        for s in range(0, len(d), step):
            ds = d[s:s + step]
            rel = ds[:, None, :] - p0
            t = np.einsum("nkj,kj->nk", rel, e)
            t /= ee
            np.minimum(np.maximum(t, 0.0, out=t), 1.0, out=t)
            rel -= t[:, :, None] * e
            best = np.einsum("nkj,nkj->nk", rel, rel).min(axis=1)
            if triangles is not None:
                B, B0, normals, offsets = triangles
                u, v = np.split(ds @ B.T - B0, 2, axis=1)
                inside = (u >= 0.0) & (v >= 0.0) & (u + v <= 1.0)
                h = ds @ normals.T + offsets
                best = np.minimum(best, np.where(inside, h * h, np.inf)
                                  .min(axis=1))
            out[s:s + step] = np.sqrt(best)
        return out


def _point_polytope_hits(D, W, radius, candidates):
    """Which displacement rows of ``D[candidates]`` lie within ``radius``
    (plus HIT_TOL) of conv(W). Returns a boolean array over ``candidates``.

    A full-dimensional W is tested against its Qhull facets first: a
    sample with no positive facet-plane value lies inside the hull and
    hits; one with a plane value beyond ``radius + HIT_TOL`` misses (the
    value bounds the distance from below). The others, and every sample of
    a flat W, which has no facets, are settled by their exact distance to
    conv(W) (``_HullBoundary.distances``). Candidates go HIT_BLOCK at a
    time; each sample's answer is its own.
    """
    boundary = _HullBoundary(W)
    reach = radius + HIT_TOL
    hit = np.empty(len(candidates), dtype=bool)
    for s in range(0, len(candidates), HIT_BLOCK):
        hit[s:s + HIT_BLOCK] = _block_hits(
            D[candidates[s:s + HIT_BLOCK]], boundary, reach)
    return hit


def _block_hits(d, boundary, reach):
    """``_point_polytope_hits`` for rows ``d``; reach = radius + HIT_TOL."""
    if boundary.normals is None:
        return boundary.distances(d) <= reach
    plane = boundary.plane_values(d)
    hit = plane <= 0.0
    band = np.flatnonzero(~hit & (plane <= reach))
    if band.size:
        hit[band] = boundary.distances(d[band]) <= reach
    return hit


def _hull_distance_lower_bound(W):
    """A certified lower bound on dist(0, conv W): GJK's supporting-plane
    bound, tight at convergence (its |v| bounds the distance from above,
    so it is not used)."""
    def sp(v):
        return W[int(np.argmax(W @ v))], None, None

    return _gjk(sp, W.shape[1], seed_direction=W.mean(axis=0))[4]


class _ObstacleSamples:
    """One obstacle's displacement draws, with their norms sorted once so
    that each pair test finds its candidates with one binary search."""

    def __init__(self, obstacle, n_samples, seed, obstacle_index):
        self.vertices = obstacle.nominal.vertices
        self.radius = obstacle.nominal.radius
        self.D = _displacements(obstacle, n_samples, seed, obstacle_index)
        norms = np.linalg.norm(self.D, axis=1)
        self.order = np.argsort(norms)
        self.sorted_norms = norms[self.order]

    def pair_hits(self, Vt, rt, done):
        """Indices of the samples not marked in ``done`` that hit the link
        shape swept from vertices ``Vt`` by radius ``rt``: the one Monte
        Carlo pair test.

        A sample hits when its displacement d lies within r = rt + radius
        of conv(W), W the difference vertices. For delta <= dist(0, conv W)
        the triangle inequality gives dist(d, conv W) >= delta - |d|; a
        sample whose bound exceeds r + HIT_TOL + CULL_SLACK cannot hit and
        is skipped. The others go to the exact test, so the hits are those
        of testing every sample.
        """
        W = (Vt[:, None, :] - self.vertices[None, :, :]).reshape(
            -1, Vt.shape[1])
        r = rt + self.radius
        delta = _hull_distance_lower_bound(W)
        first = np.searchsorted(self.sorted_norms,
                                delta - r - HIT_TOL - CULL_SLACK)
        candidates = np.sort(self.order[first:])
        candidates = candidates[~done[candidates]]
        if candidates.size == 0:
            return candidates
        return candidates[_point_polytope_hits(self.D, W, r, candidates)]


def _swept_shapes(robot, trajectory):
    """Per timestep, the sphere-swept (vertices, radius) of every link shape."""
    shapes_per_t = []
    for theta in np.atleast_2d(np.asarray(trajectory, dtype=float)):
        poses = forward_kinematics(robot, theta)
        shapes_per_t.append([(body.vertices, body.radius)
                             for _, body in posed_link_shapes(robot, poses)])
    return shapes_per_t


def monte_carlo_risk(robot, trajectory, obstacles, n_samples, seed):
    """Estimate the probability that the swept trajectory hits any obstacle.

    A trial is a joint draw of one displacement per obstacle; it counts as a
    hit if any timestep configuration intersects any displaced obstacle.

    Each (timestep, link shape, obstacle) pair tests only the trials not yet
    hit, and culls those whose displacement d is too short to reach the
    difference hull W: a certified lower bound delta on dist(0, conv W) and
    the triangle inequality give dist(d, conv W) >= delta - |d|, so a trial
    is skipped only when that bound exceeds the hit radius plus the exact
    test's tolerance and a slack. The cull is conservative: the hit count is
    the one that testing every trial exactly gives.
    """
    if n_samples < 1:
        raise ValueError("sample count must be >= 1")
    shapes_per_t = _swept_shapes(robot, trajectory)
    hit = np.zeros(n_samples, dtype=bool)
    for oi, ob in enumerate(obstacles):
        samples = _ObstacleSamples(ob, n_samples, seed, oi)
        for shapes in shapes_per_t:
            for Vt, rt in shapes:
                hit[samples.pair_hits(Vt, rt, hit)] = True
    return _report(n_samples, int(hit.sum()), seed)


def _pair_hit_estimates(robot, trajectory, obstacles, n_samples, seed):
    """Sampled hit probability per (timestep, obstacle) plus the joint
    trajectory-level estimate, all from shared displacement draws."""
    shapes_per_t = _swept_shapes(robot, trajectory)
    probs = np.zeros((len(shapes_per_t), len(obstacles)))
    any_hit = np.zeros(n_samples, dtype=bool)
    for oi, ob in enumerate(obstacles):
        samples = _ObstacleSamples(ob, n_samples, seed, oi)
        for t, shapes in enumerate(shapes_per_t):
            hit_t = np.zeros(n_samples, dtype=bool)
            for Vt, rt in shapes:
                hit_t[samples.pair_hits(Vt, rt, hit_t)] = True
            probs[t, oi] = hit_t.mean()
            any_hit |= hit_t
    return probs, float(any_hit.mean())


def risk_blind_plan(problem, config=None):
    """Baseline planner that ignores obstacle uncertainty entirely.

    Runs the same sequential convex optimization with only the
    signed-distance and endpoint constraints: no risk rows, no allocation.
    The returned result's certified risks are zero by construction (nothing
    was certified); validate the trajectory with ``monte_carlo_risk``.
    """
    return solve(problem, config, include_risk=False)


def ira_plan(problem, config=None, sample_count=1000, max_rounds=10, seed=0):
    """Iterative risk allocation baseline.

    Alternates deterministic solves (signed-distance constraints with
    per-(timestep, obstacle) margins) with sampling-based risk estimation.
    Whenever the estimated trajectory risk exceeds the budget, margins grow
    by ``IRA_MARGIN_ETA * sigma_max`` on every pair whose sampled risk share
    exceeds its uniform allocation, and the problem is re-solved. Terminates
    when the *estimated* risk satisfies the budget (which a larger
    independent sample may contradict) or after ``max_rounds``.

    The per-round estimates are appended to the result's iteration log as
    entries with a "round" key.
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

    result = None
    rounds = []
    for rnd in range(max_rounds):
        result = solve(problem, config, include_risk=False, margins=margins)
        if n_obs == 0:
            rounds.append({"round": rnd, "estimated_risk": 0.0,
                           "margin_max": float(margins.max(initial=0.0))})
            break
        probs, estimate = _pair_hit_estimates(
            problem.robot, result.trajectory, problem.obstacles,
            sample_count, seed)
        rounds.append({"round": rnd, "estimated_risk": estimate,
                       "margin_max": float(margins.max())})
        if estimate <= problem.risk_budget:
            break
        margins += (probs > uniform) * sigma_max[None, :] * IRA_MARGIN_ETA
    satisfied = rounds[-1]["estimated_risk"] <= problem.risk_budget
    if result.status == CONVERGED and not satisfied:
        result.status = ITERATION_LIMIT
    result.iterations = result.iterations + rounds
    return result
