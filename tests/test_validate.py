import itertools
import json
import math
from importlib.resources import files
from unittest import mock

import numpy as np
import pytest
from scipy import stats
from scipy.linalg import solve_triangular

from ccplan import geometry, validate
from ccplan.chi2 import chi2_inv_cdf
from ccplan.geometry import (
    Boundary,
    Capsule,
    Polytope,
    Pose,
    Sphere,
    SweptHull,
    _closest_cores,
    _unseparated,
    box,
    intersects,
    point_body,
)
from ccplan.kinematics import (
    Joint,
    LinkGroup,
    RobotModel,
    forward_kinematics,
    posed_link_shapes,
)
from ccplan.planner import CONVERGED, TrajectoryProblem, solve
from ccplan.risk import UncertainObstacle, certify_risk
from ccplan.sceneio import parse_robot, parse_scene
from ccplan.validate import (
    CULL_SLACK,
    HIT_TOL,
    MonteCarloReport,
    _displacements,
    _ObstacleSamples,
    _pair_hit_estimates,
    ira_plan,
    monte_carlo_risk,
    risk_blind_plan,
)
from test_kinematics import planar_point_robot


def se_window(p, n, k=3.0):
    return k * math.sqrt(max(p * (1 - p), 1e-12) / n)


class TestRisk:
    def test_calibration_against_noncentral_chi2(self):
        # Point robot at distance r from a sphere obstacle under isotropic
        # noise: hit probability is a noncentral chi-squared tail.
        s, r, R = 0.5, 0.8, 0.4
        robot = planar_point_robot()
        ob = UncertainObstacle(Sphere(np.zeros(2), R), s * s * np.eye(2))
        exact = stats.ncx2.cdf((R / s) ** 2, df=2, nc=(r / s) ** 2)
        rep = monte_carlo_risk(robot, [[r, 0.0]], [ob], 100_000, seed=5)
        assert abs(rep.estimate - exact) <= se_window(exact, rep.sample_count)

    def test_certificate_bounds_sampled_risk(self):
        robot = planar_point_robot()
        ob = UncertainObstacle(Sphere(np.zeros(2), 0.1),
                               np.array([[0.09, 0.02], [0.02, 0.05]]))
        th = [0.5, 0.25]
        cert = certify_risk(robot, th, ob)
        rep = monte_carlo_risk(robot, [th], [ob], 100_000, seed=6)
        assert rep.estimate <= cert.eps_prime + 3 * rep.standard_error

    def test_far_trajectory_zero(self):
        robot = planar_point_robot()
        ob = UncertainObstacle(point_body(np.zeros(2)), 0.01 * np.eye(2))
        traj = [[2.0, y] for y in np.linspace(-1, 1, 5)]  # >= 20 sigma away
        rep = monte_carlo_risk(robot, traj, [ob], 100_000, seed=7)
        assert rep.estimate == 0.0

    def test_through_obstacle_majority(self):
        robot = planar_point_robot()
        ob = UncertainObstacle(Sphere(np.zeros(2), 0.2), 0.01 * np.eye(2))
        rep = monte_carlo_risk(robot, [[0.0, 0.0]], [ob], 20_000, seed=8)
        assert rep.estimate >= 0.5

    def test_reproducible_and_seed_sensitive(self):
        robot = planar_point_robot()
        ob = UncertainObstacle(Sphere(np.zeros(2), 0.3), 0.25 * np.eye(2))
        a = monte_carlo_risk(robot, [[0.6, 0.0]], [ob], 5_000, seed=42)
        b = monte_carlo_risk(robot, [[0.6, 0.0]], [ob], 5_000, seed=42)
        c = monte_carlo_risk(robot, [[0.6, 0.0]], [ob], 5_000, seed=43)
        assert a == b
        assert a.hit_count != c.hit_count

    def test_displacement_fixed_along_trajectory(self):
        # A trajectory that stays 1.0 away from a point obstacle on both
        # sides: per-timestep risks would overcount, while the static-
        # obstacle model gives the union probability over one draw.
        robot = planar_point_robot()
        s = 0.5
        ob = UncertainObstacle(point_body(np.zeros(2)), s * s * np.eye(2))
        # Single static configuration repeated: risk must equal the
        # single-timestep risk exactly (same draws, same test).
        one = monte_carlo_risk(robot, [[0.9, 0.0]], [ob], 20_000, seed=9)
        rep = monte_carlo_risk(robot, [[0.9, 0.0]] * 7, [ob], 20_000, seed=9)
        assert rep.hit_count == one.hit_count

    def test_matches_per_sample_geometry_oracle(self):
        # Box link against a box obstacle exercises the kernel's pair test;
        # compare with a direct per-sample intersection oracle.
        joints = [
            Joint("prismatic", Pose.identity(2), np.array([1.0, 0.0])),
            Joint("prismatic", Pose.identity(2), np.array([0.0, 1.0])),
        ]
        robot = RobotModel(joints, [[], [box([0.2, 0.1])]], Pose.identity(2))
        ob = UncertainObstacle(box([0.15, 0.25]), 0.09 * np.eye(2))
        traj = [[0.5, 0.1], [0.4, -0.2]]
        n = 500
        rep = monte_carlo_risk(robot, traj, [ob], n, seed=10)

        D = _displacements(ob, n, 10, 0)
        hits = 0
        for d in D:
            displaced = ob.nominal.posed(Pose(np.eye(2), d))
            sample_hit = False
            for th in traj:
                poses = forward_kinematics(robot, th)
                for _, body in posed_link_shapes(robot, poses):
                    if intersects(body, displaced):
                        sample_hit = True
            hits += sample_hit
        assert rep.hit_count == hits

    def test_multiple_obstacles_union(self):
        robot = planar_point_robot()
        far = UncertainObstacle(point_body([50.0, 0.0]), np.eye(2))
        near = UncertainObstacle(Sphere(np.zeros(2), 0.3), 0.09 * np.eye(2))
        # Streams are keyed by obstacle index, so the shared obstacle must
        # occupy the same slot in both runs.
        only = monte_carlo_risk(robot, [[0.4, 0.0]], [near], 5_000, seed=11)
        both = monte_carlo_risk(robot, [[0.4, 0.0]], [near, far], 5_000,
                                seed=11)
        assert both.hit_count == only.hit_count

    def test_invalid_sample_count(self):
        robot = planar_point_robot()
        ob = UncertainObstacle(point_body(np.zeros(2)), np.eye(2))
        with pytest.raises(ValueError):
            monte_carlo_risk(robot, [[1.0, 0.0]], [ob], 0, seed=1)


def exact_pair_hits(samples, Vt, boundary, rt, done):
    """Indices of the samples not marked in ``done`` that hit the link
    core Vt (complex ``boundary``) swept by ``rt``, by the exact test on
    every one of them and no cull: the kernel's closest candidate pair of
    the link placed at Vt - d and the nominal obstacle core is within the
    hit radius, or their supporting planes do not prove the cores apart."""
    idx = np.flatnonzero(~done)
    Va = Vt - samples.D[idx, None, :]
    _, _, d, _, gap = _closest_cores(Va, boundary, samples.nominal)
    hit = ((d <= rt + samples.radius + HIT_TOL)
           | _unseparated(Va, gap, samples.nominal))
    return idx[hit]


def unculled_step_hits(robot, theta, samples, done):
    """Mark in ``done`` the samples of ``samples`` that hit any link shape
    of ``robot`` at the joint state ``theta``, by the exact test of every
    sample not yet marked."""
    for _, body in posed_link_shapes(robot, forward_kinematics(robot, theta)):
        done[exact_pair_hits(samples, body.vertices, body.boundary,
                             body.radius, done)] = True


def unculled_hits(robot, trajectory, obstacles, n, seed):
    """The hit mask of the loop without the cull: every sample not yet hit
    goes to the exact test at every (obstacle, timestep, link shape)."""
    hit = np.zeros(n, dtype=bool)
    for oi, ob in enumerate(obstacles):
        samples = _ObstacleSamples(ob, n, seed, oi)
        for theta in np.atleast_2d(np.asarray(trajectory, dtype=float)):
            unculled_step_hits(robot, theta, samples, hit)
    return hit


def culled_hits(robot, trajectory, obstacles, n, seed):
    """The hit mask of ``monte_carlo_risk``: ``mark_hits`` of every link
    group against every obstacle, over one row."""
    groups = validate._swept_shapes(robot, trajectory)
    rows = np.zeros(len(np.atleast_2d(trajectory)), dtype=int)
    hit = np.zeros((1, n), dtype=bool)
    for oi, ob in enumerate(obstacles):
        samples = _ObstacleSamples(ob, n, seed, oi)
        for g in groups:
            samples.mark_hits(g, hit, rows)
    return hit[0]


def cull_plane(Vt, nominal):
    """(gap, n): the supporting plane of link core Vt against the body
    ``nominal``, as ``_ObstacleSamples.mark_hits`` takes it."""
    _, _, _, n, gap = _closest_cores(Vt[None], SweptHull(Vt, 0.0).boundary,
                                     nominal)
    return gap[0], n[0]


def culled_pair_hits(samples, Vt, rt, done):
    """Indices of the samples not marked in ``done`` that ``mark_hits``
    finds for the link core Vt swept by ``rt``, as a one-member group at
    one timestep."""
    group = LinkGroup([0], [0], np.array([rt]), SweptHull(Vt, 0.0).boundary,
                      Vt[None, None])
    hit = done[None].copy()
    samples.mark_hits(group, hit, np.zeros(1, dtype=int))
    return np.flatnonzero(hit[0] & ~done)


def unculled_pair_hits(samples, Vt, rt, done):
    """The exact test of every sample not marked in ``done``."""
    return exact_pair_hits(samples, Vt, SweptHull(Vt, 0.0).boundary, rt,
                           done)


def hull_distance(W):
    """dist(0, conv W) by enumeration: the closest point is the projection
    of the origin onto the affine hull of some simplex of at most dim + 1
    vertices, with non-negative barycentric weights."""
    best = math.inf
    for k in range(1, W.shape[1] + 2):
        for idx in itertools.combinations(range(len(W)), k):
            S = W[list(idx)]
            # Minimize |S^T lam| subject to sum(lam) = 1 (KKT system).
            K = np.zeros((k + 1, k + 1))
            K[:k, :k] = S @ S.T
            K[:k, k] = K[k, :k] = 1.0
            rhs = np.zeros(k + 1)
            rhs[k] = 1.0
            lam = np.linalg.lstsq(K, rhs, rcond=None)[0][:k]
            if lam.min() >= -1e-12:
                best = min(best, float(np.linalg.norm(lam @ S)))
    return best


@pytest.fixture(scope="module")
def pickplace():
    scenes = files("ccplan") / "scenes"
    scene = parse_scene(json.loads((scenes / "pickplace3d.json").read_text()))
    robot = parse_robot(json.loads((scenes / "arm4dof3d.json").read_text()))
    problem = TrajectoryProblem(
        robot, scene.obstacles, 17, np.array([-0.8, -0.5, -0.7, -0.3]),
        np.array([0.9, -0.4, -0.8, -0.2]), 0.10, 0.02)
    return problem, solve(problem).trajectory


class TestCulledPairTest:
    """The cull skips only samples that cannot hit: every result equals
    that of running the exact test on every sample."""

    def test_pickplace_reference_matches_unculled(self, pickplace,
                                                  monkeypatch):
        problem, traj = pickplace
        n, seed = 20_000, 3
        placed = []

        def counted(Va, boundary, body_b):
            placed.append(len(Va))
            return _closest_cores(Va, boundary, body_b)

        with monkeypatch.context() as m:
            m.setattr(validate, "_closest_cores", counted)
            rep = monte_carlo_risk(problem.robot, traj, problem.obstacles, n,
                                   seed)
        hit = unculled_hits(problem.robot, traj, problem.obstacles, n, seed)
        assert hit.sum() > 0
        assert rep.hit_count == int(hit.sum())
        # The plane cull leaves few samples to the exact test (one pass
        # over every pair would be n * pairs; the norm cull alone leaves
        # about 2.4e-3 of that). The kernel places every pair's link once
        # more, for its plane.
        pairs = len(traj) * len(problem.obstacles) * sum(
            len(s) for s in problem.robot.link_shapes)
        assert sum(placed) - pairs < 2e-4 * n * pairs

    @pytest.mark.parametrize("dim", [2, 3])
    def test_random_scenes_match_unculled(self, dim):
        rng = np.random.default_rng(100 + dim)
        n = 4_000
        many = 2 ** dim + 3
        nominals = [point_body(rng.normal(size=dim) * 0.3),
                    Capsule(rng.normal(size=dim) * 0.3,
                            rng.normal(size=dim) * 0.3, 0.05),
                    Polytope(rng.normal(size=(many, dim)) * 0.3)]
        for oi, nominal in enumerate(nominals):
            A = rng.normal(size=(dim, dim)) * 0.3
            ob = UncertainObstacle(nominal, A @ A.T + 0.02 * np.eye(dim))
            samples = _ObstacleSamples(ob, n, seed=oi, obstacle_index=oi)
            for k in (1, 2, many):
                for offset in (0.0, 0.5, 1.5):
                    Vt = (rng.normal(size=(k, dim)) * 0.2
                          + offset * rng.normal(size=dim))
                    rt = float(rng.uniform(0.0, 0.1))
                    done = rng.random(n) < 0.3
                    got = culled_pair_hits(samples, Vt, rt, done)
                    want = unculled_pair_hits(samples, Vt, rt, done)
                    np.testing.assert_array_equal(got, want)

    def test_overlapping_nominal_pose(self):
        # The link covers the obstacle's nominal pose: gap <= 0 culls no
        # sample by its norm, and every sample still gets the exact answer.
        ob = UncertainObstacle(box([0.1, 0.1, 0.1]), 0.04 * np.eye(3))
        samples = _ObstacleSamples(ob, 5_000, seed=1, obstacle_index=0)
        Vt = box([0.3, 0.05, 0.2]).vertices
        assert cull_plane(Vt, samples.nominal)[0] <= 0.0
        done = np.zeros(5_000, dtype=bool)
        got = culled_pair_hits(samples, Vt, 0.0, done)
        np.testing.assert_array_equal(
            got, unculled_pair_hits(samples, Vt, 0.0, done))
        assert 0 < got.size < 5_000

    def test_configuration_at_exactly_the_hit_radius(self):
        # The point robot touches the sphere obstacle nominally: the gap
        # equals the hit radius, and a sample's plane bound exceeds it by
        # n.d.
        R = 0.25
        robot = planar_point_robot()
        ob = UncertainObstacle(Sphere(np.zeros(2), R), 0.01 * np.eye(2))
        n = 20_000
        rep = monte_carlo_risk(robot, [[R, 0.0]], [ob], n, seed=4)
        hit = unculled_hits(robot, [[R, 0.0]], [ob], n, 4)
        assert rep.hit_count == int(hit.sum()) > 0

    def test_samples_on_the_cull_boundary(self, monkeypatch):
        # The link core is the point w or a square facing the obstacle's
        # point core at w, both at gap 1 along n = -u. Displacements along
        # u whose norm bound 1 - |d| sits at the hit radius, and ones
        # whose plane bound 1 - u.d sits at r + HIT_TOL, moved sideways
        # so that they pass the norm cull, each at and +-1e-12, 1e-9 and
        # 1e-6 from their edge, are all tested exactly.
        rng = np.random.default_rng(5)
        w = np.array([0.6, 0.8, 0.0])      # |w| = 1
        r = 0.3
        u = w / np.linalg.norm(w)
        side = np.array([-0.8, 0.6, 0.0])  # orthogonal to u
        up = np.array([0.0, 0.0, 1.0])
        offsets = np.array([-1e-6, -1e-9, -1e-12, 0.0, 1e-12, 1e-9, 1e-6])
        norm_edge = ((1.0 - r) + offsets)[:, None] * u
        plane_edge = (((1.0 - r - HIT_TOL) + offsets)[:, None] * u
                      + 0.05 * side)
        D = np.concatenate([norm_edge, plane_edge,
                            rng.normal(size=(200, 3)) * 0.5])
        monkeypatch.setattr(validate, "_displacements",
                            lambda ob, n, seed, oi: D)
        ob = UncertainObstacle(point_body(np.zeros(3)), np.eye(3))
        samples = _ObstacleSamples(ob, len(D), seed=0, obstacle_index=0)
        square = w + 0.1 * np.array([[1, 1], [1, -1], [-1, -1], [-1, 1]]) @ [
            side, up]
        done = np.zeros(len(D), dtype=bool)
        for Vt in (w[None, :], square):
            gap, n = cull_plane(Vt, samples.nominal)
            assert abs(gap - 1.0) < 1e-15
            np.testing.assert_allclose(n, -u, atol=1e-15)
            # The plane-edge samples pass the norm cull.
            assert np.linalg.norm(plane_edge, axis=1).min() > (
                gap - r - HIT_TOL - CULL_SLACK)
            got = culled_pair_hits(samples, Vt, r, done)
            np.testing.assert_array_equal(
                got, unculled_pair_hits(samples, Vt, r, done))
            assert {4, 5, 6} <= set(got.tolist())  # at or inside the radius
        # The square's plane bound is its distance: the plane-edge samples
        # inside r + HIT_TOL hit it.
        assert {11, 12, 13} <= set(got.tolist())

    def test_samples_on_the_sure_hit_boundary(self, monkeypatch):
        # The link core is the point w or a square about w facing the
        # obstacle's point core at the origin, so the nominal witnesses are
        # w and the origin, and a displacement d = w + s v (v a unit) puts
        # the sure-hit bound |d - w| at s, as far as the displaced point
        # core is from the obstacle's. Displacements along seven directions
        # whose s sits at r + HIT_TOL - CULL_SLACK, and at +-1e-12, 1e-9,
        # 1.5e-9 and 1e-6 from it, get the exact test's answers; those
        # inside the bound hit without the exact test.
        rng = np.random.default_rng(6)
        w = np.array([0.6, 0.8, 0.0])      # |w| = 1
        r = 0.3
        u = w / np.linalg.norm(w)
        side = np.array([-0.8, 0.6, 0.0])  # orthogonal to u
        up = np.array([0.0, 0.0, 1.0])
        units = np.array([u, -u, side, -side, up, u + side, up - u])
        units /= np.linalg.norm(units, axis=1, keepdims=True)
        offsets = np.array([-1e-6, -1e-9, -1e-12, 0.0, 1e-12, 1e-9, 1.5e-9,
                            1e-6])
        s = (r + HIT_TOL - CULL_SLACK) + offsets
        planted = (w + s[:, None, None] * units).reshape(-1, 3)
        D = np.concatenate([planted, rng.normal(size=(200, 3)) * 0.5])
        inside = np.flatnonzero(np.repeat(offsets < 0.0, len(units)))
        monkeypatch.setattr(validate, "_displacements",
                            lambda ob, n, seed, oi: D)
        ob = UncertainObstacle(point_body(np.zeros(3)), np.eye(3))
        samples = _ObstacleSamples(ob, len(D), seed=0, obstacle_index=0)
        square = w + 0.1 * np.array([[1, 1], [1, -1], [-1, -1], [-1, 1]]) @ [
            side, up]
        done = np.zeros(len(D), dtype=bool)
        for Vt in (w[None, :], square):
            wa, wb, _, _, _ = _closest_cores(
                Vt[None], SweptHull(Vt, 0.0).boundary, samples.nominal)
            np.testing.assert_allclose(wa[0], w, atol=1e-15)
            np.testing.assert_allclose(wb[0], 0.0, atol=1e-15)
            placed = []

            def counted(Va, boundary, body_b):
                placed.append(Va)
                return _closest_cores(Va, boundary, body_b)

            with monkeypatch.context() as m:
                m.setattr(validate, "_closest_cores", counted)
                got = culled_pair_hits(samples, Vt, r, done)
            np.testing.assert_array_equal(
                got, unculled_pair_hits(samples, Vt, r, done))
            assert set(inside.tolist()) <= set(got.tolist())
            # Past the plane call, the kernel places the link at Vt - d:
            # no d inside the bound is among them.
            tested = Vt[0] - np.concatenate(placed[1:])[:, 0]
            gaps = np.linalg.norm(tested[:, None] - D[inside], axis=2)
            assert gaps.min() > 1e-14
        # The point core's bound is its distance: the exact test counts s
        # up to r + HIT_TOL and no farther.
        point = culled_pair_hits(samples, w[None, :], r, done)
        beyond = np.repeat(offsets > 1.2e-9, len(units))
        assert not set(np.flatnonzero(beyond).tolist()) & set(point.tolist())

    def test_pair_estimates_match_monte_carlo(self, pickplace):
        problem, traj = pickplace
        blind = risk_blind_plan(problem).trajectory
        for trajectory in (traj, blind):
            rep = monte_carlo_risk(problem.robot, trajectory,
                                   problem.obstacles, 5_000, seed=2)
            draws = [_ObstacleSamples(ob, 5_000, seed=2, obstacle_index=oi)
                     for oi, ob in enumerate(problem.obstacles)]
            _, estimate = _pair_hit_estimates(problem.robot, trajectory,
                                              draws)
            assert estimate == rep.estimate
        assert rep.hit_count > 0

    @pytest.mark.parametrize("dim", [2, 3])
    def test_lower_bound_never_exceeds_hull_distance(self, dim):
        rng = np.random.default_rng(200 + dim)
        # Touching cores (a vertex on the other core: n = 0) and
        # overlapping ones (a point core inside a simplex: the closest
        # boundary pair does not separate them, gap < 0).
        simplex = np.vstack([np.zeros(dim), np.eye(dim)])
        inside = np.full((1, dim), 0.5 / dim)
        special = [(simplex, simplex[1:2]), (simplex, inside),
                   (inside, simplex)]
        cases = special + [
            # A link core of 1 to 4 points against an obstacle core of 1
            # or 2, so that W has at most 8 points.
            (rng.normal(size=(int(rng.integers(1, 5)), dim))
             * rng.uniform(0.01, 1.0)
             + rng.normal(size=dim) * rng.uniform(0.0, 2.0),
             rng.normal(size=(int(rng.integers(1, 3)), dim)) * 0.3)
            for _ in range(150)]
        for i, (Vt, Vn) in enumerate(cases):
            W = (Vt[:, None, :] - Vn[None, :, :]).reshape(-1, dim)
            exact = hull_distance(W)
            gap, n = cull_plane(Vt, SweptHull(Vn, 0.0))
            assert gap <= exact + 1e-12
            if i == 0:
                assert gap == 0.0 and not n.any()
            elif i < len(special):
                assert gap < 0.0
            else:
                # Tight: the kernel's gap is exact for separated cores.
                assert max(gap, 0.0) >= exact - 1e-9 * max(1.0, exact)
            # The plane bound at displacements near the hull and beyond.
            for d in (W[rng.integers(len(W))] + rng.normal(size=dim) * 0.1,
                      rng.normal(size=dim) * 2.0):
                assert gap + n @ d <= hull_distance(W - d) + 1e-12


class TestBlockQueue:
    """``mark_hits`` queues the samples its culls leave over every pair of
    a link group and tests them a block at a time: with blocks so small
    that each group flushes many times, the hits are still those of the
    exact test on every sample, in every row of the mask."""

    @staticmethod
    def straight(problem):
        return np.linspace(problem.start, problem.goal, problem.timesteps)

    @pytest.fixture
    def small_blocks(self, monkeypatch):
        """Two placements of a two-vertex 3D capsule per block; counts the
        kernel calls per (obstacle, link group)."""
        monkeypatch.setattr(validate, "DISTANCE_BLOCK", 12)
        calls = {}

        def counted(Va, boundary, body_b):
            key = (id(body_b), id(boundary))
            calls[key] = calls.get(key, 0) + 1
            return _closest_cores(Va, boundary, body_b)

        monkeypatch.setattr(validate, "_closest_cores", counted)
        return calls

    def test_monte_carlo_matches_unculled(self, pickplace, small_blocks):
        problem, traj = pickplace
        n, seed = 5_000, 5
        for trajectory in (traj, self.straight(problem)):
            small_blocks.clear()
            got = culled_hits(problem.robot, trajectory, problem.obstacles,
                              n, seed)
            assert max(small_blocks.values()) > 3
            want = unculled_hits(problem.robot, trajectory,
                                 problem.obstacles, n, seed)
            np.testing.assert_array_equal(got, want)
            rep = monte_carlo_risk(problem.robot, trajectory,
                                   problem.obstacles, n, seed)
            assert rep.hit_count == int(want.sum()) > 0

    def test_pair_estimates_match_per_timestep_unculled(self, pickplace,
                                                        small_blocks):
        problem, traj = pickplace
        n = 4_000
        draws = [_ObstacleSamples(ob, n, seed=2, obstacle_index=oi)
                 for oi, ob in enumerate(problem.obstacles)]
        for trajectory in (traj, self.straight(problem)):
            small_blocks.clear()
            probs, estimate = _pair_hit_estimates(problem.robot, trajectory,
                                                  draws)
            assert max(small_blocks.values()) > 3
            want = np.zeros((len(trajectory), len(draws), n), dtype=bool)
            for oi, samples in enumerate(draws):
                for t, theta in enumerate(trajectory):
                    unculled_step_hits(problem.robot, theta, samples,
                                       want[t, oi])
            np.testing.assert_array_equal(probs, want.mean(axis=2))
            assert estimate == float(want.any(axis=(0, 1)).mean())
            assert 0.0 < probs.max() < 1.0

    def test_one_kernel_call_per_block(self, pickplace, monkeypatch):
        # Each (obstacle, link group) takes one call for its planes and one
        # per block of the samples it queues, never one per pair.
        problem, traj = pickplace
        calls = {}

        def counted(Va, boundary, body_b):
            calls.setdefault((id(body_b), id(boundary)), []).append(len(Va))
            return _closest_cores(Va, boundary, body_b)

        monkeypatch.setattr(validate, "_closest_cores", counted)
        monte_carlo_risk(problem.robot, traj, problem.obstacles, 100_000,
                         seed=1)
        groups = {id(g.boundary): g
                  for g in validate._swept_shapes(problem.robot, traj)}
        assert len(calls) == len(problem.obstacles) * len(groups)
        for (_, boundary), placed in calls.items():
            V = groups[boundary].vertices
            assert placed[0] == V.shape[0] * V.shape[1]
            block = validate.DISTANCE_BLOCK // V[0, 0].size
            assert len(placed) - 1 <= math.ceil(sum(placed[1:]) / block)
        # The pair-by-pair test made 27 calls here.
        assert sum(len(placed) for placed in calls.values()) <= 3


def planted_samples(W, radius):
    """Displacements beside the boundary of the full-dimensional conv(W):
    on every hull vertex, facet-simplex edge midpoint and facet centroid,
    moved +-1e-7 along an outward normal there (a facet's normal, or the
    mean of the normals of the facets that meet there) and, for radius > 0,
    by radius +- 1e-7 along it."""
    hull = Boundary(W).hull
    normals = hull.equations[:, :-1]
    points, outward = [], []
    for v in hull.vertices:
        points.append(W[v])
        outward.append(normals[(hull.simplices == v).any(axis=1)].sum(axis=0))
    for k, simplex in enumerate(hull.simplices):
        points.append(W[simplex].mean(axis=0))
        outward.append(normals[k])
        for i, j in itertools.combinations(simplex, 2):
            points.append(0.5 * (W[i] + W[j]))
            outward.append(normals[(hull.simplices == i).any(axis=1)
                                   & (hull.simplices == j).any(axis=1)]
                           .sum(axis=0))
    outward = np.array(outward)
    outward /= np.linalg.norm(outward, axis=1, keepdims=True)
    offsets = {-1e-7, 1e-7, radius - 1e-7, radius + 1e-7}
    return np.concatenate([np.array(points) + s * outward
                           for s in sorted(offsets)])


def rim_samples(W, radius, rng):
    """Displacements at a known distance from conv(W), with whether each
    lies within ``radius`` of it. A step s from a point p of conv(W) along
    a unit u with u.x <= u.p on W (u is in the normal cone at p) ends at
    distance s. The (p, u) pairs: each vertex and vertex-pair midpoint with
    each unit normal of W's affine hull, and with its direction away from
    W's centroid within the affine hull and orthogonal to the pair, where
    that supports W (on edges and at vertices); and the vertex maximizing
    u.x for random units u. Steps are radius +- 1e-7 (or 0 for radius 0)."""
    c = W.mean(axis=0)
    _, sv, Vh = np.linalg.svd(W - c)
    normals = Vh[int(np.sum(sv > 1e-9)):]
    starts, units = [], []
    for a, b in itertools.product(W, W):
        p, e = 0.5 * (a + b), b - a
        starts += [p] * len(normals)
        units += list(normals)
        u = p - c - normals.T @ (normals @ (p - c))
        if e @ e > 0.0:
            u -= (u @ e) / (e @ e) * e
        norm = np.linalg.norm(u)
        if norm > 1e-9 and np.max(W @ u) <= u @ p + 1e-12 * norm:
            starts.append(p)
            units.append(u / norm)
    for u in rng.normal(size=(40, W.shape[1])):
        u /= np.linalg.norm(u)
        starts.append(W[np.argmax(W @ u)])
        units.append(u)
    steps = sorted({max(radius - 1e-7, 0.0), radius + 1e-7})
    D = np.concatenate([np.array(starts) + s * np.array(units)
                        for s in steps])
    return D, np.repeat([s <= radius for s in steps], len(starts))


# Flat difference sets W = Vt - Vn, by link vertices Vt and obstacle
# vertices Vn.
FLAT_SETS = {
    "square-z0-vs-point": (box([0.2, 0.1, 0.0]).vertices,
                           [[0.05, -0.02, 0.0]]),
    "capsule-vs-capsule-3d": ([[0.0, 0.0, 0.0], [0.4, 0.0, 0.0]],
                              [[0.1, 0.1, 0.05], [0.1, -0.2, 0.3]]),
    "collinear-2d": ([[0.0, 0.0], [0.3, 0.1]],
                     [[0.0, 0.0], [0.15, 0.05], [-0.3, -0.1]]),
    "collinear-3d": ([[0.1, 0.0, 0.2], [0.2, 0.1, 0.1], [0.4, 0.3, -0.1]],
                     [[0.0, 0.0, 0.05]]),
    "point-2d": ([[0.1, 0.2]], [[0.0, -0.1]]),
    "point-3d": ([[0.1, 0.2, 0.3]], [[0.0, 0.0, 0.1]]),
    "zero-box-vs-point": (box([0.0, 0.0, 0.0], [0.1, 0.0, 0.2]).vertices,
                          [[0.0, 0.1, 0.0]]),
}


def exact_hits(Vt, Vn, radius, D):
    """The pair test with the cull off, of the link conv(Vt) swept by
    ``radius`` against the obstacle hull conv(Vn) displaced by each row of
    D, as a mask over the rows."""
    with mock.patch.object(validate, "_displacements", lambda *args: D):
        samples = _ObstacleSamples(
            UncertainObstacle(SweptHull(Vn, 0.0), np.eye(D.shape[1])),
            len(D), seed=0, obstacle_index=0)
    hit = np.zeros(len(D), dtype=bool)
    hit[unculled_pair_hits(samples, Vt, radius, hit)] = True
    return hit


def oracle_hits(Vt, Vn, radius, D):
    """Per-sample ``intersects`` of the link conv(Vt) swept by ``radius``
    with the obstacle hull conv(Vn) displaced by each row of D."""
    link = SweptHull(Vt, radius)
    # Translated copies share the obstacle's boundary complex.
    boundary = SweptHull(Vn, 0.0).boundary
    return np.array([intersects(link, SweptHull(Vn + d, 0.0, boundary))
                     for d in D])


class TestHullBandKernel:
    """The exact pair test, the distance kernel on the link placed at
    Vt - d against the nominal obstacle core, against per-sample geometry
    on samples planted at the difference hull's boundary."""

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("radius", [0.0, 0.07])
    def test_planted_boundary_samples_match_geometry(self, dim, radius,
                                                     monkeypatch):
        def no_gjk(*args, **kwargs):
            raise AssertionError("GJK called for a full-dimensional hull")

        rng = np.random.default_rng(300 + dim)
        for _ in range(4):
            Vt = rng.normal(size=(int(rng.integers(2, 5)), dim)) * 0.3
            Vn = rng.normal(size=(int(rng.integers(2, 5)), dim)) * 0.2
            W = (Vt[:, None, :] - Vn[None, :, :]).reshape(-1, dim)
            D = np.concatenate([planted_samples(W, radius),
                                rng.normal(size=(200, dim)) * 0.4])
            want = oracle_hits(Vt, Vn, radius, D)
            with monkeypatch.context() as m:
                m.setattr(geometry, "_gjk", no_gjk)
                got = exact_hits(Vt, Vn, radius, D)
            np.testing.assert_array_equal(got, want)
            assert 0 < want.sum() < len(D)

    @pytest.mark.parametrize("radius", [0.0, 0.05])
    @pytest.mark.parametrize("Vt, Vn", FLAT_SETS.values(),
                             ids=FLAT_SETS.keys())
    def test_flat_sets_match_geometry(self, Vt, Vn, radius, monkeypatch):
        # A flat difference set has no facets: the kernel's candidate pairs
        # settle every sample, never GJK.
        def no_gjk(*args, **kwargs):
            raise AssertionError("GJK called for a flat difference set")

        Vt, Vn = np.array(Vt, dtype=float), np.array(Vn, dtype=float)
        dim = Vt.shape[1]
        W = (Vt[:, None, :] - Vn[None, :, :]).reshape(-1, dim)
        assert Boundary(W).hull is None
        rim, inside = rim_samples(W, radius, np.random.default_rng(11))
        D = np.concatenate([rim, W.mean(axis=0) + np.random.default_rng(
            12).normal(size=(300, dim)) * 0.2])
        want = oracle_hits(Vt, Vn, radius, D)
        np.testing.assert_array_equal(want[:len(rim)], inside)
        monkeypatch.setattr(geometry, "_gjk", no_gjk)
        got = exact_hits(Vt, Vn, radius, D)
        np.testing.assert_array_equal(got, want)
        assert 0 < got.sum() < len(D)

    def test_segment_square_and_geometry_share_the_tolerance(self):
        # A sample 5e-10 beyond the radius from the segment hits (within
        # HIT_TOL), whether the segment is W or an edge of a square W.
        r = 0.1
        d = np.array([[0.5, r + 5e-10]])
        segment = np.array([[0.0, 0.0], [1.0, 0.0]])
        square = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, -1.0], [1.0, -1.0]])
        for W in (segment, square):
            assert exact_hits(W, np.zeros((1, 2)), r, d).tolist() == [True]
        assert intersects(SweptHull(segment, r), point_body(d[0]))

    @pytest.mark.parametrize("dim", [2, 3])
    def test_deep_overlap_hits(self, dim):
        # A point core 0.45 inside the obstacle's box core, deeper than
        # the hit radius: its closest candidate pair, the foot on the
        # nearest face, is farther than r, yet the planes prove no
        # separation, so every sample that keeps it inside hits.
        r = 0.1
        Vt = np.zeros((1, dim))
        Vt[0, 0] = 0.05
        ob = UncertainObstacle(box(np.full(dim, 0.5)), 0.02 ** 2 * np.eye(dim))
        samples = _ObstacleSamples(ob, 2_000, seed=3, obstacle_index=0)
        assert np.abs(samples.D).max() < 0.3
        d = _closest_cores(Vt[None], SweptHull(Vt, 0.0).boundary,
                           ob.nominal)[2]
        assert d[0] > r + HIT_TOL
        done = np.zeros(len(samples.D), dtype=bool)
        for test in (culled_pair_hits, unculled_pair_hits):
            np.testing.assert_array_equal(test(samples, Vt, r, done),
                                          np.arange(len(samples.D)))


class TestPinnedOutputs:
    """Hit counts and IRA round estimates that the per-sample GJK band test
    gave, which the distance kernel's pair test reproduces bit for bit."""

    def test_pickplace_hit_counts(self, pickplace):
        problem, traj = pickplace
        blind = risk_blind_plan(problem).trajectory
        counts = [monte_carlo_risk(problem.robot, t, problem.obstacles,
                                   100_000, seed=1).hit_count
                  for t in (traj, blind)]
        assert counts == [139, 27981]

    def test_pickplace_ira_rounds(self, pickplace):
        problem, _ = pickplace
        res = ira_plan(problem, sample_count=1000, seed=0)
        assert [e["estimated_risk"] for e in res.iterations
                if "round" in e] == [0.265, 0.124, 0.032]

    def test_corridor_ira_rounds(self):
        scenes = files("ccplan") / "scenes"
        scene = parse_scene(json.loads(
            (scenes / "corridor2d.json").read_text()))
        robot = parse_robot(json.loads(
            (scenes / "pointbot2d.json").read_text()))
        problem = TrajectoryProblem(robot, scene.obstacles, 10,
                                    np.array([-1.5, 0.0]),
                                    np.array([1.5, 0.0]), 0.01, 0.02)
        res = ira_plan(problem, sample_count=1000, seed=0)
        assert [e["estimated_risk"] for e in res.iterations
                if "round" in e] == [0.496, 0.338, 0.163, 0.052, 0.019,
                                     0.004]


def shadow_containment(ob, eps, n_samples, seed, normal=None):
    """Share of sampled displacements d that the maximal eps-shadow
    contains: d^T Sigma^-1 d <= chi2_inv_cdf(1 - eps), and n.d >= 0 for the
    half shadow along ``normal``. For convex O, O + d lies inside the shadow
    O + E exactly when d lies in E."""
    D = _displacements(ob, n_samples, seed, 0)
    y = solve_triangular(ob.chol, D.T, lower=True)
    inside = np.einsum("ij,ij->j", y, y) <= chi2_inv_cdf(1.0 - eps,
                                                          ob.dim) + 1e-9
    if normal is not None:
        inside &= D @ normal >= -1e-9
    return float(inside.mean())


class TestContainment:
    """Shadow containment probabilities in closed form, and the Monte
    Carlo report."""

    def test_shadow_containment_matches_eps(self):
        ob = UncertainObstacle(Sphere(np.zeros(2), 0.2),
                               np.array([[0.5, 0.1], [0.1, 0.3]]))
        for eps in (0.5, 0.1):
            p = shadow_containment(ob, eps, 100_000, seed=12)
            assert abs(p - (1 - eps)) <= se_window(1 - eps, 100_000)

    def test_half_shadow_containment(self):
        # Symmetry: P(d in half-ellipsoid at level eps) = (1 - eps) / 2.
        ob = UncertainObstacle(point_body(np.zeros(2)), np.eye(2))
        eps = 0.2
        p = shadow_containment(ob, eps, 100_000, seed=13,
                               normal=np.array([1.0, 0.0]))
        expect = (1 - eps) / 2
        assert abs(p - expect) <= se_window(expect, 100_000)

    def test_containment_3d(self):
        ob = UncertainObstacle(Sphere(np.zeros(3), 0.1),
                               np.diag([0.4, 0.2, 0.3]))
        p = shadow_containment(ob, 0.3, 50_000, seed=14)
        assert abs(p - 0.7) <= se_window(0.7, 50_000)

    def test_report_shape(self):
        robot = planar_point_robot()
        ob = UncertainObstacle(Sphere(np.zeros(2), 1.0), np.eye(2))
        rep = monte_carlo_risk(robot, [[1.0, 0.0]], [ob], 1_000, seed=17)
        assert isinstance(rep, MonteCarloReport)
        assert rep.hit_count == round(rep.estimate * rep.sample_count)
        assert 0.0 < rep.estimate < 1.0
        d = rep.to_dict()
        assert d["sampleCount"] == 1_000 and d["seed"] == 17


def baseline_problem(obstacles, T=9, budget=0.01, margin=0.02,
                     start=(-2.0, 0.0), goal=(2.0, 0.0)):
    return TrajectoryProblem(planar_point_robot(), obstacles, T,
                             np.array(start), np.array(goal), budget, margin)


def side_obstacle():
    return UncertainObstacle(Sphere(np.array([0.0, 0.15]), 0.05),
                             0.01 * np.eye(2))


class TestRiskBlind:
    def test_obstacle_free_straight_line(self):
        res = risk_blind_plan(baseline_problem([]))
        assert res.status == CONVERGED
        np.testing.assert_allclose(res.trajectory[:, 1], 0.0, atol=1e-9)

    def test_clears_nominal_geometry(self):
        # Obstacle straddling the straight line: the deterministic solve
        # must restore the margin against nominal geometry.
        ob = UncertainObstacle(Sphere(np.array([0.0, 0.03]), 0.1),
                               0.0025 * np.eye(2))
        p = baseline_problem([ob], start=(-1.0, 0.0), goal=(1.0, 0.0))
        res = risk_blind_plan(p)
        assert res.status == CONVERGED
        assert res.report.signed_distances.min() >= p.margin - 1e-4

    def test_shorter_than_risk_aware_path(self):
        p = baseline_problem([side_obstacle()])
        blind = risk_blind_plan(p)
        aware = solve(p)
        assert blind.status == CONVERGED and aware.status == CONVERGED
        assert blind.objective <= aware.objective + 1e-9

    def test_no_certified_risk(self):
        res = risk_blind_plan(baseline_problem([side_obstacle()]))
        np.testing.assert_array_equal(res.certified_risks, 0.0)


class TestIRA:
    def test_obstacle_free_one_round(self):
        res = ira_plan(baseline_problem([]), sample_count=100)
        assert res.status == CONVERGED
        rounds = [e for e in res.iterations if "round" in e]
        assert len(rounds) == 1
        assert rounds[0]["estimated_risk"] == 0.0

    def test_loose_budget_terminates_satisfied(self):
        p = baseline_problem([side_obstacle()], budget=0.5)
        res = ira_plan(p, sample_count=500, seed=3)
        rounds = [e for e in res.iterations if "round" in e]
        assert rounds[-1]["estimated_risk"] <= 0.5
        assert res.status == CONVERGED

    def test_margins_grow_until_estimate_satisfied(self):
        # Large uncertainty forces at least one margin-inflation round.
        ob = UncertainObstacle(Sphere(np.array([0.0, 0.1]), 0.1),
                               0.04 * np.eye(2))
        p = baseline_problem([ob], budget=0.01, start=(-1.0, 0.0),
                             goal=(1.0, 0.0))
        res = ira_plan(p, sample_count=2000, max_rounds=8, seed=4)
        rounds = [e for e in res.iterations if "round" in e]
        assert len(rounds) > 1
        maxima = [e["margin_max"] for e in rounds]
        assert all(b >= a for a, b in zip(maxima, maxima[1:]))
        assert maxima[-1] > p.margin
        assert rounds[-1]["estimated_risk"] <= p.risk_budget

    def test_small_sample_can_miss_true_risk(self):
        # The terminating estimate is itself sampled; an independent,
        # larger Monte Carlo run is the ground truth it can disagree with.
        ob = UncertainObstacle(Sphere(np.array([0.0, 0.1]), 0.1),
                               0.04 * np.eye(2))
        p = baseline_problem([ob], budget=0.01, start=(-1.0, 0.0),
                             goal=(1.0, 0.0))
        res = ira_plan(p, sample_count=1000, max_rounds=8, seed=5)
        rounds = [e for e in res.iterations if "round" in e]
        truth = monte_carlo_risk(p.robot, res.trajectory, [ob], 100_000,
                                 seed=99)
        # Sampled termination estimate and ground truth need not agree;
        # they must at least be within sampling noise of each other.
        gap = abs(truth.estimate - rounds[-1]["estimated_risk"])
        assert gap <= 4 * math.sqrt(
            max(truth.estimate * (1 - truth.estimate), 1e-6) / 1000)

    def test_fixed_endpoint_margins_do_not_grow(self):
        # The start lies 0.09 from a pillar and keeps a large risk share
        # in every round. Growing its margin, which no plan can meet once
        # it passes that clearance (0.145 by the sixth round), made the
        # last solve infeasible although its estimate, 0.027, met the
        # budget.
        scenes = files("ccplan") / "scenes"
        scene = parse_scene(json.loads(
            (scenes / "corridor2d.json").read_text()))
        robot = parse_robot(json.loads(
            (scenes / "pointbot2d.json").read_text()))
        p = TrajectoryProblem(robot, scene.obstacles, 10,
                              np.array([-0.1, 0.34]), np.array([0.2, -0.45]),
                              0.03, 0.02)
        res = ira_plan(p, sample_count=1000, seed=0)
        rounds = [e for e in res.iterations if "round" in e]
        assert res.status == CONVERGED
        assert rounds[-1]["estimated_risk"] <= p.risk_budget
        assert len(rounds) == 6

    def test_deterministic(self):
        p = baseline_problem([side_obstacle()])
        a = ira_plan(p, sample_count=500, seed=7)
        b = ira_plan(p, sample_count=500, seed=7)
        np.testing.assert_array_equal(a.trajectory, b.trajectory)

    def test_invalid_arguments(self):
        p = baseline_problem([])
        with pytest.raises(ValueError):
            ira_plan(p, sample_count=0)
        with pytest.raises(ValueError):
            ira_plan(p, max_rounds=0)
