"""End-to-end acceptance gate.

Each test class checks one user-facing guarantee of the toolkit: sound risk
certificates, tight (maximal) shadow sets, closed-form agreement, gradient
fidelity, planner budget satisfaction and speed, baseline ordering, QP
solver correctness, and seeded determinism.
"""

import json
import math
import time
from importlib.resources import files

import numpy as np
import pytest

from ccplan.chi2 import chi2_sf
from ccplan.cli import main
from ccplan.geometry import (
    Capsule,
    Polytope,
    Pose,
    Sphere,
    box,
    point_body,
)
from ccplan.kinematics import Joint, RobotModel
from ccplan.planner import CONVERGED, TrajectoryProblem, solve
from ccplan.qp import OPTIMAL, solve_qp
from ccplan.risk import UncertainObstacle, certify_risk
from ccplan.validate import ira_plan, monte_carlo_risk, risk_blind_plan
from test_kinematics import planar_point_robot
from test_qp import (assert_duality_gap, dual_pg_oracle, kkt_residuals,
                     random_feasible_qp)
from test_risk import check_fd_gradient, per_shadow_gradients, straddle_robot
from test_validate import shadow_containment

SCENES = files("ccplan") / "scenes"


def load_problem(scene, robot, T, start, goal, delta, margin=0.02):
    from ccplan.sceneio import parse_robot, parse_scene
    sc = parse_scene(json.loads((SCENES / scene).read_text()))
    rb = parse_robot(json.loads((SCENES / robot).read_text()))
    return sc, TrajectoryProblem(rb, sc.obstacles, T, np.array(start),
                                 np.array(goal), delta, margin)


def corridor_problem():
    return load_problem("corridor2d.json", "pointbot2d.json", 10,
                        (-1.5, 0.0), (1.5, 0.0), 0.01)


def pickplace_problem():
    return load_problem("pickplace3d.json", "arm4dof3d.json", 17,
                        (-0.8, -0.5, -0.7, -0.3), (0.9, -0.4, -0.8, -0.2),
                        0.10)


def sphere_robot():
    """2-dof prismatic carriage moving a solid sphere."""
    joints = [
        Joint("prismatic", Pose.identity(2), np.array([1.0, 0.0])),
        Joint("prismatic", Pose.identity(2), np.array([0.0, 1.0])),
    ]
    return RobotModel(joints, [[], [Sphere(np.zeros(2), 0.12)]],
                      Pose.identity(2))


def arm3_robot():
    """Planar 3-revolute arm with capsule links of length 0.4."""
    link = Capsule(np.zeros(2), np.array([0.4, 0.0]), 0.03)
    elbow = Pose(np.eye(2), np.array([0.4, 0.0]))
    joints = [Joint("revolute", Pose.identity(2)),
              Joint("revolute", elbow),
              Joint("revolute", elbow)]
    return RobotModel(joints, [[link], [link], [link]], Pose.identity(2))


def random_obstacle(rng):
    kind = rng.integers(0, 3)
    # Center placed in an annulus around the workspace origin so scenes
    # span the saturated / risky / nearly-safe regimes.
    angle = rng.uniform(0.0, 2.0 * math.pi)
    radius = rng.uniform(0.3, 1.3)
    c = radius * np.array([math.cos(angle), math.sin(angle)])
    if kind == 0:
        nominal = Sphere(c, rng.uniform(0.05, 0.25))
    elif kind == 1:
        nominal = box(rng.uniform(0.05, 0.25, size=2), center=c)
    else:
        nominal = Polytope(c + rng.normal(size=(6, 2)) * 0.15)
    A = rng.normal(size=(2, 2)) * rng.uniform(0.05, 0.25)
    return UncertainObstacle(nominal, A @ A.T + 0.003 * np.eye(2))


class TestCertificateSoundness:
    def test_random_scenes_never_underestimate(self):
        # The central guarantee: the certified bound is an upper bound on
        # the true collision probability, up to Monte Carlo noise.
        rng = np.random.default_rng(2024)
        robots = [planar_point_robot(), sphere_robot(), arm3_robot()]
        for i in range(50):
            robot = robots[i % 3]
            ob = random_obstacle(rng)
            theta = rng.uniform(-0.7, 0.7, size=robot.dof)
            cert = certify_risk(robot, theta, ob)
            rep = monte_carlo_risk(robot, [theta], [ob], 100_000, seed=i)
            slack = 3.0 * rep.standard_error
            assert rep.estimate <= cert.eps_prime + slack, (
                f"scene {i}: sampled {rep.estimate} exceeds certificate "
                f"{cert.eps_prime} by more than {slack}")


class TestShadowMaximality:
    @pytest.mark.parametrize("eps", [0.5, 0.1, 0.01])
    @pytest.mark.parametrize("nominal", [
        Sphere(np.array([0.3, -0.2]), 0.2),
        box([0.25, 0.1], center=[0.1, 0.4]),
    ], ids=["sphere", "box"])
    def test_containment_probability_is_exact(self, nominal, eps):
        # The shadow contains the displaced obstacle exactly when the
        # displacement lies in the covariance ellipsoid at level 1 - eps.
        ob = UncertainObstacle(nominal,
                               np.array([[0.05, 0.015], [0.015, 0.03]]))
        estimate = shadow_containment(ob, eps, 100_000, seed=int(1000 * eps))
        p = 1.0 - eps
        window = 3.0 * math.sqrt(p * (1.0 - p) / 100_000)
        assert abs(estimate - p) <= window


class TestClosedFormRisk:
    def test_isotropic_point_pair(self):
        sigma = 0.4
        robot = planar_point_robot()
        ob = UncertainObstacle(point_body(np.zeros(2)),
                               sigma * sigma * np.eye(2))
        expected = {1: 0.6065306597, 2: 0.1353352832, 3: 0.0111089965}
        for k, value in expected.items():
            cert = certify_risk(robot, [k * sigma, 0.0], ob)
            assert abs(cert.eps1 - math.exp(-k * k / 2.0)) <= 1e-6
            assert cert.eps1 == pytest.approx(value, abs=1e-6)


class TestGradientFidelity:
    def test_hundred_nondegenerate_configurations(self):
        rng = np.random.default_rng(7)
        robots = [straddle_robot(-1.2, 1.6), sphere_robot(), arm3_robot()]
        checked = 0
        for i in range(500):
            if checked >= 100:
                break
            robot = robots[i % 3]
            ob = random_obstacle(rng)
            theta = rng.uniform(-0.6, 0.6, size=robot.dof)
            # check_fd_gradient asserts agreement within
            # max(1e-3 rel, 1e-6 abs) and returns False on degenerate
            # (rim-contact or branch-crossing) stencils.
            if check_fd_gradient(robot, theta, ob):
                checked += 1
        assert checked >= 100

    def test_one_dof_closed_form(self):
        # eps1(r) = exp(-r^2/2): slope -exp(-1/2) at unit separation.
        joints = [Joint("prismatic", Pose.identity(2),
                        np.array([1.0, 0.0]))]
        robot = RobotModel(joints, [[point_body([0.0, 0.0])]],
                           Pose.identity(2))
        ob = UncertainObstacle(point_body(np.zeros(2)), np.eye(2))
        cert = certify_risk(robot, [1.0], ob)
        g1, _ = per_shadow_gradients(cert, robot, [1.0], ob)
        assert g1[0] == pytest.approx(-math.exp(-0.5), rel=1e-6)


class TestPlannerBudget:
    def test_corridor_budget_satisfied(self):
        scene, problem = corridor_problem()
        res = solve(problem)
        assert res.status == CONVERGED
        rep = monte_carlo_risk(problem.robot, res.trajectory,
                               scene.obstacles, 100_000, seed=0)
        assert rep.estimate <= problem.risk_budget

    def test_pickplace_budget_satisfied(self):
        scene, problem = pickplace_problem()
        res = solve(problem)
        assert res.status == CONVERGED
        rep = monte_carlo_risk(problem.robot, res.trajectory,
                               scene.obstacles, 100_000, seed=0)
        assert rep.estimate <= problem.risk_budget


class TestBenchmarkOrdering:
    def test_corridor_baseline_table(self):
        scene, problem = corridor_problem()
        mc = lambda traj, seed=0: monte_carlo_risk(
            problem.robot, traj, scene.obstacles, 100_000, seed).estimate

        certified = solve(problem)
        blind = risk_blind_plan(problem)
        ira = ira_plan(problem, sample_count=1000, seed=2)

        def length(traj):
            return float(np.linalg.norm(np.diff(traj, axis=0),
                                        axis=1).sum())

        # Ignoring uncertainty gives the shortest path but blows the
        # budget; sampling-based reallocation with 1e3 samples still
        # overshoots a 1% budget; the certified planner does not.
        assert length(blind.trajectory) < length(certified.trajectory)
        assert mc(blind.trajectory) > problem.risk_budget
        assert mc(ira.trajectory) > problem.risk_budget
        assert mc(certified.trajectory) <= problem.risk_budget


class TestPlannerSpeed:
    def test_desk_scale_solves_under_two_seconds(self):
        for build in (corridor_problem, pickplace_problem):
            _, problem = build()
            t0 = time.perf_counter()
            res = solve(problem)
            elapsed = time.perf_counter() - t0
            assert res.status == CONVERGED
            assert elapsed < 2.0, f"{elapsed:.2f}s for {problem.timesteps}t"


class TestQPEquivalence:
    def test_matches_brute_force_oracle(self):
        # A duality-gap certificate proves every solution optimal; the
        # brute-force oracle checks the first few as well.
        rng = np.random.default_rng(314)
        for i in range(200):
            qp = random_feasible_qp(rng)
            sol = solve_qp(qp)
            assert sol.status == OPTIMAL
            assert_duality_gap(qp, sol)
            if i < 5:
                obj_ref, _ = dual_pg_oracle(qp)
                assert abs(sol.objective - obj_ref) \
                    <= 1e-5 * max(1.0, abs(obj_ref))
            stat, primal, dual, comp = kkt_residuals(qp, sol)
            assert max(stat, primal, dual, comp) <= 1e-6


class TestDeterminism:
    @staticmethod
    def _strip_runtime(payload):
        return {k: v for k, v in payload.items() if k != "runtimeSeconds"}

    def test_cli_bit_reproducible(self, tmp_path, capsys):
        scene = str(SCENES / "corridor2d.json")
        robot = str(SCENES / "pointbot2d.json")
        outs = []
        for run in ("a", "b"):
            out = tmp_path / run
            args = ["--scene", scene, "--robot", robot,
                    "--out-dir", str(out), "--seed", "7"]
            assert main(["plan", *args, "--start=-1.5,0", "--goal=1.5,0",
                         "--timesteps", "10", "--delta", "0.01",
                         "--margin", "0.02"]) == 0
            assert main(["validate", *args, "--trajectory",
                         str(out / "trajectory.csv"),
                         "--samples", "5000"]) == 0
            assert main(["certify", *args, "--theta", "0.1,0.4"]) == 0
            outs.append(out)
        a, b = outs
        for name in ("trajectory.csv", "allocation.csv", "plan.svg",
                     "validate.json", "certify.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes(), name
        # The plan summary is identical except for wall-clock runtime.
        assert self._strip_runtime(json.loads((a / "plan.json").read_text())) \
            == self._strip_runtime(json.loads((b / "plan.json").read_text()))

    def test_seed_changes_monte_carlo_draws(self):
        robot = planar_point_robot()
        ob = UncertainObstacle(Sphere(np.array([0.0, 0.3]), 0.1),
                               0.02 * np.eye(2))
        a = monte_carlo_risk(robot, [[0.0, 0.0]], [ob], 20_000, seed=1)
        b = monte_carlo_risk(robot, [[0.0, 0.0]], [ob], 20_000, seed=2)
        assert a.estimate != b.estimate

    def test_solver_bitwise_repeatable(self):
        _, problem = corridor_problem()
        r1 = solve(problem)
        r2 = solve(problem)
        np.testing.assert_array_equal(r1.trajectory, r2.trajectory)
        np.testing.assert_array_equal(r1.allocation, r2.allocation)
        assert r1.total_risk == r2.total_risk
