import numpy as np
import pytest

from ccplan.geometry import Sphere, point_body
from ccplan.kinematics import planar_point_robot
from ccplan.planner import (
    CONVERGED,
    PLAN_INFEASIBLE,
    TrajectoryProblem,
    convexify,
    evaluate_constraints,
    path_objective,
    seed_trajectory,
    solve,
)
from ccplan.qp import solve_qp
from ccplan.risk import UncertainObstacle


def point_problem(obstacles, T=10, budget=0.01, margin=0.02,
                  start=(-2.0, 0.0), goal=(2.0, 0.0)):
    return TrajectoryProblem(planar_point_robot(), obstacles, T,
                             np.array(start), np.array(goal), budget, margin)


def offset_obstacle(center=(0.0, 0.15), radius=0.05, sigma2=0.01):
    return UncertainObstacle(Sphere(np.array(center), radius),
                             sigma2 * np.eye(2))


class TestSeed:
    def test_two_steps(self):
        traj, alloc = seed_trajectory(point_problem([], T=2))
        np.testing.assert_allclose(traj, [[-2, 0], [2, 0]])
        np.testing.assert_allclose(alloc, [0.005, 0.005])

    def test_midpoint(self):
        p = point_problem([], T=3, start=(0.0, 0.0), goal=(1.0, 1.0))
        traj, _ = seed_trajectory(p)
        np.testing.assert_allclose(traj[1], [0.5, 0.5])

    def test_uniform_steps(self):
        traj, _ = seed_trajectory(point_problem([], T=7))
        steps = np.diff(traj, axis=0)
        np.testing.assert_allclose(steps, np.broadcast_to(steps[0],
                                                          steps.shape))

    def test_problem_validation(self):
        with pytest.raises(ValueError):
            point_problem([], T=1)
        with pytest.raises(ValueError):
            point_problem([], budget=1.5)
        with pytest.raises(ValueError):
            point_problem([], margin=-0.1)


class TestConvexify:
    def test_obstacle_free_optimum_is_seed(self):
        p = point_problem([], T=6)
        traj, alloc = seed_trajectory(p)
        rep = evaluate_constraints(p, traj, alloc)
        qp = convexify(p, traj, alloc, rep, mu=10.0, radius=0.3)
        sol = solve_qp(qp)
        assert sol.status == "optimal"
        np.testing.assert_allclose(sol.z[:12].reshape(6, 2), traj, atol=1e-7)

    def test_risk_row_drives_escape(self):
        # Middle waypoint near an off-path obstacle: the QP should move it
        # along the negative risk gradient (away from the obstacle).
        ob = offset_obstacle(center=(0.0, 0.12))
        p = point_problem([ob], T=3, start=(-0.5, 0.0), goal=(0.5, 0.0),
                          budget=0.001)
        traj, alloc = seed_trajectory(p)
        rep = evaluate_constraints(p, traj, alloc)
        assert rep.risk_totals[1] > alloc[1]
        qp = convexify(p, traj, alloc, rep, mu=100.0, radius=0.3)
        sol = solve_qp(qp)
        mid = sol.z[2:4]
        assert mid[1] < -1e-3  # pushed away from the obstacle above

    def test_saturated_pair_has_no_risk_term(self):
        ob = UncertainObstacle(Sphere(np.array([0.0, 0.02]), 0.3),
                               0.01 * np.eye(2))
        p = point_problem([ob], T=3, start=(-1.0, 0.0), goal=(1.0, 0.0))
        traj, alloc = seed_trajectory(p)
        rep = evaluate_constraints(p, traj, alloc)
        assert rep.certificates[1][0].saturated
        qp = convexify(p, traj, alloc, rep, mu=10.0, radius=0.3)
        # The risk row for t=1 reduces to -delta - slack <= 0: no theta
        # coefficients. Row order: T sd rows/risk rows interleaved per t.
        risk_row_1 = qp.a_ineq[2 * 1 + 1]  # (sd, risk) per timestep, 1 obst
        np.testing.assert_allclose(risk_row_1[:6], 0.0)


class TestSolve:
    def test_obstacle_free_straight_line(self):
        p = point_problem([], T=5)
        res = solve(p)
        assert res.status == CONVERGED
        expect = np.linalg.norm(p.goal - p.start) ** 2 / 4
        assert res.objective == pytest.approx(expect, rel=1e-9)
        traj, _ = seed_trajectory(p)
        np.testing.assert_allclose(res.trajectory, traj, atol=1e-9)

    def test_endpoints_exact(self):
        res = solve(point_problem([offset_obstacle()]))
        np.testing.assert_array_equal(res.trajectory[0], [-2.0, 0.0])
        np.testing.assert_array_equal(res.trajectory[-1], [2.0, 0.0])

    def test_budget_and_allocation_feasible(self):
        p = point_problem([offset_obstacle()])
        res = solve(p)
        assert res.status == CONVERGED
        # Certified risk tracks the allocation within the per-timestep
        # solver tolerance.
        assert res.total_risk <= p.risk_budget + p.timesteps * 1e-4
        assert np.all(res.allocation >= 0.0)
        assert res.allocation.sum() <= p.risk_budget + 1e-9
        # Independent re-certification agrees.
        rep = evaluate_constraints(p, res.trajectory, res.allocation)
        assert rep.max_violation <= 1e-4

    def test_allocation_peaks_at_closest_approach(self):
        p = point_problem([offset_obstacle()])
        res = solve(p)
        dists = [np.linalg.norm(th - [0.0, 0.15]) for th in res.trajectory]
        assert np.argmax(res.allocation) == np.argmin(dists)

    def test_risk_constraint_lengthens_path(self):
        ob = offset_obstacle()
        free = solve(point_problem([]))
        constrained = solve(point_problem([ob]))
        assert constrained.status == CONVERGED
        assert constrained.objective >= free.objective - 1e-9

    def test_escapes_nominal_penetration(self):
        # Seed passes through the obstacle itself; the signed-distance rows
        # must pull the path out before risk can be certified.
        ob = UncertainObstacle(Sphere(np.array([0.0, 0.03]), 0.1),
                               0.0025 * np.eye(2))
        p = point_problem([ob], T=9, start=(-1.0, 0.0), goal=(1.0, 0.0),
                          budget=0.01, margin=0.02)
        traj, alloc = seed_trajectory(p)
        rep = evaluate_constraints(p, traj, alloc)
        assert any(rep.certificates[t][0].saturated for t in range(9))
        assert rep.signed_distances.min() < 0
        res = solve(p)
        assert res.status == CONVERGED
        final = evaluate_constraints(p, res.trajectory, res.allocation)
        assert final.signed_distances.min() >= p.margin - 1e-4

    def test_merit_monotone_over_accepted_steps(self):
        res = solve(point_problem([offset_obstacle()]))
        by_mu = {}
        for entry in res.iterations:
            if entry["accepted"]:
                by_mu.setdefault(entry["mu"], []).append(entry["merit"])
        for merits in by_mu.values():
            assert all(a >= b - 1e-9 for a, b in zip(merits, merits[1:]))

    def test_deterministic(self):
        p = point_problem([offset_obstacle()])
        a = solve(p)
        b = solve(p)
        np.testing.assert_array_equal(a.trajectory, b.trajectory)
        np.testing.assert_array_equal(a.allocation, b.allocation)

    def test_infeasible_reported(self):
        # Joint limits keep the robot within |q| <= 1 while the obstacle's
        # uncertainty blankets that whole box: no budget-satisfying path.
        robot = planar_point_robot(limits=1.0)
        ob = UncertainObstacle(point_body([0.0, 0.1]), 0.25 * np.eye(2))
        p = TrajectoryProblem(robot, [ob], 5, np.array([-1.0, 0.0]),
                              np.array([1.0, 0.0]), 1e-3)
        res = solve(p)
        assert res.status == PLAN_INFEASIBLE
        assert res.report.max_violation > 1e-4

    def test_evaluate_allocation_residual(self):
        p = point_problem([], T=4, budget=0.01)
        traj, _ = seed_trajectory(p)
        alloc = np.full(4, 1.5 * 0.01 / 4)
        rep = evaluate_constraints(p, traj, alloc)
        assert rep.allocation_residual == pytest.approx(0.5 * 0.01)
