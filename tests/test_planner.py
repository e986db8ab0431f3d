import dataclasses
import inspect
import itertools

import numpy as np
import pytest

import ccplan.planner as planner_module
import ccplan.risk as risk_module
from ccplan.geometry import (Capsule, Pose, Sphere, box,
                             mahalanobis_contacts, point_body)
from ccplan.kinematics import Joint, RobotModel, chain_frames, point_jacobian
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
from ccplan.qp import ITERATION_LIMIT, OPTIMAL, solve_qp
from ccplan.risk import (RiskCertificate, UncertainObstacle, certify_lanes,
                         certify_risk, risk_gradient, risk_weights)
from test_acceptance import corridor_problem, pickplace_problem
from test_kinematics import planar_point_robot
from test_qp import kkt_residuals
from test_risk import (assert_same_certificate, check_fd_gradient,
                       nondegenerate, straddle_robot, translating_robot)


def point_problem(obstacles, T=10, budget=0.01, margin=0.02,
                  start=(-2.0, 0.0), goal=(2.0, 0.0)):
    return TrajectoryProblem(planar_point_robot(), obstacles, T,
                             np.array(start), np.array(goal), budget, margin)


def offset_obstacle(center=(0.0, 0.15), radius=0.05, sigma2=0.01):
    return UncertainObstacle(Sphere(np.array(center), radius),
                             sigma2 * np.eye(2))


def record_subproblems(monkeypatch):
    """Record every QP that a solve hands to ``solve_qp`` as (arguments of
    the ``convexify`` call that linearized it, by name, trust radius, QP).
    A QP that ``convexify`` did not return follows a rejected step: it
    must share the linearization of the QP before it, at that QP's radius
    shrunk by RADIUS_SHRINK."""
    signature = inspect.signature(convexify)
    seen = []
    last = {}

    def linearizing(*args, **kwargs):
        qp = convexify(*args, **kwargs)
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        last.update(args=bound.arguments, qp=qp)
        return qp

    def solving(qp, **kwargs):
        if qp is last["qp"]:
            radius = last["args"]["radius"]
        else:
            prev_args, prev_radius, prev = seen[-1]
            assert prev_args is last["args"]
            for name in ("hessian", "linear", "a_ineq", "b_ineq"):
                assert getattr(qp, name) is getattr(prev, name)
            assert qp.constant == prev.constant
            radius = prev_radius * planner_module.RADIUS_SHRINK
        seen.append((last["args"], radius, qp))
        return solve_qp(qp, **kwargs)

    monkeypatch.setattr(planner_module, "convexify", linearizing)
    monkeypatch.setattr(planner_module, "solve_qp", solving)
    return seen


def assert_same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape and a.dtype == b.dtype
    assert a.tobytes() == b.tobytes()


def assert_certificates_identical(x, y):
    """Two rows-of-rows of RiskCertificates, field by field, bit for bit."""
    assert [len(row) for row in x] == [len(row) for row in y]
    for cx, cy in zip(itertools.chain(*x), itertools.chain(*y)):
        for f in dataclasses.fields(cx):
            u, v = getattr(cx, f.name), getattr(cy, f.name)
            assert (u is None) == (v is None), f.name
            if u is not None:
                assert_same_bits(u, v)


def assert_reports_identical(got, fresh):
    """Every field of two ConstraintReports, bit for bit; the lane
    certificates through the RiskCertificates they form, since a lane's
    fields without contact data are undefined."""
    assert_certificates_identical(got.certificates, fresh.certificates)
    for field in dataclasses.fields(got):
        x, y = getattr(got, field.name), getattr(fresh, field.name)
        if field.name == "risk":
            assert (x is None) == (y is None)
        elif field.name == "frames":
            for f in dataclasses.fields(x):
                assert_same_bits(getattr(x, f.name), getattr(y, f.name))
        else:
            assert_same_bits(x, y)


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

    def test_endpoints_are_the_problem_rows(self):
        # (1 - w) start + w goal would turn the start's -0.0 into +0.0;
        # later passes reuse the first pass's endpoint rows, so the seed's
        # endpoints are the start and goal bit for bit.
        p = point_problem([], T=5, start=(-0.0, -1.0), goal=(2.0, -0.0))
        traj, _ = seed_trajectory(p)
        assert_same_bits(traj[0], p.start)
        assert_same_bits(traj[-1], p.goal)

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
        # The variables are the four interior waypoints.
        np.testing.assert_allclose(sol.z[:8].reshape(4, 2), traj[1:-1],
                                   atol=1e-7)

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
        mid = sol.z[:2]     # the only interior waypoint
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
        # coefficients (the two columns of the only interior waypoint). Row
        # order: T sd rows/risk rows interleaved per t.
        risk_row_1 = qp.a_ineq[2 * 1 + 1]  # (sd, risk) per timestep, 1 obst
        np.testing.assert_allclose(risk_row_1[:2], 0.0)


class TestSolve:
    def test_infeasible_endpoints_exit_before_the_first_qp(self,
                                                          monkeypatch):
        # The start (-0.1, -0.1) of corridor2d carries a certified risk of
        # 0.309 against a budget of 0.01. The solve took 109 SCO
        # iterations to report it infeasible; it now stops after the first
        # pass.
        qps = []
        monkeypatch.setattr(planner_module, "solve_qp",
                            lambda *args, **kwargs: qps.append(args))
        _, p = corridor_problem()
        p = dataclasses.replace(p, start=np.array([-0.1, -0.1]))
        res = solve(p)
        assert res.status == PLAN_INFEASIBLE
        assert not qps and not res.iterations
        assert res.certified_risks[0] > p.risk_budget
        # The risk-blind solve of the same problem is still planned.
        monkeypatch.undo()
        assert solve(p, include_risk=False).status == CONVERGED

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

    @pytest.mark.parametrize("T", [2, 3])
    def test_shortest_horizons(self, T, monkeypatch):
        # T=2 has no interior waypoint, so its subproblems have no waypoint
        # variables. At T=3 the start's and the goal's linear terms fall on
        # the one interior waypoint. The obstacle is off the straight line,
        # with a certified risk at the midpoint inside its allocation, so
        # the plan and every subproblem's optimum are the straight line.
        seen = record_subproblems(monkeypatch)
        p = point_problem([offset_obstacle(center=(0.0, 0.4))], T=T)
        res = solve(p)
        assert res.status == CONVERGED
        np.testing.assert_array_equal(res.trajectory[0], p.start)
        np.testing.assert_array_equal(res.trajectory[-1], p.goal)
        length = float(np.sum((p.goal - p.start) ** 2)) / (T - 1)
        assert res.objective == pytest.approx(length, rel=1e-12)
        if T == 3:
            assert res.certified_risks[1] > 1e-4
        n_th = (T - 2) * p.robot.dof
        line, _ = seed_trajectory(p)
        assert seen
        for _, _, qp in seen:
            # Interior waypoints, then per timestep an allocation, a
            # signed-distance slack (one obstacle) and a risk slack.
            assert qp.n == n_th + 3 * T
            sol = solve_qp(qp)
            assert sol.status == OPTIMAL
            # The allocation regularizer moves the midpoint by 2e-9.
            np.testing.assert_allclose(sol.z[:n_th], line[1:-1].ravel(),
                                       rtol=0, atol=1e-7)
            assert sol.objective == pytest.approx(length, rel=1e-9)

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
        # The two middle waypoints are equally close up to roundoff, so the
        # peak may sit at either of them.
        assert dists[np.argmax(res.allocation)] <= min(dists) + 1e-12

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


class TestQPSequence:
    def test_qp_stopped_at_its_iteration_limit_is_no_step(self, monkeypatch):
        # Such a z is dual feasible but need not satisfy the model's
        # constraints, so it must not become a candidate trajectory.
        def stopped(qp, **kwargs):
            return dataclasses.replace(solve_qp(qp, **kwargs),
                                       status=ITERATION_LIMIT)

        monkeypatch.setattr(planner_module, "solve_qp", stopped)
        p = point_problem([offset_obstacle()])
        res = solve(p)
        traj, alloc = seed_trajectory(p)
        assert res.iterations == []
        np.testing.assert_array_equal(res.trajectory, traj)
        np.testing.assert_array_equal(res.allocation, alloc)
        assert res.status != CONVERGED

    def test_warm_qps_take_few_steps(self, monkeypatch):
        # Step counts are deterministic, so this is a hard gate: each QP
        # starts from the previous QP's active set and corrects only the
        # rows and fixed variables that changed.
        steps = []

        def counting(qp, **kwargs):
            sol = solve_qp(qp, **kwargs)
            steps.append(sol.iterations)
            return sol

        monkeypatch.setattr(planner_module, "solve_qp", counting)
        _, p = corridor_problem()
        assert solve(p).status == CONVERGED
        assert len(steps) > 5
        assert np.median(steps[1:]) <= 10

    def test_every_qp_of_a_solve_is_optimal_cold_and_warm(self, monkeypatch):
        # A cold solve of three of these QPs once ended a partial step on
        # an allocation's upper bound with the bound satisfied by roundoff,
        # and dropped the multiplier the bound had gained: stationarity was
        # off by up to 8.3.
        seen = []

        def recording(qp, **kwargs):
            seen.append((qp, kwargs["warm_start"]))
            return solve_qp(qp, **kwargs)

        monkeypatch.setattr(planner_module, "solve_qp", recording)
        _, p = corridor_problem()
        solve(p)
        for qp, hint in seen:
            for sol in (solve_qp(qp), solve_qp(qp, warm_start=hint)):
                assert sol.status == OPTIMAL
                stat, primal, dual, comp = kkt_residuals(qp, sol)
                assert stat <= 1e-6
                assert primal <= 1e-8
                assert dual <= 1e-8
                assert comp <= 1e-6

    def test_log_reports_qp_counters(self):
        p = point_problem([offset_obstacle()])
        res = solve(p)
        assert res.iterations
        T, dof = p.timesteps, p.robot.dof
        n = (T - 2) * dof + 3 * T
        for entry in res.iterations:
            assert entry["qp_steps"] >= 0
            # An active set holds independent constraints: no more than
            # the QP's rows (a signed-distance and a risk row per timestep
            # and the budget row) and, with the fixed variables, no more
            # than its variables.
            assert 0 <= entry["qp_active_rows"] <= 2 * T + 1
            assert entry["qp_fixed_variables"] >= 0
            assert entry["qp_active_rows"] + entry["qp_fixed_variables"] <= n


class TestSolveConstants:
    """What a solve computes once: the endpoint rows, one linearization
    per iterate, one objective per penalty weight."""

    @pytest.mark.parametrize("build", [pickplace_problem, corridor_problem])
    def test_every_pass_equals_a_fresh_full_pass(self, build, monkeypatch):
        passes = []

        def compared(*args, **kwargs):
            rep = evaluate_constraints(*args, **kwargs)
            bound = signature.bind(*args, **kwargs)
            passes.append(bound.arguments.pop("ends", None))
            assert_reports_identical(rep, evaluate_constraints(
                *bound.args, **bound.kwargs))
            return rep

        signature = inspect.signature(evaluate_constraints)
        monkeypatch.setattr(planner_module, "evaluate_constraints", compared)
        _, p = build()
        for include_risk in (True, False):
            passes.clear()
            assert solve(p, include_risk=include_risk).status == CONVERGED
            # The first pass computes every row; every later one takes the
            # endpoint rows from it.
            assert len(passes) > 1 and passes[0] is None
            assert all(ends is not None for ends in passes[1:])

    def test_two_steps_have_no_interior_rows(self, monkeypatch):
        ob = offset_obstacle(center=(0.0, 0.4))
        p = point_problem([ob], T=2, start=(-0.2, 0.3), goal=(0.2, 0.3))
        traj, alloc = seed_trajectory(p)
        first = evaluate_constraints(p, traj, alloc)
        monkeypatch.setattr(planner_module, "certify_lanes", None)
        again = evaluate_constraints(p, traj, 0.5 * alloc, ends=first)
        monkeypatch.undo()
        assert_reports_identical(again,
                                 evaluate_constraints(p, traj, 0.5 * alloc))

    def test_ends_must_hold_the_same_endpoints(self):
        p = point_problem([offset_obstacle()], T=4)
        traj, alloc = seed_trajectory(p)
        first = evaluate_constraints(p, traj, alloc)
        moved = traj.copy()
        moved[-1, 1] += 1e-9
        with pytest.raises(ValueError):
            evaluate_constraints(p, moved, alloc, ends=first)

    def test_endpoints_are_certified_in_the_first_pass_only(self,
                                                            monkeypatch):
        stacks = []     # per pass, the first searches of its lane stack

        def counted(bodies, c, *args):
            stacks.append(c)
            return certify_lanes(bodies, c, *args)

        monkeypatch.setattr(planner_module, "certify_lanes", counted)
        _, p = pickplace_problem()
        res = solve(p)
        assert res.status == CONVERGED
        T = p.timesteps
        assert len(stacks) == len(res.iterations) + 1 > 5
        # The first pass certifies every step, and an obstacle reaches each
        # endpoint's shadow there; every later pass certifies the interior
        # steps only.
        assert stacks[0].shape[:2] == (T, len(p.obstacles))
        assert np.isfinite(stacks[0][[0, -1]]).any(axis=(1, 2)).all()
        assert all(c.shape[:2] == (T - 2, len(p.obstacles))
                   for c in stacks[1:])

    def test_rejected_steps_keep_the_linearization(self, monkeypatch):
        # record_subproblems checks that every QP convexify did not build
        # shares H, f, A and b with the QP before it; its bounds are those
        # of convexify at the shrunk radius.
        seen = record_subproblems(monkeypatch)
        checks = []
        monkeypatch.setattr(planner_module, "check_hessian",
                            lambda H: checks.append(H))
        _, p = pickplace_problem()
        res = solve(p)
        assert res.status == CONVERGED
        rejected = [entry for entry in res.iterations
                    if not entry["accepted"]]
        assert rejected
        reused = 0
        for args, radius, qp in seen:
            if radius == args["radius"]:
                continue
            reused += 1
            fresh = convexify(**dict(args, radius=radius))
            assert_same_bits(qp.lo, fresh.lo)
            assert_same_bits(qp.hi, fresh.hi)
        assert reused == len(rejected)
        linearizations = {id(args) for args, _, _ in seen}
        accepted = len(res.iterations) - len(rejected)
        weights = sorted({args["mu"] for args, _, _ in seen})
        assert len(linearizations) == accepted + len(weights)
        # The objective is built and checked once per penalty weight, and
        # every subproblem at one weight shares it.
        assert len(checks) == len(weights)
        for mu in weights:
            shared = {id(qp.hessian) for args, _, qp in seen
                      if args["mu"] == mu}
            assert len(shared) == 1


def point_robot_3d():
    """3D point robot driven by three prismatic joints (x, y, z)."""
    joints = [Joint("prismatic", Pose.identity(3), axis, -5.0, 5.0)
              for axis in np.eye(3)]
    return RobotModel(joints, [[], [], [point_body(np.zeros(3))]],
                      Pose.identity(3))


class TestEvaluate:
    def test_culled_pairs_take_no_certificate_call(self, monkeypatch):
        # With sigma = 0.1, the endpoints lie 11 sigma from the sphere,
        # beyond the eps_tol shadow: their lanes have every body culled
        # (c = inf, no search) and take the floored certificate. The
        # midpoint, 1 sigma away, is certified.
        searched = []

        def counted(vertices, *args):
            searched.append(vertices)
            return mahalanobis_contacts(vertices, *args)

        monkeypatch.setattr(planner_module, "mahalanobis_contacts", counted)
        ob = UncertainObstacle(Sphere(np.zeros(2), 0.1), 0.01 * np.eye(2))
        traj = np.array([[-1.2, 0.0], [0.0, 0.2], [1.2, 0.0]])
        p = point_problem([ob], T=3, start=traj[0], goal=traj[-1])
        rep = evaluate_constraints(p, traj, np.full(3, 0.01 / 3))
        assert len(searched) == 1
        np.testing.assert_array_equal(searched[0], [[traj[1]]])
        floored = RiskCertificate(1e-6, 1e-6, 1e-6, False, floored=True,
                                  floored2=True)
        assert rep.certificates[0][0] == rep.certificates[2][0] == floored
        # The cold certificate culls the endpoint's body the same way.
        assert certify_risk(p.robot, traj[0], ob) == floored
        assert rep.certificates[1][0].eps_prime == pytest.approx(
            certify_risk(p.robot, traj[1], ob).eps_prime, rel=1e-9)

    def test_far_pair_shortcut_above_posed_box_diagonals(self):
        # A pair whose bodies are all culled by their signed distances
        # takes a floored risk without a certificate. Above a posed box's
        # face diagonals that distance was once a far edge's: a point 0.02
        # above the box, with sigma = 0.02, got risk 1e-6 where a cold
        # certificate gives 0.4.
        robot = point_robot_3d()
        for seed in range(8):
            rng = np.random.default_rng(seed)
            Q = np.linalg.qr(rng.normal(size=(3, 3)))[0]
            pose = Pose(Q * np.linalg.det(Q), rng.normal(size=3))
            h = rng.uniform(0.1, 1.0, size=3)
            ob = UncertainObstacle(box(h).posed(pose), 0.02 ** 2 * np.eye(3))
            waypoints = []
            for axis, side, slope in itertools.product(range(3), (-1, 1),
                                                       (-1, 1)):
                i, j = (k for k in range(3) if k != axis)
                for u in (-0.3, -0.1, 0.1, 0.2):
                    p = np.empty(3)
                    p[axis] = side * (h[axis] + 0.02)
                    p[i], p[j] = u * h[i], slope * u * h[j]
                    waypoints.append(pose.apply(p))
            traj = np.array(waypoints)
            T = len(traj)
            problem = TrajectoryProblem(robot, [ob], T, traj[0], traj[-1],
                                        0.5, 0.0)
            rep = evaluate_constraints(problem, traj, np.full(T, 0.5 / T))
            for t, theta in enumerate(traj):
                cold = certify_risk(robot, theta, ob)
                assert rep.certificates[t][0].eps_prime == pytest.approx(
                    cold.eps_prime, rel=1e-9)


class TestLaneKinds:
    """One constraint pass whose lanes take every branch of the lane tail,
    against one obstacle: a point under the covariance diag(0.25, 0.5),
    and a translating robot carrying two points and two segments. On these
    lanes the pass's first searches (batched, from the Euclidean witness
    pairs) and the cold ones agree bit for bit, so the pass's certificates
    must equal the cold certificates bit for bit."""

    ROBOT = [point_body([0.0, 0.0]), Capsule([-1.0, 1.0], [2.0, 3.0], 0.0),
             Capsule([-1.0, -1.0], [2.0, -3.25], 0.0),
             point_body([2.2, 0.3])]
    # Step by step: every body culled, saturated, floored with a contact,
    # cut inactive, one rim body, two rim bodies, no second contact.
    STEPS = [[2.25, -5.0], [-2.0, -3.0], [-4.5, 1.75], [-3.0, -2.0],
             [-3.0, 0.25], [-0.25, 0.0], [-3.0, -3.0]]
    KINDS = ["culled", "saturated", "floored", "cut inactive", "rim",
             "two rims", "floored2"]

    def test_every_lane_kind_equals_its_cold_certificate(self, monkeypatch):
        robot = translating_robot(self.ROBOT)
        ob = UncertainObstacle(point_body([0.0, 0.0]), np.diag([0.25, 0.5]))
        traj = np.array(self.STEPS)
        T = len(traj)
        p = TrajectoryProblem(robot, [ob], T, traj[0], traj[-1], 0.5, 0.0)
        rep = evaluate_constraints(p, traj, np.full(T, 0.5 / T))
        rims = []
        rim = risk_module._rim_contact
        monkeypatch.setattr(risk_module, "_rim_contact",
                            lambda *args: rims.append(args) or rim(*args))
        kinds = []
        for t, theta in enumerate(traj):
            before = len(rims)
            cold = certify_risk(robot, theta, ob)
            assert_same_certificate(rep.certificates[t][0], cold)
            kinds.append(
                "saturated" if cold.saturated
                else "culled" if cold.c1 is None
                else "floored" if cold.floored
                else "floored2" if cold.floored2
                else {0: "cut inactive", 1: "rim",
                      2: "two rims"}[len(rims) - before])
        assert kinds == self.KINDS
        # The risk rows' gradients are the cold gradients, and match finite
        # differences where the contact-persistence model holds (off the
        # rim, which adds a multiplier term the gradient omits).
        grad, _ = planner_module._risk_terms(p, rep)
        checked = 0
        for t in range(1, T - 1):
            cert = rep.certificates[t][0]
            if cert.saturated:
                assert not grad[t].any()
                continue
            np.testing.assert_array_equal(
                grad[t], risk_gradient(cert, robot, traj[t], ob))
            if nondegenerate(cert):
                checked += check_fd_gradient(robot, traj[t], ob)
        assert checked == 1         # the cut-inactive lane


def oracle_rows(problem, trajectory, report, include_risk=True):
    """``convexify``'s inequality rows and right-hand sides, built pair by
    pair with ``point_jacobian`` (each risk gradient is the sum of w . J
    over the certificate's ``risk_weights``): per timestep a
    signed-distance row per obstacle, then the risk row; the allocation
    row last. The rows are built over every waypoint, and the fixed
    endpoints, theta_0 = start and theta_{T-1} = goal, are then substituted
    as constants: their columns times start and goal move to the
    right-hand side."""
    robot = problem.robot
    T, dof = trajectory.shape
    n_obs = len(problem.obstacles)
    n_th, n_sd = T * dof, T * n_obs
    n = n_th + 2 * T + n_sd
    rows, rhs = [], []
    for t, th in enumerate(trajectory):
        frames = chain_frames(robot, th)
        cols = slice(t * dof, (t + 1) * dof)
        for o in range(n_obs):
            J = point_jacobian(robot, th, report.links[t, o],
                               report.witnesses[t, o], frames)
            g = report.normals[t, o] @ J
            row = np.zeros(n)
            row[cols] = -g
            row[n_th + T + t * n_obs + o] = -1.0
            rows.append(row)
            rhs.append(report.signed_distances[t, o] - problem.margin
                       - float(g @ th))
        if not include_risk:
            continue
        eps, grad = 0.0, np.zeros(dof)
        for o, ob in enumerate(problem.obstacles):
            cert = report.certificates[t][o]
            if not cert.saturated:
                eps += cert.eps_prime
                for _, w, link, point in risk_weights(cert, ob):
                    grad += w @ point_jacobian(robot, th, link, point,
                                               frames)
        row = np.zeros(n)
        row[cols] = grad
        row[n_th + t] = -1.0
        row[n_th + T + n_sd + t] = -1.0
        rows.append(row)
        rhs.append(float(grad @ th) - eps)
    if include_risk:
        row = np.zeros(n)
        row[n_th:n_th + T] = 1.0
        rows.append(row)
        rhs.append(problem.risk_budget)
    A, b = np.array(rows), np.array(rhs)
    ends = np.r_[0:dof, n_th - dof:n_th]
    b = b - A[:, ends] @ np.concatenate([problem.start, problem.goal])
    return np.delete(A, ends, axis=1), b


def straddle_problem():
    """Two points on a carriage passing below a sphere: the far point
    gives its certificates a second (half-shadow) contact."""
    ob = UncertainObstacle(Sphere(np.array([0.0, 0.0]), 0.1),
                           0.01 * np.eye(2))
    return None, TrajectoryProblem(straddle_robot(-0.3, 0.3), [ob], 6,
                                   np.array([-0.3, -0.35]),
                                   np.array([0.3, -0.3]), 0.2, 0.0)


class TestLinearization:
    @pytest.mark.parametrize("build", [corridor_problem, pickplace_problem,
                                       straddle_problem])
    def test_subproblem_matches_per_pair_oracle(self, build, monkeypatch):
        # Every QP of a solve, from the seed's to the last iterate's,
        # against the per-pair oracle, risk-aware and risk-blind. The
        # straddle problem's certificates have second contacts.
        seen = record_subproblems(monkeypatch)
        _, p = build()
        for res in (solve(p), solve(p, include_risk=False)):
            # The endpoints are constants of every subproblem.
            np.testing.assert_array_equal(res.trajectory[0], p.start)
            np.testing.assert_array_equal(res.trajectory[-1], p.goal)
        assert len(seen) > 2
        rng = np.random.default_rng(0)
        for args, radius, qp in seen:
            traj, rep, mu = args["trajectory"], args["report"], args["mu"]
            include_risk = args["include_risk"]
            A, b = oracle_rows(p, traj, rep, include_risk)
            scale = max(1.0, float(np.abs(A).max()))
            np.testing.assert_allclose(qp.a_ineq, A, rtol=0,
                                       atol=1e-12 * scale)
            np.testing.assert_allclose(qp.b_ineq, b, rtol=0,
                                       atol=1e-12 * max(1.0, np.abs(b).max()))
            T, dof = traj.shape
            n_th = (T - 2) * dof
            inner = traj[1:-1]
            limits = np.array([[j.lower, j.upper] for j in p.robot.joints])
            np.testing.assert_array_equal(
                qp.lo[:n_th],
                np.maximum(inner - radius, limits[:, 0]).ravel())
            np.testing.assert_array_equal(
                qp.hi[:n_th],
                np.minimum(inner + radius, limits[:, 1]).ravel())
            np.testing.assert_array_equal(qp.lo[n_th:], 0.0)
            np.testing.assert_array_equal(qp.hi[n_th:n_th + T],
                                          p.risk_budget)
            assert np.all(qp.hi[n_th + T:] == np.inf)
            # The objective is the path length over [start; theta; goal],
            # the regularizers and the l1 slack penalty.
            z = rng.normal(size=qp.n)
            th = np.vstack([p.start, z[:n_th].reshape(T - 2, dof), p.goal])
            d, sl = z[n_th:n_th + T], z[n_th + T:]
            expect = (path_objective(th)
                      + planner_module.DELTA_REG * d @ d
                      + planner_module.SLACK_CURVATURE * mu * sl @ sl
                      + mu * sl.sum())
            value = 0.5 * z @ qp.hessian @ z + qp.linear @ z + qp.constant
            assert value == pytest.approx(expect, rel=1e-12)

    @pytest.mark.parametrize("build", [pickplace_problem, corridor_problem])
    def test_certificates_match_cold_certification(self, build):
        # The batched first searches and the per-body cull leave every
        # certificate of a pass equal to a cold certify_risk of its pair:
        # on the plan, its straight-line seed (which penetrates) and a
        # point between them.
        _, p = build()
        res = solve(p)
        seed, alloc = seed_trajectory(p)
        for traj in (res.trajectory, seed, 0.5 * (seed + res.trajectory)):
            rep = evaluate_constraints(p, traj, alloc)
            for t, theta in enumerate(traj):
                for o, ob in enumerate(p.obstacles):
                    cert = rep.certificates[t][o]
                    cold = certify_risk(p.robot, theta, ob)
                    assert cert.saturated == cold.saturated
                    for key in ("eps1", "eps2", "eps_prime"):
                        assert getattr(cert, key) == pytest.approx(
                            getattr(cold, key), rel=1e-9)
