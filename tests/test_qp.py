import numpy as np
import pytest

from ccplan.qp import (
    INFEASIBLE,
    ITERATION_LIMIT,
    OPTIMAL,
    ActiveSet,
    HessianFactors,
    QuadraticProgram,
    _chol_delete,
    solve_qp,
)


def kkt_residuals(qp, sol):
    """(stationarity, primal feasibility, dual feasibility, complementarity)."""
    z = sol.z
    g = qp.hessian @ z + qp.linear
    primal = 0.0
    comp = 0.0
    if qp.a_ineq is not None:
        s = qp.a_ineq @ z - qp.b_ineq
        primal = float(np.max(s, initial=0.0))
        g = g + qp.a_ineq.T @ sol.duals_ineq
        comp = float(np.max(np.abs(sol.duals_ineq * s), initial=0.0))
    if qp.lo is not None:
        lo = np.where(np.isfinite(qp.lo), qp.lo, z)
        primal = max(primal, float(np.max(lo - z, initial=0.0)))
        g = g - sol.duals_lo
        comp = max(comp, float(np.max(np.abs(sol.duals_lo * (z - lo)),
                                      initial=0.0)))
    if qp.hi is not None:
        hi = np.where(np.isfinite(qp.hi), qp.hi, z)
        primal = max(primal, float(np.max(z - hi, initial=0.0)))
        g = g + sol.duals_hi
        comp = max(comp, float(np.max(np.abs(sol.duals_hi * (hi - z)),
                                      initial=0.0)))
    dual = max(float(np.max(-arr, initial=0.0))
               for arr in (sol.duals_ineq, sol.duals_lo, sol.duals_hi))
    return float(np.max(np.abs(g))), primal, dual, comp


def dual_pg_oracle(qp, iters=40_000):
    """Brute-force oracle: projected-gradient ascent on the dual problem.

    Requires strictly convex H and inequality rows only (boxes are rows).
    """
    H = qp.hessian
    f = qp.linear
    rows = []
    rhs = []
    if qp.a_ineq is not None:
        rows.append(qp.a_ineq)
        rhs.append(qp.b_ineq)
    n = qp.n
    if qp.lo is not None:
        mask = np.isfinite(qp.lo)
        rows.append(-np.eye(n)[mask])
        rhs.append(-qp.lo[mask])
    if qp.hi is not None:
        mask = np.isfinite(qp.hi)
        rows.append(np.eye(n)[mask])
        rhs.append(qp.hi[mask])
    A = np.vstack(rows) if rows else np.zeros((0, n))
    b = np.concatenate(rhs) if rows else np.zeros(0)
    Hinv = np.linalg.inv(H)
    lam = np.zeros(A.shape[0])
    if A.shape[0]:
        L = np.linalg.norm(A @ Hinv @ A.T, 2) + 1e-12
        step = 1.0 / L
        for _ in range(iters):
            z = -Hinv @ (f + A.T @ lam)
            lam = np.maximum(0.0, lam + step * (A @ z - b))
    z = -Hinv @ (f + A.T @ lam)
    return float(0.5 * z @ H @ z + f @ z + qp.constant), z


def assert_duality_gap(qp, sol):
    """Certify optimality by weak duality, trusting nothing the solver says.

    With every inequality and finite bound stacked as A z <= b, any u >= 0
    gives the dual value g(u) = -1/2 r^T H^-1 r - b^T u + const,
    r = f + A^T u, and g <= f* <= f(z) for feasible z. So a feasible z whose
    objective is within the gap of g(u), u = max(0, solver duals), is
    optimal.
    """
    n, z = qp.n, sol.z
    rows, rhs, mult = [], [], []
    if qp.a_ineq is not None:
        rows += [qp.a_ineq]
        rhs += [qp.b_ineq]
        mult += [sol.duals_ineq]
    for bound, sign, duals in ((qp.lo, -1.0, sol.duals_lo),
                               (qp.hi, 1.0, sol.duals_hi)):
        if bound is not None:
            finite = np.isfinite(bound)
            rows += [sign * np.eye(n)[finite]]
            rhs += [sign * bound[finite]]
            mult += [duals[finite]]
    A = np.vstack(rows) if rows else np.zeros((0, n))
    b = np.concatenate(rhs) if rows else np.zeros(0)
    u = np.maximum(0.0, np.concatenate(mult)) if rows else np.zeros(0)
    assert np.all(A @ z <= b + 1e-10)
    r = qp.linear + A.T @ u
    dual = -b @ u + qp.constant
    dual -= 0.5 * r @ np.linalg.solve(qp.hessian, r)
    primal = 0.5 * z @ qp.hessian @ z + qp.linear @ z + qp.constant
    assert primal - dual <= 1e-9 * max(1.0, abs(primal))


class TestBasics:
    def test_unconstrained_min_norm(self):
        qp = QuadraticProgram(2 * np.eye(3), np.zeros(3))
        sol = solve_qp(qp)
        assert sol.status == OPTIMAL
        np.testing.assert_allclose(sol.z, 0.0, atol=1e-12)
        assert sol.objective == pytest.approx(0.0, abs=1e-12)

    def test_active_scalar_constraint(self):
        # min (z-1)^2 s.t. z <= 0
        qp = QuadraticProgram(np.array([[2.0]]), np.array([-2.0]),
                              a_ineq=np.array([[1.0]]), b_ineq=np.array([0.0]),
                              constant=1.0)
        sol = solve_qp(qp)
        assert sol.status == OPTIMAL
        assert sol.z[0] == pytest.approx(0.0, abs=1e-10)
        assert sol.objective == pytest.approx(1.0, abs=1e-10)

    def test_projection_onto_halfplane(self):
        # min |z-(2,2)|^2 s.t. z1+z2 <= 2 -> (1,1)
        qp = QuadraticProgram(2 * np.eye(2), np.array([-4.0, -4.0]),
                              a_ineq=np.array([[1.0, 1.0]]),
                              b_ineq=np.array([2.0]), constant=8.0)
        sol = solve_qp(qp)
        np.testing.assert_allclose(sol.z, [1.0, 1.0], atol=1e-9)

    def test_box_bounds(self):
        qp = QuadraticProgram(np.eye(2), np.array([-10.0, 10.0]),
                              lo=np.array([-1.0, -1.0]),
                              hi=np.array([1.0, 1.0]))
        sol = solve_qp(qp)
        np.testing.assert_allclose(sol.z, [1.0, -1.0], atol=1e-9)

    def test_infeasible_detected(self):
        # z <= 0 and z >= 1
        qp = QuadraticProgram(np.array([[2.0]]), np.zeros(1),
                              a_ineq=np.array([[1.0], [-1.0]]),
                              b_ineq=np.array([0.0, -1.0]))
        sol = solve_qp(qp)
        assert sol.status == INFEASIBLE

    def test_indefinite_rejected(self):
        # The Hessian must be positive definite. An indefinite one, a
        # singular positive semidefinite one, and a singular one formed in
        # floating point (rank 4 of 5, its last pivot roundoff above zero)
        # are all rejected.
        A = np.random.default_rng(0).normal(size=(5, 4))
        for H in (np.diag([1.0, -1.0]), np.diag([2.0, 0.0]), A @ A.T):
            with pytest.raises(ValueError):
                solve_qp(QuadraticProgram(H, np.zeros(len(H))))

    @pytest.mark.parametrize("H", [
        np.array([[1.0, 0.5], [0.0, 1.0]]),
        np.array([[1.0, 0.0], [0.0, np.nan]]),
        np.array([[1.0, -np.inf], [-np.inf, 1.0]]),
    ])
    def test_public_constructor_checks_the_hessian(self, H):
        # Only the planner, which checks its own Hessian once per penalty
        # weight, builds QPs without these checks.
        with pytest.raises(ValueError):
            solve_qp(QuadraticProgram(H, np.zeros(2)))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            QuadraticProgram(np.eye(2), np.zeros(3))

    @pytest.mark.parametrize("field, value", [
        ("hessian", np.array([[1.0, 0.0], [0.0, np.inf]])),
        ("linear", np.array([np.nan, 0.0])),
        ("b_ineq", np.array([np.nan])),
        ("lo", np.array([np.nan, 0.0])),
        ("lo", np.array([np.inf, 0.0])),
        ("hi", np.array([0.0, -np.inf])),
    ])
    def test_non_finite_input_rejected(self, field, value):
        kw = dict(hessian=np.eye(2), linear=np.zeros(2),
                  a_ineq=np.array([[1.0, 1.0]]), b_ineq=np.array([1.0]),
                  lo=np.array([-np.inf, 0.0]), hi=np.array([1.0, np.inf]))
        QuadraticProgram(**kw)  # infinite bounds mean unbounded: valid
        kw[field] = value
        with pytest.raises(ValueError):
            QuadraticProgram(**kw)


def random_feasible_qp(rng):
    n = int(rng.integers(2, 21))
    A = rng.normal(size=(n, n))
    H = A @ A.T + n * np.eye(n)
    f = rng.normal(size=n) * 2
    m = int(rng.integers(1, 2 * n))
    Ai = rng.normal(size=(m, n))
    z0 = rng.normal(size=n)  # guaranteed-feasible anchor
    bi = Ai @ z0 + rng.uniform(0.1, 2.0, size=m)
    lo = z0 - rng.uniform(0.5, 5.0, size=n)
    hi = z0 + rng.uniform(0.5, 5.0, size=n)
    return QuadraticProgram(H, f, a_ineq=Ai, b_ineq=bi, lo=lo, hi=hi)


class TestRandomized:
    def test_matches_dual_projected_gradient_oracle(self):
        # Every solution carries a duality-gap certificate; the first few
        # are also compared with the oracle, which cross-checks the
        # certificate code.
        rng = np.random.default_rng(42)
        for i in range(200):
            qp = random_feasible_qp(rng)
            sol = solve_qp(qp)
            assert sol.status == OPTIMAL
            assert_duality_gap(qp, sol)
            if i < 5:
                obj_ref, _ = dual_pg_oracle(qp)
                assert sol.objective <= obj_ref + 1e-5
                assert abs(sol.objective - obj_ref) < 1e-5 * max(
                    1, abs(obj_ref))

    def test_kkt_residuals(self):
        rng = np.random.default_rng(43)
        for _ in range(100):
            qp = random_feasible_qp(rng)
            sol = solve_qp(qp)
            assert sol.status == OPTIMAL
            stat, primal, dual, comp = kkt_residuals(qp, sol)
            assert stat <= 1e-6
            assert primal <= 1e-8
            assert dual <= 1e-8
            assert comp <= 1e-6

    def test_deterministic(self):
        rng = np.random.default_rng(44)
        qp = random_feasible_qp(rng)
        s1 = solve_qp(qp)
        s2 = solve_qp(qp)
        np.testing.assert_array_equal(s1.z, s2.z)

    def test_warm_rows_hint(self):
        rng = np.random.default_rng(45)
        qp = random_feasible_qp(rng)
        cold = solve_qp(qp)
        hint = [i for i, d in enumerate(cold.duals_ineq) if d > 0]
        warm = solve_qp(qp, warm_start=ActiveSet(rows=hint))
        assert warm.status == OPTIMAL
        np.testing.assert_allclose(warm.z, cold.z, atol=1e-8)


def sco_sequence(rng, length=6):
    """QPs with the same rows, as sequential convex optimization makes them:
    the linear term, the right-hand sides and the bounds move a little from
    one QP to the next, about a feasible anchor that moves too."""
    n = int(rng.integers(4, 21))
    A = rng.normal(size=(n, n))
    H = A @ A.T + n * np.eye(n)
    f = rng.normal(size=n) * 10
    m = int(rng.integers(n // 2, 2 * n))
    Ai = rng.normal(size=(m, n))
    z0 = rng.normal(size=n)
    margin = rng.uniform(0.1, 2.0, size=m)
    width = rng.uniform(0.05, 1.5, size=(2, n))
    # Some variables have no upper bound, as the planner's slacks have not.
    width[1, rng.random(n) < 0.3] = np.inf
    for _ in range(length):
        z0 = z0 + 0.05 * rng.normal(size=n)
        f = f + 0.5 * rng.normal(size=n)
        margin = np.abs(margin + 0.05 * rng.normal(size=m)) + 0.01
        yield QuadraticProgram(H, f, a_ineq=Ai, b_ineq=Ai @ z0 + margin,
                               lo=z0 - width[0], hi=z0 + width[1])


def assert_same_optimum(qp, warm, cold):
    """A warm solve is optimal, carries its own KKT and duality-gap
    certificates, and lands on the cold solve's optimum."""
    assert warm.status == OPTIMAL
    stat, primal, dual, comp = kkt_residuals(qp, warm)
    assert stat <= 1e-6
    assert primal <= 1e-8
    assert dual <= 1e-8
    assert comp <= 1e-6
    assert_duality_gap(qp, warm)
    np.testing.assert_allclose(warm.z, cold.z, rtol=0, atol=1e-9)
    assert warm.objective == pytest.approx(cold.objective, rel=1e-9,
                                           abs=1e-9)


HINT_KINDS = ("stale", "out of range", "duplicated",
              "both bounds of a variable", "every row")


def stale_hints(qp, sol):
    """Hints that are wrong for ``qp`` in every way a caller can get them
    wrong, built from an optimal active set ``sol`` of a related QP; keyed
    by HINT_KINDS."""
    n, m = qp.n, qp.a_ineq.shape[0]
    act = sol.active_set
    return {
        "stale": act,
        "out of range": ActiveSet(
            act.rows + (-1, m, 10 ** 6),
            act.lower + (-1, n, 10 ** 6), act.upper + (-3, n + 2)),
        "duplicated": ActiveSet(act.rows * 2, act.lower * 3,
                                act.upper * 2),
        "both bounds of a variable": ActiveSet(
            act.rows, tuple(range(n)), tuple(range(n))),
        "every row": ActiveSet(tuple(range(m)), act.lower, act.upper),
    }


class TestWarmStart:
    def test_sco_sequences_match_cold_solves(self):
        rng = np.random.default_rng(50)
        steps = []
        for _ in range(20):
            factors = HessianFactors()
            prev = None
            for qp in sco_sequence(rng):
                cold = solve_qp(qp)
                warm = solve_qp(qp, warm_start=prev, factors=factors)
                assert_same_optimum(qp, warm, cold)
                if prev is not None:
                    steps.append(warm.iterations)
                prev = warm.active_set
        # The warm start saves most of the cold solve's steps.
        assert np.median(steps) <= 3

    @pytest.mark.parametrize("kind", HINT_KINDS)
    def test_bad_hints_still_reach_the_optimum(self, kind):
        rng = np.random.default_rng(51)
        for _ in range(10):
            qps = list(sco_sequence(rng, length=4))
            first = solve_qp(qps[0])
            for qp in qps[2:]:
                hint = stale_hints(qp, first)[kind]
                assert_same_optimum(qp, solve_qp(qp, warm_start=hint),
                                    solve_qp(qp))

    def test_hint_with_negative_multipliers(self):
        # Flipping the linear term turns the multipliers of the previous
        # optimum's active set negative at the new data.
        rng = np.random.default_rng(52)
        for _ in range(10):
            qp = next(sco_sequence(rng, 1))
            sol = solve_qp(qp)
            flipped = QuadraticProgram(qp.hessian, -qp.linear, qp.a_ineq,
                                       qp.b_ineq, qp.lo, qp.hi)
            assert_same_optimum(
                flipped, solve_qp(flipped, warm_start=sol.active_set),
                solve_qp(flipped))

    def test_linearly_dependent_rows(self):
        # Rows repeated and a row that sums two others, all hinted: the
        # start factors an independent subset.
        rng = np.random.default_rng(53)
        for _ in range(10):
            base = next(sco_sequence(rng, 1))
            A = base.a_ineq
            A2 = np.vstack([A, A[:3], A[0] + A[1]])
            b2 = np.concatenate([base.b_ineq, base.b_ineq[:3],
                                 [base.b_ineq[0] + base.b_ineq[1]]])
            qp = QuadraticProgram(base.hessian, base.linear, A2, b2,
                                  lo=base.lo, hi=base.hi)
            hint = ActiveSet(tuple(range(len(b2))),
                             solve_qp(base).active_set.lower)
            assert_same_optimum(qp, solve_qp(qp, warm_start=hint),
                                solve_qp(qp))

    def test_own_active_set_resolves_in_two_steps(self):
        rng = np.random.default_rng(54)
        for _ in range(20):
            for qp in sco_sequence(rng, length=2):
                cold = solve_qp(qp)
                again = solve_qp(qp, warm_start=cold.active_set)
                assert again.iterations <= 2
                assert_same_optimum(qp, again, cold)

    def test_infeasible_under_warm_hint(self):
        rng = np.random.default_rng(55)
        for _ in range(10):
            base = next(sco_sequence(rng, 1))
            hint = solve_qp(base).active_set
            a = base.a_ineq[0]
            t = float(a @ solve_qp(base).z)
            # a z <= t and a z >= t + 1 cannot both hold.
            qp = QuadraticProgram(
                base.hessian, base.linear, np.vstack([base.a_ineq, a, -a]),
                np.concatenate([base.b_ineq, [t, -t - 1.0]]), base.lo,
                base.hi)
            assert solve_qp(qp).status == INFEASIBLE
            assert solve_qp(qp, warm_start=hint).status == INFEASIBLE

    def test_iteration_limit_under_warm_hint(self):
        rng = np.random.default_rng(56)
        limited = 0
        for _ in range(10):
            qp = next(sco_sequence(rng, 1))
            # The optimal active set of the QP with the opposite linear
            # term: far from this QP's, so many steps remain.
            hint = solve_qp(QuadraticProgram(
                qp.hessian, -qp.linear, qp.a_ineq, qp.b_ineq, qp.lo,
                qp.hi)).active_set
            full = solve_qp(qp, warm_start=hint)
            assert full.status == OPTIMAL
            if full.iterations == 0:
                continue
            short = solve_qp(qp, warm_start=hint,
                             max_iter=full.iterations - 1)
            assert short.status == ITERATION_LIMIT
            assert short.iterations == full.iterations
            limited += 1
        assert limited >= 5


class TestFactorUpdates:
    def test_chol_delete_matches_refactorization(self):
        rng = np.random.default_rng(46)
        for q in (1, 2, 5, 12):
            A = rng.normal(size=(q, q + 3))
            M = A @ A.T
            L = np.linalg.cholesky(M)
            for k in range(q):
                keep = [i for i in range(q) if i != k]
                got = _chol_delete(L, k)
                if q > 1:
                    np.testing.assert_allclose(
                        got, np.linalg.cholesky(M[np.ix_(keep, keep)]),
                        atol=1e-10)
                else:
                    assert got.shape == (0, 0)

    def test_shared_factors_reuse_equal_hessians(self, monkeypatch):
        import ccplan.qp as qp_module
        factored = []
        original = qp_module._factor

        def counting(G):
            factored.append(G.shape[0])
            return original(G)

        monkeypatch.setattr(qp_module, "_factor", counting)
        rng = np.random.default_rng(47)
        qps = [random_feasible_qp(rng) for _ in range(3)]
        H = qps[0].hessian
        qps += [QuadraticProgram(H.copy(), rng.normal(size=H.shape[0]))
                for _ in range(3)]
        factors = HessianFactors()
        for qp in qps:
            shared = solve_qp(qp, factors=factors)
            np.testing.assert_array_equal(shared.z, solve_qp(qp).z)
        # Three distinct Hessians in the shared sequence, plus one
        # factorization per unshared call.
        assert len(factored) == 3 + len(qps)

    def test_shared_factors_keep_inverse_and_scale(self):
        rng = np.random.default_rng(48)
        H = random_feasible_qp(rng).hessian
        factors = HessianFactors()
        P, scale = factors.get(H)
        # The same array, then an equal copy, find the same entry.
        assert factors.get(H)[0] is P
        assert factors.get(H.copy())[0] is P
        G = 0.5 * (H + H.T)
        np.testing.assert_allclose(P @ G, np.eye(len(H)), atol=1e-9)
        assert scale == max(1.0, float(np.trace(np.abs(G))) / len(H))
        other = factors.get(2.0 * H)
        assert other[0] is not P and other[1] == pytest.approx(2.0 * scale)
