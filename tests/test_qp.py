import numpy as np
import pytest

from ccplan.qp import (
    INFEASIBLE,
    OPTIMAL,
    HessianFactors,
    QuadraticProgram,
    _chol_delete,
    kkt_residuals,
    solve_qp,
)


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
    (and free multipliers w on the equalities E z = e) gives the dual value
    g(u, w) = -1/2 r^T H^-1 r - b^T u - e^T w + const, r = f + A^T u + E^T w,
    and g <= f* <= f(z) for feasible z. So a feasible z whose objective is
    within the gap of g(u, w), u = max(0, solver duals), is optimal.
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
    if qp.a_eq is not None:
        np.testing.assert_allclose(qp.a_eq @ z, qp.b_eq, atol=1e-10)
        r = r + qp.a_eq.T @ sol.duals_eq
        dual -= qp.b_eq @ sol.duals_eq
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

    def test_equality_constraint(self):
        # min |z|^2 s.t. z1 + z2 = 2 -> (1,1)
        qp = QuadraticProgram(2 * np.eye(2), np.zeros(2),
                              a_eq=np.array([[1.0, 1.0]]),
                              b_eq=np.array([2.0]))
        sol = solve_qp(qp)
        assert sol.status == OPTIMAL
        np.testing.assert_allclose(sol.z, [1.0, 1.0], atol=1e-9)
        assert sol.duals_eq[0] == pytest.approx(-2.0, abs=1e-8)

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

    def test_infeasible_equalities(self):
        qp = QuadraticProgram(np.eye(2), np.zeros(2),
                              a_eq=np.array([[1.0, 0.0], [1.0, 0.0]]),
                              b_eq=np.array([0.0, 1.0]))
        sol = solve_qp(qp)
        assert sol.status == INFEASIBLE

    def test_indefinite_rejected(self):
        with pytest.raises(ValueError):
            solve_qp(QuadraticProgram(np.diag([1.0, -1.0]), np.zeros(2)))

    def test_psd_singular_regularized(self):
        qp = QuadraticProgram(np.diag([2.0, 0.0]), np.array([0.0, 1.0]),
                              lo=np.array([-np.inf, 0.0]), hi=None)
        sol = solve_qp(qp)
        assert sol.regularized
        assert sol.z[1] == pytest.approx(0.0, abs=1e-6)

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


def random_feasible_qp(rng, with_eq=False):
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
    kw = {}
    if with_eq:
        Ae = rng.normal(size=(1, n))
        kw = dict(a_eq=Ae, b_eq=Ae @ z0)
    return QuadraticProgram(H, f, a_ineq=Ai, b_ineq=bi, lo=lo, hi=hi, **kw)


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
            qp = random_feasible_qp(rng, with_eq=bool(rng.integers(0, 2)))
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
        # internal row index for ineq i is n_eq + i = i here
        warm = solve_qp(qp, warm_rows=hint)
        assert warm.status == OPTIMAL
        np.testing.assert_allclose(warm.z, cold.z, atol=1e-8)


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
