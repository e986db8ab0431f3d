"""Dense convex quadratic programming by a warm-started dual active-set method.

Solves  min 0.5 z^T H z + f^T z + const
        s.t. A z <= b,  lo <= z <= hi

with H symmetric positive definite.

The method is Goldfarb and Idnani's (Math. Programming 27, 1983). Its
iterate is always the minimizer of the objective with an active set W of
constraints held as equalities, and its multipliers on W are nonnegative:
the iterate is dual feasible. Each step works on the most violated
constraint, and drops members whose multipliers reach zero, until nothing
is violated (optimal) or a violated constraint admits no primal or dual
step (infeasible). No feasibility phase is needed.

Warm start. Related QPs, such as those of one SCO solve, share most of their
active sets. ``solve_qp`` takes the previous solution's ``ActiveSet`` and
factors it at once: one pivoted Cholesky factorization of N_W^T G^-1 N_W,
stopped at the members that depend on the others, and one pair of
triangular solves give the minimizer over W. It then drops members
with negative multipliers at the new data until the start is dual feasible,
which Goldfarb-Idnani requires. The steps that follow only correct the
difference between the hint and the optimal set, in the spirit of the hot
start of qpOASES (Ferreau et al., Math. Prog. Comp. 2014). A cold solve is
the warm start from an empty hint.

Bounds are fixed variables, not rows. A variable at an active bound is held
exactly at the bound, every step leaves it there, and its multiplier is its
entry of the gradient. It enters N_W^T G^-1 N_W through its column of G^-1.
This is the range-space form of eliminating the variable from G: with
P = G^-1, the free block's inverse (G_RR)^-1 is the Schur complement
P_RR - P_RF P_FF^-1 P_FR. G^-1 is formed once per distinct Hessian
(``HessianFactors``), so a sequence of QPs that repeats one Hessian factors
it once.
"""

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.lapack import dgeqrf, dpstrf, dtrtrs

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
ITERATION_LIMIT = "iteration-limit"
# A constraint n_k^T x >= b_k counts as satisfied when n_k^T x - b_k is at
# least -FEAS_TOL.
FEAS_TOL = 1e-9


@dataclass
class QuadraticProgram:
    hessian: np.ndarray
    linear: np.ndarray
    a_ineq: np.ndarray = None
    b_ineq: np.ndarray = None
    lo: np.ndarray = None
    hi: np.ndarray = None
    constant: float = 0.0

    def __post_init__(self):
        self.hessian = np.asarray(self.hessian, dtype=float)
        self.linear = np.asarray(self.linear, dtype=float)
        n = self.linear.shape[0]
        if self.hessian.shape != (n, n):
            raise ValueError("hessian/linear dimension mismatch")
        # Validated once here, so the solver's LAPACK calls skip the check.
        check_hessian(self.hessian)
        if not np.all(np.isfinite(self.linear)):
            raise ValueError("linear term must be finite")
        if (self.a_ineq is None) != (self.b_ineq is None):
            raise ValueError("a_ineq/b_ineq must be given together")
        if self.a_ineq is not None:
            A = np.atleast_2d(np.asarray(self.a_ineq, dtype=float))
            b = np.atleast_1d(np.asarray(self.b_ineq, dtype=float))
            if A.shape[1] != n:
                raise ValueError("a_ineq column count mismatch")
            if b.shape[0] != A.shape[0]:
                raise ValueError("b_ineq row count mismatch")
            if not (np.all(np.isfinite(A)) and np.all(np.isfinite(b))):
                raise ValueError("a_ineq and b_ineq must be finite")
            self.a_ineq, self.b_ineq = A, b
        for name, unbounded in (("lo", -np.inf), ("hi", np.inf)):
            v = getattr(self, name)
            if v is not None:
                v = np.asarray(v, dtype=float)
                if v.shape != (n,):
                    raise ValueError(f"{name} length mismatch")
                if not np.all(np.isfinite(v) | (v == unbounded)):
                    raise ValueError(
                        f"{name} entries must be finite or {unbounded}")
                setattr(self, name, v)

    @classmethod
    def _trusted(cls, hessian, linear, a_ineq, b_ineq, lo, hi, constant):
        """Construct without validating, from float arrays of consistent
        shapes, finite but for infinite bounds, and a Hessian that has
        passed ``check_hessian``: the planner builds one per penalty
        weight and shares it among that weight's subproblems."""
        qp = object.__new__(cls)
        qp.hessian, qp.linear = hessian, linear
        qp.a_ineq, qp.b_ineq = a_ineq, b_ineq
        qp.lo, qp.hi, qp.constant = lo, hi, constant
        return qp

    @property
    def n(self):
        return self.linear.shape[0]


def check_hessian(H):
    """Raise ValueError unless the square float array H is finite and
    symmetric (to 1e-9)."""
    if not np.all(np.isfinite(H)):
        raise ValueError("hessian must be finite")
    if not np.allclose(H, H.T, atol=1e-9):
        raise ValueError("hessian must be symmetric")


@dataclass(frozen=True)
class ActiveSet:
    """The constraints a QP solution holds with equality: the warm start of
    the next QP of a sequence with the same rows.

    ``rows`` index the rows of ``a_ineq``; ``lower`` and ``upper`` list the
    variables fixed at ``lo`` and ``hi``.
    """

    rows: tuple = ()
    lower: tuple = ()
    upper: tuple = ()


@dataclass
class QPSolution:
    z: np.ndarray
    objective: float
    status: str
    duals_ineq: np.ndarray
    duals_lo: np.ndarray
    duals_hi: np.ndarray
    # Goldfarb-Idnani steps taken after the warm start.
    iterations: int
    active_set: ActiveSet = field(default_factory=ActiveSet)


class HessianFactors:
    """For each QP Hessian H solved so far, G^-1 of its symmetric part
    G = (H + H^T) / 2 and the solver's scale of G.

    A sequence of related QPs often repeats one Hessian (the SCO planner's
    changes only with its penalty weight); passing one instance to each
    ``solve_qp`` call factors every distinct Hessian once. A Hessian is
    recognised by identity first, then by value, so an array passed here
    must not be modified afterwards.
    """

    def __init__(self):
        self._entries = []   # (H, G^-1, scale)

    def get(self, H):
        """(G^-1, scale) for the Hessian H."""
        for entry in self._entries:
            if entry[0] is H:
                return entry[1:]
        for entry in self._entries:
            if np.array_equal(entry[0], H):
                return entry[1:]
        G = 0.5 * (H + H.T)
        scale = max(1.0, float(np.trace(np.abs(G))) / G.shape[0])
        chol, kept = _factor(G)
        Linv = _tri_solve(chol, np.eye(G.shape[0]), transpose=False)
        P = np.empty_like(G)
        P[np.ix_(kept, kept)] = Linv.T @ Linv
        P = 0.5 * (P + P.T)
        self._entries.append((H, P, scale))
        return P, scale


def _factor(G):
    """Pivoted lower Cholesky factor L of G, G[kept][:, kept] = L L^T.
    Returns (L, kept); raises ValueError unless G is positive definite.
    A squared pivot of G scaled to a unit diagonal under 1e-12 counts as
    zero: a singular G formed in floating point leaves roundoff there."""
    L, kept = _cholesky(G, 1e-12)
    if len(kept) < G.shape[0]:
        raise ValueError("hessian is not positive definite")
    return L, kept


def _cholesky(M, rtol=0.0):
    """LAPACK's pivoted Cholesky factor of the symmetric PSD M, stopped at
    the dependent rows. Returns (L, kept) with M[kept][:, kept] = L L^T.

    M is first scaled to a unit diagonal, so a squared pivot is the squared
    sine between a row and the span of the rows kept before it; the
    factorization stops once none left exceeds ``rtol``.

    OpenBLAS's unpivoted potrf runs on several threads from n = 100 on, and
    on a loaded machine each call can wait for the scheduler: at n = 136 (the
    pickplace QP) one potrf took from 0.2 ms to 220 ms on a 2-core host with
    two BLAS threads. On that host with both cores busy and two BLAS
    threads, pstrf took 0.14 ms (median) and 0.37 ms (99th percentile) at
    n = 136, potrf 0.18 and 4.3 ms, and a column-by-column NumPy loop 1.5
    and 5.9 ms.
    """
    diag = np.diag(M)
    d = np.sqrt(np.where(diag > 0.0, diag, 1.0))
    c, piv, rank, _ = dpstrf(M / np.outer(d, d), tol=rtol, lower=1)
    kept = piv[:rank] - 1
    return np.tril(c[:rank, :rank]) * d[kept, None], kept


# The solver calls LAPACK's triangular solve and QR directly: its inputs are
# finite (validated by QuadraticProgram, or by the planner for its own) and
# the NumPy and SciPy wrappers cost more than these small factorizations.

def _tri_solve(L, b, transpose):
    """Solve L y = b (or L^T y = b) for C-ordered lower-triangular L."""
    # L.T is upper triangular and Fortran-ordered: LAPACK takes it as is.
    return dtrtrs(L.T, b, lower=0, trans=0 if transpose else 1)[0]


def _chol_delete(Lm, k):
    """Cholesky factor of M with row and column k removed, given M = Lm Lm^T.

    Deleting row k of Lm gives M' = L L^T with L lower triangular except
    for one superdiagonal in its trailing block S = L[k:, k:]. With the
    QR factorization S^T = Q R, S S^T = R^T R, so R^T (signs fixed to a
    positive diagonal) replaces S. The cost is that of the trailing block,
    not a refactorization of M' from the active constraints.
    """
    L = np.delete(Lm, k, axis=0)
    q = L.shape[0]
    if k < q:
        R = np.triu(dgeqrf(L[k:, k:].T)[0][:q - k])
        sign = np.where(np.diag(R) < 0.0, -1.0, 1.0)
        L[k:, k:-1] = (R * sign[:, None]).T
    return np.ascontiguousarray(L[:, :-1])


def solve_qp(qp, max_iter=None, warm_start=None, factors=None):
    """Solve a strictly convex QP; returns a QPSolution with per-row dual
    multipliers. A Hessian that is not positive definite raises ValueError.

    ``warm_start`` is an ActiveSet to start from, usually the previous
    solution's ``active_set`` in a sequence of QPs with the same rows. Any
    hint is safe: out-of-range, duplicated, dependent and wrongly signed
    members are dropped. ``max_iter`` bounds the Goldfarb-Idnani steps after
    the warm start. ``factors`` is a HessianFactors shared by a sequence of
    QPs.
    """
    return _DualActiveSet(qp, max_iter, factors).solve(warm_start)


class _DualActiveSet:
    """Goldfarb-Idnani state: the iterate x, the active set and its
    multipliers u, and the factors of the active set's Schur complement.

    A member is constraint k of the stack [rows; x >= lo; -x >= -hi]
    (k < m, m <= k < m + n, k >= m + n), with normal n_k. The columns [:q]
    of GinvN hold G^-1 n_k of the q members, and Lm is the lower Cholesky
    factor of N^T G^-1 N.
    """

    def __init__(self, qp, max_iter, factors):
        self.qp = qp
        n = self.n = qp.n
        self.P, self.scale = (factors or HessianFactors()).get(qp.hessian)
        # The rows as c^T z >= b: -a_ineq. Bounds are not rows.
        if qp.a_ineq is None:
            self.C, b = np.zeros((0, n)), np.zeros(0)
        else:
            self.C, b = -qp.a_ineq, -qp.b_ineq
        self.m = self.C.shape[0]
        lo = qp.lo if qp.lo is not None else np.full(n, -np.inf)
        hi = qp.hi if qp.hi is not None else np.full(n, np.inf)
        self.lo, self.hi = lo, hi
        # Right-hand side of every constraint n_k^T x >= b_k.
        self.b = np.concatenate([b, lo, -hi])
        if max_iter is None:
            bounds = int(np.isfinite(lo).sum() + np.isfinite(hi).sum())
            max_iter = 50 * (self.m + bounds + n) + 100
        self.max_iter = max_iter
        self.iters = 0
        self.members = []    # constraint indices
        self.fixed = np.zeros(n, dtype=bool)
        self.GinvN = np.empty((n, n))
        self.Lm = np.zeros((0, 0))
        self.u = np.zeros(0)
        self.x = None

    # -- one constraint: n_k^T v and G^-1 n_k, with no dense unit rows ----

    def _dot(self, k, V):
        """n_k^T V for a vector or an n x q matrix V."""
        m, n = self.m, self.n
        if k < m:
            return self.C[k] @ V
        return V[k - m] if k < m + n else -V[k - m - n]

    def _ginv(self, k):
        m, n = self.m, self.n
        if k < m:
            return self.P @ self.C[k]
        # P is symmetric: its row i is the column G^-1 e_i.
        return self.P[k - m] if k < m + n else -self.P[k - m - n]

    def _var(self, k):
        """The variable a bound constraint fixes, or None for a row."""
        return None if k < self.m else (k - self.m) % self.n

    # -- the warm start ----------------------------------------------------

    def _start(self, hint):
        """Factor the hinted set once and move to its dual-feasible
        minimizer: the hinted fixed variables and rows, less the dependent
        members and, repeatedly, the members with negative multipliers."""
        m, n = self.m, self.n
        hint = hint or ActiveSet()

        def valid(indices, lo, hi):
            k = np.unique(np.asarray(indices, dtype=int))
            return k[(k >= lo) & (k < hi)]

        lower = valid(hint.lower, 0, n)
        upper = valid(hint.upper, 0, n)
        fixed = np.concatenate([m + lower[np.isfinite(self.lo[lower])],
                                m + n + upper[np.isfinite(self.hi[upper])]])
        cand = np.concatenate([fixed, valid(hint.rows, 0, m)])
        general = cand < m
        var = (cand - m) % n
        sign = np.where(cand < m + n, 1.0, -1.0)
        V = np.empty((n, cand.size))
        V[:, general] = self.P @ self.C[cand[general]].T
        V[:, ~general] = self.P[var[~general]].T * sign[~general]
        S = np.empty((cand.size, cand.size))
        S[general] = self.C[cand[general]] @ V
        S[~general] = V[var[~general]] * sign[~general, None]
        # A dependent member's squared sine to the span of those kept is
        # roundoff: under 1e-12 on the test sequences.
        L, kept = _cholesky(S, 1e-10)
        kept = kept[:n]
        q = len(kept)
        self.Lm = np.ascontiguousarray(L[:q, :q])
        self.members = cand[kept].tolist()
        self.GinvN[:, :q] = V[:, kept]
        self.fixed[var[kept][~general[kept]]] = True
        x0 = -self.P @ self.qp.linear
        slack0 = self._slacks(x0)
        while True:
            if self.members:
                self.u = _tri_solve(self.Lm, _tri_solve(
                    self.Lm, -slack0[self.members], transpose=False),
                    transpose=True)
            negative = np.flatnonzero(self.u < 0.0)
            if not negative.size:
                break
            for pos in negative[::-1]:
                self._drop(pos)
        self.x = x0 + self.GinvN[:, :len(self.members)] @ self.u
        self._pin(self.members)

    def _slacks(self, x):
        """n_k^T x - b_k for every constraint k."""
        return np.concatenate([self.C @ x, x, -x]) - self.b

    def _pin(self, ks):
        """Hold the variables that bound constraints ``ks`` fix exactly at
        their bounds."""
        m, n = self.m, self.n
        ks = np.asarray(ks, dtype=int)
        lower = ks[(ks >= m) & (ks < m + n)] - m
        upper = ks[ks >= m + n] - m - n
        self.x[lower] = self.lo[lower]
        self.x[upper] = self.hi[upper]

    # -- active-set updates ------------------------------------------------

    def _drop(self, pos):
        q = len(self.members)
        i = self._var(self.members[pos])
        if i is not None:
            self.fixed[i] = False
        del self.members[pos]
        self.GinvN[:, pos:q - 1] = self.GinvN[:, pos + 1:q]
        self.u = np.delete(self.u, pos)
        self.Lm = _chol_delete(self.Lm, pos)

    def _append(self, k, gi, ell, dd, u_k):
        q = len(self.members)
        self.GinvN[:, q] = gi
        new = np.zeros((q + 1, q + 1))
        new[:q, :q] = self.Lm
        new[q, :q] = ell
        new[q, q] = dd
        self.Lm = new
        self.u = np.append(self.u, u_k)
        self.members.append(k)
        i = self._var(k)
        if i is not None:
            self.fixed[i] = True
            self._pin([k])

    # -- Goldfarb-Idnani steps ---------------------------------------------

    def _work_on(self, k):
        """Drive one violated constraint to satisfaction. Returns status."""
        scale = self.scale
        gi = self._ginv(k)
        bnd = self.b[k]
        u_plus = 0.0
        while True:
            self.iters += 1
            if self.iters > self.max_iter:
                return ITERATION_LIMIT
            s = float(self._dot(k, self.x)) - bnd
            if s >= -FEAS_TOL and u_plus == 0.0:
                # satisfied without entering the active set
                return None
            q = len(self.members)
            if q:
                V = self.GinvN[:, :q]
                ell = _tri_solve(self.Lm, self._dot(k, V), transpose=False)
                r = _tri_solve(self.Lm, ell, transpose=True)
                z = gi - V @ r
                z[self.fixed] = 0.0
            else:
                ell = np.zeros(0)
                r = np.zeros(0)
                z = gi
            zn = float(self._dot(k, z))
            # After a partial step the constraint carries the multiplier
            # u_plus, so it enters even when roundoff has satisfied it.
            t2 = max(-s / zn, 0.0) if zn > 1e-13 * scale else np.inf
            t1 = np.inf
            k1 = -1
            if q:
                # Ratio test over the multipliers that decrease.
                ratio = np.full(q, np.inf)
                blocking = r > 1e-13
                ratio[blocking] = self.u[blocking] / r[blocking]
                k1 = int(np.argmin(ratio))
                t1 = float(ratio[k1])
            t = min(t1, t2)
            if not np.isfinite(t):
                return INFEASIBLE
            if q:
                self.u = self.u - t * r
            u_plus += t
            if t2 <= t1:
                # Full primal step: the constraint becomes satisfied and active.
                self.x = self.x + t2 * z
                dd2 = float(self._dot(k, gi)) - float(ell @ ell)
                if dd2 <= 1e-14 * scale:
                    # numerically dependent; accept if satisfied
                    if abs(float(self._dot(k, self.x)) - bnd) <= 1e-7:
                        return None
                    return INFEASIBLE
                self._append(k, gi, ell, math.sqrt(dd2), u_plus)
                return None
            # Partial (or pure dual) step: a blocking multiplier hit zero.
            if np.isfinite(t2):
                self.x = self.x + t1 * z
            self._drop(k1)

    def solve(self, hint):
        self._start(hint)
        refined = False
        # Repeatedly fix the most violated constraint.
        while True:
            s = self._slacks(self.x)
            s[self.members] = 0.0
            p = int(np.argmin(s))
            if s[p] >= -FEAS_TOL:
                if refined or not self._refine(
                        -self._slacks(self.x)[self.members]):
                    return self._finish(OPTIMAL)
                # The refined point may violate a row: continue from it.
                refined = True
                continue
            st = self._work_on(p)
            if st is not None:
                return self._finish(st)
            if self.iters > self.max_iter:
                return self._finish(ITERATION_LIMIT)

    def _refine(self, r2):
        """One step of iterative refinement of the minimizer over the
        active set, when it misses its members' equalities by more than
        FEAS_TOL: ``r2`` = b_W - N^T x from the members' slacks. With
        r1 = G x + f - N u, the correction solves G dx - N du = -r1,
        N^T dx = r2 on the current factors: du from
        N^T G^-1 N du = r2 + N^T G^-1 r1, and dx = G^-1 (N du - r1). At
        large penalty weights the Schur complement is ill-conditioned, and
        the start's or the steps' x can miss the members by far more than
        FEAS_TOL (a working set is refined the same way in qpOASES;
        Ferreau et al., Math. Prog. Comp. 2014). The members' residual
        decides, from one product with the rows: on the planner-layout
        stress family (``tests/test_qp.py``) no solve missed stationarity
        while meeting its members. Returns whether it corrected the
        point."""
        if np.abs(r2).max(initial=0.0) <= FEAS_TOL:
            return False
        W, q, m, n = self.members, len(self.members), self.m, self.n
        K = np.array(W)
        rows = K < m
        # The one product with H; a fixed variable's stationarity holds
        # through its bound's multiplier, which the correction updates too.
        r1 = self.qp.hessian @ self.x + self.qp.linear
        r1 -= self.C[K[rows]].T @ self.u[rows]
        bounds = ~rows
        r1[(K[bounds] - m) % n] -= (np.where(K[bounds] < m + n, 1.0, -1.0)
                                    * self.u[bounds])
        V = self.GinvN[:, :q]
        du = _tri_solve(self.Lm, _tri_solve(self.Lm, r2 + V.T @ r1,
                                            transpose=False), transpose=True)
        self.x = self.x + V @ du - self.P @ r1
        self.u = self.u + du
        self._pin(W)
        return True

    def _finish(self, status):
        qp, m, n = self.qp, self.m, self.n
        K = np.array(self.members, dtype=int)
        duals = np.zeros(m + 2 * n)
        duals[K] = self.u
        K.sort()
        active = ActiveSet(tuple(K[K < m].tolist()),
                           tuple((K[(K >= m) & (K < m + n)] - m).tolist()),
                           tuple((K[K >= m + n] - m - n).tolist()))
        x = self.x
        obj = float(0.5 * x @ qp.hessian @ x + qp.linear @ x + qp.constant)
        return QPSolution(x, obj, status, duals[:m], duals[m:m + n],
                          duals[m + n:], self.iters, active)
