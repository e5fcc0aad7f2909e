"""Self-contained LP solver: two-phase revised simplex with bounds.

Problems are equality-constrained (A x = b) with per-variable lower/upper
bounds, +-inf allowed. The basis inverse is kept dense and updated by one
rank-1 outer-product row operation per pivot, with a full refactorization
every 50 pivots and whenever the update looks unhealthy. A pivot is a handful
of numpy calls over whole vectors: pricing scores every column at once and
takes the first best, and the ratio test computes every row's ratio at once,
then applies the sequential "strictly better by more than _TOL_RATIO" rule
to the few rows that can win. The pivot sequence and the arithmetic are
those of a row-by-row and column-by-column scan. Problems without rows take
the same path, with bound flips only.

After a streak of degenerate pivots, Dantzig pricing switches to Bland's
rule: the entering column is the eligible one of smallest index, and among
the rows tied in the ratio test (within _TOL_RATIO of the step) the one whose
basic variable has the smallest index leaves. In exact arithmetic that rule
cannot cycle; here ties are decided up to the tolerances.

The tableau's matrix [A | diag(s)], s the artificial columns' signs, is
one dense array, with its C-ordered transpose beside it, whose rows are the
entering columns: the condensed duals of the tap-selection LP have a few
dense rows, where sparse products only add overhead. Every product sums in
the order of A's sparse products, so a solve has the bits of one on sparse
A: pricing adds A's rows to 0.0 one at a time, as the CSR product of A^T
does, and b - A x_N adds the nonbasic columns at nonzero values to 0.0 one
at a time, in column order, as the CSC product of A does.

An optimal solution carries the row duals of its final basis,
y = B^-T c_B, which the tap-selection pipeline reads as the primal point of
the LP whose dual it solved.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

_TOL_COST = 1e-9       # reduced-cost optimality tolerance
_TOL_PIVOT = 1e-9      # smallest acceptable pivot magnitude
_TOL_RATIO = 1e-12     # step sizes below this count as degenerate
_DEGEN_STREAK = 25     # consecutive degenerate pivots before Bland's rule
_REFACTOR_EVERY = 50

AT_LOWER, AT_UPPER, BASIC, FREE = 0, 1, 2, 3
_ENTER_SIDE = np.array([-1.0, 1.0, np.nan, 0.0])   # indexed by state


@dataclass
class SparseLp:
    """min c.x  subject to  A x = b,  lower <= x <= upper."""

    A: sp.spmatrix
    b: np.ndarray
    c: np.ndarray
    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        self.A = sp.csc_matrix(self.A, dtype=float)
        self.b = np.asarray(self.b, dtype=float)
        self.c = np.asarray(self.c, dtype=float)
        self.lower = np.asarray(self.lower, dtype=float)
        self.upper = np.asarray(self.upper, dtype=float)
        m, n = self.A.shape
        if not (self.b.shape == (m,) and self.c.shape == (n,)
                and self.lower.shape == (n,) and self.upper.shape == (n,)):
            raise ValueError("inconsistent LP dimensions")
        if np.any(self.lower > self.upper):
            raise ValueError("lower bound exceeds upper bound")
        if m and not np.bincount(self.A.indices, minlength=m).all():
            raise ValueError("A has an empty row")


@dataclass
class LpSolution:
    status: str                       # optimal | infeasible | unbounded | iteration_limit
    x: np.ndarray
    objective: float                  # c.x
    iterations: int                   # pivots, both phases together
    duals: np.ndarray | None = None   # row duals B^-T c_B of an optimal basis
    tie_break: str | None = None      # status of a lexicographic second pass, when one ran


def residuals(lp: SparseLp, sol: LpSolution) -> tuple[float, float]:
    """(primal equality residual, bound violation), both inf-norms."""
    primal = float(np.max(np.abs(lp.A @ sol.x - lp.b))) if lp.b.size else 0.0
    viol = np.maximum(lp.lower - sol.x, sol.x - lp.upper)
    bound = float(np.max(np.maximum(viol, 0.0))) if sol.x.size else 0.0
    return primal, bound


class _Tableau:
    """Working state for one solve: columns = structurals then artificials."""

    def __init__(self, lp: SparseLp):
        m, n = lp.A.shape
        self.m, self.n = m, n
        start = np.where(np.isfinite(lp.lower), lp.lower,
                         np.where(np.isfinite(lp.upper), lp.upper, 0.0))
        resid = lp.b - lp.A @ start
        art_sign = np.where(resid >= 0.0, 1.0, -1.0)

        # [A | diag(art_sign)] and its transpose, both C-ordered: pricing's
        # reduction runs over A's rows one at a time only in that order.
        # ``toarray`` sums into zeros, so a stored -0.0 reads 0.0.
        self.A = np.ascontiguousarray(np.hstack([lp.A.toarray(), np.diag(art_sign)]))
        self.AT = np.ascontiguousarray(self.A.T)
        self.lower = np.concatenate([lp.lower, np.zeros(m)])
        self.upper = np.concatenate([lp.upper, np.full(m, np.inf)])
        self.b = lp.b.copy()

        self.state = np.concatenate([
            np.where(np.isfinite(lp.lower), AT_LOWER,
                     np.where(np.isfinite(lp.upper), AT_UPPER, FREE)),
            np.full(m, BASIC)]).astype(np.int8)
        self.x = np.concatenate([start, np.abs(resid)])
        self.basis = np.arange(n, n + m)
        self.binv = np.diag(art_sign)   # inverse of the artificial basis
        self.pivots = 0
        self.since_refactor = 0
        self.degen_streak = 0

    # -- basis maintenance -------------------------------------------------

    def refactor(self) -> bool:
        try:
            self.binv = np.linalg.inv(self.A[:, self.basis])
        except np.linalg.LinAlgError:
            return False
        self.since_refactor = 0
        return True

    def recompute_basics(self):
        # b - A x_N, each column added to 0.0 in turn: not an axis reduction,
        # which numpy sums pairwise on a one-row A.
        xn = self.x.copy()
        xn[self.basis] = 0.0
        ax = np.zeros(self.m)
        for j in np.flatnonzero(xn):
            ax += self.AT[j] * xn[j]
        self.x[self.basis] = self.binv @ (self.b - ax)

    def reduced_costs(self, cost: np.ndarray) -> np.ndarray:
        y = self.binv.T @ cost[self.basis]
        return cost - np.add.reduce(self.A * y[:, None], axis=0, initial=0.0)

    # -- one simplex phase ---------------------------------------------------

    def run(self, cost: np.ndarray, max_iter: int, allow_unbounded: bool):
        """Pivot until optimal for ``cost``; returns a status string."""
        # Entering sign each column needs: d_j < 0 at lower, d_j > 0 at upper,
        # either when free; NaN marks basic and fixed columns, which never enter.
        fixed = np.where(self.lower == self.upper, np.nan, 0.0)
        it = 0
        while True:
            if it >= max_iter:
                return "iteration_limit"
            it += 1
            self.pivots += 1

            # Pricing: an eligible column scores |d_j|. Dantzig takes the first
            # best score, Bland the first eligible column.
            d = self.reduced_costs(cost)
            side = _ENTER_SIDE[self.state] + fixed
            score = np.where(side * d >= 0.0, np.abs(d), -np.inf)
            bland = self.degen_streak >= _DEGEN_STREAK
            if bland:
                enter = int(np.argmax(score > _TOL_COST))
            else:
                enter = int(np.argmax(score))
            if not score[enter] > _TOL_COST:
                return "optimal"
            direction = 1.0 if d[enter] < 0.0 else -1.0

            w = self.binv @ self.AT[enter]

            # Ratio test: entering moves by t in `direction`; basics move -t*dir*w.
            # Scanning rows in order, a row replaces the current candidate only
            # when its ratio is below t_max - _TOL_RATIO, so near-ties keep the
            # earlier row. Rows not below the first threshold can never win.
            t_max = self.upper[enter] - self.lower[enter] if self.state[enter] != FREE else np.inf
            wd = direction * w
            bound = np.where(wd > 0.0, self.lower[self.basis], self.upper[self.basis])
            with np.errstate(divide="ignore", invalid="ignore"):
                ratio = (self.x[self.basis] - bound) / wd
            ratio[np.abs(wd) <= _TOL_PIVOT] = np.inf
            leave = -1
            cand = np.flatnonzero(ratio < t_max - _TOL_RATIO)
            for i, r in zip(cand.tolist(), ratio[cand].tolist()):
                if r < t_max - _TOL_RATIO:
                    t_max, leave = r, i
            if not np.isfinite(t_max):
                return "unbounded" if allow_unbounded else "iteration_limit"
            if leave >= 0 and bland:
                # Bland: of the rows tied with the winner, the smallest basic index leaves.
                tied = np.flatnonzero(ratio <= t_max + _TOL_RATIO)
                leave = int(tied[np.argmin(self.basis[tied])])
            t_max = max(t_max, 0.0)

            self.degen_streak = self.degen_streak + 1 if t_max <= _TOL_RATIO else 0

            self.x[self.basis] -= t_max * direction * w
            self.x[enter] += t_max * direction

            if leave < 0:
                # Bound flip: entering variable crossed to its other bound.
                self.state[enter] = AT_UPPER if direction > 0 else AT_LOWER
                continue

            out = self.basis[leave]
            leave_bound = self.lower[out] if wd[leave] > 0 else self.upper[out]
            self.x[out] = leave_bound
            self.state[out] = AT_LOWER if leave_bound == self.lower[out] else AT_UPPER
            self.state[enter] = BASIC
            self.basis[leave] = enter

            piv = w[leave]
            if abs(piv) < _TOL_PIVOT or self.since_refactor >= _REFACTOR_EVERY:
                if not self.refactor():
                    return "iteration_limit"
                self.recompute_basics()
            else:
                self.binv[leave, :] /= piv
                rows = np.flatnonzero(w)
                rows = rows[rows != leave]
                self.binv[rows] -= np.outer(w[rows], self.binv[leave])
                self.since_refactor += 1

    def solution(self, lp: SparseLp, status: str) -> LpSolution:
        """Refactor, read the structural point back and vet an optimal basis."""
        if self.refactor():
            self.recompute_basics()
        x = self.x[:self.n].copy()
        sol = LpSolution(status, x, float(lp.c @ x), self.pivots)
        if status == "optimal":
            primal, bound = residuals(lp, sol)
            if primal > 1e-7 or bound > 1e-9:
                sol.status = "iteration_limit"   # numerically unusable basis
        return sol


def solve_lp(lp: SparseLp, max_iter: int = 20000) -> LpSolution:
    """Solve to optimality, or classify as infeasible / unbounded.

    ``max_iter`` bounds the pivots of both phases together. An optimal
    solution carries its final basis's row duals in ``duals``. Identical
    inputs produce identical pivot sequences and solutions.
    """
    m, n = lp.A.shape
    tab = _Tableau(lp)

    phase1_cost = np.concatenate([np.zeros(n), np.ones(m)])
    status = tab.run(phase1_cost, max_iter, allow_unbounded=False)
    if status != "optimal":
        return LpSolution(status, tab.x[:n].copy(), float(lp.c @ tab.x[:n]), tab.pivots)
    art_sum = float(np.sum(tab.x[n:]))
    if art_sum > 1e-7:
        return LpSolution("infeasible", tab.x[:n].copy(), float(lp.c @ tab.x[:n]), tab.pivots)

    # Phase 2: pin every artificial to zero and optimize the true objective.
    tab.upper[n:] = 0.0
    tab.x[n:] = np.where(np.abs(tab.x[n:]) < 1e-12, 0.0, tab.x[n:])
    phase2_cost = np.concatenate([lp.c, np.zeros(m)])
    status = tab.run(phase2_cost, max_iter - tab.pivots, allow_unbounded=True)
    sol = tab.solution(lp, status)
    if sol.status == "optimal":
        sol.duals = tab.binv.T @ phase2_cost[tab.basis]
    return sol
