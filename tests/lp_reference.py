"""Reference versions of solver steps that the library now does differently.

``LoopTableau`` is the simplex tableau with the row-by-row and column-by-column
pivot loop the vectorized ``_Tableau.run`` replaced; swapped in for
``tapflow.simplex._Tableau`` it must make the same pivots and return the same
bits. ``pin_row_lexicographic`` is the two-solve lexicographic method the
in-place tie-break pass replaced: solve for import, then re-solve from scratch
with the import objective pinned by an extra equality row.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.sparse as sp

from tapflow import simplex
from tapflow.simplex import AT_LOWER, AT_UPPER, BASIC, FREE, SparseLp, solve_lp


class LoopTableau(simplex._Tableau):
    def run(self, cost, max_iter, allow_unbounded):
        it = 0
        while True:
            if it >= max_iter:
                return "iteration_limit"
            it += 1
            self.pivots += 1

            y = self.binv.T @ cost[self.basis]
            d = cost - self.AT @ y

            use_bland = self.degen_streak >= simplex._DEGEN_STREAK
            enter, direction, best = -1, 0.0, simplex._TOL_COST
            for j in range(self.n + self.m):
                st = self.state[j]
                if st == BASIC:
                    continue
                if self.lower[j] == self.upper[j]:
                    continue
                dj = d[j]
                if st in (AT_LOWER, FREE) and dj < -best:
                    enter, direction = j, +1.0
                    if use_bland:
                        break
                    best = -dj
                elif st in (AT_UPPER, FREE) and dj > best:
                    enter, direction = j, -1.0
                    if use_bland:
                        break
                    best = dj
            if enter < 0:
                return "optimal"

            w = self.binv @ self.A[:, enter].toarray().ravel()

            t_max = self.upper[enter] - self.lower[enter] if self.state[enter] != FREE else np.inf
            leave, leave_bound = -1, 0.0
            for i in range(self.m):
                wi = direction * w[i]
                bi = self.basis[i]
                if wi > simplex._TOL_PIVOT:
                    room = self.x[bi] - self.lower[bi]
                    if np.isfinite(room) and room / wi < t_max - simplex._TOL_RATIO:
                        t_max, leave, leave_bound = room / wi, i, self.lower[bi]
                elif wi < -simplex._TOL_PIVOT:
                    room = self.x[bi] - self.upper[bi]
                    if np.isfinite(room) and room / wi < t_max - simplex._TOL_RATIO:
                        t_max, leave, leave_bound = room / wi, i, self.upper[bi]
            if not np.isfinite(t_max):
                return "unbounded" if allow_unbounded else "iteration_limit"
            t_max = max(t_max, 0.0)

            self.degen_streak = self.degen_streak + 1 if t_max <= simplex._TOL_RATIO else 0

            self.x[self.basis] -= t_max * direction * w
            self.x[enter] += t_max * direction

            if leave < 0:
                self.state[enter] = AT_UPPER if direction > 0 else AT_LOWER
                continue

            out = self.basis[leave]
            self.x[out] = leave_bound
            self.state[out] = AT_LOWER if leave_bound == self.lower[out] else AT_UPPER
            self.state[enter] = BASIC
            self.basis[leave] = enter

            piv = w[leave]
            if abs(piv) < simplex._TOL_PIVOT or self.since_refactor >= simplex._REFACTOR_EVERY:
                if not self.refactor():
                    return "iteration_limit"
                self.recompute_basics()
            else:
                self.binv[leave, :] /= piv
                for i in range(self.m):
                    if i != leave and w[i] != 0.0:
                        self.binv[i, :] -= w[i] * self.binv[leave, :]
                self.since_refactor += 1


def pin_row_lexicographic(lp, varmap):
    """Same contract as ``tapflow.solve_lp_lexicographic``, by two full solves."""
    first = solve_lp(lp)
    if first.status != "optimal":
        return first, math.nan
    import_value = first.objective

    m, n = lp.A.shape
    pin = sp.coo_matrix((lp.c[lp.c != 0.0], (np.zeros(np.count_nonzero(lp.c)),
                                             np.nonzero(lp.c)[0])), shape=(1, n))
    c2 = np.zeros(n)
    for col in varmap.vsq.values():
        c2[col] = 1.0
    lp2 = SparseLp(A=sp.vstack([lp.A, pin]).tocsc(), b=np.concatenate([lp.b, [import_value]]),
                   c=c2, lower=lp.lower, upper=lp.upper, names=list(lp.names or []))
    second = solve_lp(lp2)
    if second.status != "optimal":
        return first, import_value
    return second, import_value
