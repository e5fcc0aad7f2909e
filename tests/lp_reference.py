"""Reference versions of solver steps that the library now does differently.

``LoopTableau`` is the simplex tableau with the row-by-row and column-by-column
pivot loop the vectorized ``_Tableau.run`` replaced (with the same Bland
leaving rule: among ratio-test ties, the smallest basic index leaves). It
prices with a CSR product of A^T and reads the entering column from a CSC
copy of A, the sparse products whose bits the dense tableau keeps; swapped
in for ``tapflow.simplex._Tableau`` it must make the same pivots and return
the same bits. ``pin_row_lexicographic`` is the full-LP lexicographic method
the condensed solve replaced: solve ``build_lp``'s whole LP for import, then
re-solve it from scratch with the import objective pinned by an extra
equality row. ``sweep_powerflow`` is the backward/forward sweep that solved
the linear model at fixed ratios before ``linear_powerflow`` solved the
model's own rows.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.sparse as sp

from tapflow import simplex
from tapflow.errors import PipelineError
from tapflow.network import PhaseVector
from tapflow.simplex import AT_LOWER, AT_UPPER, BASIC, FREE, SparseLp, solve_lp

from stamps_reference import tree_index


class LoopTableau(simplex._Tableau):
    def __init__(self, lp):
        super().__init__(lp)
        # Sparse copies of the dense tableau, for CSR pricing and CSC column reads.
        self.A_csc = sp.csc_matrix(self.A)
        self.AT_csr = sp.csr_matrix(self.AT)

    def run(self, cost, max_iter, allow_unbounded):
        it = 0
        while True:
            if it >= max_iter:
                return "iteration_limit"
            it += 1
            self.pivots += 1

            y = self.binv.T @ cost[self.basis]
            d = cost - self.AT_csr @ y

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

            w = self.binv @ self.A_csc[:, enter].toarray().ravel()

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
            if leave >= 0 and use_bland:
                for i in range(self.m):
                    wi = direction * w[i]
                    bi = self.basis[i]
                    if wi > simplex._TOL_PIVOT:
                        bound = self.lower[bi]
                    elif wi < -simplex._TOL_PIVOT:
                        bound = self.upper[bi]
                    else:
                        continue
                    room = self.x[bi] - bound
                    if (np.isfinite(room) and room / wi <= t_max + simplex._TOL_RATIO
                            and bi < self.basis[leave]):
                        leave, leave_bound = i, bound
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
    """``tapflow.solve_lp_lexicographic``'s method, by two full solves.

    Returns (solution, optimal import): the second solve's objective is the
    profile, not the import, so the import comes apart (NaN when the first
    solve does not end optimal)."""
    first = solve_lp(lp)
    if first.status != "optimal":
        return first, math.nan
    import_value = first.objective

    m, n = lp.A.shape
    pin = sp.coo_matrix((lp.c[lp.c != 0.0], (np.zeros(np.count_nonzero(lp.c)),
                                             np.nonzero(lp.c)[0])), shape=(1, n))
    c2 = np.zeros(n)
    c2[varmap.vcol[varmap.vcol >= 0]] = 1.0
    lp2 = SparseLp(A=sp.vstack([lp.A, pin]).tocsc(), b=np.concatenate([lp.b, [import_value]]),
                   c=c2, lower=lp.lower, upper=lp.upper)
    second = solve_lp(lp2)
    if second.status != "optimal":
        return first, import_value
    return second, import_value


def sweep_powerflow(model, constants, ratios):
    """Solve the linear model at fixed regulator ratios.

    Returns (v_sq, flows): squared voltage magnitudes per bus (real PhaseVector)
    and complex per-phase flows per edge key, both over the relevant masks.
    Radiality is exploited with backward flow accumulation and forward voltage
    propagation, iterated to a fixed point when shunts couple the two sweeps.
    """
    idx = tree_index(model)
    by_id = {b.id: b for b in model.buses}
    slack_sq = {p: abs(model.slack_voltage[p]) ** 2 for p in model.slack_voltage.phases}

    v_sq = {b.id: {p: slack_sq[p] for p in b.phases} for b in model.buses}
    flows: dict[str, dict[str, complex]] = {}

    for sweep in range(100):
        # Backward: accumulate flows from the leaves toward the root.
        for bus_id in reversed(idx.order):
            edge = idx.parent.get(bus_id)
            if edge is None:
                continue
            if edge.kind == "svr":
                child = idx.children[bus_id][0]  # exactly one outgoing line
                child_flow = flows[child.key()]
                flows[edge.key()] = {p: child_flow.get(p, 0.0 + 0.0j) for p in edge.phases}
                continue
            ln = model.lines[edge.index]
            bus = by_id[bus_id]
            acc = {p: 0.0 + 0.0j for p in edge.phases}
            for child in idx.children[bus_id]:
                for p, val in flows[child.key()].items():
                    acc[p] += val
            if bus.load is not None:
                for p in bus.load.phases:
                    acc[p] += bus.load[p]
            if bus.shunt is not None:
                sp_ = bus.shunt.phases
                ybar = np.conj(bus.shunt.array).T
                vv = np.array([v_sq[bus_id][p] for p in sp_])
                contrib = ybar @ vv
                for k, p in enumerate(sp_):
                    acc[p] += contrib[k]
            lkey = edge.key()
            lvec = constants.l[lkey]
            for p in edge.phases:
                acc[p] += lvec[p]
            flows[lkey] = acc

        # Forward: propagate squared magnitudes from the root.
        delta = 0.0
        for bus_id in idx.order:
            edge = idx.parent.get(bus_id)
            if edge is None:
                continue
            up = v_sq[edge.from_bus]
            if edge.kind == "svr":
                sv = model.svrs[edge.index]
                for p in edge.phases:
                    r = float(ratios[edge.index][p])
                    new = up[p] / r**2 if sv.kind == "B" else up[p] * r**2
                    delta = max(delta, abs(new - v_sq[bus_id][p]))
                    v_sq[bus_id][p] = new
                continue
            key = edge.key()
            ph = edge.phases
            m_rot = constants.gamma[key].array * np.conj(model.lines[edge.index].z.array)
            s_vec = np.array([flows[key][p] for p in ph])
            drop = 2.0 * (m_rot @ s_vec).real
            hvec = constants.h[key]
            for k, p in enumerate(ph):
                new = up[p] - drop[k] - hvec[p].real
                delta = max(delta, abs(new - v_sq[bus_id][p]))
                v_sq[bus_id][p] = new
        if delta < 1e-13:
            break
    else:
        raise PipelineError("linear_powerflow", "sweep iteration did not settle")

    v_out = {bid: PhaseVector(by_id[bid].phases,
                              [complex(v_sq[bid][p]) for p in by_id[bid].phases])
             for bid in v_sq}
    f_out = {key: PhaseVector(tuple(p for p in ("a", "b", "c") if p in fl),
                              [fl[p] for p in ("a", "b", "c") if p in fl])
             for key, fl in flows.items()}
    return v_out, f_out
