"""Reference version of the linear model's constants and rows, as the library
built them before the stamp set's layout was shared with ``linflow``.

``constants_balanced`` and ``constants_from_solution`` key their constants
by "from->to" edge strings with one ``PhaseMatrix``/``PhaseVector`` per line,
and ``constants_from_solution`` inverts every line impedance again.
``linear_system`` places its rows one entry at a time through ``new_row``,
and ``build_lp`` finds the objective's columns through ``tree_index``. For
the same model, ``tapflow.build_lp`` on the library's constants must give
this ``build_lp``'s ``A``, ``b``, ``c`` and bounds byte for byte, and the
grouped constants must hold these values. ``lp_reference.sweep_powerflow`` reads
these constants.

``lindiff`` compares the linear and the exact answers bus by bus, as the
library did before both answers shared one order: it splits the squared
magnitudes per bus and reads the solution's per-bus view with Python's
``abs``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from tapflow.network import FeederModel, PhaseMatrix, PhaseVector
from tapflow.opts import OptsConfig
from tapflow.simplex import SparseLp
from tapflow.linflow import LinDiffReport
from tapflow.zbus import PowerFlowSolution, _require_converged

from stamps_reference import tree_index

_ALPHA = np.exp(2j * np.pi / 3.0)
_BALANCED_UNIT = {"a": 1.0 + 0.0j, "b": _ALPHA**2, "c": _ALPHA}


@dataclass(frozen=True)
class LinearizationConstants:
    """Per-line-edge constants held fixed by the linear model.

    Keys are edge strings "from->to" for line edges; regulator edges carry no
    impedance and need no constants.
    """

    gamma: dict      # edge key -> PhaseMatrix of voltage ratios
    h: dict          # edge key -> PhaseVector, real voltage-loss term
    l: dict          # edge key -> PhaseVector, complex power-loss term


def constants_balanced(model: FeederModel) -> LinearizationConstants:
    """Balanced-voltage rotation entries (powers of 1|120deg), zero loss terms."""
    gamma, h, l = {}, {}, {}
    for ln in model.lines:
        ph = ln.z.phases
        u = np.array([_BALANCED_UNIT[p] for p in ph])
        gamma[f"{ln.from_bus}->{ln.to_bus}"] = PhaseMatrix(ph, np.outer(u, 1.0 / u))
        h[f"{ln.from_bus}->{ln.to_bus}"] = PhaseVector.zeros(ph)
        l[f"{ln.from_bus}->{ln.to_bus}"] = PhaseVector.zeros(ph)
    return LinearizationConstants(gamma=gamma, h=h, l=l)


def constants_from_solution(model: FeederModel, base: PowerFlowSolution) -> LinearizationConstants:
    """Constants evaluated at a converged base solution.

    Per line: with edge current i from the base voltages and I = i i*, the
    voltage-loss vector is diag(Z I Z*) (|(Z i)[p]|^2, real: its real part is
    kept) and the power-loss vector is diag(Z I). Rotation entries are
    v_to[p] / v_from[q].
    """
    if not base.converged:
        raise ValueError("base power flow must be converged")
    gamma, h, l = {}, {}, {}
    for ln in model.lines:
        ph = ln.z.phases
        key = f"{ln.from_bus}->{ln.to_bus}"
        vn = np.array([base.voltages[ln.from_bus][p] for p in ph])
        vm = np.array([base.voltages[ln.to_bus][p] for p in ph])
        if np.any(vn == 0.0) or np.any(vm == 0.0):
            raise ValueError(f"zero phase voltage at an endpoint of line {key}")
        z = ln.z.array
        i_edge = np.linalg.inv(z) @ (vn - vm)
        big_i = np.outer(i_edge, np.conj(i_edge))
        h_cplx = np.diag(z @ big_i @ np.conj(z).T)
        gamma[key] = PhaseMatrix(ph, np.outer(vm, 1.0 / vn))
        h[key] = PhaseVector(ph, h_cplx.real.astype(complex))
        l[key] = PhaseVector(ph, np.diag(z @ big_i))
    return LinearizationConstants(gamma=gamma, h=h, l=l)


@dataclass(frozen=True)
class LinearSystem:
    """The linear model's equations as sparse rows ``A x = b``.

    Columns: squared magnitudes per non-slack (bus, phase), then Re/Im flow per
    (edge, phase), then a low and a high slack per regulator phase. Rows: one
    voltage drop per line phase, the Re/Im power balances at every line's
    to-bus, then per regulator phase its low and high ratio-window rows and
    its Re/Im pass-through rows.
    """

    A: sp.csc_matrix
    b: np.ndarray
    vsq: dict          # (bus, phase) -> column, non-slack buses only
    flow: dict         # (edge key, phase) -> (re column, im column)
    slack_cols: dict   # (svr index, phase) -> (low-slack column, high-slack column)


def _slack_squares(model: FeederModel) -> dict:
    return {p: abs(model.slack_voltage[p]) ** 2 for p in model.slack_voltage.phases}


def linear_system(model: FeederModel, constants: LinearizationConstants,
                  windows) -> LinearSystem:
    """Assemble the linear model with each regulator ratio confined to a window.

    ``windows[svx][p] = (r_lo, r_hi)`` for regulator ``svx``, phase ``p``. With
    up/down the primary/secondary for type B and the reverse for type A, the
    window rows read v~[up] - r_lo^2 v~[down] - s_lo = 0 and
    v~[up] - r_hi^2 v~[down] + s_hi = 0, so nonnegative slacks say
    r_lo^2 v~[down] <= v~[up] <= r_hi^2 v~[down]. Slack-bus magnitudes are
    constants and move to ``b``.
    """
    idx = tree_index(model)
    by_id = {b.id: b for b in model.buses}
    slack_id = model.slack.id
    slack_sq = _slack_squares(model)

    vsq: dict = {}
    flow: dict = {}
    slack_cols: dict = {}
    for b in model.buses:
        if not b.is_slack:
            for p in b.phases:
                vsq[(b.id, p)] = len(vsq)
    n = len(vsq)
    for e in idx.edges:
        for p in e.phases:
            flow[(e.key(), p)] = (n, n + 1)
            n += 2
    for svx, sv in enumerate(model.svrs):
        for p in sv.phases:
            slack_cols[(svx, p)] = (n, n + 1)
            n += 2

    rows_i: list[int] = []
    rows_j: list[int] = []
    rows_v: list[float] = []
    rhs: list[float] = []

    def new_row(entries, b_val) -> None:
        r = len(rhs)
        for col, coef in entries:
            if coef != 0.0:
                rows_i.append(r)
                rows_j.append(col)
                rows_v.append(float(coef))
        rhs.append(float(b_val))

    def vsq_term(bus, phase, coef, entries, b_shift):
        """Add coef * v~[bus,phase]; slack-bus magnitudes are constants."""
        if bus == slack_id:
            return b_shift - coef * slack_sq[phase]
        entries.append((vsq[(bus, phase)], coef))
        return b_shift

    # Voltage-drop rows (one real equation per line-edge phase).
    for e in idx.edges:
        if e.kind != "line":
            continue
        ln = model.lines[e.index]
        key = e.key()
        m_rot = constants.gamma[key].array * np.conj(ln.z.array)
        hvec = constants.h[key]
        ph = e.phases
        for a, p in enumerate(ph):
            entries: list = []
            b_val = hvec[p].real
            b_val = vsq_term(e.from_bus, p, +1.0, entries, b_val)
            b_val = vsq_term(e.to_bus, p, -1.0, entries, b_val)
            for bq, q in enumerate(ph):
                re_col, im_col = flow[(key, q)]
                entries.append((re_col, -2.0 * m_rot[a, bq].real))
                entries.append((im_col, +2.0 * m_rot[a, bq].imag))
            new_row(entries, b_val)

    # Power-balance rows at the to-bus of every line edge (Re and Im).
    for e in idx.edges:
        if e.kind != "line":
            continue
        bus = by_id[e.to_bus]
        key = e.key()
        lvec = constants.l[key]
        shunt = bus.shunt
        ybar = np.conj(shunt.array).T if shunt is not None else None
        for p in e.phases:
            re_col, im_col = flow[(key, p)]
            for part, col in (("re", re_col), ("im", im_col)):
                entries = [(col, 1.0)]
                load = bus.load[p] if (bus.load is not None and p in bus.load) else 0.0
                b_val = (load.real + lvec[p].real) if part == "re" else (load.imag + lvec[p].imag)
                for child in idx.children[bus.id]:
                    if p in child.phases:
                        c_re, c_im = flow[(child.key(), p)]
                        entries.append((c_re if part == "re" else c_im, -1.0))
                if shunt is not None and p in shunt.phases:
                    a = shunt.phases.index(p)
                    for bq, q in enumerate(shunt.phases):
                        coef = ybar[a, bq]
                        val = coef.real if part == "re" else coef.imag
                        b_val = vsq_term(bus.id, q, -val, entries, b_val)
                new_row(entries, b_val)

    # Regulator ratio windows (slacked) and exact power pass-through.
    for svx, sv in enumerate(model.svrs):
        child = idx.children[sv.to_bus][0]
        for p in sv.phases:
            r_lo, r_hi = windows[svx][p]
            lo_col, hi_col = slack_cols[(svx, p)]
            if sv.kind == "B":
                up_bus, dn_bus = sv.from_bus, sv.to_bus
            else:
                up_bus, dn_bus = sv.to_bus, sv.from_bus
            entries: list = []
            b_val = vsq_term(up_bus, p, +1.0, entries, 0.0)
            b_val = vsq_term(dn_bus, p, -r_lo**2, entries, b_val)
            entries.append((lo_col, -1.0))
            new_row(entries, b_val)
            entries = []
            b_val = vsq_term(up_bus, p, +1.0, entries, 0.0)
            b_val = vsq_term(dn_bus, p, -r_hi**2, entries, b_val)
            entries.append((hi_col, +1.0))
            new_row(entries, b_val)

            re_col, im_col = flow[(f"{sv.from_bus}->{sv.to_bus}", p)]
            if p in child.phases:
                c_re, c_im = flow[(child.key(), p)]
                new_row([(re_col, 1.0), (c_re, -1.0)], 0.0)
                new_row([(im_col, 1.0), (c_im, -1.0)], 0.0)
            else:
                # Phase regulated but not carried onward: no current can flow.
                new_row([(re_col, 1.0)], 0.0)
                new_row([(im_col, 1.0)], 0.0)

    A = sp.coo_matrix((rows_v, (rows_i, rows_j)), shape=(len(rhs), n)).tocsc()
    return LinearSystem(A=A, b=np.array(rhs), vsq=vsq, flow=flow, slack_cols=slack_cols)


def build_lp(model: FeederModel, constants: LinearizationConstants,
             config: OptsConfig) -> tuple[SparseLp, LinearSystem]:
    """Assemble the tap-selection LP for a validated model.

    The rows are the linear model's (``linear_system``) with each regulator
    phase's window set to the attainable ratio range. Bounds: squared
    magnitudes within the configured voltage band, flows free, window slacks
    nonnegative. Objective: real power leaving the slack bus.
    """
    windows = [dict.fromkeys(sv.phases, sv.ratio_range()) for sv in model.svrs]
    system = linear_system(model, constants, windows)

    n = system.A.shape[1]
    lower, upper = np.full(n, -np.inf), np.full(n, np.inf)
    vsq_cols = list(system.vsq.values())
    lower[vsq_cols], upper[vsq_cols] = config.v_min**2, config.v_max**2
    lower[[col for pair in system.slack_cols.values() for col in pair]] = 0.0
    c = np.zeros(n)
    for e in tree_index(model).edges:
        if e.from_bus == model.slack.id:
            for p in e.phases:
                c[system.flow[(e.key(), p)][0]] = 1.0
    return SparseLp(A=system.A, b=system.b, c=c, lower=lower, upper=upper), system


def lindiff(model: FeederModel, exact: PowerFlowSolution, v_sq: np.ndarray) -> LinDiffReport:
    """``tapflow.lindiff`` in a per-bus loop: ``v_sq``, in the order of
    ``exact.v``, split bus by bus in model order, each bus's phases in
    canonical order, beside ``exact.voltages``."""
    _require_converged(exact)
    per_bus, start = {}, 0
    for b in model.buses:
        per_bus[b.id] = dict(zip(b.phases, v_sq[start:start + len(b.phases)].tolist()))
        start += len(b.phases)
    slack_id = model.slack.id
    max_diff: dict[str, float] = {}
    min_lin = np.inf
    min_exact = np.inf
    for b in model.buses:
        if b.id == slack_id:
            continue
        for p in b.phases:
            sq = float(per_bus[b.id][p])
            if not 0.0 <= sq < np.inf:      # also rejects NaN
                raise ValueError(f"linear v~ at bus {b.id} phase {p} is {sq!r}, not a finite square")
            lin_mag = float(np.sqrt(sq))
            ex_mag = abs(exact.voltages[b.id][p])
            max_diff[p] = max(max_diff.get(p, 0.0), abs(lin_mag - ex_mag))
            min_lin = min(min_lin, lin_mag)
            min_exact = min(min_exact, ex_mag)
    return LinDiffReport(max_diff=max_diff, min_lin=float(min_lin), min_exact=float(min_exact))
