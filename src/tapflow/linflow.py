"""Linearized three-phase branch-flow model in squared voltage magnitudes.

The model works with squared magnitudes v~ per (bus, phase) and complex edge
flows S~ per (edge, phase), holding three groups of quantities constant:

* per-edge rotation matrices of phase-voltage ratios (entry [p, q] is the
  to-bus phase-p voltage over the from-bus phase-q voltage),
* a real voltage-loss vector per edge,
* a complex power-loss vector per edge.

With the constants taken from an exact solution the equations reproduce that
solution's squared magnitudes and flows to machine precision; with balanced
rotation entries and zeroed loss vectors they form the classic lossless
approximation.

The constants hold one row per line of the feeder's one layout
(``ybus.Layout``), in model order and padded over the phases a, b, c with
exact zeros; from a solution they use the layout's impedances and the stamp
set's inverses of them, with the matrix products run once per phase count.
The equations are written once, as the sparse rows of ``linear_system``,
placed by offset over the layout's tables, each kind of line entry one
broadcast over all lines, with each regulator phase's ratio in a window.
The regulators' ends, kinds and phases and the slack's squared magnitudes
are the layout's rows too, so the rows read nothing from the model. They
are solved once, by ``eliminate``: one sparse LU writes every solution as
x0 + N theta over the high-window slacks theta, one per regulator phase.
It factors the other columns leaves first, by the layout's bus depths as
``ybus`` numbers Y: each column at the depth of its bus, a flow's at its
to-bus's and a low slack's at its regulator's secondary's, deepest first,
with no column ordering and SuperLU's row pivoting. On a radial feeder that
order makes little fill-in, and x0 and N stay within a relative 1e-12 of
COLAMD's order (``tests/test_linflow.py``).
The tap-selection LP uses the attainable ratio range as the window and
searches over theta; ``linear_powerflow`` fixes every ratio with a
zero-width window and reads the solution at theta = 0, as arrays: the
squared magnitudes over the full coordinates in ``PowerFlowSolution.v``'s
order, the slack's included, and the flows per edge over PHASES. So
``lindiff`` compares the linear and the exact answers index for index over
the stamp set's non-slack coordinates, in one pass.
"""

from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .errors import PipelineError
from .network import PHASES, FeederModel
from .ybus import Layout, _ratio_row, build_layout
from .zbus import PowerFlowSolution, _envelope, _require_converged

_ALPHA = np.exp(2j * np.pi / 3.0)
_UNITS = np.array([1.0 + 0.0j, _ALPHA**2, _ALPHA])           # balanced phases a, b, c
_BALANCED_GAMMA = np.outer(_UNITS, 1.0 / _UNITS)


@dataclass(frozen=True)
class LinearizationConstants:
    """Per-line constants held fixed by the linear model, one row per line of
    the layout, in model order, over PHASES with exact zeros off each line's
    phases. Regulator edges carry no impedance and need no constants."""

    layout: Layout
    gamma: np.ndarray        # (L, 3, 3) voltage ratios, [p, q] = v_to[p] / v_from[q]
    h: np.ndarray            # (L, 3) real voltage-loss terms
    l: np.ndarray            # (L, 3) complex power-loss terms


def constants_balanced(model: FeederModel) -> LinearizationConstants:
    """Balanced-voltage rotation entries (powers of 1|120deg), zero loss terms."""
    return _balanced_over(build_layout(model))


def _pairs(mask: np.ndarray) -> np.ndarray:
    """(L, 3, 3): entry [p, q] of a line's matrices is one of its own."""
    return mask[:, :, None] & mask[:, None, :]


def _balanced_over(layout: Layout) -> LinearizationConstants:
    """``constants_balanced`` over a layout already built, such as a stamp set's."""
    return LinearizationConstants(layout=layout, h=np.zeros(layout.mask.shape),
                                  l=np.zeros(layout.mask.shape, dtype=complex),
                                  gamma=np.where(_pairs(layout.mask), _BALANCED_GAMMA, 0.0))


def constants_from_solution(base: PowerFlowSolution) -> LinearizationConstants:
    """Constants evaluated at a converged base solution.

    Per line: with edge current i from the base voltages and I = i i*, the
    voltage-loss vector is diag(Z I Z*) and the power-loss vector is
    diag(Z I). Each voltage-loss term is |(Z i)[p]|^2, real and nonnegative
    by construction, so its real part is taken and any imaginary part is
    round-off. Rotation entries are v_to[p] / v_from[q].
    The layout and the line inverses are the stamp set's; the matrix
    products run once per phase count, everything else once over all lines.

    An unconverged ``base`` is the caller's error, a ``ValueError``. A zero
    endpoint voltage is a numeric failure of the stage:
    ``PipelineError("constants", ...)``, naming the first such line in
    model order.
    """
    if not base.converged:
        raise ValueError("base power flow must be converged")
    stamps = base.system.stamps
    layout, v = stamps.layout, base.v          # v over full coordinates
    mask, at = layout.mask, layout.at
    vn = np.where(mask, v[at[layout.frm]], 1.0)        # endpoint voltages, 1 off the phases
    vm = np.where(mask, v[at[layout.to]], 1.0)
    for k in np.flatnonzero(np.any((vn == 0.0) | (vm == 0.0), axis=1))[:1]:
        key = layout.edge_key(layout.frm[k], layout.to[k])
        raise PipelineError("constants", f"zero phase voltage at an endpoint of line {key}")
    drop = vn - vm
    h, l = np.zeros(mask.shape, dtype=complex), np.zeros(mask.shape, dtype=complex)
    for ks, q, blocks in layout.by_size:
        own, z = (ks[:, None], q), np.take(layout.z, blocks)
        i_edge = (np.take(stamps.zinv, blocks) @ drop[own][:, :, None])[:, :, 0]
        z_i = z @ (i_edge[:, :, None] * np.conj(i_edge)[:, None, :])
        h[own] = np.diagonal(z_i @ np.conj(z).transpose(0, 2, 1), axis1=1, axis2=2)
        l[own] = np.diagonal(z_i, axis1=1, axis2=2)
    return LinearizationConstants(
        layout=layout, h=h.real, l=l,
        gamma=np.where(_pairs(mask), vm[:, :, None] * (1.0 / vn)[:, None, :], 0.0))


@dataclass(frozen=True)
class LinearSystem:
    """The linear model's equations as sparse rows ``A x = b``.

    Columns: squared magnitudes per non-slack (bus, phase), then Re/Im flow per
    (edge, phase), edges being the lines, then the regulators, then a low and a
    high slack per regulator phase. ``vcol``, ``fcol`` and ``slack_cols`` name
    the columns, as arrays over the layout and the regulator phases.
    """

    A: sp.csc_matrix
    b: np.ndarray
    slack_cols: np.ndarray   # (k, 2): low- and high-slack column per regulator phase
    layout: Layout
    vcol: np.ndarray   # vcol[k, q]: v~ column of bus k's phase PHASES[q], -1 at the slack or absent
    fcol: np.ndarray   # fcol[e, q]: Re-flow column of edge e's phase PHASES[q], -1 if absent


def linear_system(constants: LinearizationConstants, windows) -> LinearSystem:
    """Assemble the linear model with each regulator ratio confined to a window.

    ``windows[i] = (r_lo, r_hi)`` for regulator phase i of the ratio row
    (``ybus._ratio_row``'s order), a (k, 2) array. With up/down the
    primary/secondary for type B and the reverse for type A, the window rows
    read v~[up] - r_lo^2 v~[down] - s_lo = 0 and
    v~[up] - r_hi^2 v~[down] + s_hi = 0, so nonnegative slacks say
    r_lo^2 v~[down] <= v~[up] <= r_hi^2 v~[down]. Slack-bus magnitudes are
    constants and move to ``b``.

    Rows are placed by offset. Line phase j owns voltage-drop row j and the
    Re/Im power balance at the line's to-bus, rows m + 2j and m + 2j + 1 (m
    line phases); regulator phase i owns its low and high window rows 3m + 4i
    and 3m + 4i + 1, with their slack columns, then the Re/Im pass-through,
    the power balance at its secondary. Each kind of entry is one broadcast
    over (bus, phase) and (edge, phase) tables; zero coefficients, slack-bus
    columns and absent phases are dropped at the end.
    """
    layout = constants.layout
    at, load, slack = layout.at, layout.load, layout.slack
    frm, to, n_lines = layout.frm, layout.to, len(layout.frm)
    has = (at >= 0) & ~slack[:, None]
    n_v = int(has.sum())
    vcol = np.full(at.shape, -1, dtype=np.intp)
    vcol[has] = np.arange(n_v)
    sq = np.where(slack[:, None], layout.slack_sq, 0.0)          # squared slack magnitudes
    ybar = np.zeros(at.shape + (len(PHASES),), dtype=complex)   # conj(Y)^T of each shunt
    for k, shunt in layout.shunts:
        q = [PHASES.index(p) for p in shunt.phases]
        ybar[k][np.ix_(q, q)] = np.conj(shunt.array).T

    # pos[e, q]: the place j of edge e's phase PHASES[q] among all edge phases;
    # the edges are the lines, then the regulators.
    svr_mask = layout.svr_cols >= 0
    own = np.concatenate([layout.mask, svr_mask])
    pos = np.full(own.shape, -1, dtype=np.intp)
    pos[own] = np.arange(np.count_nonzero(own))
    fcol = np.where(own, n_v + 2 * pos, -1)
    m, n_reg = int(np.count_nonzero(layout.mask)), int(np.count_nonzero(svr_mask))
    # balance[e, q]: the Re row of the power balance at edge e's to-bus, and
    # the Im row and Im flow column beside it; -1 where e lacks the phase.
    balance = np.select([~own, pos < m], [-1, m + 2 * pos], 3 * m + 4 * (pos - m) + 2)
    balance_im, fcol_im = (np.where(own, x + 1, -1) for x in (balance, fcol))
    b = np.zeros(3 * m + 4 * n_reg)

    # The line rows, each kind of entry one broadcast over all lines.
    r, f, f_im = pos[:n_lines], fcol[:n_lines, None, :], fcol_im[:n_lines, None, :]
    bal, bal_im = balance[:n_lines], balance_im[:n_lines]
    rot = constants.gamma * np.conj(layout.z)
    y, v_to = ybar[to], vcol[to][:, None, :]
    parts = [(r, vcol[frm], 1.0), (r, vcol[to], -1.0),       # (rows, columns, values)
             (r[:, :, None], f, -2.0 * rot.real), (r[:, :, None], f_im, 2.0 * rot.imag),
             (bal[:, :, None], v_to, -y.real), (bal_im[:, :, None], v_to, -y.imag)]
    on = layout.mask
    b[r[on]] = (constants.h - sq[frm])[on]
    b[bal[on]] = (load[to].real + constants.l.real)[on]
    b[bal_im[on]] = (load[to].imag + constants.l.imag)[on]

    # Each edge's flow enters the balance at its to-bus and leaves the one at
    # its from-bus, on the phases the edge feeding that bus carries.
    feeding = np.full(len(at), -1, dtype=np.intp)                   # -1 at the slack bus
    ends = layout.svr_ends                                          # per regulator: (from, to)
    feeding[np.concatenate([to, ends[:, 1]])] = np.arange(len(own))
    src = feeding[np.concatenate([frm, ends[:, 0]])]                # the edge into e's from-bus
    into, into_im = (np.where(src[:, None] >= 0, x[src], -1) for x in (balance, balance_im))
    parts += [(balance, fcol, 1.0), (balance_im, fcol_im, 1.0),
              (into, fcol, -1.0), (into_im, fcol_im, -1.0)]

    # Regulator ratio windows, slacked. The row-major (e, q) order is the
    # ratio row's (``Layout.svr_cols``): phase i owns rows 3m + 4i (+1).
    e, q = np.nonzero(svr_mask)
    up, dn = np.where(layout.svr_type_b[:, None], ends, ends[:, ::-1])[e].T
    # Python's r ** 2 (C pow): numpy's r * r differs in the last bit for ~0.1 % of ratios.
    r_sq = np.reshape([r ** 2 for r in np.ravel(windows).tolist()], (n_reg, 2))
    row = 3 * m + 4 * np.arange(n_reg)[:, None] + [0, 1]
    slack_cols = n_v + 2 * (m + n_reg) + np.arange(2 * n_reg).reshape(-1, 2)
    parts += [(row, vcol[up, q][:, None], 1.0), (row, vcol[dn, q][:, None], -r_sq),
              (row, slack_cols, [-1.0, 1.0])]
    b[row] = r_sq * sq[dn, q][:, None] - sq[up, q][:, None]

    flat = []
    for part in parts:
        # Integer zeros of the broadcast shape, added to, broadcast for less
        # than np.broadcast_arrays; rows and columns stay integer.
        zero = np.zeros(np.broadcast(*part).shape, dtype=np.intp)
        flat.append([(zero + a).ravel() for a in part])
    rows, cols, vals = (np.concatenate(x) for x in zip(*flat))
    keep = (rows >= 0) & (cols >= 0) & (vals != 0.0)
    A = sp.coo_matrix((vals[keep], (rows[keep], cols[keep])),
                      shape=(len(b), n_v + 2 * (m + 2 * n_reg))).tocsc()
    return LinearSystem(A=A, b=b, slack_cols=slack_cols,
                        layout=constants.layout, vcol=vcol, fcol=fcol)


def _csc_columns(a: sp.csc_matrix, cols: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The entries of columns ``cols`` of the CSC matrix ``a``, read straight
    from its arrays in ``cols``' order: their positions in ``a.indices`` and
    ``a.data``, and each column's count."""
    starts = a.indptr[cols]
    counts = a.indptr[cols + 1] - starts
    return np.repeat(starts - np.cumsum(counts) + counts, counts) + np.arange(counts.sum()), counts


def eliminate(system: LinearSystem, stage: str) -> tuple[np.ndarray, np.ndarray]:
    """(x0, N) with every solution of ``A x = b`` equal to x0 + N theta, theta
    the high-window slack columns; one LU of the remaining square columns,
    taken leaves first (deepest bus first, stable in column order) with no
    column ordering.

    Raises ``PipelineError`` tagged ``stage`` when those columns are singular.
    """
    A, (m, n), layout = system.A, system.A.shape, system.layout
    theta = system.slack_cols[:, 1]
    # Each column's bus, in column order (``LinearSystem``): a v~ column's
    # own, a flow pair's edge's to-bus, a slack pair's regulator's
    # secondary; each table numbers its columns row-major.
    to = np.concatenate([layout.to, layout.svr_ends[:, 1]])
    bus = np.concatenate([np.nonzero(system.vcol >= 0)[0],
                          np.repeat(to[np.nonzero(system.fcol >= 0)[0]], 2),
                          np.repeat(layout.svr_ends[np.nonzero(layout.svr_cols >= 0)[0], 1], 2)])
    cols = np.flatnonzero(np.bincount(theta, minlength=n) == 0)   # the square columns
    cols = cols[np.argsort(-layout.depth[bus[cols]], kind="stable")]
    # Both column selections read A's arrays. ``linear_system`` drops zero
    # entries, so A stores no -0.0 and -A's dense columns are -0.0 elsewhere,
    # as negating ``toarray`` gives.
    pos, counts = _csc_columns(A, theta)
    rhs = np.full((m, 1 + len(theta)), -0.0)
    rhs[:, 0] = system.b
    rhs[A.indices[pos], 1 + np.repeat(np.arange(len(theta)), counts)] = -A.data[pos]
    pos, counts = _csc_columns(A, cols)
    square = sp.csc_matrix((A.data[pos], A.indices[pos], np.concatenate([[0], np.cumsum(counts)])),
                           shape=(m, n - len(theta)))
    try:
        sol = splu(square, permc_spec="NATURAL").solve(rhs)
    except RuntimeError as exc:
        raise PipelineError(stage, f"linear system is singular: {exc}") from None
    x0 = np.zeros(n)
    x0[cols] = sol[:, 0]
    N = np.zeros((n, len(theta)))
    N[cols] = sol[:, 1:]
    N[theta, np.arange(len(theta))] = 1.0
    return x0, N


def linear_powerflow(model: FeederModel, constants: LinearizationConstants,
                     ratios) -> tuple[np.ndarray, np.ndarray]:
    """Solve the linear model at fixed regulator ratios.

    These are ``linear_system``'s rows at a zero-width window ``(r, r)``,
    solved by ``eliminate`` and read at theta = 0, where both window slacks
    are zero.

    Returns (v_sq, flows): the squared voltage magnitudes over the full
    coordinates, in ``PowerFlowSolution.v``'s order, the slack's included;
    and the complex flows (E, 3), the edges as in ``LinearSystem`` over
    PHASES, exact zeros off each edge's phases.
    """
    row = _ratio_row(model.svrs, ratios)
    system = linear_system(constants, np.column_stack([row, row]))
    x, _ = eliminate(system, "linear_powerflow")
    layout, vcol, fcol = constants.layout, system.vcol, system.fcol
    # A v~ column's value, else (at the slack) its square; x may be empty.
    v_sq = np.where(vcol >= 0, np.append(x, 0.0)[vcol], layout.slack_sq)[layout.at >= 0]
    # Re and Im filled apart: x_re + 1j * x_im would turn a -0.0 Im into +0.0.
    flows, on = np.zeros(fcol.shape, dtype=complex), fcol >= 0
    flows.real[on], flows.imag[on] = x[fcol[on]], x[fcol[on] + 1]
    return v_sq, flows


# ---------------------------------------------------------------------------
# Linear-vs-exact comparison report
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LinDiffReport:
    """Per-phase worst |sqrt(v~) - |v|| plus minimum magnitudes from both models."""

    max_diff: dict           # phase -> worst absolute magnitude difference
    min_lin: float           # min sqrt(v~) over non-slack buses/phases
    min_exact: float         # min |v| over non-slack buses/phases

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write("phase,max_abs_diff,min_v_linear,min_v_exact\n")
        for p in ("a", "b", "c"):
            if p in self.max_diff:
                buf.write(f"{p},{self.max_diff[p]:.12g},,\n")
        buf.write(f"all,,{self.min_lin:.12g},{self.min_exact:.12g}\n")
        return buf.getvalue()


def lindiff(exact: PowerFlowSolution, v_sq: np.ndarray) -> LinDiffReport:
    """Compare a linear solution, squared magnitudes in ``exact.v``'s order,
    against a converged exact one over the non-slack coordinates.

    An unconverged ``exact`` or a ``v_sq`` of another shape is the caller's
    error, a ``ValueError``, as is a feeder with no non-slack bus: there is
    nothing to compare, and ``zbus``'s voltage envelope raises its own
    ``ValueError`` for it. A negative or non-finite v~ has no real root to
    compare; on a valid model that is the linear model's numeric failure,
    not an input error, so it raises ``PipelineError("lindiff", ...)``,
    naming the first such coordinate in model order."""
    _require_converged(exact)
    if np.shape(v_sq) != exact.v.shape:
        raise ValueError(f"linear v~ has shape {np.shape(v_sq)}, the exact voltages {exact.v.shape}")
    stamps = exact.system.stamps
    at = stamps.nonslack_at
    sq = v_sq[at]
    for k in at[np.flatnonzero(~((0.0 <= sq) & (sq < np.inf)))[:1]]:     # NaN fails both
        bus, p = stamps.full_coords[k]
        raise PipelineError("lindiff", f"linear v~ at bus {bus} phase {p} is "
                                       f"{float(v_sq[k])!r}, not a finite square")
    lin, ex = np.sqrt(sq), np.abs(exact.v[at])
    min_exact, _ = _envelope(ex)
    phase, diff = np.nonzero(stamps.layout.at >= 0)[1][at], np.abs(lin - ex)
    return LinDiffReport(
        max_diff={PHASES[q]: float(diff[phase == q].max()) for q in np.unique(phase)},
        min_lin=float(lin.min()), min_exact=float(min_exact))
