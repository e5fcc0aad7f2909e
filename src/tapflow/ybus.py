"""Sparse bus admittance assembly with ideal-regulator secondary elimination.

Coordinates are (bus, phase) pairs. Regulator secondaries are eliminated from
the retained system using the ideal two-port relations v_primary = A v_secondary,
i_primary = A^-1 i_line (type-B, diagonal real gain A), leaving a reduced Y that
couples the primary directly to the bus behind the regulator's outgoing line.

A feeder has one ``Layout``, built by reading its buses, its lines and its
regulators once each: a (bus, phase) table of its coordinates, its loads
and shunts over that table, one row per line in model order (from- and
to-bus positions, a phase mask and the impedance padded to 3 x 3 over
PHASES with exact zeros), the lines' indices by phase count, one row per
regulator (its primary's and secondary's positions, the ratio row's column
of each of its phases, its kind, and its outgoing line, the line that
leaves its secondary, read from the same from-bus positions), the slack
voltage and its squared magnitudes per phase, and each bus's depth, its
distance from the slack bus, the root of the feeder's ``tree_index``: the
one depth that orders both of the feeder's sparse factorizations, Y's here
and the linear model's (``linflow.eliminate``). ``build_layout`` is the only
function on the solve path that reads the model's lines, regulators and
slack voltage: the stamps, ``linflow``, ``zbus`` and ``opts`` index the
layout, and read the model only at the API boundary (ratio maps in,
voltages and tap maps out) and for the tap specifications. Elementwise
work runs once over all lines; the kernels whose bits depend on the matrix
size (``np.linalg.inv``, batched matrix products) run once per phase
count, on the s x s blocks of that count's lines.

Assembly has two steps. ``build_stamps`` does the tap-independent work once
per feeder: the layout, the slack voltages, loads and flat start over the
retained rows, each regulator phase's secondary and primary coordinates
(the ratio row's order, so a ratio row is also the secondaries' ratios),
the checked inverses of the line impedances (padded per line as the
impedances), one list of stamped entries in stamp order (lines, then
regulators, then shunts, each block row-major), where each regulator's
moving entries sit in its blocks padded over PHASES, and where each nonzero
entry lands: its row and column in one matrix holding Y, Y_NS and Y_S
block-diagonally. The list is placed with numpy: an item's entries start at
an offset fixed by the block sizes before it (4 s x s blocks per line or
regulator, one per shunt, s its phase count), and one broadcast per phase
count fills the rows, columns and values of its plain lines and regulator
lines together, each line's kind choosing its blocks' endpoints and signs.
The coordinates come from the layout; the (bus, phase) tuples that name
them are built only when read.

Y's rows, and so its columns, are the retained coordinates numbered leaves
first: a stable sort by descending depth of their bus, so that each
retained bus's rows, together and in phase order, come after those of every
bus below it. In that order a radial feeder's Y is factored with no fill-in
(Tinney and Walker, 1967), and ``zbus`` factors it as assembled, with no
column ordering. The loads, the flat start and the entries' routes are
placed in the same numbering, so a solve never permutes.

Below the public API a set of ratios is a row, one float per regulator
phase: regulators in model order, each one's phases in its own order.
``assemble`` turns its per-regulator ``{phase: ratio}`` maps into a row
(building a stamp set if given none) for ``assemble_block``, which takes m
rows, checks once that every ratio is finite and nonzero, and computes
only the regulator blocks G zinv G, -G zinv and -zinv G (G the diagonal
gain) at each row, elementwise as (g_i zinv_ij) g_j and so on, in one
broadcast over every regulator's line inverse padded over PHASES. It
writes their entries in place and converts the nonzero entries once, with
one ``coo_matrix(...).tocsc()`` of the block-diagonal matrix, which it
splits into Y, Y_NS and Y_S by column ranges. With m > 1 that one matrix
holds Y at the first row and then Y_NS and Y_S block-diagonal, one block
per row, so that one sparse product applies every row's blocks at its own
bits.

``build_stamps`` also marks which ratios move Y. The first three regulator
blocks move with the ratios of their line's phases. They land in Y_NS or
Y_S only when the regulator's primary is the slack bus (as on IEEE-13);
otherwise -G zinv, nonzero for an invertible line, couples two retained
buses. So a column of the ratio row moves Y exactly when its phase is on
its regulator's outgoing line and that regulator's primary is not the slack
bus (``StampSet.moves_y``), and ratio rows that agree on those columns give
Y the same bits and can share one factorization of it (``zbus.solve_block``).

The nonzero entries do not depend on the ratios: a regulator block is a
diagonal rescaling of its line's ``zinv``, so at any finite nonzero ratio
it is exactly zero where ``zinv`` is. Exact zeros are not stored. The bits
of a stored value depend on the order in which its duplicate entries are
summed, and scipy sums them itself: ``tocsc`` sorts each column with an
unstable sort and then sums left to right. A column of the block-diagonal
matrix holds one matrix's entries, rows shifted by a constant, in stamp
order, so it sorts and sums as that matrix's own conversion would, and the
matrices are bit-identical to ``coo_matrix(...).tocsc()`` of their entries
in stamp order.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, chain, count

import numpy as np
import scipy.sparse as sp

from .network import _PHASE_POS, PHASES, FeederModel, PhaseVector, tree_index


def _ratio_row(svrs, ratios) -> np.ndarray:
    """The per-regulator ``{phase: ratio}`` maps ``ratios``, one per regulator
    in ``svrs``, as one row over the regulator phases: regulators in model
    order, each one's phases in its own order."""
    if len(ratios) != len(svrs):
        raise ValueError(f"{len(ratios)} ratio maps for {len(svrs)} regulators")
    row = []
    for sv, r in zip(svrs, ratios):
        missing = [p for p in sv.phases if p not in r]
        if missing:
            raise ValueError(f"svr {sv.from_bus}->{sv.to_bus}: no ratio for phase(s) {missing}")
        row += [float(r[p]) for p in sv.phases]
    return np.array(row, dtype=float)


def _inv(z: np.ndarray, what: str) -> np.ndarray:
    # LAPACK can return garbage instead of raising on float-singular input,
    # so verify the inverse actually inverts.
    try:
        out = np.linalg.inv(z)
    except np.linalg.LinAlgError:
        raise ValueError(f"singular impedance matrix on {what}") from None
    resid = np.max(np.abs(z @ out - np.eye(z.shape[0])))
    if not np.isfinite(resid) or resid > 1e-8:
        raise ValueError(f"singular impedance matrix on {what}")
    return out


def _line_inverses(layout, order) -> np.ndarray:
    """``_inv`` of every line impedance, (L, 3, 3) over PHASES, one
    ``np.linalg.inv`` per phase count. If an inverse fails the check, the
    lines are inverted one by one in ``order``, which holds every line, so
    the error names the first bad line in ``order``."""
    zinv = np.zeros_like(layout.z)
    try:
        for _, q, blocks in layout.by_size:
            z, n = np.take(layout.z, blocks), q.shape[1]
            inv = np.linalg.inv(z)
            # z @ inv - I, summed over j elementwise: no BLAS call per matrix.
            resid = sum(z[:, :, j, None] * inv[:, None, j] for j in range(n)) - np.eye(n)
            if not np.abs(resid).max() <= 1e-8:        # NaN fails too
                raise np.linalg.LinAlgError
            np.put(zinv, blocks, inv)
    except np.linalg.LinAlgError:
        for k in order:
            q = np.ix_(*[np.flatnonzero(layout.mask[k])] * 2)
            zinv[k][q] = _inv(layout.z[k][q], f"line {layout.edge_key(layout.frm[k], layout.to[k])}")
    return zinv


@dataclass(frozen=True)
class Layout:
    """A feeder's (bus, phase) layout, the one index that the admittance
    stamps, the linear model and the metrics read, and the only reader of
    the model's lines, regulators and slack voltage on the solve path."""

    at: np.ndarray           # at[k, q]: full coordinate of bus k's phase PHASES[q], -1 if absent
    bus_of: dict             # bus id -> its position k in model.buses, the rows of the tables
    slack: np.ndarray        # slack[k]: bus k is the slack bus
    load: np.ndarray         # load[k, q]: constant-power consumption, 0 where none
    shunts: tuple            # (k, PhaseMatrix) per bus k with a shunt, in model order
    frm: np.ndarray          # frm[i]: position of model.lines[i]'s from-bus in model.buses
    to: np.ndarray           # to[i]: position of its to-bus
    mask: np.ndarray         # mask[i, q]: model.lines[i] carries phase PHASES[q]
    z: np.ndarray            # (L, 3, 3) line impedances over PHASES, exact zeros off the mask
    by_size: tuple           # per phase count s present, ascending: (lines, q, blocks), its
                             # lines' model.lines indices (L_s,), their phase positions
                             # (L_s, s) and the flat positions of their s x s blocks in an
                             # (L, 3, 3) array (L_s, s, s), for np.take and np.put
    svr_ends: np.ndarray     # (R, 2) per regulator: positions of its primary and secondary
    svr_cols: np.ndarray     # svr_cols[r, q]: the ratio row's column of regulator r's phase
                             # PHASES[q], -1 if it lacks the phase (``_ratio_row``'s order)
    svr_type_b: np.ndarray   # svr_type_b[r]: regulator r is type B
    svr_lines: tuple         # per regulator: model.lines index of its outgoing line
    v_source: np.ndarray     # v_source[q]: slack voltage of phase PHASES[q], NaN if absent
    slack_sq: np.ndarray     # slack_sq[q]: its squared magnitude, Python's abs(v) ** 2; 0 if absent
    depth: np.ndarray        # depth[k]: bus k's distance from the slack bus (``_depths``)

    def edge_key(self, frm: int, to: int) -> str:
        """The key "from->to" of the buses at positions ``frm`` and ``to``."""
        ids = list(self.bus_of)
        return f"{ids[frm]}->{ids[to]}"


def build_layout(model: FeederModel) -> Layout:
    """The coordinate table, loads, shunts, line rows, regulator rows and
    slack voltage of a validated model, reading its buses, lines and
    regulators once each. Full coordinates number the buses' phases in
    model order, each bus's in canonical order, so they run row by row
    through ``at``."""
    buses = model.buses
    ids, phases, loads = [b.id for b in buses], [b.phases for b in buses], [b.load for b in buses]
    bus_of = dict(zip(ids, count()))
    phase_of = list(map(_PHASE_POS.__getitem__, chain.from_iterable(phases)))
    at = np.full((len(ids), len(PHASES)), -1, dtype=np.intp)
    at[np.repeat(np.arange(len(ids)), list(map(len, phases))), phase_of] = np.arange(len(phase_of))
    load = np.zeros(at.shape, dtype=complex)
    loaded = [k for k, v in enumerate(loads) if v is not None]
    if loaded:
        vecs = list(map(loads.__getitem__, loaded))
        load_phases = [v.phases for v in vecs]
        load[np.repeat(loaded, list(map(len, load_phases))),
             list(map(_PHASE_POS.__getitem__, chain.from_iterable(load_phases)))] = \
            np.concatenate([v.values for v in vecs])

    # One row per line, in model order, its impedance padded over PHASES.
    lines = model.lines
    frm, to, z = [ln.from_bus for ln in lines], [ln.to_bus for ln in lines], [ln.z for ln in lines]
    line_phases = [m.phases for m in z]
    sizes = np.fromiter(map(len, line_phases), np.intp, len(z))
    ends = np.fromiter(map(bus_of.__getitem__, chain(frm, to)), np.intp, 2 * len(z)).reshape(2, -1)
    mask = np.zeros((len(z), len(PHASES)), dtype=bool)
    mask[np.repeat(np.arange(len(z)), sizes),
         list(map(_PHASE_POS.__getitem__, chain.from_iterable(line_phases)))] = True
    z_pad = np.zeros((len(z), len(PHASES), len(PHASES)), dtype=complex)
    by_size = []
    for s in range(1, len(PHASES) + 1):
        ks = np.flatnonzero(sizes == s)
        if ks.size:
            q = np.nonzero(mask[ks])[1].reshape(-1, s)
            blocks = (ks[:, None, None] * len(PHASES) + q[:, :, None]) * len(PHASES) + q[:, None, :]
            np.put(z_pad, blocks, np.concatenate([z[k].array for k in ks.tolist()]))
            by_size.append((ks, q, blocks))

    # One row per regulator: its ends, its kind, the ratio row's column of
    # each of its phases, and its outgoing line, the first line out of its
    # secondary.
    svrs, col = model.svrs, count()
    regs = np.array([(bus_of[sv.from_bus], bus_of[sv.to_bus], sv.kind == "B",
                      *(next(col) if p in sv.phases else -1 for p in PHASES)) for sv in svrs],
                    dtype=np.intp).reshape(len(svrs), 3 + len(PHASES))
    out = ends[0] == regs[:, 1:2]
    if not out.any(axis=1).all():
        raise ValueError("model fails validation: a regulator secondary feeds no line")
    source = dict(zip(model.slack_voltage.phases, model.slack_voltage.values.tolist()))
    slack = np.zeros(len(ids), dtype=bool)          # the tree's root
    slack[bus_of[tree_index(model)]] = True
    return Layout(at=at, bus_of=bus_of, slack=slack, load=load, depth=_depths(slack, ends, regs),
                  shunts=tuple((k, b.shunt) for k, b in enumerate(buses) if b.shunt is not None),
                  frm=ends[0], to=ends[1], mask=mask, z=z_pad, by_size=tuple(by_size),
                  svr_ends=regs[:, :2], svr_type_b=regs[:, 2] == 1, svr_cols=regs[:, 3:],
                  svr_lines=tuple(out.argmax(axis=1).tolist()) if svrs else (),
                  v_source=np.array([source.get(p, np.nan) for p in PHASES], dtype=complex),
                  slack_sq=np.array([abs(source[p]) ** 2 if p in source else 0.0 for p in PHASES]))


def _depths(slack: np.ndarray, ends: np.ndarray, regs: np.ndarray) -> np.ndarray:
    """Each bus's distance from the slack bus along its parents, a line's
    from-bus (``ends`` (2, L)) and a regulator secondary's primary (``regs``'
    first two columns), found by pointer jumping: pass j doubles each bus's
    jump, so after a pass per bit of the bus count every jump ends at the
    slack bus."""
    up = np.arange(len(slack))
    up[ends[1]] = ends[0]
    up[regs[:, 1]] = regs[:, 0]
    depth = (~slack).astype(np.intp)     # the length of each bus's jump
    for _ in range(len(slack).bit_length()):
        depth += depth[up]
        up = up[up]
    return depth


@dataclass(frozen=True)
class StampSet:
    """The tap-independent part of a feeder's admittance assembly and power flow.

    ``values`` is every stamped entry in stamp order; each regulator slice
    holds ``zinv`` four times, the zero pattern of its blocks. The first
    three blocks move with the ratios: ``moving`` numbers their entries in
    stamp order, and ``assemble`` reads those from the blocks it computes,
    one broadcast over every regulator's padded line inverse ``svr_zinv``
    with the gains read from the ratio row's ``Layout.svr_cols``, at the
    positions ``moved_at``.
    ``routes`` places each nonzero entry, in stamp order, in one matrix
    holding Y, Y_NS and Y_S block-diagonally (``shapes``), each shifted past
    the ones before it; ``assemble`` converts that matrix once.
    """

    full_of: tuple           # positions in full_coords of Y's rows, in row order, and of
                             # slack_coords
    v_slack: np.ndarray      # slack voltages in Y_NS column order
    loads: np.ndarray        # constant-power consumption per retained row
    v_flat: np.ndarray       # flat start: the slack voltage of each row's phase
    values: np.ndarray
    moving: np.ndarray       # per entry: its row among the regulators' moving blocks, or -1
    routes: tuple            # (positions, rows, columns) of the nonzero entries
    shapes: tuple            # Y's, Y_NS's and Y_S's
    svr_zinv: np.ndarray     # (R, 3, 3) per regulator: its line's checked inverse, as ``zinv``
    inverted: np.ndarray     # (R, 3) the gains that are 1 / ratio: type B, on the line's phases
    moved_at: np.ndarray     # per moving row: its flat position in the (R, 3, 3, 3)
                             # regulator blocks G zinv G, -G zinv, -zinv G over PHASES
    layout: Layout
    zinv: np.ndarray         # (L, 3, 3) per model line: its checked inverse, as ``layout.z``
    secondaries: tuple       # per regulator phase, in the ratio row's order: the secondary's
                             # full coordinate, the primary's and the type-B flag (n, 1)
    moves_y: np.ndarray      # (k,) per ratio column: a block that moves with it lands in Y

    def line_zinv(self, k: int) -> np.ndarray:
        """The checked inverse of ``model.lines[k]``'s impedance."""
        return self.zinv[k][np.ix_(*[np.flatnonzero(self.layout.mask[k])] * 2)]

    # The (bus, phase) tuples name the rows and columns for readers at the
    # boundary; a solve reads only arrays, so they are built on first use.
    @cached_property
    def full_coords(self) -> tuple:
        """Every (bus, phase) in Y_S column order."""
        ids = list(self.layout.bus_of)
        bus_at, phase_of = np.nonzero(self.layout.at >= 0)
        return tuple(zip(map(ids.__getitem__, bus_at.tolist()),
                         map(PHASES.__getitem__, phase_of.tolist())))

    @cached_property
    def coords(self) -> tuple:
        """Retained (bus, phase) in row order."""
        return tuple(map(self.full_coords.__getitem__, self.full_of[0].tolist()))

    @cached_property
    def slack_coords(self) -> tuple:
        """Slack (bus, phase) in Y_NS column order."""
        return tuple(map(self.full_coords.__getitem__, self.full_of[1].tolist()))

    @cached_property
    def nonslack_at(self) -> np.ndarray:
        """Positions in full_coords of every coordinate but the slack's."""
        return np.flatnonzero(~self.layout.slack[np.nonzero(self.layout.at >= 0)[0]])


@dataclass(frozen=True)
class AdmittanceSystem:
    """Reduced admittance blocks at m ratio rows, over ``stamps``' layout.

    Y       : retained (non-slack, non-eliminated) square block
    Y_NS    : coupling of retained rows to slack columns
    Y_S     : slack-injection rows over the full coordinate set (slack included,
              eliminated secondaries included with zero weight)
    """

    Y: sp.csc_matrix
    Y_NS: sp.csc_matrix
    Y_S: sp.csc_matrix
    ratios: np.ndarray       # (m, k) the ratio rows (``assemble_block``)
    stamps: StampSet


# Per kind (0 line, 1 regulator) and end (0 rows, 1 columns): the endpoint
# (0 from-bus or primary, 1 to-bus) of each of the four blocks. A line puts
# zinv at (f, f) and (t, t), -zinv at (f, t) and (t, f); a regulator zinv at
# (n, n), (n, m), (m, n), (m, m), which ``assemble`` rescales.
_BLOCK_ENDS = np.array([[[0, 1, 0, 1], [0, 1, 1, 0]],
                        [[0, 0, 1, 1], [0, 1, 0, 1]]], dtype=np.intp)


def build_stamps(model: FeederModel) -> StampSet:
    """Invert every line impedance of a validated model and place its stamps.

    Raises ``ValueError`` on a singular line impedance, and on a model that
    fails validation so that a stamp would land on another coordinate, a
    regulator's phases are not its secondary's, or a regulator secondary
    feeds no line or a line other than its own.
    """
    layout = build_layout(model)
    at, svr_ends = layout.at, layout.svr_ends
    elim = np.zeros(len(layout.slack), dtype=bool)
    elim[svr_ends[:, 1]] = True
    kept = ~layout.slack & ~elim
    bus_at, phase_of = np.nonzero(at >= 0)  # full coordinates run row by row through ``at``

    # Stamp order: the lines whose from-bus is no regulator secondary (those
    # are handled by elimination), each regulator's outgoing line, shunts.
    svr_lines = np.array(layout.svr_lines, dtype=np.intp)
    stamped = np.concatenate([np.flatnonzero(~elim[layout.frm]), svr_lines])
    if not np.array_equal(np.sort(stamped), np.arange(len(layout.frm))):
        raise ValueError("model fails validation: a regulator secondary feeds another line")
    # A regulator's blocks sit at its primary n and its line's to-bus m.
    kind = np.zeros(len(layout.frm), dtype=np.intp)
    kind[svr_lines] = 1
    ends = np.column_stack([layout.frm, layout.to])
    ends[svr_lines, 0] = svr_ends[:, 0]
    zinv = _line_inverses(layout, stamped.tolist())   # stamp order names the first bad line

    # Each item's entries start at its offset: 4 s x s blocks per line or
    # regulator, one per shunt, each row-major.
    sizes = layout.mask.sum(axis=1)
    offsets = np.cumsum(np.concatenate([[0], 4 * sizes[stamped] ** 2,
                                        [len(sh.phases) ** 2 for _, sh in layout.shunts]]),
                        dtype=np.intp)
    rows = np.empty(offsets[-1], dtype=np.intp)
    cols = np.empty(offsets[-1], dtype=np.intp)
    values = np.empty(offsets[-1], dtype=complex)
    line_start = np.empty(len(layout.frm), dtype=np.intp)
    line_start[stamped] = offsets[:len(stamped)]
    # Per line and block: the flat position in ``at`` of the bus of its rows
    # and of the bus of its columns, at phase a.
    row_bus, col_bus = (len(PHASES) * ends[np.arange(len(kind))[:, None, None],
                                           _BLOCK_ENDS[kind]]).transpose(1, 0, 2)
    for k, q, blocks in layout.by_size:      # one broadcast per phase count
        v = np.repeat(np.take(zinv, blocks)[:, None], 4, axis=1)               # (L, 4, s, s)
        np.negative(v[:, 2:], out=v[:, 2:], where=(kind[k] == 0)[:, None, None, None])
        _place(rows, cols, values, line_start[k], np.take(at, row_bus[k][:, :, None] + q[:, None]),
               np.take(at, col_bus[k][:, :, None] + q[:, None]), v)
    for item, (k, sh) in enumerate(layout.shunts, len(stamped)):   # its admittance at (k, k)
        at_k = at[k, [_PHASE_POS[p] for p in sh.phases]][None, None]
        _place(rows, cols, values, offsets[[item]], at_k, at_k, sh.array[None, None])
    # Each regulator's phases, as the ratio row holds them, at its primary
    # and at its secondary.
    owned = layout.svr_cols >= 0
    prim, sec = at[svr_ends[:, 0]][owned], at[svr_ends[:, 1]]
    # Only a model that fails validation stamps a phase its bus lacks (``at``
    # is -1 there; every stamped coordinate is also a stamped row), has a
    # regulator phase its primary lacks or a bus phase the slack voltage lacks.
    if (rows.size and (rows.min() < 0 or not (kept | layout.slack)[bus_at[rows]].all())) \
            or (prim < 0).any() or np.isnan(layout.v_source[phase_of]).any():
        raise ValueError("model fails validation: a phase has no coordinate or no slack voltage")
    if ((sec >= 0) != owned).any():
        raise ValueError("model fails validation: a regulator's phases are not its secondary's")

    # A regulator's moving entries are the first three of its four blocks,
    # the last line items in stamp order. ``moved_at`` places them in the
    # (R, 3, 3, 3) regulator blocks over PHASES: per regulator and block, its
    # line's phase pairs, row-major, as the entries run.
    moves = np.zeros(len(values), dtype=bool)
    bounds = offsets[len(stamped) - len(svr_lines):len(stamped) + 1].tolist()
    for start, stop in zip(bounds, bounds[1:]):
        moves[start:start + 3 * (stop - start) // 4] = True
    line_mask = layout.mask[svr_lines]
    pairs = line_mask[:, None, :, None] & line_mask[:, None, None, :]       # (R, 1, 3, 3)
    moved_at = np.flatnonzero(pairs.repeat(3, axis=1))

    # Route each stored entry once: a slack row goes to Y_S, a slack column
    # to Y_NS, anything else to Y. Their coordinates are taken block-diagonally
    # in one matrix: Y, then Y_NS, then Y_S, each shifted past the ones before.
    is_retained, is_slack = kept[bus_at], layout.slack[bus_at]
    n, ns, nf = int(is_retained.sum()), int(is_slack.sum()), len(bus_at)
    retained = np.flatnonzero(is_retained)          # Y's rows, leaves first
    retained = retained[np.argsort(-layout.depth[bus_at[retained]], kind="stable")]
    retained_of, slack_of = np.zeros(nf, dtype=np.intp), np.cumsum(is_slack) - 1
    retained_of[retained] = np.arange(n)
    to_s = is_slack[rows]
    to_ns = ~to_s & is_slack[cols]
    keep = values != 0.0
    # As int32, scipy's index type for these matrices, so that a conversion
    # neither scans them for their index type nor copies them.
    frame_rows = np.where(to_s, 2 * n + slack_of[rows], retained_of[rows] + n * to_ns)
    frame_cols = np.where(to_s, n + ns + cols, np.where(to_ns, n + slack_of[cols], retained_of[cols]))
    routes = (np.flatnonzero(keep), frame_rows[keep].astype(np.int32), frame_cols[keep].astype(np.int32))

    return StampSet(full_of=(retained, np.flatnonzero(is_slack)),
                    v_slack=layout.v_source[phase_of[is_slack]],
                    loads=layout.load[bus_at[retained], phase_of[retained]],
                    v_flat=layout.v_source[phase_of[retained]],
                    values=values, moving=np.where(moves, np.cumsum(moves) - 1, -1),
                    routes=routes, shapes=((n, n), (n, ns), (ns, nf)),
                    # A gain off the line's phases multiplies only zeros; it
                    # is the ratio as is, so no ratio that no stamp reads is inverted.
                    svr_zinv=zinv[svr_lines], inverted=layout.svr_type_b[:, None] & line_mask,
                    moved_at=moved_at, layout=layout, zinv=zinv,
                    secondaries=(sec[owned], prim,
                                 (layout.svr_type_b[:, None] & owned)[owned, None]),
                    # A ratio moves its regulator's blocks on its line's phases
                    # only, and they land in Y unless the primary is the slack
                    # bus: -G zinv couples two retained buses.
                    moves_y=(line_mask & ~layout.slack[svr_ends[:, 0], None])[owned])


def _place(rows, cols, values, starts, r, c, v):
    """Fill the entries of L items at their ``starts``: item l's blocks b,
    each s x s and row-major, sit at rows ``r[l, b]`` and columns ``c[l, b]``
    (each (L, b, s)) and hold ``v[l, b]``."""
    slots = (starts[:, None] + np.arange(v[0].size)).reshape(v.shape)
    rows[slots] = r[..., None]
    cols[slots] = c[:, :, None, :]
    values[slots] = v


def _regulator_blocks(stamps: StampSet, ratios: np.ndarray) -> np.ndarray:
    """The moving entries of every regulator at each row of ``ratios`` (m, k),
    in stamp order: (m, moving entries), row j at ratio row j.

    One broadcast over the regulators' padded line inverses: with G the
    diagonal gain, (G zinv G)_ij = (g_i zinv_ij) g_j, and so on, elementwise
    products that give the bits of the dense products, whose other summands
    are exact zeros.
    """
    if not ratios.shape[1]:          # no regulator phase, so no regulator block
        return np.empty((len(ratios), 0), dtype=complex)
    # Type-B: v_n = A v_n', so v_n' = A^-1 v_n. Type-A mirrors the gain. A
    # phase the regulator lacks reads the last ratio, finite and never inverted.
    g = ratios[:, stamps.layout.svr_cols]                                   # (m, R, 3)
    np.divide(1.0, g, out=g, where=stamps.inverted)
    z = stamps.svr_zinv
    gz = g[..., None] * z
    blocks = np.concatenate([gz * g[..., None, :], -gz, -(z * g[..., None, :])], axis=2)
    return blocks.reshape(len(ratios), -1).take(stamps.moved_at, axis=1)


def assemble(model: FeederModel, ratios, stamps: StampSet | None = None) -> AdmittanceSystem:
    """Build the admittance blocks for a validated model at fixed regulator ratios.

    ``ratios`` is a list aligned with ``model.svrs``, each item mapping phase to
    the effective ratio. Constant-admittance shunts are folded onto the diagonal.
    ``stamps`` is ``build_stamps(model)`` for callers that assemble one model at
    many ratios; only the regulator blocks are then computed again.
    """
    row = _ratio_row(model.svrs, ratios)
    return assemble_block(build_stamps(model) if stamps is None else stamps, row[None])


def assemble_block(stamps: StampSet, ratios: np.ndarray) -> AdmittanceSystem:
    """The admittance blocks at m ratio rows at once.

    ``ratios`` is (m, k): row j holds one ratio per regulator phase,
    regulators in model order, each one's phases in its own order. Every
    ratio must be finite and nonzero, else ``ValueError`` names the first bad
    row's first bad regulator. With m > 1, Y_NS and Y_S are block-diagonal,
    row j's blocks at j times their shape, so one sparse product applies each
    row's blocks at the bits of a single row's; Y is the first row's, and
    ``zbus.solve_block`` needs the rows to agree on every ratio that moves Y
    (``stamps.moves_y``).
    """
    # Only a finite nonzero gain keeps a regulator block zero exactly where
    # its ``zinv`` is, the entries that ``routes`` holds.
    ok = np.isfinite(ratios) & (ratios != 0.0)
    if not ok.all():
        layout, j = stamps.layout, int(np.argmin(ok.all(axis=1)))
        i = int(np.argmax((layout.svr_cols == np.argmin(ok[j])).any(axis=1)))
        cols = layout.svr_cols[i]
        raise ValueError(f"svr {layout.edge_key(*layout.svr_ends[i])}: ratios must be finite and "
                         f"nonzero, got {ratios[j, cols[cols >= 0]].tolist()}")
    m = len(ratios)
    moved = _regulator_blocks(stamps, ratios)
    values = stamps.values.copy()
    values[stamps.moving >= 0] = moved[0]
    take, rows, cols = stamps.routes
    data, shapes = values[take], stamps.shapes
    if m > 1:
        # Y at the first row; Y_NS's and Y_S's entries at every row j, shifted
        # into block j of their block-diagonal matrices.
        (n, _), (_, ns), (_, nf) = shapes
        y = rows < n
        k = stamps.moving[take[~y]]
        # A fixed entry's -1 reads an appended zero column; np.where drops it.
        tiled = np.where(k >= 0, np.column_stack([moved, np.zeros(m)])[:, k], data[~y])
        to_s, j = rows[~y] >= 2 * n, np.arange(m, dtype=np.int32)[:, None]
        data = np.concatenate([data[y], tiled.ravel()])
        rows = np.concatenate([rows[y], (rows[~y] + np.where(to_s, (m - 1) * n + j * ns, j * n)).ravel()])
        cols = np.concatenate([cols[y], (cols[~y] + np.where(to_s, (m - 1) * ns + j * nf, j * ns)).ravel()])
        shapes = ((n, n), (m * n, m * ns), (m * ns, m * nf))
    Y, Y_NS, Y_S = _converted(data, rows, cols, shapes)
    return AdmittanceSystem(Y=Y, Y_NS=Y_NS, Y_S=Y_S, ratios=ratios, stamps=stamps)


def _converted(data, rows, cols, shapes) -> list:
    """``coo_matrix(...).tocsc()`` of the entries ``data`` at ``rows`` and
    ``cols`` of the matrices of ``shapes`` placed block-diagonally, each
    shifted past the ones before it, split into those matrices.

    tocsc sorts and sums each column on its own, and a column of the
    block-diagonal matrix holds one matrix's entries, rows shifted by a
    constant, in their order, so each matrix gets the bytes and flags of
    converting its own entries.
    """
    r0, c0 = (list(accumulate(dims, initial=0)) for dims in zip(*shapes))
    whole = sp.coo_matrix((data, (rows, cols)), shape=(r0[-1], c0[-1])).tocsc()
    out = []
    for shape, r, c, c1 in zip(shapes, r0, c0, c0[1:]):
        ptr = whole.indptr[c:c1 + 1]
        block = slice(ptr[0], ptr[-1])
        # A copy of the checked, canonical whole with a column range of its
        # arrays: scipy's constructor would check them again.
        part = copy.copy(whole)
        part.data, part.indices, part.indptr = whole.data[block], whole.indices[block] - r, ptr - ptr[0]
        part._shape = shape
        out.append(part)
    return out


def recover_svr_secondary(model: FeederModel, ratios, voltages: dict) -> dict:
    """Voltages at eliminated regulator secondaries from the retained solution.

    ``voltages`` maps bus id -> PhaseVector and must cover every regulator
    primary. Type-B: v_secondary = v_primary / r; type-A: v_secondary = r * v_primary.
    """
    out = {}
    for svx, sv in enumerate(model.svrs):
        vp = voltages[sv.from_bus]
        sec_phases = model.bus(sv.to_bus).phases
        vals = []
        for p in sec_phases:
            r = float(ratios[svx][p])
            if r == 0.0:
                raise ValueError(f"svr {sv.from_bus}->{sv.to_bus}: zero ratio on phase {p}")
            vals.append(vp[p] / r if sv.kind == "B" else vp[p] * r)
        out[sv.to_bus] = PhaseVector(sec_phases, vals)
    return out

