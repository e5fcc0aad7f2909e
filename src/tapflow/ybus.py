"""Sparse bus admittance assembly with ideal-regulator secondary elimination.

Coordinates are (bus, phase) pairs. Regulator secondaries are eliminated from
the retained system using the ideal two-port relations v_primary = A v_secondary,
i_primary = A^-1 i_line (type-B, diagonal real gain A), leaving a reduced Y that
couples the primary directly to the bus behind the regulator's outgoing line.

A feeder has one ``Layout``: a (bus, phase) table of its coordinates, its
loads over that table and each regulator's outgoing line, found with the
feeder's one ``tree_index``. The stamps, ``linflow`` and ``zbus`` read it.

Assembly has two steps. ``build_stamps`` does the tap-independent work once
per feeder: the layout, the retained coordinate tuples and each retained
bus's rows, the slack voltages, loads and flat start over them, the checked
inverse of every line impedance, one list of stamped entries in stamp order
(lines, then regulators, then shunts, each block row-major), and the final
CSC pattern of Y, Y_NS and Y_S. Each regulator owns one slice of the entry
list. The list is placed with numpy: an item's entries start at an offset
fixed by the block sizes before it (4 s x s blocks per line or regulator,
one per shunt, s its phase count), and one broadcast fills the rows,
columns and values of all items of one kind and phase set, reading their
coordinates from the layout. ``assemble`` then computes only the regulator
blocks G zinv G, -G zinv and -zinv G (G the diagonal gain) for the given
ratios, elementwise as (g_i zinv_ij) g_j and so on, reads them in place of
their entries and scatters the list into the fixed patterns; called
without a stamp set it builds one. Each matrix is a shallow copy of a
template built and checked once, given the new values and copies of the
pattern, so scipy does not check the pattern again. ``assemble_block``
does the same for m ratio sets at once: the scatter runs on (entries, m)
arrays, and Y_NS and Y_S come back block-diagonal, one block per set, so
that one sparse product applies every set's blocks at its own bits.

``build_stamps`` also decides whether Y depends on the ratios at all. The
first three regulator blocks move with them; when every one that is
nonzero lands in Y_NS or Y_S (a regulator whose primary is the slack bus,
as on IEEE-13), Y's values are the same bits at every ratio and
``zbus.solve_zbus`` factors Y once per stamp set.

The pattern does not depend on the ratios: a regulator block is a diagonal
rescaling of its line's ``zinv``, so at any finite nonzero ratio it is
exactly zero where ``zinv`` is. Exact zeros are not stored. The bits of a
stored value depend on the order in which its duplicate entries are summed.
scipy's ``coo_matrix.tocsc`` sorts each column with an unstable sort and
then sums left to right. ``build_stamps`` lets scipy sort the entry
positions once and keeps that order, so the matrices are bit-identical to
``coo_matrix(...).tocsc()`` of the entries in stamp order, whether or not
the stamp set was reused.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from itertools import accumulate, compress, count

import numpy as np
import scipy.sparse as sp

from .network import PHASES, FeederModel, PhaseVector, SvrSpec, tree_index


def _gain_diag(svr, ratios, phases) -> np.ndarray:
    missing = [p for p in phases if p not in ratios]
    if missing:
        raise ValueError(f"svr {svr.from_bus}->{svr.to_bus}: no ratio for phase(s) {missing}")
    a = np.array([float(ratios[p]) for p in phases])
    # The fixed CSC pattern holds only for finite nonzero gains.
    if not np.all(np.isfinite(a) & (a != 0.0)):
        raise ValueError(f"svr {svr.from_bus}->{svr.to_bus}: ratios must be finite and "
                         f"nonzero, got {a.tolist()}")
    return a


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


def _line_inverses(lines, order) -> tuple:
    """``_inv`` of each line impedance in ``order``, per line, one LAPACK call
    per matrix size. If an inverse fails the check, the lines are inverted one
    by one, so the error names the first bad line in ``order``."""
    out = [None] * len(lines)
    by_size = {}
    for k in order:
        by_size.setdefault(len(lines[k].z.phases), []).append(k)
    try:
        for n, ks in by_size.items():
            z = np.stack([lines[k].z.array for k in ks])
            inv = np.linalg.inv(z)
            resid = np.max(np.abs(z @ inv - np.eye(n)), axis=(1, 2))
            if not np.all(resid <= 1e-8):        # NaN fails too
                raise np.linalg.LinAlgError
            for k, x in zip(ks, inv):
                out[k] = x
    except np.linalg.LinAlgError:
        for k in order:
            out[k] = _inv(lines[k].z.array, f"line {lines[k].from_bus}->{lines[k].to_bus}")
    return tuple(out)


@dataclass(frozen=True)
class Layout:
    """A feeder's (bus, phase) layout, the one index that the admittance
    stamps, the linear model and the metrics read."""

    at: np.ndarray           # at[k, q]: full coordinate of bus k's phase PHASES[q], -1 if absent
    bus_of: dict             # bus id -> its position k in model.buses, the rows of the tables
    load: np.ndarray         # load[k, q]: constant-power consumption, 0 where none
    svr_lines: tuple         # per regulator: model.lines index of its outgoing line


def build_layout(model: FeederModel) -> Layout:
    """The coordinate table, loads and regulator lines of a validated model.
    Full coordinates number the buses' phases in model order, each bus's in
    canonical order, so they run row by row through ``at``."""
    buses = model.buses
    pos = {p: q for q, p in enumerate(PHASES)}
    phase_of = [pos[p] for b in buses for p in b.phases]
    at = np.full((len(buses), len(PHASES)), -1, dtype=np.intp)
    at[np.repeat(np.arange(len(buses)), [len(b.phases) for b in buses]), phase_of] = \
        np.arange(len(phase_of))
    loaded = [(k, b.load) for k, b in enumerate(buses) if b.load is not None]
    load = np.zeros(at.shape, dtype=complex)
    if loaded:
        ks, vecs = zip(*loaded)
        load[np.repeat(ks, [len(v) for v in vecs]), [pos[p] for v in vecs for p in v.phases]] = \
            np.concatenate([v.values for v in vecs])
    children = tree_index(model).children
    return Layout(at=at, bus_of={b.id: k for k, b in enumerate(buses)}, load=load,
                  svr_lines=tuple(children[sv.to_bus][0].index for sv in model.svrs))


@dataclass(frozen=True)
class _RegulatorStamp:
    """A regulator's tap-independent data: the inverted impedance of its
    outgoing line and the slice of the entry list its four blocks fill."""

    svr: SvrSpec
    index: int               # position in ``model.svrs`` and in ``ratios``
    phases: tuple            # current-carrying phases through the regulator
    zinv: np.ndarray
    entries: slice           # the G zinv G, -G zinv, -zinv G and zinv blocks,
                             # in that order, each row-major


@dataclass(frozen=True)
class StampSet:
    """The tap-independent part of a feeder's admittance assembly and power flow.

    ``values`` is every stamped entry in stamp order; each regulator slice
    holds ``zinv`` four times, the zero pattern of its blocks. The first
    three blocks move with the ratios: ``moving`` numbers their entries in
    stamp order, and ``assemble`` reads those from the blocks it computes.
    The stored values of Y, Y_NS and Y_S, concatenated, are the entries at
    ``first`` plus, for each ``(slots, take)`` of ``further`` in turn, the
    entries at ``take`` added at ``slots``. ``templates`` holds each matrix
    with its checked CSC pattern; ``assemble`` copies it and sets the data.
    """

    coords: tuple            # retained (bus, phase) in row order
    slack_coords: tuple      # slack (bus, phase) in Y_NS column order
    full_coords: tuple       # every (bus, phase) in Y_S column order
    full_of: tuple           # positions in full_coords of coords and of slack_coords
    eliminated: tuple        # bus ids removed by regulator elimination
    bus_rows: tuple          # per retained bus, in model order: (bus, its rows as a slice)
    v_slack: np.ndarray      # slack voltages in Y_NS column order
    loads: np.ndarray        # constant-power consumption per retained row
    v_flat: np.ndarray       # flat start: the slack voltage of each row's phase
    values: np.ndarray
    moving: np.ndarray       # per entry: its row among the regulators' moving blocks, or -1
    first: np.ndarray        # per stored value: position of its first summand
    further: tuple           # per further summand rank: (slots, positions)
    templates: tuple         # Y, Y_NS, Y_S with their fixed patterns
    regulators: tuple
    layout: Layout
    zinv: tuple              # per model line: the checked inverse of its impedance
    y_fixed: bool            # no block that moves with the ratios lands in Y
    y_lu: list = field(default_factory=list, repr=False)   # Y's factorization, when y_fixed


@dataclass(frozen=True)
class AdmittanceSystem:
    """Reduced admittance blocks at one set of ratios, over ``stamps``' layout.

    Y       : retained (non-slack, non-eliminated) square block
    Y_NS    : coupling of retained rows to slack columns
    Y_S     : slack-injection rows over the full coordinate set (slack included,
              eliminated secondaries included with zero weight)
    """

    Y: sp.csc_matrix
    Y_NS: sp.csc_matrix
    Y_S: sp.csc_matrix
    stamps: StampSet


def build_stamps(model: FeederModel) -> StampSet:
    """Invert every line impedance of a validated model and place its stamps.

    Raises ``ValueError`` on a singular line impedance, and on a model whose
    phases fail validation so that a stamp would land on another coordinate.
    """
    buses = model.buses
    layout = build_layout(model)
    at, bus_of = layout.at, layout.bus_of
    eliminated = tuple(sv.to_bus for sv in model.svrs)
    elim_set = set(eliminated)
    kept = np.array([not b.is_slack and b.id not in elim_set for b in buses], dtype=bool)
    retained = list(compress(buses, kept))
    coords = tuple((b.id, p) for b in retained for p in b.phases)
    slack_coords = tuple((model.slack.id, p) for p in model.slack.phases)
    full_coords = tuple((b.id, p) for b in buses for p in b.phases)
    bus_at, phase_of = np.nonzero(at >= 0)  # full coordinates run row by row through ``at``
    is_retained = kept[bus_at]
    is_slack = np.array([b.is_slack for b in buses], dtype=bool)[bus_at]

    # Lines whose from-bus is a regulator secondary are handled by elimination.
    lines = model.lines
    plain = [k for k, ln in enumerate(lines) if ln.from_bus not in elim_set]
    line_order = plain + list(layout.svr_lines)
    zinv = _line_inverses(lines, line_order)          # stamp order names the first bad line
    shunted = [b for b in buses if b.shunt is not None]
    # Stamped items in stamp order: (kind, phases, first bus, second bus).
    items = ([("line", lines[k].z.phases, lines[k].from_bus, lines[k].to_bus) for k in plain]
             + [("svr", lines[k].z.phases, sv.from_bus, lines[k].to_bus)
                for sv, k in zip(model.svrs, layout.svr_lines)]
             + [("shunt", b.shunt.phases, b.id, b.id) for b in shunted])
    blocks = [zinv[k] for k in line_order] + [b.shunt.array for b in shunted]

    # Each item's entries start at its offset: 4 s x s blocks per line or
    # regulator, one per shunt, each row-major.
    offsets = np.cumsum([0] + [len(ph) ** 2 * (1 if kind == "shunt" else 4)
                               for kind, ph, _, _ in items])
    rows = np.empty(offsets[-1], dtype=np.intp)
    cols = np.empty(offsets[-1], dtype=np.intp)
    values = np.empty(offsets[-1], dtype=complex)
    groups = {}
    for k, (kind, ph, _, _) in enumerate(items):
        groups.setdefault((kind, ph), []).append(k)
    for (kind, ph), ks in groups.items():
        q = [PHASES.index(p) for p in ph]
        i = at[[bus_of[items[k][2]] for k in ks]][:, q]         # (items, s)
        j = at[[bus_of[items[k][3]] for k in ks]][:, q]
        z = np.array([blocks[k] for k in ks])                    # (items, s, s)
        if kind == "line":      # zinv at (f, f) and (t, t), -zinv at (f, t) and (t, f)
            r, c, v = (i, j, i, j), (i, j, j, i), (z, z, -z, -z)
        elif kind == "svr":     # zinv at (n, n), (n, m), (m, n), (m, m); assemble rescales them
            r, c, v = (i, i, j, j), (i, j, i, j), (z, z, z, z)
        else:
            r, c, v = (i,), (i,), (z,)
        r, c = np.stack(r, axis=1), np.stack(c, axis=1)          # (items, blocks, s)
        dims = r.shape + (len(ph),)                              # (items, blocks, s, s)
        slots = offsets[ks][:, None] + np.arange(np.prod(dims[1:]))
        rows[slots] = np.broadcast_to(r[..., None], dims).reshape(len(ks), -1)
        cols[slots] = np.broadcast_to(c[:, :, None, :], dims).reshape(len(ks), -1)
        values[slots] = np.stack(v, axis=1).reshape(len(ks), -1)
    v_source = np.full(len(PHASES), np.nan, dtype=complex)
    v_source[[PHASES.index(p) for p in model.slack_voltage.phases]] = model.slack_voltage.values
    # Only a model that fails validation stamps a phase its bus lacks (``at``
    # is -1 there; every stamped coordinate is also a stamped row) or has a
    # bus phase the slack voltage lacks.
    if (rows.size and rows.min() < 0) or np.isnan(v_source[phase_of]).any():
        raise ValueError("model fails validation: a phase has no coordinate or no slack voltage")
    regulators = tuple(
        _RegulatorStamp(svr=sv, index=svx, phases=lines[ln].z.phases, zinv=zinv[ln],
                        entries=slice(int(offsets[k]), int(offsets[k + 1])))
        for svx, (sv, ln, k) in enumerate(zip(model.svrs, layout.svr_lines, count(len(plain)))))

    # Route each stored entry once: a slack row goes to Y_S, a slack column
    # to Y_NS, anything else to Y.
    retained_of, slack_of = (np.where(m, np.cumsum(m) - 1, -1) for m in (is_retained, is_slack))
    r_ret, c_ret, r_slack, c_slack = (m[rc] for m in (retained_of, slack_of) for rc in (rows, cols))
    to_s = r_slack >= 0
    to_ns = ~to_s & (c_slack >= 0)
    to_y = ~(to_s | to_ns)
    keep = values != 0.0
    # G zinv G, -G zinv and -zinv G fill a regulator's first three blocks.
    moves = np.zeros(len(values), dtype=bool)
    for r in regulators:
        moves[r.entries.start:r.entries.stop - r.zinv.size] = True
    y_fixed = not (to_y & keep & moves).any()
    n, ns, nf = len(coords), len(slack_coords), len(full_coords)
    first, further, templates = _scatter_plan([
        (np.flatnonzero(m), r[m], c[m], shape)
        for m, r, c, shape in zip((to_y & keep, to_ns & keep, to_s & keep),
                                  (r_ret, r_ret, r_slack), (c_ret, c_slack, cols),
                                  ((n, n), (n, ns), (ns, nf)))])

    stops = list(accumulate(len(b.phases) for b in retained))
    bus_rows = tuple(zip(retained, map(slice, [0, *stops], stops)))
    return StampSet(coords=coords, slack_coords=slack_coords, full_coords=full_coords,
                    full_of=(np.flatnonzero(is_retained), np.flatnonzero(is_slack)),
                    eliminated=eliminated, bus_rows=bus_rows,
                    v_slack=v_source[phase_of[is_slack]], loads=layout.load[kept][at[kept] >= 0],
                    v_flat=v_source[phase_of[is_retained]],
                    values=values, moving=np.where(moves, np.cumsum(moves) - 1, -1),
                    first=first, further=further, templates=templates,
                    regulators=regulators, layout=layout, zinv=zinv, y_fixed=y_fixed)


def _scatter_plan(targets):
    """How entries of the stamp list sum into the CSC matrices that
    ``coo_matrix.tocsc`` builds from them, for each ``(take, rows, cols,
    shape)`` target: the entries ``take`` at ``rows`` and ``cols``.

    Returns ``StampSet``'s ``first``, ``further`` and ``templates``.
    """
    # tocsc groups a matrix's entries by column, keeping their order, then
    # sorts each column with libstdc++'s std::sort, which is not stable for
    # more than 16 entries, and sums each run of equal rows left to right.
    # The sort permutes by the row indices alone, so a marker matrix holding
    # the positions ``take`` is sorted exactly like the values. Flagging its
    # COO form canonical makes tocsc keep the duplicates unsummed.
    markers = []
    for take, rows, cols, shape in targets:
        coo = sp.coo_matrix((take, (rows, cols)), shape=shape)
        coo.has_canonical_format = True
        marker = coo.tocsc()
        if marker.nnz != len(take):
            raise RuntimeError("scipy summed the entries of a marker matrix")
        marker.sort_indices()
        markers.append(marker)

    # The matrices' sorted entries in turn; an entry opens a new slot (a
    # stored value) when it starts a column or changes the row.
    offsets = np.cumsum([0] + [m.nnz for m in markers])
    take = np.concatenate([m.data for m in markers])
    rows = np.concatenate([m.indices for m in markers])
    k = len(rows)
    new = np.zeros(k + 1, dtype=bool)
    new[1:k] = rows[1:] != rows[:-1]
    for m, off in zip(markers, offsets):
        new[m.indptr + off] = True
    new = new[:k]
    opened = np.concatenate(([0], np.cumsum(new)))      # slots opened before each entry

    # A slot's r-th further summand sits r entries after its first.
    starts = np.flatnonzero(new)
    sizes = np.diff(starts, append=k)
    slots = np.arange(len(starts))
    further = []
    for r in range(1, sizes.max(initial=0)):
        more = sizes > r
        slots, starts, sizes = slots[more], starts[more], sizes[more]
        further.append((slots, take[starts + r]))
    templates = []
    for m, off in zip(markers, offsets):
        indices = m.indices[new[off:off + m.nnz]]
        indptr = (opened[m.indptr + off] - opened[off]).astype(m.indptr.dtype)
        # Zeros as one broadcast value: a template's data is never read.
        t = sp.csc_matrix((np.broadcast_to(0j, len(indices)), indices, indptr), shape=m.shape)
        t.has_canonical_format = True
        templates.append(t)
    return take[new], tuple(further), tuple(templates)


def _regulator_blocks(reg: _RegulatorStamp, a: np.ndarray) -> np.ndarray:
    """The G zinv G, -G zinv and -zinv G blocks of ``reg`` at each row of
    ratios ``a`` (m, s) over its phases, row-major as in its entry slice:
    (3 s s, m), column j at row j of ``a``.

    With G the diagonal gain, (G zinv G)_ij = (g_i zinv_ij) g_j, and so on:
    elementwise products give the bits of the dense products, whose other
    summands are exact zeros.
    """
    # Type-B: v_n = A v_n', so v_n' = A^-1 v_n. Type-A mirrors the gain.
    g = (1.0 / a) if reg.svr.kind == "B" else a
    gz = g[:, :, None] * reg.zinv
    blocks = np.concatenate([gz * g[:, None, :], -gz, -(reg.zinv * g[:, None, :])], axis=1)
    return blocks.reshape(len(a), -1).T


def _stored_values(stamps: StampSet, read, rows: slice | None = None) -> np.ndarray:
    """The stored values of Y, Y_NS and Y_S, concatenated, or ``rows`` of
    them. ``read(positions)`` gives the entries at those positions of the
    entry list: a vector for one ratio set, (positions, m) for m sets."""
    # Sum duplicates left to right in scipy's order; see ``_scatter_plan``.
    rows = rows or slice(0, len(stamps.first))
    data = read(stamps.first[rows])
    for slots, take in stamps.further:
        if rows.start or rows.stop < len(stamps.first):
            inside = (rows.start <= slots) & (slots < rows.stop)
            slots, take = slots[inside] - rows.start, take[inside]
        data[slots] += read(take)
    return data


def _read_moved(stamps: StampSet, moved: np.ndarray, pos: np.ndarray) -> np.ndarray:
    """The entries at ``pos`` at each of m ratio sets: a moving entry's row
    of ``moved`` (the stacked regulator blocks, then a zero row), else the
    fixed value."""
    k = stamps.moving[pos]
    return np.where(k[:, None] >= 0, moved[k], stamps.values[pos][:, None])


def _slots(stamps: StampSet) -> list:
    """Each template's rows of the stored values: Y's, Y_NS's and Y_S's."""
    stops = list(accumulate(len(t.indices) for t in stamps.templates))
    return list(map(slice, [0, *stops], stops))


def assemble(model: FeederModel, ratios, stamps: StampSet | None = None) -> AdmittanceSystem:
    """Build the admittance blocks for a validated model at fixed regulator ratios.

    ``ratios`` is a list aligned with ``model.svrs``, each item mapping phase to
    the effective ratio. Constant-admittance shunts are folded onto the diagonal.
    ``stamps`` is ``build_stamps(model)`` for callers that assemble one model at
    many ratios; only the regulator blocks are then computed again.
    """
    if stamps is None:
        stamps = build_stamps(model)
    return _assemble(stamps, [_gain_diag(reg.svr, ratios[reg.index], reg.phases)[None, :]
                              for reg in stamps.regulators], 1)


def assemble_block(stamps: StampSet, ratios: np.ndarray) -> AdmittanceSystem:
    """The admittance blocks at m ratio sets at once.

    ``ratios`` is (m, k): row j is set j over the regulators' phases in
    model order, each ratio finite and nonzero. With m > 1, Y_NS and Y_S
    are block-diagonal, set j's blocks at j times their shape, so one sparse
    product applies each set's blocks at the bits of ``assemble``'s; Y is
    the first set's, and the block needs ``stamps.y_fixed``.
    """
    starts = accumulate((len(r.svr.phases) for r in stamps.regulators), initial=0)
    return _assemble(stamps, [ratios[:, [k + r.svr.phases.index(p) for p in r.phases]]
                              for r, k in zip(stamps.regulators, starts)], len(ratios))


def _assemble(stamps: StampSet, gains, m: int) -> AdmittanceSystem:
    """``assemble_block`` at m sets of regulator ratios; ``gains[k]`` is
    regulator k's (m, s) ratios over its phases."""
    # The moving blocks, stacked in stamp order, then a zero row for the
    # fixed entries' -1 in ``stamps.moving`` to index; np.where drops it.
    moved = np.concatenate([*(_regulator_blocks(r, a) for r, a in zip(stamps.regulators, gains)),
                            np.zeros((1, m))])
    values = stamps.values.copy()
    values[stamps.moving >= 0] = moved[:-1, 0]
    data = _stored_values(stamps, values.__getitem__)
    slots = _slots(stamps)
    blocks = [_with_data(t, data[rows]) for t, rows in zip(stamps.templates, slots)]
    if m > 1:      # only the entries that a stored value sums are gathered for all sets
        blocks[1:] = [_tiled(t, _stored_values(
            stamps, lambda pos: _read_moved(stamps, moved, pos), rows))
            for t, rows in zip(stamps.templates[1:], slots[1:])]
    Y, Y_NS, Y_S = blocks
    return AdmittanceSystem(Y=Y, Y_NS=Y_NS, Y_S=Y_S, stamps=stamps)


def _with_data(t: sp.csc_matrix, data: np.ndarray) -> sp.csc_matrix:
    """Template ``t`` holding ``data``. The template's pattern was checked
    once; scipy's constructor would check it again. Copies of it, so a
    caller cannot write into the stamp set."""
    m = copy.copy(t)
    m.data, m.indices, m.indptr = data, t.indices.copy(), t.indptr.copy()
    return m


def _tiled(t: sp.csc_matrix, data: np.ndarray) -> sp.csc_matrix:
    """Template ``t``'s pattern repeated block-diagonally, block j holding
    column j of ``data`` (stored values, m)."""
    nnz, m = data.shape
    steps = np.arange(m)[:, None]
    return sp.csc_matrix((data.T.ravel(), (t.indices + t.shape[0] * steps).ravel(),
                          np.append((t.indptr[:-1] + nnz * steps).ravel(), m * nnz)),
                         shape=(m * t.shape[0], m * t.shape[1]))


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

