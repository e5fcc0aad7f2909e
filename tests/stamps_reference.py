"""Reference version of the stamp-set build the library now does in one pass.

``build_stamps`` here is the build before the lines were read once into one
grouping by phase set: it builds the layout with ``build_layout``, inverts
the lines grouped by matrix size in stamp order (``_line_inverses``), places
the stamps in one broadcast per (kind, phase set), converts three marker
matrices in ``_scatter_plan`` and finds each regulator's outgoing line with
a ``tree_index`` of frozen-dataclass edges that builds its order and parent
map eagerly. ``ybus.build_stamps`` must give a bit-equal stamp set for the
same model, and ``network.tree_index`` the same root. The scatter plan
(``first``, ``further`` and ``templates``) is the one ``ybus`` kept until
each assembly let scipy convert the entries itself; it is kept here as the
record of that emulation, and the library's stamp set has no such fields to
compare. The other reference
modules walk the tree through this ``tree_index``, so they do not depend on
the code under test. Y's rows are numbered by ``leaves_first``, from depths
counted down this tree, not from the layout's.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, compress, count

import numpy as np
import scipy.sparse as sp

from tapflow.network import PHASES, FeederModel, SvrSpec
from tapflow.ybus import _inv

@dataclass(frozen=True)
class Edge:
    """A series element in tree context: kind is 'line' or 'svr', index into the model."""

    kind: str
    index: int
    from_bus: str
    to_bus: str
    phases: tuple[str, ...]

    def key(self) -> str:
        return f"{self.from_bus}->{self.to_bus}"


@dataclass(frozen=True)
class TreeIndex:
    """Parent/child maps and a root-first bus ordering for a validated model."""

    root: str
    order: tuple[str, ...]                 # buses, root first, parents before children
    parent: dict                           # bus id -> Edge (absent for root)
    children: dict                         # bus id -> tuple of Edge
    edges: tuple[Edge, ...]                # all edges, model order: lines then svrs


def tree_index(model: FeederModel) -> TreeIndex:
    """Build the traversal index; the model must already be valid."""
    edges = [Edge("line", i, ln.from_bus, ln.to_bus, ln.z.phases)
             for i, ln in enumerate(model.lines)]
    edges += [Edge("svr", i, sv.from_bus, sv.to_bus, sv.phases)
              for i, sv in enumerate(model.svrs)]
    children: dict[str, list[Edge]] = {b.id: [] for b in model.buses}
    parent: dict[str, Edge] = {}
    for e in edges:
        children[e.from_bus].append(e)
        parent[e.to_bus] = e
    root = model.slack.id
    order = []
    stack = [root]
    while stack:
        node = stack.pop()
        order.append(node)
        stack.extend(e.to_bus for e in reversed(children[node]))
    return TreeIndex(
        root=root,
        order=tuple(order),
        parent=parent,
        children={k: tuple(v) for k, v in children.items()},
        edges=tuple(edges),
    )


def depths(model: FeederModel) -> dict:
    """bus id -> its depth, counted down the tree from its root."""
    idx = tree_index(model)
    depth = {idx.root: 0}
    for bus in idx.order[1:]:                # parents before children
        depth[bus] = depth[idx.parent[bus].from_bus] + 1
    return depth


def leaves_first(model: FeederModel, coords) -> tuple:
    """``coords``, the retained (bus, phase) in model order, as Y's rows:
    leaves first, sorted stably by descending depth of their bus."""
    depth = depths(model)
    return tuple(sorted(coords, key=lambda c: -depth[c[0]]))


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
    cols: list               # the ratio row's columns of the line's phases
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
    moves_y: np.ndarray      # (k,) per ratio column: a block that moves with it lands in Y


def build_stamps(model: FeederModel) -> StampSet:
    """Invert every line impedance of a validated model and place its stamps.

    Raises ``ValueError`` on a singular line impedance, and on a model whose
    phases fail validation so that a stamp would land on another coordinate.
    """
    buses = model.buses
    layout = build_layout(model)
    at, bus_of = layout.at, layout.bus_of
    elim_set = {sv.to_bus for sv in model.svrs}
    kept = np.array([not b.is_slack and b.id not in elim_set for b in buses], dtype=bool)
    retained = list(compress(buses, kept))
    in_model_order = tuple((b.id, p) for b in retained for p in b.phases)
    coords = leaves_first(model, in_model_order)
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
    # The ratio row holds each regulator's phases in turn.
    regulators = tuple(
        _RegulatorStamp(svr=sv, cols=[c + sv.phases.index(p) for p in lines[ln].z.phases],
                        zinv=zinv[ln], entries=slice(int(offsets[k]), int(offsets[k + 1])))
        for sv, c, ln, k in zip(model.svrs, accumulate((len(sv.phases) for sv in model.svrs),
                                                       initial=0),
                                layout.svr_lines, count(len(plain))))

    # Route each stored entry once: a slack row goes to Y_S, a slack column
    # to Y_NS, anything else to Y.
    full_index = {c: i for i, c in enumerate(full_coords)}
    rows_at = np.array([full_index[c] for c in coords], dtype=np.intp)
    retained_of = np.full(len(full_coords), -1)
    retained_of[rows_at] = np.arange(len(coords))
    slack_of = np.where(is_slack, np.cumsum(is_slack) - 1, -1)
    r_ret, c_ret, r_slack, c_slack = (m[rc] for m in (retained_of, slack_of) for rc in (rows, cols))
    to_s = r_slack >= 0
    to_ns = ~to_s & (c_slack >= 0)
    to_y = ~(to_s | to_ns)
    keep = values != 0.0
    # G zinv G, -G zinv and -zinv G fill a regulator's first three blocks.
    moves = np.zeros(len(values), dtype=bool)
    for r in regulators:
        moves[r.entries.start:r.entries.stop - r.zinv.size] = True
    # A ratio moves Y when its phase is on its regulator's line and the
    # regulator's primary is not the slack bus.
    moves_y = np.zeros(sum(len(sv.phases) for sv in model.svrs), dtype=bool)
    for r in regulators:
        moves_y[r.cols] = r.svr.from_bus != model.slack.id
    n, ns, nf = len(coords), len(slack_coords), len(full_coords)
    first, further, templates = _scatter_plan([
        (np.flatnonzero(m), r[m], c[m], shape)
        for m, r, c, shape in zip((to_y & keep, to_ns & keep, to_s & keep),
                                  (r_ret, r_ret, r_slack), (c_ret, c_slack, cols),
                                  ((n, n), (n, ns), (ns, nf)))])

    # Model-order position of each row, for the per-row arrays.
    model_row = dict(zip(in_model_order, count()))
    moved = [model_row[c] for c in coords]
    return StampSet(coords=coords, slack_coords=slack_coords, full_coords=full_coords,
                    full_of=(rows_at, np.flatnonzero(is_slack)),
                    v_slack=v_source[phase_of[is_slack]],
                    loads=layout.load[kept][at[kept] >= 0][moved],
                    v_flat=v_source[phase_of[is_retained]][moved],
                    values=values, moving=np.where(moves, np.cumsum(moves) - 1, -1),
                    first=first, further=further, templates=templates,
                    regulators=regulators, layout=layout, zinv=zinv, moves_y=moves_y)


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
