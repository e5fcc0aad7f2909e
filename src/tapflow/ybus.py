"""Sparse bus admittance assembly with ideal-regulator secondary elimination.

Coordinates are (bus, phase) pairs. Regulator secondaries are eliminated from
the retained system using the ideal two-port relations v_primary = A v_secondary,
i_primary = A^-1 i_line (type-B, diagonal real gain A), leaving a reduced Y that
couples the primary directly to the bus behind the regulator's outgoing line.

Assembly has two steps. ``build_stamps`` does the tap-independent work once
per feeder and is the one record of its layout: the coordinate tuples and
each retained bus's rows, the slack voltages, constant-power loads and flat
start over those coordinates, the checked inverse of every line impedance,
one list of stamped entries in stamp order (lines, then regulators, then
shunts, each block row-major), and the final CSC pattern of Y, Y_NS and
Y_S. Each regulator owns one slice of the entry list. The list is placed
with numpy, not entry by entry: an item's entries start at an offset fixed
by the block sizes before it (4 s x s blocks per line or regulator, one
per shunt, s its phase count), and one broadcast fills the rows, columns
and values of all items of one kind and phase set, reading their
coordinates from a (bus, phase) table. ``assemble`` then
computes only the regulator blocks G zinv G, -G zinv and -zinv G (G the
diagonal gain) for the given ratios, writes them into their slices and
scatters the list into the fixed patterns; called without a stamp set it
builds one. Tap sweeps build the stamp set once and pass it to every
``assemble`` call.

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

from dataclasses import dataclass
from itertools import compress, count

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


def _line_inverses(lines) -> list:
    """``_inv`` of every line impedance, one LAPACK call per matrix size.

    If any inverse fails the check, the lines are inverted one by one, so the
    error names the first bad line in the given order.
    """
    out = [None] * len(lines)
    by_size = {}
    for k, ln in enumerate(lines):
        by_size.setdefault(len(ln.z.phases), []).append(k)
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
        return [_inv(ln.z.array, f"line {ln.from_bus}->{ln.to_bus}") for ln in lines]
    return out


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
    holds ``zinv`` four times, the zero pattern of its blocks. The stored
    values of Y, Y_NS and Y_S, concatenated, are ``values[first]`` plus,
    for each ``(slots, take)`` of ``further`` in turn,
    ``values[take]`` added at ``slots``. ``patterns`` holds each matrix's
    shape and CSC ``indices`` and ``indptr``.
    """

    coords: tuple            # retained (bus, phase) in row order
    slack_coords: tuple      # slack (bus, phase) in Y_NS column order
    full_coords: tuple       # every (bus, phase) in Y_S column order
    eliminated: tuple        # bus ids removed by regulator elimination
    bus_rows: tuple          # per retained bus, in model order: (bus, its rows as a slice)
    v_slack: np.ndarray      # slack voltages in Y_NS column order
    loads: np.ndarray        # constant-power consumption per retained row
    v_flat: np.ndarray       # flat start: the slack voltage of each row's phase
    values: np.ndarray
    first: np.ndarray        # per stored value: position of its first summand
    further: tuple           # per further summand rank: (slots, positions)
    patterns: tuple          # per matrix: (shape, indices, indptr)
    regulators: tuple


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
    eliminated = tuple(sv.to_bus for sv in model.svrs)
    elim_set = set(eliminated)
    kept = [not b.is_slack and b.id not in elim_set for b in buses]
    retained = list(compress(buses, kept))
    coords = tuple((b.id, p) for b in retained for p in b.phases)
    slack_coords = tuple((model.slack.id, p) for p in model.slack.phases)
    full_coords = tuple((b.id, p) for b in buses for p in b.phases)

    # at[k, q]: the full coordinate of bus k's phase PHASES[q], -1 if absent.
    pos = {p: q for q, p in enumerate(PHASES)}
    bus_of = {b.id: k for k, b in enumerate(buses)}
    per_bus = [len(b.phases) for b in buses]
    phase_of = np.array([pos[p] for _, p in full_coords], dtype=np.intp)
    at = np.full((len(buses), len(PHASES)), -1, dtype=np.intp)
    at[np.repeat(np.arange(len(buses)), per_bus), phase_of] = np.arange(len(full_coords))
    is_retained = np.repeat(kept, per_bus)
    is_slack = np.repeat([b.is_slack for b in buses], per_bus)

    # Lines whose from-bus is a regulator secondary are handled by elimination.
    plain = [ln for ln in model.lines if ln.from_bus not in elim_set]
    children = tree_index(model).children
    svr_lines = [model.lines[children[sv.to_bus][0].index] for sv in model.svrs]
    shunted = [b for b in buses if b.shunt is not None]
    # Stamped items in stamp order: (kind, phases, first bus, second bus).
    items = ([("line", ln.z.phases, ln.from_bus, ln.to_bus) for ln in plain]
             + [("svr", ln.z.phases, sv.from_bus, ln.to_bus)
                for sv, ln in zip(model.svrs, svr_lines)]
             + [("shunt", b.shunt.phases, b.id, b.id) for b in shunted])
    blocks = _line_inverses(plain + svr_lines) + [b.shunt.array for b in shunted]

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
        q = [pos[p] for p in ph]
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
    v_source[[pos[p] for p in model.slack_voltage.phases]] = model.slack_voltage.values
    # Only a model that fails validation stamps a phase its bus lacks (``at``
    # is -1 there; every stamped coordinate is also a stamped row) or has a
    # bus phase the slack voltage lacks.
    if (rows.size and rows.min() < 0) or np.isnan(v_source[phase_of]).any():
        raise ValueError("model fails validation: a phase has no coordinate or no slack voltage")
    regulators = tuple(
        _RegulatorStamp(svr=sv, index=svx, phases=ln.z.phases, zinv=blocks[k],
                        entries=slice(int(offsets[k]), int(offsets[k + 1])))
        for svx, (sv, ln, k) in enumerate(zip(model.svrs, svr_lines, count(len(plain)))))

    # Route each stored entry once: a slack row goes to Y_S, a slack column
    # to Y_NS, anything else to Y.
    retained_of = np.full(len(full_coords), -1, dtype=np.intp)
    slack_of = np.full(len(full_coords), -1, dtype=np.intp)
    retained_of[is_retained] = np.arange(len(coords))
    slack_of[is_slack] = np.arange(len(slack_coords))
    r_ret, c_ret, r_slack, c_slack = (m[rc] for m in (retained_of, slack_of) for rc in (rows, cols))
    to_s = r_slack >= 0
    to_ns = ~to_s & (c_slack >= 0)
    to_y = ~(to_s | to_ns)
    keep = values != 0.0
    n, ns, nf = len(coords), len(slack_coords), len(full_coords)
    first, further, patterns = _scatter_plan([
        (np.flatnonzero(m), r[m], c[m], shape)
        for m, r, c, shape in zip((to_y & keep, to_ns & keep, to_s & keep),
                                  (r_ret, r_ret, r_slack), (c_ret, c_slack, cols),
                                  ((n, n), (n, ns), (ns, nf)))])

    bus_rows, load_rows, load_values, start = [], [], [], 0
    for b in retained:
        stop = start + len(b.phases)
        bus_rows.append((b, slice(start, stop)))
        if b.load is not None:
            load_rows.extend(range(start, stop) if b.load.phases == b.phases
                             else [start + b.phases.index(p) for p in b.load.phases])
            load_values.append(b.load.values)
        start = stop
    loads = np.zeros(len(coords), dtype=complex)
    if load_values:
        loads[load_rows] = np.concatenate(load_values)
    return StampSet(coords=coords, slack_coords=slack_coords, full_coords=full_coords,
                    eliminated=eliminated, bus_rows=tuple(bus_rows),
                    v_slack=v_source[phase_of[is_slack]], loads=loads,
                    v_flat=v_source[phase_of[is_retained]],
                    values=values, first=first, further=further, patterns=patterns,
                    regulators=regulators)


def _scatter_plan(targets):
    """How entries of the stamp list sum into the CSC matrices that
    ``coo_matrix.tocsc`` builds from them, for each ``(take, rows, cols,
    shape)`` target: the entries ``take`` at ``rows`` and ``cols``.

    Returns ``StampSet``'s ``first``, ``further`` and ``patterns``.
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
    patterns = tuple((m.shape, m.indices[new[off:off + m.nnz]],
                      (opened[m.indptr + off] - opened[off]).astype(m.indptr.dtype))
                     for m, off in zip(markers, offsets))
    return take[new], tuple(further), patterns


def assemble(model: FeederModel, ratios, stamps: StampSet | None = None) -> AdmittanceSystem:
    """Build the admittance blocks for a validated model at fixed regulator ratios.

    ``ratios`` is a list aligned with ``model.svrs``, each item mapping phase to
    the effective ratio. Constant-admittance shunts are folded onto the diagonal.
    ``stamps`` is ``build_stamps(model)`` for callers that assemble one model at
    many ratios; only the regulator blocks are then computed again.
    """
    if stamps is None:
        stamps = build_stamps(model)
    values = stamps.values.copy()
    for reg in stamps.regulators:
        a = _gain_diag(reg.svr, ratios[reg.index], reg.phases)
        # Type-B: v_n = A v_n', so v_n' = A^-1 v_n. Type-A mirrors the gain.
        g = (1.0 / a) if reg.svr.kind == "B" else a
        G = np.diag(g)
        zinv = reg.zinv
        values[reg.entries] = np.concatenate(
            [(G @ zinv @ G).ravel(), -(G @ zinv).ravel(), -(zinv @ G).ravel(), zinv.ravel()])

    # Sum duplicates left to right in scipy's order; see ``_scatter_plan``.
    data = values[stamps.first]
    for slots, take in stamps.further:
        data[slots] += values[take]
    blocks, start = [], 0
    for shape, indices, indptr in stamps.patterns:
        stop = start + len(indices)
        # Copies of the pattern, so a caller cannot write into the stamp set.
        m = sp.csc_matrix((data[start:stop], indices.copy(), indptr.copy()), shape=shape)
        m.has_canonical_format = True
        blocks.append(m)
        start = stop
    Y, Y_NS, Y_S = blocks
    return AdmittanceSystem(Y=Y, Y_NS=Y_NS, Y_S=Y_S, stamps=stamps)


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

