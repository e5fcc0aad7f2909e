"""Sparse bus admittance assembly with ideal-regulator secondary elimination.

Coordinates are (bus, phase) pairs. Regulator secondaries are eliminated from
the retained system using the ideal two-port relations v_primary = A v_secondary,
i_primary = A^-1 i_line (type-B, diagonal real gain A), leaving a reduced Y that
couples the primary directly to the bus behind the regulator's outgoing line.

Assembly has two steps. ``build_stamps`` does the tap-independent work once
per feeder and is the one record of its layout: the coordinate tuples and
the retained-row index, the slack voltages, constant-power loads and flat
start over those coordinates, the checked inverse of every line impedance,
the line and shunt stamps as (row, column, value) triplets, and for each
regulator its outgoing line's inverse and the target slots of its four
blocks. ``assemble`` then computes only the regulator blocks G zinv G,
-G zinv and -zinv G (G the diagonal gain) for the given ratios and builds
Y, Y_NS and Y_S; called without a stamp set it builds one.
Tap sweeps build the stamp set once and pass it to every ``assemble`` call.
Exact zeros are not stored, and the triplets are always emitted in one
order (lines, regulators, shunts), so the CSC matrices are bit-identical
whether or not the stamp set was reused.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .network import FeederModel, PhaseVector, SvrSpec, tree_index


def _gain_diag(svr, ratios, phases) -> np.ndarray:
    missing = [p for p in phases if p not in ratios]
    if missing:
        raise ValueError(f"svr {svr.from_bus}->{svr.to_bus}: no ratio for phase(s) {missing}")
    return np.array([float(ratios[p]) for p in phases])


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


# The three blocks a stamp lands in: retained x retained, retained x slack,
# slack x full.
_Y, _Y_NS, _Y_S = range(3)


@dataclass(frozen=True)
class _RegulatorStamp:
    """A regulator's tap-independent data: the inverted impedance of its
    outgoing line and where each of its four blocks lands."""

    svr: SvrSpec
    index: int               # position in ``model.svrs`` and in ``ratios``
    phases: tuple            # current-carrying phases through the regulator
    zinv: np.ndarray
    slots: tuple             # (target, rows, cols) of the G zinv G, -G zinv,
                             # -zinv G and zinv blocks, in that order


@dataclass(frozen=True)
class StampSet:
    """The tap-independent part of a feeder's admittance assembly and power flow.

    ``lines`` and ``shunts`` hold one (rows, cols, values) triplet per target
    block; a regulator's blocks are recomputed for each set of ratios.
    """

    coords: tuple            # retained (bus, phase) in row order
    slack_coords: tuple      # slack (bus, phase) in Y_NS column order
    full_coords: tuple       # every (bus, phase) in Y_S column order
    eliminated: tuple        # bus ids removed by regulator elimination
    row: dict                # retained (bus, phase) -> row
    v_slack: np.ndarray      # slack voltages in Y_NS column order
    loads: np.ndarray        # constant-power consumption per retained row
    v_flat: np.ndarray       # flat start: the slack voltage of each row's phase
    lines: tuple
    regulators: tuple
    shunts: tuple


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

    Raises ``ValueError`` on a singular line impedance.
    """
    eliminated = tuple(sv.to_bus for sv in model.svrs)
    elim_set = set(eliminated)
    slack_id = model.slack.id

    retained = [b for b in model.buses if not b.is_slack and b.id not in elim_set]
    coords = tuple((b.id, p) for b in retained for p in b.phases)
    slack_coords = tuple((slack_id, p) for p in model.slack.phases)
    full_coords = tuple((b.id, p) for b in model.buses for p in b.phases)
    row = {c: i for i, c in enumerate(coords)}
    scol = {c: i for i, c in enumerate(slack_coords)}
    fcol = {c: i for i, c in enumerate(full_coords)}

    def slots(bus_r: str, bus_c: str, phases_r, phases_c) -> tuple[int, list, list]:
        # A block lands in one target; its entries are listed row-major.
        if bus_r == slack_id:
            target, rmap, cmap = _Y_S, scol, fcol
        elif bus_c == slack_id:
            target, rmap, cmap = _Y_NS, row, scol
        else:
            target, rmap, cmap = _Y, row, row
        ri = [rmap[(bus_r, p)] for p in phases_r]
        ci = [cmap[(bus_c, p)] for p in phases_c]
        return target, [r for r in ri for _ in ci], ci * len(ri)

    def triplets(blocks) -> tuple:
        # One (rows, cols, values) triplet per target, blocks in the given order.
        parts = [([], [], []) for _ in range(3)]
        for (target, rows, cols), block in blocks:
            parts[target][0].extend(rows)
            parts[target][1].extend(cols)
            parts[target][2].append(block.ravel())
        return tuple((np.array(rows, dtype=np.intp), np.array(cols, dtype=np.intp),
                      np.concatenate(vals) if vals else np.empty(0, dtype=complex))
                     for rows, cols, vals in parts)

    # Lines whose from-bus is a regulator secondary are handled by elimination.
    plain = [ln for ln in model.lines if ln.from_bus not in elim_set]
    children = tree_index(model).children
    svr_lines = [model.lines[children[sv.to_bus][0].index] for sv in model.svrs]
    inverses = _line_inverses(plain + svr_lines)

    line_blocks = []
    for ln, zinv in zip(plain, inverses):
        ph = ln.z.phases
        line_blocks += [(slots(ln.from_bus, ln.from_bus, ph, ph), zinv),
                        (slots(ln.to_bus, ln.to_bus, ph, ph), zinv),
                        (slots(ln.from_bus, ln.to_bus, ph, ph), -zinv),
                        (slots(ln.to_bus, ln.from_bus, ph, ph), -zinv)]

    regulators = []
    for svx, (sv, line, zinv) in enumerate(zip(model.svrs, svr_lines, inverses[len(plain):])):
        ph = line.z.phases
        nbus, mbus = sv.from_bus, line.to_bus
        blocks = (slots(nbus, nbus, ph, ph), slots(nbus, mbus, ph, ph),
                  slots(mbus, nbus, ph, ph), slots(mbus, mbus, ph, ph))
        regulators.append(_RegulatorStamp(
            svr=sv, index=svx, phases=ph, zinv=zinv,
            slots=tuple((target, np.array(rows, dtype=np.intp), np.array(cols, dtype=np.intp))
                        for target, rows, cols in blocks)))

    shunt_blocks = [(slots(b.id, b.id, b.shunt.phases, b.shunt.phases), b.shunt.array)
                    for b in model.buses if b.shunt is not None]

    loads = np.array([b.load[p] if b.load is not None and p in b.load else 0.0
                      for b in retained for p in b.phases], dtype=complex)
    return StampSet(coords=coords, slack_coords=slack_coords, full_coords=full_coords,
                    eliminated=eliminated, row=row,
                    v_slack=np.array([model.slack_voltage[p] for _, p in slack_coords]),
                    loads=loads, v_flat=np.array([model.slack_voltage[p] for _, p in coords]),
                    lines=triplets(line_blocks), regulators=tuple(regulators),
                    shunts=triplets(shunt_blocks))


def assemble(model: FeederModel, ratios, stamps: StampSet | None = None) -> AdmittanceSystem:
    """Build the admittance blocks for a validated model at fixed regulator ratios.

    ``ratios`` is a list aligned with ``model.svrs``, each item mapping phase to
    the effective ratio. Constant-admittance shunts are folded onto the diagonal.
    ``stamps`` is ``build_stamps(model)`` for callers that assemble one model at
    many ratios; only the regulator blocks are then computed again.
    """
    if stamps is None:
        stamps = build_stamps(model)
    # Per target: lines, then regulators, then shunts, each block row-major.
    # This order fixes how duplicate entries are summed, so it fixes the bits.
    parts = [[fixed] for fixed in stamps.lines]
    for reg in stamps.regulators:
        a = _gain_diag(reg.svr, ratios[reg.index], reg.phases)
        # Type-B: v_n = A v_n', so v_n' = A^-1 v_n. Type-A mirrors the gain.
        g = (1.0 / a) if reg.svr.kind == "B" else a
        G = np.diag(g)
        zinv = reg.zinv
        blocks = (G @ zinv @ G, -(G @ zinv), -(zinv @ G), zinv)
        for (target, rows, cols), block in zip(reg.slots, blocks):
            parts[target].append((rows, cols, block.ravel()))
    for target, fixed in enumerate(stamps.shunts):
        parts[target].append(fixed)

    n, ns, nf = len(stamps.coords), len(stamps.slack_coords), len(stamps.full_coords)
    Y, Y_NS, Y_S = (_csc(part, shape) for part, shape in
                    zip(parts, ((n, n), (n, ns), (ns, nf))))
    return AdmittanceSystem(Y=Y, Y_NS=Y_NS, Y_S=Y_S, stamps=stamps)


def _csc(parts, shape) -> sp.csc_matrix:
    rows, cols, vals = (np.concatenate(column) for column in zip(*parts))
    keep = vals != 0.0            # exact zeros are not stored
    return sp.coo_matrix((vals[keep], (rows[keep], cols[keep])), shape=shape,
                         dtype=complex).tocsc()


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

