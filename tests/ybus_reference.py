"""Reference version of the admittance assembly the library now does in two steps.

``loop_assemble`` is the per-entry stamping loop that built every block of
Y, Y_NS and Y_S from scratch for each call, before ``ybus.assemble`` split
the work into a stamp set built once per feeder and a per-ratio step that
restamps only the regulator blocks. For the same model and ratios both must
return byte-equal CSC matrices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from tapflow.network import FeederModel, tree_index
from tapflow.ybus import _gain_diag, _inv


@dataclass(frozen=True)
class LoopSystem:
    """``loop_assemble``'s blocks with the coordinate layout it built for them."""

    Y: sp.csc_matrix
    Y_NS: sp.csc_matrix
    Y_S: sp.csc_matrix
    coords: tuple
    slack_coords: tuple
    full_coords: tuple
    eliminated: tuple


def loop_assemble(model: FeederModel, ratios) -> LoopSystem:
    """Build the admittance blocks for a validated model at fixed regulator ratios.

    ``ratios`` is a list aligned with ``model.svrs``, each item mapping phase to
    the effective ratio. Constant-admittance shunts are folded onto the diagonal.
    """
    eliminated = tuple(sv.to_bus for sv in model.svrs)
    elim_set = set(eliminated)
    slack_id = model.slack.id

    coords = [(b.id, p) for b in model.buses if not b.is_slack and b.id not in elim_set
              for p in b.phases]
    slack_coords = [(slack_id, p) for p in model.slack.phases]
    full_coords = [(b.id, p) for b in model.buses for p in b.phases]
    row = {c: i for i, c in enumerate(coords)}
    scol = {c: i for i, c in enumerate(slack_coords)}
    fcol = {c: i for i, c in enumerate(full_coords)}

    n, ns, nf = len(coords), len(slack_coords), len(full_coords)
    yv, yi, yj = [], [], []          # retained block
    bv, bi, bj = [], [], []          # retained x slack
    sv_, si, sj = [], [], []         # slack rows x full

    def stamp(bus_r: str, bus_c: str, phases_r, phases_c, block: np.ndarray):
        for a, pr in enumerate(phases_r):
            for b, pc in enumerate(phases_c):
                val = block[a, b]
                if val == 0.0:
                    continue
                if bus_r == slack_id:
                    si.append(scol[(bus_r, pr)])
                    sj.append(fcol[(bus_c, pc)])
                    sv_.append(val)
                elif bus_c == slack_id:
                    bi.append(row[(bus_r, pr)])
                    bj.append(scol[(bus_c, pc)])
                    bv.append(val)
                else:
                    yi.append(row[(bus_r, pr)])
                    yj.append(row[(bus_c, pc)])
                    yv.append(val)

    # Lines whose from-bus is a regulator secondary are handled by elimination.
    svr_line = {}
    idx = tree_index(model)
    for svx, sv in enumerate(model.svrs):
        outs = idx.children[sv.to_bus]
        svr_line[svx] = model.lines[outs[0].index]

    for ln in model.lines:
        if ln.from_bus in elim_set:
            continue
        ph = ln.z.phases
        zinv = _inv(ln.z.array, f"line {ln.from_bus}->{ln.to_bus}")
        stamp(ln.from_bus, ln.from_bus, ph, ph, zinv)
        stamp(ln.to_bus, ln.to_bus, ph, ph, zinv)
        stamp(ln.from_bus, ln.to_bus, ph, ph, -zinv)
        stamp(ln.to_bus, ln.from_bus, ph, ph, -zinv)

    for svx, sv in enumerate(model.svrs):
        line = svr_line[svx]
        ph = line.z.phases   # current-carrying phases through the regulator
        zinv = _inv(line.z.array, f"line {line.from_bus}->{line.to_bus}")
        a = _gain_diag(sv, ratios[svx], ph)
        # Type-B: v_n = A v_n', so v_n' = A^-1 v_n. Type-A mirrors the gain.
        g = (1.0 / a) if sv.kind == "B" else a
        G = np.diag(g)
        nbus, mbus = sv.from_bus, line.to_bus
        stamp(nbus, nbus, ph, ph, G @ zinv @ G)
        stamp(nbus, mbus, ph, ph, -(G @ zinv))
        stamp(mbus, nbus, ph, ph, -(zinv @ G))
        stamp(mbus, mbus, ph, ph, zinv)

    for b in model.buses:
        if b.shunt is None:
            continue
        stamp(b.id, b.id, b.shunt.phases, b.shunt.phases, b.shunt.array)

    Y = sp.coo_matrix((yv, (yi, yj)), shape=(n, n), dtype=complex).tocsc()
    Y_NS = sp.coo_matrix((bv, (bi, bj)), shape=(n, ns), dtype=complex).tocsc()
    Y_S = sp.coo_matrix((sv_, (si, sj)), shape=(ns, nf), dtype=complex).tocsc()
    return LoopSystem(
        Y=Y, Y_NS=Y_NS, Y_S=Y_S,
        coords=tuple(coords), slack_coords=tuple(slack_coords),
        full_coords=tuple(full_coords), eliminated=eliminated,
    )
