"""Exact nonlinear power flow via Z-bus fixed-point iteration, plus metrics.

The iteration solves Y v = i(v) - Y_NS v_S with constant-power injections
re-evaluated at the previous iterate and constant-admittance shunts folded
into Y. Convergence requires both a small voltage update and a small
Kirchhoff current residual, so every converged solution carries an
independent physics certificate. The loads, slack voltages, flat start
and the line inverses come from the feeder's stamp set
(``ybus.StampSet``) and its layout, built once per feeder, so a solve or a
metric rebuilds none of them. The stamp set also places every stamped
entry, so a solve at new taps only recomputes the regulator blocks and
lets scipy convert the entries once. Each solve, or each block of tap
sets, factors Y once; the stamp set keeps no factorization.

Y is numbered leaves first by its stamp set, the order in which a radial
feeder's elimination makes no fill-in (Tinney and Walker, 1967), and is
factored as assembled (``_TREE_SPLU``): no column ordering, one column per
panel, keeping diagonal pivots down to a tenth of their column's largest
entry, and no gather, sort or permutation of Y or of a right-hand side. This
gives the solve of Y in model order with COLAMD's column order and partial
pivoting within rounding: on tiny3, IEEE-13 and generated feeders of 15-5000
buses at taps -8..8, the same steps and verdict, voltages within 1e-10 p.u.
and imports within a relative 1e-10 (``tests/test_zbus.py``).

The iteration is one kernel over an (n, m) block of columns, with one
multi-column LU solve per step, each column stopping on its own
(``_fixed_point``). One core, ``_solve``, runs it from a flat start, on one
ratio row for ``solve_zbus`` and on many for a tap sweep (``solve_block``),
whose rows agree on every ratio that moves Y (``StampSet.moves_y``) and so
share Y and its factorization. Both take ratios as ``ybus`` rows over the
regulator phases, ``solve_zbus`` through ``assemble``, which converts its
per-regulator maps. The secondaries take the rows in
``AdmittanceSystem.ratios`` as they are, one ratio per regulator phase and
so per secondary phase; the edge-wise import indexes them with the layout's
regulator rows and reads the slack voltage from the layout, as every metric
does. Only the per-bus view and the conversion of ratio maps read the
model, at the boundary; the CSV names ``v``'s entries with the stamp set's
``full_coords``.

Voltages are kept as arrays over the stamp set's full coordinates, which
run bus by bus in model order: the slack, the retained rows and the
regulator secondaries, each in its model place (``_full_voltages``). Each
metric has one implementation that reads them, for one solve or for every
column of a block (``block_metrics``). A ``PowerFlowSolution`` is always a
solve's result: it holds the solve's array ``v`` and its system. Its per-bus
``voltages`` dict, for readers at the boundary, is built only when read, as
a split of ``v`` in model order. Its vectors skip ``PhaseVector``'s
canonicalisation and finiteness check: bus phases are canonical
(``BusSpec`` sorts them), every solve starts flat (``StampSet.v_flat``), the
iteration keeps only finite iterates and a secondary that is not finite
raises.
"""

from __future__ import annotations

import cmath
import io
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.sparse.linalg import splu

from .errors import PipelineError
from .network import FeederModel, PhaseVector
from .ybus import AdmittanceSystem, StampSet, assemble, assemble_block, recover_svr_secondary

DEFAULT_TOL = 1e-9
DEFAULT_MAX_ITER = 200
_KCL_TOL = 5e-9   # stop threshold; comfortably under the 1e-8 certificate
# splu's settings for a Y numbered leaves first: no column ordering, so the
# factorization keeps that order; a diagonal pivot kept down to 0.1 of its
# column's largest entry, since the order is fill-free only with diagonal
# pivots (a smaller diagonal still swaps rows); and one column per panel:
# the supernodes are small, mostly one bus's 1-3 columns, so a wider panel
# only adds sweeps over its work arrays (at 1390 rows the factorization
# took 1.96 ms with SuperLU's default panel and 1.05 ms with one column).
_TREE_SPLU = {"permc_spec": "NATURAL", "diag_pivot_thresh": 0.1, "panel_size": 1,
              "options": {"SymmetricMode": True}}


@dataclass(eq=False)
class PowerFlowSolution:
    """A Z-bus solve's voltages with convergence diagnostics."""

    v: np.ndarray = field(repr=False)   # voltages over ``system.stamps.full_coords``
    iterations: int
    residual: float                     # inf-norm of the KCL current mismatch
    converged: bool
    system: AdmittanceSystem = field(repr=False)
    model: FeederModel = field(repr=False)

    @cached_property
    def voltages(self) -> dict:
        """bus id -> PhaseVector in model order, built on first read: each
        bus's vector is a view of its slice of ``v``, whose full coordinates
        run bus by bus in model order."""
        stops = np.cumsum(np.count_nonzero(self.system.stamps.layout.at >= 0, axis=1)).tolist()
        return {b.id: PhaseVector._wrap(b.phases, self.v[stop - len(b.phases):stop])
                for b, stop in zip(self.model.buses, stops)}


def _load_currents(loads: np.ndarray, v: np.ndarray) -> np.ndarray:
    # Consumption-positive load L draws i = -conj(L / v) from the bus.
    return -np.conj(loads / v)


def _kcl_residual(Y, loads: np.ndarray, w_s: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Inf-norm of the KCL current mismatch Y v + w_s - i(v), w_s = Y_NS v_S,
    per column of ``v``; ``loads`` broadcasts against ``v``."""
    return np.abs(Y @ v + w_s - _load_currents(loads, v)).max(axis=0, initial=0.0)


def _fixed_point(lu, Y, loads: np.ndarray, w_s: np.ndarray, v: np.ndarray, tol: float,
                 max_iter: int) -> tuple:
    """Iterate v <- Y^-1 (i(v) - w_s) on each column of the (n, m) blocks
    ``w_s`` and ``v`` (the start), with one multi-column solve per step.

    A column stops when its update is below ``tol`` and its KCL residual is
    at most ``_KCL_TOL`` (converged), when its update is not finite (at its
    last finite iterate, unconverged) or after ``max_iter`` steps. Returns
    each column's final iterate, steps, residual and converged flag.
    ``_solve`` has checked ``tol``.
    """
    m = w_s.shape[1]
    out = np.empty_like(w_s)
    iterations = np.full(m, max_iter)
    residual = np.empty(m)
    converged = np.zeros(m, dtype=bool)
    loads = loads[:, None]
    live, w = np.arange(m), w_s           # the running columns, and theirs of w_s
    # A diverging iterate may overflow; it is caught as non-finite and dropped,
    # and the residual of the last finite iterate may be inf or NaN.
    with np.errstate(all="ignore"):
        for it in range(1, max_iter + 1):
            v_new = lu.solve(_load_currents(loads, v) - w)
            # A non-finite component of v_new, or a change too large to
            # represent, makes delta NaN or inf.
            delta = np.abs(v_new - v).max(axis=0, initial=0.0)
            # The sum is finite unless a delta is NaN or inf, or it overflows.
            d = delta.tolist()
            if math.isfinite(sum(d)) and tol <= min(d):
                v = v_new                # no column stops or checks its residual
                continue
            # Stop at the last finite iterate, or converged: small update, KCL holds.
            bad = ~np.isfinite(delta)
            np.copyto(v_new, v, where=bad)
            v = v_new
            small = delta < tol
            res = np.full(len(live), np.inf)
            res[small] = _kcl_residual(Y, loads, w[:, small], v[:, small])
            ok = res <= _KCL_TOL
            stop = bad | ok
            j = live[stop]
            out[:, j], iterations[j], residual[j], converged[j] = v[:, stop], it, res[stop], ok[stop]
            if len(j) == len(live):      # the last running columns stop
                break
            live, v, w = live[~stop], v[:, ~stop], w[:, ~stop]
        else:
            out[:, live] = v
        if not converged.all():
            rest = ~converged
            residual[rest] = _kcl_residual(Y, loads, w_s[:, rest], out[:, rest])
    return out, iterations, residual, converged


def _solve(system: AdmittanceSystem, tol: float, max_iter: int) -> tuple:
    """``_fixed_point`` on ``system`` from a flat start, column j at ratio
    row j; m > 1 columns share Y's factorization, so their rows must agree
    on every ratio that moves Y (``StampSet.moves_y``)."""
    if not tol > 0:      # also rejects NaN
        raise ValueError("tol must be positive")
    st, r = system.stamps, system.ratios
    n, m = len(st.v_flat), len(r)
    if m > 1 and (r[:, st.moves_y] != r[0, st.moves_y]).any():
        raise ValueError("a block of ratio sets must agree on every ratio that moves Y")
    v_s = st.v_slack if m == 1 else np.tile(st.v_slack, m)   # Y_NS is block-diagonal
    w_s = (system.Y_NS @ v_s).reshape(m, n).T
    start = np.broadcast_to(st.v_flat[:, None], (n, m))
    try:
        lu = splu(system.Y, **_TREE_SPLU)
    except RuntimeError as exc:
        raise PipelineError("powerflow", f"admittance matrix is singular: {exc}") from None
    return _fixed_point(lu, system.Y, st.loads, w_s, start, tol, max_iter)


def solve_zbus(model: FeederModel, ratios, tol: float = DEFAULT_TOL,
               max_iter: int = DEFAULT_MAX_ITER,
               stamps: StampSet | None = None) -> PowerFlowSolution:
    """Run the fixed-point iteration at fixed regulator ratios, from a flat
    start at the slack voltage.

    ``ratios`` is a list aligned with ``model.svrs`` mapping phase -> ratio.
    ``stamps`` is ``ybus.build_stamps(model)``, passed by callers that solve
    one model at many ratios. An update that is not finite ends the iteration
    unconverged at the last finite iterate.
    """
    system = assemble(model, ratios, stamps=stamps)
    st = system.stamps
    out, iterations, residual, converged = _solve(system, tol, max_iter)
    full = _full_voltages(st, out, system.ratios.T)[0]
    solution = PowerFlowSolution(
        v=full, iterations=int(iterations[0]), residual=float(residual[0]),
        converged=bool(converged[0]), system=system, model=model,
    )
    # A secondary voltage that is not finite: recovery raises its error.
    if not np.isfinite(full[st.secondaries[0]]).all():
        recover_svr_secondary(model, ratios, solution.voltages)
    return solution


def _full_voltages(stamps: StampSet, v: np.ndarray, r: np.ndarray) -> np.ndarray:
    """(m, nf) voltages over the full coordinates from the m iterates ``v``
    (n, m), ``r`` (k, m) the ratio rows, one ratio per regulator phase and
    so per secondary phase (``StampSet.secondaries``): the
    slack, the retained rows, and the secondaries as ``recover_svr_secondary``
    has them, from the primary's voltage divided (type B) or multiplied by
    the ratio. A part that overflows is left infinite, with no warning."""
    sec_at, prim_at, type_b = stamps.secondaries
    retained_at, slack_at = stamps.full_of
    full = np.empty((v.shape[1], stamps.shapes[2][1]), dtype=complex)
    full[:, slack_at] = stamps.v_slack
    full[:, retained_at] = v.T
    a = full[:, prim_at].T
    sec = np.empty(a.shape, dtype=complex)
    # Python's complex arithmetic with the ratio as r + 0j, step by step, so
    # that the signs of zero parts match too: the product for type A, the
    # quotient with q = 0 / r and denominator r + 0 q for type B.
    with np.errstate(all="ignore"):
        q = 0.0 / r
        d = r + 0.0 * q
        sec.real = np.where(type_b, (a.real + a.imag * q) / d, a.real * r - a.imag * 0.0)
        sec.imag = np.where(type_b, (a.imag - a.real * q) / d, a.real * 0.0 + a.imag * r)
    full[:, sec_at] = sec.T
    return full


@dataclass(frozen=True)
class BlockSolution:
    """The fixed-point results of m ratio rows on one stamp set; column or
    entry j is row j."""

    v: np.ndarray              # (n, m) final iterates over the stamp set's coords
    iterations: np.ndarray
    residual: np.ndarray
    converged: np.ndarray
    system: AdmittanceSystem   # the ratio rows, block-diagonal Y_NS and Y_S
                               # (``ybus.assemble_block``)


def solve_block(stamps: StampSet, ratios: np.ndarray,
                tol: float = DEFAULT_TOL, max_iter: int = DEFAULT_MAX_ITER) -> BlockSolution:
    """``solve_zbus`` from a flat start at each ratio row of ``ratios`` (m, k)
    (``ybus.assemble_block``), as one iteration over m columns.

    The rows share one factorization of Y, so they must agree on every
    ratio that moves Y (``stamps.moves_y``), else ``ValueError``.
    """
    system = assemble_block(stamps, ratios)
    v, iterations, residual, converged = _solve(system, tol, max_iter)
    return BlockSolution(v=v, iterations=iterations, residual=residual, converged=converged,
                         system=system)


def block_metrics(block: BlockSolution, v_min: float,
                  v_max: float) -> tuple[np.ndarray, np.ndarray]:
    """``feasibility`` and ``import_objective`` at each converged column of
    ``block``, with the one-solve metrics' code; False and NaN elsewhere.

    A column that did not converge is zeroed first, so no metric meets a
    diverged iterate.
    """
    st, ok = block.system.stamps, block.converged
    full = _full_voltages(st, block.v, block.system.ratios.T)
    full[~ok] = 0.0
    lo, hi = _envelope(np.abs(full[:, st.nonslack_at]))
    return ok & (v_min <= lo) & (hi <= v_max), np.where(ok, _import(block.system, full), np.nan)


def _require_converged(solution: PowerFlowSolution):
    if not solution.converged:
        raise ValueError("power flow did not converge; metrics would be meaningless")


def _import(system: AdmittanceSystem, full: np.ndarray) -> np.ndarray:
    """Slack import at each row of ``full`` (m, nf); with m > 1, Y_S is
    block-diagonal over the rows (``ybus.assemble_block``)."""
    i_s = (system.Y_S @ full.ravel()).reshape(len(full), -1)
    return (system.stamps.v_slack * np.conj(i_s)).real.sum(axis=1)


def import_objective(solution: PowerFlowSolution, model: FeederModel) -> float:
    """Real power import at the slack bus from the admittance-matrix form."""
    _require_converged(solution)
    return float(_import(solution.system, solution.v[None])[0])


def import_objective_edges(solution: PowerFlowSolution, model: FeederModel) -> float:
    """Same import objective evaluated edge-wise at the feeder head, with the
    stamp set's line inverses and the to-bus voltages read from ``v``."""
    _require_converged(solution)
    stamps, ratios = solution.system.stamps, solution.system.ratios
    layout = stamps.layout
    # (line, gain) at the head: each line leaving the slack bus, without a
    # gain, then the outgoing line of each regulator at the slack bus.
    heads = [(k, None) for k in np.flatnonzero(layout.slack[layout.frm]).tolist()]
    for k, prim, cols, type_b in zip(layout.svr_lines, layout.svr_ends[:, 0].tolist(),
                                     layout.svr_cols, layout.svr_type_b.tolist()):
        if layout.slack[prim]:
            r = ratios[0, cols[layout.mask[k]]]
            heads.append((k, 1.0 / r if type_b else r))
    total = 0.0
    for k, g in heads:
        q, zinv = np.flatnonzero(layout.mask[k]), stamps.line_zinv(k)
        vn = layout.v_source[q]
        vm = solution.v[layout.at[layout.to[k], q]]
        i_edge = zinv @ (vn - vm) if g is None else np.diag(g) @ (zinv @ (g * vn - vm))
        total += float(np.sum((vn * np.conj(i_edge)).real))
    return total


def voltage_unbalance(solution: PowerFlowSolution) -> float:
    """Worst percent unbalance over buses with at least two phases, the
    slack bus included.

    Per bus: 100 * max_phase |  |v| - mean| / mean  with mean over phase magnitudes.
    """
    _require_converged(solution)
    v, sizes = solution.v, np.count_nonzero(solution.system.stamps.layout.at >= 0, axis=1)
    starts = np.cumsum(sizes) - sizes
    worst = 0.0
    for size in dict.fromkeys(sizes.tolist()):      # in order of first appearance
        if size >= 2:
            mags = np.abs(v[starts[sizes == size][:, None] + np.arange(size)])
            avg = np.mean(mags, axis=1)
            dev = np.max(np.abs(mags - avg[:, None]), axis=1)
            worst = max(worst, float(np.max(100.0 * dev / avg)))
    return worst


def voltage_envelope(solution: PowerFlowSolution, model: FeederModel) -> tuple[float, float]:
    """(min, max) voltage magnitude over non-slack buses and phases."""
    _require_converged(solution)
    lo, hi = _envelope(np.abs(solution.v[solution.system.stamps.nonslack_at]))
    return float(lo), float(hi)


def _envelope(mags: np.ndarray) -> tuple:
    """(min, max) of magnitudes over the non-slack coordinates, the last axis."""
    if not mags.shape[-1]:
        raise ValueError("no voltage envelope: the feeder has no non-slack bus")
    return mags.min(axis=-1), mags.max(axis=-1)


def feasibility(solution: PowerFlowSolution, model: FeederModel,
                v_min: float, v_max: float) -> bool:
    lo, hi = voltage_envelope(solution, model)
    return v_min <= lo and hi <= v_max


def kcl_certificate(solution: PowerFlowSolution, model: FeederModel) -> float:
    """Recomputed KCL mismatch (inf-norm), independent of the iteration history."""
    system, st = solution.system, solution.system.stamps
    v = solution.v[st.full_of[0]]
    return float(_kcl_residual(system.Y, st.loads, system.Y_NS @ st.v_slack, v))


def solution_csv(solution: PowerFlowSolution, model: FeederModel) -> str:
    """CSV dump with one row per (bus, phase), deterministic byte-for-byte."""
    buf = io.StringIO()
    buf.write("bus,phase,re,im,magnitude,angle_deg\n")
    for (bus, p), z in zip(solution.system.stamps.full_coords, solution.v.tolist()):
        buf.write(f"{bus},{p},{z.real:.12g},{z.imag:.12g},"
                  f"{abs(z):.12g},{cmath.phase(z) * 180.0 / np.pi:.12g}\n")
    return buf.getvalue()
