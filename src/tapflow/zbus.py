"""Exact nonlinear power flow via Z-bus fixed-point iteration, plus metrics.

The iteration solves Y v = i(v) - Y_NS v_S with constant-power injections
re-evaluated at the previous iterate and constant-admittance shunts folded
into Y. Convergence requires both a small voltage update and a small
Kirchhoff current residual, so every converged solution carries an
independent physics certificate. The loads, slack voltages, flat start and
coordinate layout come from the feeder's stamp set (``ybus.StampSet``), built
once per feeder, so a solve or a metric rebuilds none of them.
"""

from __future__ import annotations

import cmath
import io
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse.linalg import splu

from .network import FeederModel, PhaseVector, tree_index
from .ybus import AdmittanceSystem, StampSet, assemble, recover_svr_secondary

DEFAULT_TOL = 1e-9
DEFAULT_MAX_ITER = 200
_KCL_TOL = 5e-9   # stop threshold; comfortably under the 1e-8 certificate


@dataclass
class PowerFlowSolution:
    """Per-bus complex voltages with convergence diagnostics."""

    voltages: dict                      # bus id -> PhaseVector (slack + secondaries included)
    iterations: int
    residual: float                     # inf-norm of the KCL current mismatch
    converged: bool
    ratios: list = field(default_factory=list, repr=False)
    system: AdmittanceSystem | None = field(default=None, repr=False)


def _load_currents(loads: np.ndarray, v: np.ndarray) -> np.ndarray:
    # Consumption-positive load L draws i = -conj(L / v) from the bus.
    return -np.conj(loads / v)


def _kcl_residual(system: AdmittanceSystem, v: np.ndarray) -> float:
    """Inf-norm of the KCL current mismatch Y v + Y_NS v_S - i(v)."""
    st = system.stamps
    mism = system.Y @ v + system.Y_NS @ st.v_slack - _load_currents(st.loads, v)
    return float(np.max(np.abs(mism))) if len(mism) else 0.0


def solve_zbus(model: FeederModel, ratios, tol: float = DEFAULT_TOL,
               max_iter: int = DEFAULT_MAX_ITER, v0: dict | None = None,
               stamps: StampSet | None = None) -> PowerFlowSolution:
    """Run the fixed-point iteration at fixed regulator ratios.

    ``ratios`` is a list aligned with ``model.svrs`` mapping phase -> ratio.
    ``v0`` optionally maps bus id -> PhaseVector to seed the iteration;
    the default is a flat start at the slack voltage. ``stamps`` is
    ``ybus.build_stamps(model)``, passed by callers that solve one model at
    many ratios. An update that is not finite ends the iteration unconverged
    at the last finite iterate.
    """
    if not tol > 0:      # also rejects NaN
        raise ValueError("tol must be positive")
    system = assemble(model, ratios, stamps=stamps)
    st = system.stamps
    lu = splu(system.Y.tocsc())
    w_s = system.Y_NS @ st.v_slack
    if v0 is None:
        v = st.v_flat
    else:
        v = np.array([v0[bus][phase] for bus, phase in st.coords])

    converged = False
    it = 0
    # A diverging iterate may overflow; it is caught as non-finite and dropped,
    # and the residual of the last finite iterate may be inf or NaN.
    with np.errstate(all="ignore"):
        for it in range(1, max_iter + 1):
            v_new = lu.solve(_load_currents(st.loads, v) - w_s)
            if not np.all(np.isfinite(v_new.view(float))):
                break
            delta = float(np.max(np.abs(v_new - v))) if len(v) else 0.0
            v = v_new
            if delta < tol:
                residual = _kcl_residual(system, v)
                if residual <= _KCL_TOL:
                    converged = True
                    break
        if not converged:
            residual = _kcl_residual(system, v)

    voltages = {model.slack.id: model.slack_voltage}
    for b in model.buses:
        if b.is_slack or b.id in st.eliminated:
            continue
        voltages[b.id] = PhaseVector(b.phases, [v[st.row[(b.id, p)]] for p in b.phases])
    voltages.update(recover_svr_secondary(model, ratios, voltages))

    return PowerFlowSolution(
        voltages=voltages, iterations=it, residual=residual,
        converged=converged, ratios=list(ratios), system=system,
    )


def _require_converged(solution: PowerFlowSolution):
    if not solution.converged:
        raise ValueError("power flow did not converge; metrics would be meaningless")


def import_objective(solution: PowerFlowSolution, model: FeederModel) -> float:
    """Real power import at the slack bus from the admittance-matrix form."""
    _require_converged(solution)
    system = solution.system if solution.system is not None else assemble(model, solution.ratios)
    st = system.stamps
    v_full = np.array([solution.voltages[bus][p] for bus, p in st.full_coords])
    i_s = system.Y_S @ v_full
    return float(np.sum((st.v_slack * np.conj(i_s)).real))


def import_objective_edges(solution: PowerFlowSolution, model: FeederModel) -> float:
    """Same import objective evaluated edge-wise at the feeder head."""
    _require_converged(solution)
    slack_id = model.slack.id
    total = 0.0
    for ln in model.lines:
        if ln.from_bus != slack_id:
            continue
        ph = ln.z.phases
        zinv = np.linalg.inv(ln.z.array)
        vn = np.array([model.slack_voltage[p] for p in ph])
        vm = np.array([solution.voltages[ln.to_bus][p] for p in ph])
        i_edge = zinv @ (vn - vm)
        total += float(np.sum((vn * np.conj(i_edge)).real))
    children = tree_index(model).children
    for svx, sv in enumerate(model.svrs):
        if sv.from_bus != slack_id:
            continue
        line = model.lines[children[sv.to_bus][0].index]
        ph = line.z.phases
        zinv = np.linalg.inv(line.z.array)
        r = np.array([float(solution.ratios[svx][p]) for p in ph])
        g = 1.0 / r if sv.kind == "B" else r
        vn = np.array([model.slack_voltage[p] for p in ph])
        vm = np.array([solution.voltages[line.to_bus][p] for p in ph])
        i_edge = np.diag(g) @ (zinv @ (g * vn - vm))
        total += float(np.sum((vn * np.conj(i_edge)).real))
    return total


def voltage_unbalance(solution: PowerFlowSolution) -> float:
    """Worst percent unbalance over buses with at least two phases.

    Per bus: 100 * max_phase |  |v| - mean| / mean  with mean over phase magnitudes.
    """
    worst = 0.0
    for vec in solution.voltages.values():
        if len(vec.phases) < 2:
            continue
        mags = np.abs(vec.values)
        avg = float(np.mean(mags))
        dev = float(np.max(np.abs(mags - avg)))
        worst = max(worst, 100.0 * dev / avg)
    return worst


def voltage_envelope(solution: PowerFlowSolution, model: FeederModel) -> tuple[float, float]:
    """(min, max) voltage magnitude over non-slack buses and phases."""
    _require_converged(solution)
    slack_id = model.slack.id
    mags = np.concatenate([
        np.abs(vec.values) for bus, vec in solution.voltages.items() if bus != slack_id
    ])
    return float(np.min(mags)), float(np.max(mags))


def feasibility(solution: PowerFlowSolution, model: FeederModel,
                v_min: float, v_max: float) -> bool:
    lo, hi = voltage_envelope(solution, model)
    return v_min <= lo and hi <= v_max


def kcl_certificate(solution: PowerFlowSolution, model: FeederModel) -> float:
    """Recomputed KCL mismatch (inf-norm), independent of the iteration history."""
    system = solution.system if solution.system is not None else assemble(model, solution.ratios)
    v = np.array([solution.voltages[bus][p] for bus, p in system.stamps.coords])
    return _kcl_residual(system, v)


def solution_csv(solution: PowerFlowSolution, model: FeederModel) -> str:
    """CSV dump with one row per (bus, phase), deterministic byte-for-byte."""
    buf = io.StringIO()
    buf.write("bus,phase,re,im,magnitude,angle_deg\n")
    for b in model.buses:
        vec = solution.voltages[b.id]
        for p in vec.phases:
            z = vec[p]
            buf.write(f"{b.id},{p},{z.real:.12g},{z.imag:.12g},"
                      f"{abs(z):.12g},{cmath.phase(z) * 180.0 / np.pi:.12g}\n")
    return buf.getvalue()
