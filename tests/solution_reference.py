"""Reference version of the solution voltages the library now keeps as one array.

``eager_solve`` is ``solve_zbus`` as it built its result before a solve
kept its voltages as one array over the full coordinates: a plain dict
holding the model's ``slack_voltage``, one ``PhaseVector`` per retained bus
holding its rows of the final iterate, and the regulator secondaries from
``recover_svr_secondary``. The metric functions below read that dict, as
the library's did; ``EagerSolution`` is the result type they read, and
``solution_csv`` writes the CSV from a per-bus dict, bus by bus, as the
library did. ``assert_solution_parity`` checks that for the same model and
ratios the library's per-bus view has the model's bus order as its keys and
the reference dict's phases and value bits, and that its metrics, on its
own array, have the reference metrics' bits.
"""

from __future__ import annotations

import cmath
import io
import sys
from dataclasses import dataclass

import numpy as np

import tapflow as tf
from tapflow.network import FeederModel, PhaseVector
from tapflow.ybus import AdmittanceSystem, assemble, recover_svr_secondary
from tapflow.zbus import DEFAULT_MAX_ITER, DEFAULT_TOL, _kcl_residual, _solve


@dataclass
class EagerSolution:
    """Per-bus complex voltages with convergence diagnostics."""

    voltages: dict           # bus id -> PhaseVector (slack + secondaries included)
    iterations: int
    residual: float
    converged: bool
    ratios: list
    system: AdmittanceSystem


def eager_solve(model: FeederModel, ratios, tol: float = DEFAULT_TOL,
                max_iter: int = DEFAULT_MAX_ITER, stamps=None) -> EagerSolution:
    """``solve_zbus`` from a flat start, its voltages wrapped bus by bus."""
    system = assemble(model, ratios, stamps=stamps)
    st = system.stamps
    out, iterations, residual, converged = _solve(system, tol, max_iter)
    v = out[:, 0]
    row = {c: i for i, c in enumerate(st.coords)}        # Y's row of each retained (bus, phase)
    voltages = {model.slack.id: model.slack_voltage}
    for b in model.buses:
        if (b.id, b.phases[0]) in row:
            voltages[b.id] = PhaseVector._wrap(b.phases, v[[row[b.id, p] for p in b.phases]])
    voltages.update(recover_svr_secondary(model, ratios, voltages))
    return EagerSolution(
        voltages=voltages, iterations=int(iterations[0]), residual=float(residual[0]),
        converged=bool(converged[0]), ratios=list(ratios), system=system,
    )


def voltage_array(solution: EagerSolution, buses) -> np.ndarray:
    parts = []
    for b in buses:
        vec = solution.voltages[b.id]
        parts.append(vec.values if vec.phases == b.phases
                     else np.array([vec[p] for p in b.phases], dtype=complex))
    return np.concatenate(parts) if parts else np.zeros(0, dtype=complex)


def import_objective(solution: EagerSolution, model: FeederModel) -> float:
    i_s = solution.system.Y_S @ voltage_array(solution, model.buses)
    return float(np.sum((solution.system.stamps.v_slack * np.conj(i_s)).real))


def voltage_envelope(solution: EagerSolution, model: FeederModel) -> tuple[float, float]:
    slack_id = model.slack.id
    mags = np.abs(np.concatenate([vec.values for bus, vec in solution.voltages.items()
                                  if bus != slack_id]))
    return float(mags.min()), float(mags.max())


def feasibility(solution: EagerSolution, model: FeederModel,
                v_min: float, v_max: float) -> bool:
    lo, hi = voltage_envelope(solution, model)
    return v_min <= lo and hi <= v_max


def voltage_unbalance(solution: EagerSolution) -> float:
    by_size: dict = {}
    for vec in solution.voltages.values():
        by_size.setdefault(len(vec.phases), []).append(vec.values)
    worst = 0.0
    for mags in (np.abs(np.array(values)) for size, values in by_size.items() if size >= 2):
        avg = np.mean(mags, axis=1)
        dev = np.max(np.abs(mags - avg[:, None]), axis=1)
        worst = max(worst, float(np.max(100.0 * dev / avg)))
    return worst


def kcl_certificate(solution: EagerSolution, model: FeederModel) -> float:
    system = solution.system
    v = np.array([solution.voltages[bus][p] for bus, p in system.stamps.coords], dtype=complex)
    return float(_kcl_residual(system.Y, system.stamps.loads, system.Y_NS @ system.stamps.v_slack, v))


def solution_csv(solution, model: FeederModel) -> str:
    """The CSV of ``zbus.solution_csv`` written from the per-bus dict
    ``solution.voltages``, bus by bus in model order, each bus's phases in
    its vector's order."""
    buf = io.StringIO()
    buf.write("bus,phase,re,im,magnitude,angle_deg\n")
    for b in model.buses:
        vec = solution.voltages[b.id]
        for p in vec.phases:
            z = vec[p]
            buf.write(f"{b.id},{p},{z.real:.12g},{z.imag:.12g},"
                      f"{abs(z):.12g},{cmath.phase(z) * 180.0 / np.pi:.12g}\n")
    return buf.getvalue()


def _metric_bits(solution, model: FeederModel, m) -> tuple:
    lo, hi = m.voltage_envelope(solution, model)
    return (m.import_objective(solution, model).hex(), lo.hex(), hi.hex(),
            m.feasibility(solution, model, 0.9, 1.1), m.feasibility(solution, model, 0.95, 1.05),
            m.voltage_unbalance(solution).hex(), m.kcl_certificate(solution, model).hex())


def assert_solution_parity(model: FeederModel, ratios, stamps=None) -> None:
    """The library's solve at ``ratios`` against ``eager_solve``: equal
    convergence, keys in model order, equal phases and value bits, equal
    CSV bytes, and equal metric bits from its array and by the reference
    metrics on the reference dict."""
    got = tf.solve_zbus(model, ratios, stamps=stamps)
    want = eager_solve(model, ratios, stamps=stamps)
    assert (got.iterations, got.residual.hex(), got.converged) == \
        (want.iterations, want.residual.hex(), want.converged)
    assert list(got.voltages) == [b.id for b in model.buses]
    assert got.voltages.keys() == want.voltages.keys()
    for bus, vec in want.voltages.items():
        assert got.voltages[bus].phases == vec.phases, bus
        assert got.voltages[bus].values.tobytes() == vec.values.tobytes(), bus
    assert tf.solution_csv(got) == solution_csv(want, model)
    if want.converged:
        bits = _metric_bits(want, model, sys.modules[__name__])
        assert _metric_bits(got, model, tf.zbus) == bits
