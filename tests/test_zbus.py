import dataclasses

import numpy as np
import pytest

import tapflow as tf
from tapflow.ybus import build_stamps

from conftest import chain_model


def two_bus_oracle(z: complex, s: complex, vs: float = 1.0) -> complex:
    """Closed-form two-bus solution: conj(v) (vs - v) = z conj(s) gives a
    quadratic in u = |v|^2; the high-voltage root is the operating point."""
    pr = s.real * z.real + s.imag * z.imag
    disc = (2.0 * pr - vs**2) ** 2 - 4.0 * abs(s) ** 2 * abs(z) ** 2
    u = (vs**2 - 2.0 * pr + np.sqrt(disc)) / 2.0
    return np.conj((u + z * np.conj(s)) / vs)


def test_zero_load_flat_in_one_iteration():
    model = chain_model([0.0, 0.0])
    sol = tf.solve_zbus(model, [])
    assert sol.converged and sol.iterations == 1
    for bid in ("b1", "b2"):
        assert sol.voltages[bid]["a"] == pytest.approx(1.0 + 0.0j, abs=1e-12)


def test_two_bus_matches_analytic_oracle():
    z, s = 0.03 + 0.07j, 0.4 + 0.25j
    model = chain_model([s], z_per_edge=z)
    sol = tf.solve_zbus(model, [], tol=1e-12)
    expect = two_bus_oracle(z, s)
    # Frozen oracle value for these inputs.
    assert expect == pytest.approx(0.9691265820650115 - 0.0205j, abs=1e-12)
    assert sol.voltages["b1"]["a"] == pytest.approx(expect, abs=1e-10)


def test_divergence_reported_not_silently_truncated():
    # Impossibly heavy load: no power-flow solution exists.
    model = chain_model([40.0 + 20.0j], z_per_edge=0.05 + 0.15j)
    sol = tf.solve_zbus(model, [], max_iter=60)
    assert not sol.converged
    with pytest.raises(ValueError):
        tf.import_objective(sol, model)


def _huge_load_tiny3(tiny3, load=(0.65 + 0.35j) * 1e307):
    huge = tf.PhaseVector(("a",), [load])
    return dataclasses.replace(tiny3, buses=tuple(
        dataclasses.replace(b, load=huge) if b.load is not None else b for b in tiny3.buses))


def test_overflowing_iterate_stops_at_last_finite_one(tiny3):
    """With tiny3's load scaled by 1e307 an update overflows. The solve stops
    there unconverged, returns the last finite iterate and lets no overflow
    warning escape (warnings are errors under the test settings)."""
    model = _huge_load_tiny3(tiny3)
    sol = tf.solve_zbus(model, [{"a": 1.0}])
    assert not sol.converged and sol.iterations < 200
    for vec in sol.voltages.values():
        assert np.all(np.isfinite(vec.values))
    assert not sol.residual <= 1e-8


@pytest.mark.parametrize("bad", [float("nan"), complex(float("inf"), 0.0)])
def test_nonfinite_start_rejected_before_any_solve(ieee13, ieee13_base, monkeypatch, bad):
    """A non-finite start value raises on entry; no factorization or iteration runs."""
    def no_solve(*args, **kwargs):
        raise AssertionError("solve_zbus factorized Y")

    monkeypatch.setattr(tf.zbus, "splu", no_solve)
    v0 = {bus: dict(zip(vec.phases, vec.values)) for bus, vec in ieee13_base.voltages.items()}
    v0["675"]["b"] = bad
    ratios = tf.taps_to_ratios(ieee13, tf.zero_taps(ieee13))
    with pytest.raises(ValueError, match="v0 must be finite"):
        tf.solve_zbus(ieee13, ratios, v0=v0)


@pytest.mark.parametrize("case", ["ieee13", "overflowing-tiny3"])
def test_returned_voltages_alias_no_solver_state(case, ieee13, tiny3):
    """Writing into a returned bus vector leaves the stamp set's flat start
    and loads alone, and a second solve on the shared stamp set gives the
    same bits. The overflowing load's first update is not finite, so that
    solve stops at iteration 1 with the flat start as its iterate."""
    if case == "ieee13":
        model, ratios = ieee13, tf.taps_to_ratios(ieee13, tf.zero_taps(ieee13))
    else:
        model, ratios = _huge_load_tiny3(tiny3, 1.7e308 - 1.7e308j), [{"a": 1.0}]
    stamps = build_stamps(model)
    v_flat, loads = stamps.v_flat.tobytes(), stamps.loads.tobytes()
    first = tf.solve_zbus(model, ratios, stamps=stamps)
    assert first.converged == (case == "ieee13")
    assert case == "ieee13" or first.iterations == 1
    bits = {bus: vec.values.tobytes() for bus, vec in first.voltages.items()}
    for bus, _ in stamps.bus_rows:
        first.voltages[bus.id].values[:] = 7.0 + 7.0j
    assert stamps.v_flat.tobytes() == v_flat and stamps.loads.tobytes() == loads
    again = tf.solve_zbus(model, ratios, stamps=stamps)
    assert (again.iterations, again.converged) == (first.iterations, first.converged)
    assert {bus: vec.values.tobytes() for bus, vec in again.voltages.items()} == bits


def test_metrics_raise_on_a_missing_phase(ieee13, ieee13_base):
    """A bus vector without one of its bus's phases raises KeyError in the
    metrics that read every coordinate; a vector with an extra phase is
    read phase by phase and gives the same bits."""
    sol = dataclasses.replace(ieee13_base, voltages=dict(ieee13_base.voltages))
    full = sol.voltages["611"]                # a phase-c bus
    assert full.phases == ("c",)
    sol.voltages["611"] = tf.PhaseVector(("a", "c"), [1.0, full["c"]])
    assert tf.import_objective(sol, ieee13) == tf.import_objective(ieee13_base, ieee13)
    assert tf.kcl_certificate(sol, ieee13) == tf.kcl_certificate(ieee13_base, ieee13)
    sol.voltages["671"] = tf.PhaseVector(("a", "c"), [1.0, 1.0])
    with pytest.raises(KeyError, match="'b' not present"):
        tf.import_objective(sol, ieee13)
    with pytest.raises(KeyError, match="'b' not present"):
        tf.kcl_certificate(sol, ieee13)


@pytest.mark.parametrize("tol", [0.0, -1e-9, float("nan")])
def test_nonpositive_or_nan_tol_rejected(tol):
    model = chain_model([0.1])
    with pytest.raises(ValueError, match="tol must be positive"):
        tf.solve_zbus(model, [], tol=tol)


def test_import_objective_zero_load():
    model = chain_model([0.0])
    sol = tf.solve_zbus(model, [])
    assert tf.import_objective(sol, model) == pytest.approx(0.0, abs=1e-12)


def test_objective_forms_agree(ieee13, ieee13_base):
    adm = tf.import_objective(ieee13_base, ieee13)
    edge = tf.import_objective_edges(ieee13_base, ieee13)
    assert abs(adm - edge) < 1e-10


def test_kcl_certificate_on_converged_solutions(ieee13, ieee13_base, tiny3):
    assert tf.kcl_certificate(ieee13_base, ieee13) <= 1e-8
    sol = tf.solve_zbus(tiny3, [{"a": 0.95}])
    assert sol.converged
    assert tf.kcl_certificate(sol, tiny3) <= 1e-8


def test_unbalance_direct_formula():
    sol = tf.PowerFlowSolution(
        voltages={"x": tf.PhaseVector("abc", [1.0, 1.0, 0.97])},
        iterations=1, residual=0.0, converged=True)
    assert tf.voltage_unbalance(sol) == pytest.approx(100 * 0.02 / 0.99, abs=1e-9)


def test_unbalance_balanced_is_zero():
    a = np.exp(2j * np.pi / 3)
    sol = tf.PowerFlowSolution(
        voltages={"x": tf.PhaseVector("abc", [0.98, 0.98 * a**2, 0.98 * a])},
        iterations=1, residual=0.0, converged=True)
    assert tf.voltage_unbalance(sol) == pytest.approx(0.0, abs=1e-12)


def test_single_phase_buses_skipped_in_unbalance():
    sol = tf.PowerFlowSolution(
        voltages={"x": tf.PhaseVector("a", [0.5])},
        iterations=1, residual=0.0, converged=True)
    assert tf.voltage_unbalance(sol) == 0.0


def test_envelope_and_feasibility():
    model = chain_model([0.0, 0.0])
    sol = tf.solve_zbus(model, [])
    assert tf.voltage_envelope(sol, model) == pytest.approx((1.0, 1.0))
    assert tf.feasibility(sol, model, 0.9, 1.1)

    heavy = chain_model([0.4 + 0.2j], z_per_edge=0.05 + 0.2j)
    sol = tf.solve_zbus(heavy, [])
    lo, hi = tf.voltage_envelope(sol, heavy)
    mags = [abs(sol.voltages[b.id][p]) for b in heavy.buses if not b.is_slack
            for p in sol.voltages[b.id].phases]
    assert lo == pytest.approx(min(mags)) and hi == pytest.approx(max(mags))
    assert not tf.feasibility(sol, heavy, 0.95, 1.05)


def test_start_point_robustness(ieee13):
    ratios = tf.taps_to_ratios(ieee13, tf.zero_taps(ieee13))
    tol = 1e-9
    flat = tf.solve_zbus(ieee13, ratios, tol=tol)
    perturbed = {
        bid: tf.PhaseVector(vec.phases, [v * 1.02 for v in vec.values])
        for bid, vec in flat.voltages.items()
    }
    again = tf.solve_zbus(ieee13, ratios, tol=tol, v0=perturbed)
    assert again.converged
    worst = max(abs(flat.voltages[b][p] - again.voltages[b][p])
                for b in flat.voltages for p in flat.voltages[b].phases)
    assert worst <= 10 * tol


def test_slack_invariance_zero_load():
    model = chain_model([0.0, 0.0])
    scaled = tf.FeederModel(buses=model.buses, lines=model.lines, svrs=(),
                            slack_voltage=tf.PhaseVector("a", [1.05]))
    sol = tf.solve_zbus(scaled, [])
    for bid in ("b1", "b2"):
        assert sol.voltages[bid]["a"] == pytest.approx(1.05 + 0.0j, abs=1e-12)


def test_slack_entry_exact(ieee13_base, ieee13):
    assert ieee13_base.voltages["650"] == ieee13.slack_voltage


def test_ieee13_min_voltage_at_zero_taps(ieee13, ieee13_base):
    lo, hi = tf.voltage_envelope(ieee13_base, ieee13)
    assert lo == pytest.approx(0.88, abs=0.01)


def test_ieee13_import_at_zero_taps(ieee13, ieee13_base):
    assert tf.import_objective(ieee13_base, ieee13) == pytest.approx(0.7198, rel=0.01)


def test_solution_csv_format(tiny3):
    sol = tf.solve_zbus(tiny3, [{"a": 1.0}])
    text = tf.solution_csv(sol, tiny3)
    lines = text.strip().splitlines()
    assert lines[0] == "bus,phase,re,im,magnitude,angle_deg"
    assert len(lines) == 1 + 3   # three single-phase buses
    assert text == tf.solution_csv(sol, tiny3)   # deterministic
