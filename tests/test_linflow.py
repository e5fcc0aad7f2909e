import cProfile
import dataclasses
import pstats

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy.sparse.linalg import splu

import tapflow as tf
from tapflow.network import PHASES

import linflow_reference
import stamps_reference
from conftest import (FIXTURES, PARITY_FEEDERS, SMALL_FEEDERS, bench_feeders, chain_model,
                      colamd_in_model_order, lp_columns, small_or_generated)
from lp_reference import sweep_powerflow

ALPHA = np.exp(2j * np.pi / 3)


def test_balanced_rotation_entries():
    model = chain_model([0.1], phases=("a", "b", "c"))
    const = tf.constants_balanced(model)
    assert const.layout.mask.tolist() == [[True, True, True]]
    g = const.gamma[0]                      # line sub->b1; rows and columns a, b, c
    assert g[0, 0] == pytest.approx(1.0)
    assert g[0, 1] == pytest.approx(ALPHA)
    assert g[0, 2] == pytest.approx(ALPHA**2)
    assert g[1, 2] == pytest.approx(ALPHA)
    assert g[2, 0] == pytest.approx(ALPHA)
    assert np.max(np.abs(const.h[0])) == 0.0
    assert np.max(np.abs(const.l[0])) == 0.0


def test_balanced_single_phase_is_identity():
    model = chain_model([0.1])
    g = tf.constants_balanced(model).gamma[0]   # padded over a, b, c: only [a, a] is the line's
    assert g.shape == (3, 3) and g[0, 0] == 1.0 and np.count_nonzero(g) == 1


def test_constants_zero_current_base():
    model = chain_model([0.0, 0.0])
    base = tf.solve_zbus(model, [])
    const = tf.constants_from_solution(base)
    assert const.layout.mask.tolist() == [[True, False, False]] * 2    # sub->b1, b1->b2
    for k in range(2):
        assert np.max(np.abs(const.h[k])) < 1e-15
        assert np.max(np.abs(const.l[k])) < 1e-15
        assert const.gamma[k][0, 0] == pytest.approx(1.0)


def test_constants_require_convergence():
    model = chain_model([40.0 + 20.0j], z_per_edge=0.05 + 0.15j)
    sol = tf.solve_zbus(model, [], max_iter=50)
    with pytest.raises(ValueError):
        tf.constants_from_solution(sol)


def _with_zero_voltage(solution, buses):
    """``solution`` with a copy of its voltages, each bus's first phase zeroed."""
    layout, v = solution.system.stamps.layout, solution.v.copy()
    for bus in buses:
        at = layout.at[layout.bus_of[bus]]
        v[at[at >= 0][0]] = 0.0
    return dataclasses.replace(solution, v=v)


@pytest.mark.parametrize("zeroed, named", [
    (("b1",), "sub->b1"),          # an endpoint of both lines: the first is named
    (("b2",), "b1->b2"),
])
def test_zero_endpoint_voltage_names_the_line(zeroed, named):
    model = chain_model([0.1, 0.1])
    base = _with_zero_voltage(tf.solve_zbus(model, []), zeroed)
    with pytest.raises(tf.PipelineError,
                       match=f"zero phase voltage at an endpoint of line {named}$") as err:
        tf.constants_from_solution(base)
    assert err.value.stage == "constants"


def test_zero_endpoint_voltage_names_the_first_line_in_model_order(ieee13, ieee13_base):
    """645->646 (line 4, phases bc) comes before 692->675 (line 11, phases
    abc): the first bad line in model order is named, whatever its phase
    count."""
    base = _with_zero_voltage(ieee13_base, ("675", "646"))
    with pytest.raises(tf.PipelineError, match="line 645->646$") as err:
        tf.constants_from_solution(base)
    assert err.value.stage == "constants"


def _slack_scaled(model, q, factor):
    """``model`` with the real part of its slack voltage's phase ``q`` (an
    index) times ``factor``."""
    v = model.slack_voltage.values.copy()
    v[q] = complex(v[q].real * factor, v[q].imag)
    return dataclasses.replace(model, slack_voltage=tf.PhaseVector(model.slack_voltage.phases, v))


def _assert_losses_are_per_line_squares(model, base):
    """Each line's voltage-loss terms equal |Z i|^2 per phase, i from the
    line's own inverted impedance and the base voltages, within 1e-12
    relative to the line's largest term."""
    const = tf.constants_from_solution(base)
    for k, ln in enumerate(model.lines):
        drop = np.array([base.voltages[ln.from_bus][p] - base.voltages[ln.to_bus][p]
                         for p in ln.z.phases])
        want = np.abs(ln.z.array @ (np.linalg.inv(ln.z.array) @ drop)) ** 2
        got = const.h[k][[PHASES.index(p) for p in ln.z.phases]]
        assert np.all(np.abs(got - want) <= 1e-12 * want.max()), (ln.from_bus, ln.to_bus, got, want)


def test_round_off_in_the_voltage_loss_is_no_failure():
    """generate_feeder(0, 15) with the real part of its phase-c slack voltage
    times 1e6 is valid and its zero-tap solve converges. Round-off leaves an
    imaginary part of about 1e-10 on line rh->t1's voltage-loss terms of up
    to 3e6, a relative 3.5e-17; the terms are |Z i|^2, so the stage takes
    their real parts and does not fail."""
    model = _slack_scaled(bench_feeders().generate_feeder(0, 15), 2, 1e6)
    assert tf.validate(model) == []
    base = tf.solve_zbus(model, tf.taps_to_ratios(model, tf.zero_taps(model)))
    assert base.converged
    _assert_losses_are_per_line_squares(model, base)


@settings(derandomize=True, max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 2**16), n_buses=st.integers(15, 120),
       phase=st.integers(0, 2), slack=st.floats(1e-3, 1e6), loads=st.floats(0.5, 2.0))
def test_constants_stage_takes_every_converged_base(seed, n_buses, phase, slack, loads):
    """On a generated feeder with one slack phase's real part scaled by
    1e-3..1e6 and its loads by 0.5..2, wherever the zero-tap solve converges
    the constants stage returns, and each line's voltage-loss terms are the
    per-line |Z i|^2."""
    model = _slack_scaled(bench_feeders().generate_feeder(seed, n_buses), phase, slack)
    model = dataclasses.replace(model, buses=tuple(
        b if b.load is None else dataclasses.replace(
            b, load=tf.PhaseVector(b.load.phases, b.load.values * loads)) for b in model.buses))
    base = tf.solve_zbus(model, tf.taps_to_ratios(model, tf.zero_taps(model)))
    if base.converged:
        _assert_losses_are_per_line_squares(model, base)


def test_lindiff_on_a_slack_only_feeder_raises_the_envelope_error():
    """With no non-slack bus there is nothing to compare: ``lindiff`` raises
    the voltage envelope's ``ValueError`` rather than a report of infinities."""
    model = tf.FeederModel(buses=(tf.BusSpec(id="s", phases=("a", "b", "c"), is_slack=True),),
                           lines=(), svrs=(), slack_voltage=tf.PhaseVector("abc", [1.0, ALPHA**2, ALPHA]))
    exact = tf.solve_zbus(model, [])
    assert exact.converged
    v_sq, _ = tf.linear_powerflow(model, tf.constants_balanced(model), [])
    with pytest.raises(ValueError, match=r"^no voltage envelope: the feeder has no non-slack bus$"):
        tf.lindiff(exact, v_sq)


def test_flat_balanced_base_equals_balanced_constants():
    model = chain_model([0.0], phases=("a", "b", "c"))
    base = tf.solve_zbus(model, [])
    got = tf.constants_from_solution(base)
    want = tf.constants_balanced(model)
    assert np.allclose(got.gamma[0], want.gamma[0], atol=1e-12)


def _flatten(model, v_sq, flows=None):
    """Per-bus squared magnitudes (bus id -> phase -> value) as one array in
    model order, each bus's phases in canonical order, as ``PowerFlowSolution.v``
    runs; and per-edge flows (edge key -> ``PhaseVector``) as an (E, 3) array
    over PHASES, the lines then the regulators, zeros off each edge's phases."""
    v = np.array([v_sq[b.id][p].real for b in model.buses for p in b.phases])
    if flows is None:
        return v
    out = np.zeros((len(model.lines) + len(model.svrs), len(PHASES)), dtype=complex)
    for row, e in zip(out, (*model.lines, *model.svrs)):
        vec = flows[f"{e.from_bus}->{e.to_bus}"]
        row[[PHASES.index(p) for p in vec.phases]] = vec.values
    return v, out


def test_zero_load_linear_flow_flat():
    model = chain_model([0.0, 0.0], phases=("a", "b", "c"))
    ratios = []
    v_sq, flows = tf.linear_powerflow(model, tf.constants_balanced(model), ratios)
    assert v_sq.shape == (9,) and flows.shape == (2, 3)    # sub, b1, b2; sub->b1, b1->b2
    assert np.allclose(v_sq[3:], 1.0, atol=1e-14)
    assert np.max(np.abs(flows)) < 1e-14


def exactness_error(model, ratios):
    sol = tf.solve_zbus(model, ratios, tol=1e-12)
    assert sol.converged
    const = tf.constants_from_solution(sol)
    v_sq, flows = tf.linear_powerflow(model, const, ratios)
    want = {b: {p: abs(vec[p]) ** 2 for p in vec.phases} for b, vec in sol.voltages.items()}
    return np.max(np.abs(v_sq - _flatten(model, want)))


def test_exactness_at_linearization_point_chain():
    model = chain_model([0.25 + 0.1j, 0.2 + 0.08j], svr_kind="B",
                        phases=("a", "b", "c"))
    assert exactness_error(model, [{p: 1.0 for p in "abc"}]) < 1e-10
    assert exactness_error(model, [{"a": 0.95, "b": 1.05, "c": 0.975}]) < 1e-10


def test_exactness_at_linearization_point_ieee13(ieee13):
    for ratios in ([{p: 1.0 for p in "abc"}],
                   [{"a": 0.975, "b": 1.05, "c": 0.95625}]):
        assert exactness_error(ieee13, ratios) < 1e-8


def test_exactness_type_a():
    model = chain_model([0.3 + 0.12j], svr_kind="A")
    assert exactness_error(model, [{"a": 1.04}]) < 1e-10


def test_linear_rows_satisfied_by_sweep_solution(ieee13, ieee13_base):
    """The sweep solution solves the same equations the LP assembles."""
    const = tf.constants_from_solution(ieee13_base)
    ratios = tf.taps_to_ratios(ieee13, tf.zero_taps(ieee13))
    v_sq, flows = tf.linear_powerflow(ieee13, const, ratios)

    cfg = tf.config_from_model(ieee13, v_min=0.5, v_max=1.5)
    lp, varmap = tf.build_lp(ieee13, const, cfg)
    x = np.zeros(lp.A.shape[1])
    vsq, flow, _ = lp_columns(ieee13, varmap)
    coord = {c: i for i, c in enumerate(ieee13_base.system.stamps.full_coords)}
    edge = {f"{e.from_bus}->{e.to_bus}": i for i, e in enumerate((*ieee13.lines, *ieee13.svrs))}
    for (bus, p), col in vsq.items():
        x[col] = v_sq[coord[bus, p]]
    for (key, p), (re_col, im_col) in flow.items():
        x[re_col] = flows[edge[key], PHASES.index(p)].real
        x[im_col] = flows[edge[key], PHASES.index(p)].imag
    resid = lp.A @ x - lp.b
    # Ratio-window rows contain slack columns we left at zero; check the rest.
    eq_rows = [i for i in range(lp.A.shape[0])]
    slack_cols = set(varmap.slack_cols.ravel().tolist())
    acsr = lp.A.tocsr()
    for i in eq_rows:
        cols = set(acsr.indices[acsr.indptr[i]:acsr.indptr[i + 1]])
        if cols & slack_cols:
            continue
        assert abs(resid[i]) < 1e-9, f"row {i}"


def _heavy_chain():
    """A three-phase chain whose load no power flow carries: the exact solve
    does not converge and every balanced linear v~ at b1 is negative (-9)."""
    model = chain_model([40.0 + 20.0j], z_per_edge=0.05 + 0.15j, phases=("a", "b", "c"))
    v_sq, _ = tf.linear_powerflow(model, tf.constants_balanced(model), [])
    return model, v_sq


def test_lindiff_requires_a_converged_exact_solution():
    model, v_sq = _heavy_chain()
    exact = tf.solve_zbus(model, [], max_iter=50)
    assert not exact.converged
    with pytest.raises(ValueError, match="did not converge"):
        tf.lindiff(exact, v_sq)


@pytest.mark.parametrize("bad", [None, float("nan"), float("inf")],
                         ids=["negative", "nan", "inf"])
def test_lindiff_rejects_a_negative_or_nonfinite_square(bad):
    """A v~ that has no real square root raises, rather than dropping out of
    the worst difference (max(0.0, nan) is 0.0), naming the first bad
    coordinate in model order and its value."""
    model, v_sq = _heavy_chain()
    light = chain_model([0.1 + 0.05j], z_per_edge=0.05 + 0.15j, phases=("a", "b", "c"))
    exact = tf.solve_zbus(light, [])
    assert exact.converged and v_sq[3] < 0.0          # b1, phase a
    named = f"b1 phase a is {float(v_sq[3])!r}"
    if bad is not None:
        v_sq = _flatten(light, {b.id: {p: 1.0 for p in b.phases} for b in light.buses})
        v_sq[4] = bad                                  # b1, phase b
        named = f"b1 phase b is {bad!r}"
    with pytest.raises(tf.PipelineError, match=f"^\\[lindiff\\] linear v~ at bus {named}, "
                       "not a finite square$") as err:
        tf.lindiff(exact, v_sq)
    assert err.value.stage == "lindiff"


@pytest.mark.parametrize("shape", [(5,), (7,), (6, 1)])
def test_lindiff_rejects_a_square_array_of_another_shape(shape):
    light = chain_model([0.1 + 0.05j], z_per_edge=0.05 + 0.15j, phases=("a", "b", "c"))
    exact = tf.solve_zbus(light, [])
    with pytest.raises(ValueError, match=r"has shape .*, the exact voltages \(6,\)"):
        tf.lindiff(exact, np.ones(shape))


def test_overestimation_on_shipped_fixtures(ieee13, ieee13_base, tiny3):
    ratios = tf.taps_to_ratios(ieee13, tf.zero_taps(ieee13))
    v_sq, _ = tf.linear_powerflow(ieee13, tf.constants_balanced(ieee13), ratios)
    rep = tf.lindiff(ieee13_base, v_sq)
    assert rep.min_lin >= rep.min_exact

    r3 = tf.taps_to_ratios(tiny3, tf.zero_taps(tiny3))
    sol3 = tf.solve_zbus(tiny3, r3)
    v_sq3, _ = tf.linear_powerflow(tiny3, tf.constants_balanced(tiny3), r3)
    rep3 = tf.lindiff(sol3, v_sq3)
    assert rep3.min_lin >= rep3.min_exact


def test_lindiff_csv_schema(ieee13, ieee13_base):
    ratios = tf.taps_to_ratios(ieee13, tf.zero_taps(ieee13))
    v_sq, _ = tf.linear_powerflow(ieee13, tf.constants_balanced(ieee13), ratios)
    text = tf.lindiff(ieee13_base, v_sq).to_csv()
    lines = text.strip().splitlines()
    assert lines[0] == "phase,max_abs_diff,min_v_linear,min_v_exact"
    assert [ln.split(",")[0] for ln in lines[1:]] == ["a", "b", "c", "all"]


def _fixture(name):
    return tf.parse_feeder((FIXTURES / f"{name}.json").read_text(encoding="utf-8"))


def _zero_tap_answers(model):
    """(zero-tap ratios, the exact solve there) of ``model``."""
    ratios = tf.taps_to_ratios(model, tf.zero_taps(model))
    exact = tf.solve_zbus(model, ratios)
    assert exact.converged
    return ratios, exact


ENVELOPE_FEEDERS = {
    **{name: (lambda name=name: _fixture(name)) for name in ("tiny3", "ieee13", "gen30")},
    **{f"gen{s}-60": (lambda s=s: bench_feeders().generate_feeder(s, 60)) for s in range(20)},
    "exporting-chain": lambda: chain_model([-0.3 - 0.1j, -0.2], phases=("a", "b", "c")),
}


@pytest.mark.parametrize("name", list(ENVELOPE_FEEDERS))
def test_lindiff_min_exact_is_the_envelope_minimum(name):
    """lindiff's minimum exact magnitude has the bits of ``voltage_envelope``'s
    on the same solution: both take ``np.abs`` of the non-slack coordinates.
    Python's ``abs`` of each complex voltage differs in the last bit on
    IEEE-13 and on 9 of these 20 generated feeders. On a chain that exports,
    every non-slack magnitude is above the slack's 1.0, so a minimum over
    the slack's rows too would differ."""
    model = ENVELOPE_FEEDERS[name]()
    ratios, exact = _zero_tap_answers(model)
    v_sq, _ = tf.linear_powerflow(model, tf.constants_balanced(model), ratios)
    lowest = tf.voltage_envelope(exact, model)[0]
    assert tf.lindiff(exact, v_sq).min_exact.hex() == lowest.hex()
    assert name != "exporting-chain" or lowest > 1.0


def _assert_lindiff_parity(model):
    """On both kinds of constants, ``lindiff`` has the per-bus reference's
    phases, its ``min_lin`` bits and its ``max_diff`` and ``min_exact``
    within one rounding of a magnitude near 1 (the reference takes Python's
    ``abs`` of each voltage); and at the linearization point v~ is |v|^2
    index for index."""
    ratios, exact = _zero_tap_answers(model)
    for constants in (tf.constants_balanced(model), tf.constants_from_solution(exact)):
        v_sq, _ = tf.linear_powerflow(model, constants, ratios)
        got, want = tf.lindiff(exact, v_sq), linflow_reference.lindiff(model, exact, v_sq)
        assert got.max_diff.keys() == want.max_diff.keys()
        assert got.min_lin.hex() == want.min_lin.hex()
        for p, diff in want.max_diff.items():
            assert abs(got.max_diff[p] - diff) <= 2.3e-16, p
        assert abs(got.min_exact - want.min_exact) <= 2.3e-16
    assert np.max(np.abs(v_sq - np.abs(exact.v) ** 2)) <= 1e-8


@pytest.mark.parametrize("name", ["gen30", "gen5-3000-reversed"])
def test_lindiff_matches_reference(name):
    _assert_lindiff_parity(_fixture(name) if name == "gen30" else small_or_generated(5, 3000, True, None))


@settings(derandomize=True, max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 2**16), n_buses=st.integers(10, 300), reverse=st.booleans())
def test_lindiff_matches_reference_on_drawn_feeders(seed, n_buses, reverse):
    _assert_lindiff_parity(small_or_generated(seed, n_buses, reverse, None))


def test_linear_answer_builds_no_phase_vector(ieee13, ieee13_base, monkeypatch):
    """``linear_powerflow`` and ``lindiff`` read and write arrays only: no
    ``PhaseVector`` is built, checked or wrapped, with either kind of
    constants. The per-bus view, built on first read, shows that the
    count sees one."""
    ratios = tf.taps_to_ratios(ieee13, tf.zero_taps(ieee13))
    all_constants = (tf.constants_balanced(ieee13), tf.constants_from_solution(ieee13_base))
    built, init, wrap = [], tf.PhaseVector.__init__, tf.PhaseVector._wrap.__func__

    def counted_init(self, *args):
        built.append("init")
        init(self, *args)

    def counted_wrap(cls, *args):
        built.append("wrap")
        return wrap(cls, *args)

    monkeypatch.setattr(tf.PhaseVector, "__init__", counted_init)
    monkeypatch.setattr(tf.PhaseVector, "_wrap", classmethod(counted_wrap))
    for constants in all_constants:
        v_sq, _ = tf.linear_powerflow(ieee13, constants, ratios)
        tf.lindiff(ieee13_base, v_sq)
    assert built == []
    dataclasses.replace(ieee13_base).voltages
    assert built == ["wrap"] * len(ieee13.buses)


@pytest.mark.parametrize("name", sorted(PARITY_FEEDERS))
def test_linear_powerflow_matches_sweep(name, request):
    """One LU solve of the model's rows agrees with the backward/forward sweep."""
    model = PARITY_FEEDERS[name](request)
    zero = tf.taps_to_ratios(model, tf.zero_taps(model))
    taps = [{p: (-1) ** k * (3 + 2 * k) for k, p in enumerate(sv.phases)} for sv in model.svrs]
    shifted = tf.taps_to_ratios(model, taps)
    base = tf.solve_zbus(model, zero, tol=1e-12)
    assert base.converged
    edges = (*model.lines, *model.svrs)
    edge_phases = [*(ln.z.phases for ln in model.lines), *(sv.phases for sv in model.svrs)]
    on = np.array([[p in phases for p in PHASES] for phases in edge_phases]).reshape(-1, 3)
    for constants, reference in (
            (tf.constants_balanced(model), linflow_reference.constants_balanced(model)),
            (tf.constants_from_solution(base),
             linflow_reference.constants_from_solution(model, base))):
        for ratios in (zero, shifted):
            v_sq, flows = tf.linear_powerflow(model, constants, ratios)
            v_ref, f_ref = sweep_powerflow(model, reference, ratios)
            assert v_ref.keys() == {b.id for b in model.buses}
            assert [v_ref[b.id].phases for b in model.buses] == [b.phases for b in model.buses]
            assert f_ref.keys() == {f"{e.from_bus}->{e.to_bus}" for e in edges}
            assert [f_ref[f"{e.from_bus}->{e.to_bus}"].phases for e in edges] == edge_phases
            v_want, f_want = _flatten(model, v_ref, f_ref)
            assert v_sq.shape == v_want.shape and flows.shape == f_want.shape
            assert np.max(np.abs(v_sq - v_want)) <= 1e-12
            assert np.max(np.abs(flows - f_want)) <= 1e-12
            assert not flows[~on].any()       # exact zeros off each edge's phases


def test_singular_linear_system_raises_pipeline_error():
    """A shunt whose coupling cancels the line's voltage drop makes the rows singular."""
    phases = ("a",)
    model = tf.FeederModel(
        buses=(tf.BusSpec(id="sub", phases=phases, is_slack=True),
               tf.BusSpec(id="b1", phases=phases, load=tf.PhaseVector(phases, [0.1]),
                          shunt=tf.PhaseMatrix(phases, [[1j]]))),
        lines=(tf.LineSpec(from_bus="sub", to_bus="b1",
                           z=tf.PhaseMatrix(phases, [[0.25 + 0.5j]])),),
        svrs=(), slack_voltage=tf.PhaseVector(phases, [1.0]))
    with pytest.raises(tf.PipelineError) as err:
        tf.linear_powerflow(model, tf.constants_balanced(model), [])
    assert err.value.stage == "linear_powerflow"


# Generated feeders (seed, buses, bus list reversed) whose LPs are factored
# leaves first: 200-5000 buses, and one with the slack bus listed last; and
# the fixtures and small feeders of ``SMALL_FEEDERS``.
TREE_LP_FEEDERS = [*SMALL_FEEDERS, (5, 200, False), (5, 800, False), (5, 2000, False),
                   (5, 5000, False), (11, 500, True)]


@pytest.mark.parametrize("seed,n_buses,reverse", TREE_LP_FEEDERS)
def test_leaves_first_lp_matches_colamd(seed, n_buses, reverse, request, monkeypatch):
    """The LP's square columns factored leaves first give x0 and N within a
    relative 1e-12 of the same columns kept in column order and factored in
    COLAMD's order (``colamd_in_model_order``), and ``run_opts`` picks the
    same taps either way."""
    model = small_or_generated(seed, n_buses, reverse, request)
    config = tf.config_from_model(model)
    _, varmap = tf.build_lp(model, _base_constants(model), config)
    tree = tf.linflow.eliminate(varmap, "solve_lp")
    tree_taps = tf.run_opts(model, config).taps
    colamd_in_model_order(monkeypatch)
    layout = dataclasses.replace(varmap.layout, depth=np.zeros_like(varmap.layout.depth))
    colamd = tf.linflow.eliminate(dataclasses.replace(varmap, layout=layout), "solve_lp")
    for got, want in zip(tree, colamd):
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
    assert tree_taps == tf.run_opts(model, config).taps


@pytest.mark.parametrize("seed,n_buses,reverse", SMALL_FEEDERS)
def test_lp_columns_are_factored_leaves_first(seed, n_buses, reverse, request, monkeypatch):
    """``eliminate`` factors every column but the high window slacks, each
    at the depth of its bus (a v~ column's own, a flow's to-bus, a low
    slack's regulator secondary), deepest first and stable in column order,
    with no column ordering; the depths are counted down
    ``stamps_reference``'s own tree."""
    model = small_or_generated(seed, n_buses, reverse, request)
    _, varmap = tf.build_lp(model, _base_constants(model), tf.config_from_model(model))
    vsq, flow, slack = lp_columns(model, varmap)
    bus_of = {c: bus for (bus, _), c in vsq.items()}
    bus_of.update((c, key.split("->")[1]) for (key, _), cols in flow.items() for c in cols)
    bus_of.update((low, model.svrs[svx].to_bus) for (svx, _), (low, _) in slack.items())
    depth = stamps_reference.depths(model)
    order = sorted(sorted(bus_of), key=lambda c: -depth[bus_of[c]])
    factored = []

    def keeping(square, **kwargs):
        factored.append((square, kwargs))
        return splu(square, **kwargs)

    monkeypatch.setattr(tf.linflow, "splu", keeping)
    tf.linflow.eliminate(varmap, "solve_lp")
    ((square, kwargs),) = factored
    assert kwargs == {"permc_spec": "NATURAL"}
    assert (square != varmap.A[:, order]).nnz == 0


def _lines_reversed(model):
    """``model`` with its line list reversed, so its phase counts interleave."""
    return dataclasses.replace(model, lines=model.lines[::-1])


LP_FEEDERS = {**PARITY_FEEDERS,
              **{f"gen{seed}-{n}": (lambda _, seed=seed, n=n: bench_feeders().generate_feeder(seed, n))
                 for seed, n in ((0, 15), (1, 30), (2, 60), (3, 120), (4, 200), (5, 400))},
              "gen6-60-lines-reversed": lambda _: _lines_reversed(bench_feeders().generate_feeder(6, 60)),
              # Only 1-phase laterals: no line has two phases.
              "gen7-60-1ph": lambda _: bench_feeders().generate_feeder(7, 60, phase_mix=(1.0, 0.0, 0.0))}


@pytest.mark.parametrize("name", sorted(LP_FEEDERS))
def test_lp_matches_reference(name, request):
    """The per-line rows of constants hold the reference values, and
    ``build_lp`` on them gives the per-entry reference's LP byte for byte,
    for both constants modes."""
    model = LP_FEEDERS[name](request)
    base = tf.solve_zbus(model, tf.taps_to_ratios(model, tf.zero_taps(model)))
    assert base.converged
    config = tf.config_from_model(model)
    for mode in ("balanced", "from_solution"):
        if mode == "balanced":
            got, want = tf.constants_balanced(model), linflow_reference.constants_balanced(model)
        else:
            got = tf.constants_from_solution(base)
            want = linflow_reference.constants_from_solution(model, base)
        mask = got.layout.mask
        assert got.gamma.shape == (len(model.lines), 3, 3) and got.h.shape == got.l.shape == mask.shape
        for k, ln in enumerate(model.lines):
            key, q = f"{ln.from_bus}->{ln.to_bus}", np.flatnonzero(mask[k])
            assert tuple(PHASES[i] for i in q) == want.gamma[key].phases
            assert got.gamma[k][np.ix_(q, q)].tobytes() == want.gamma[key].array.tobytes(), (mode, key)
            assert got.h[k][q].tobytes() == want.h[key].values.real.tobytes(), (mode, key)
            assert got.l[k][q].tobytes() == want.l[key].values.tobytes(), (mode, key)
        # Off each line's phases the rows hold exact zeros.
        off = ~(mask[:, :, None] & mask[:, None, :])
        assert not got.gamma[off].any() and not got.h[~mask].any() and not got.l[~mask].any()
        lp, varmap = tf.build_lp(model, got, config)
        lp_ref, varmap_ref = linflow_reference.build_lp(model, want, config)
        assert lp.A.shape == lp_ref.A.shape
        for a, b in [(getattr(lp.A, f), getattr(lp_ref.A, f)) for f in ("indptr", "indices", "data")] + \
                    [(getattr(lp, f), getattr(lp_ref, f)) for f in ("b", "c", "lower", "upper")]:
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), mode
        assert lp_columns(model, varmap) == (varmap_ref.vsq, varmap_ref.flow, varmap_ref.slack_cols)


def _windows(model):
    return [sv.ratio_range() for sv in model.svrs for _ in sv.phases]


def _base_constants(model):
    base = tf.solve_zbus(model, tf.taps_to_ratios(model, tf.zero_taps(model)))
    assert base.converged
    return tf.constants_from_solution(base)


TRIPLET_FEEDERS = {
    "ieee13": lambda request: request.getfixturevalue("ieee13"),
    "tiny3": lambda request: request.getfixturevalue("tiny3"),
    **{f"gen8-60-{s}ph": (lambda _, mix=mix: bench_feeders().generate_feeder(8, 60, phase_mix=mix))
       for s, mix in ((1, (1.0, 0.0, 0.0)), (2, (0.0, 1.0, 0.0)), (3, (0.0, 0.0, 1.0)))},
}


@pytest.mark.parametrize("name", sorted(TRIPLET_FEEDERS))
def test_linear_system_triplets_are_distinct(name, request, monkeypatch):
    """No (row, column) repeats among ``linear_system``'s kept triplets, so
    their order cannot change A: the line rows may be placed in any order."""
    model = TRIPLET_FEEDERS[name](request)
    constants, seen = _base_constants(model), []
    coo = sp.coo_matrix

    def recording(arg, **kwargs):
        seen.append(arg[1])
        return coo(arg, **kwargs)

    monkeypatch.setattr(tf.linflow.sp, "coo_matrix", recording)
    tf.linflow.linear_system(constants, _windows(model))
    (rows, cols), = seen
    assert len(set(zip(rows.tolist(), cols.tolist()))) == len(rows) > 0


def _three_phase_sets(model):
    """``model`` with every 1-phase bus, load and line on phase a and every
    2-phase one on phases a and b: the same sizes, three phase sets."""
    on = {1: ("a",), 2: ("a", "b"), 3: ("a", "b", "c")}

    def vec(v):
        return v and tf.PhaseVector(on[len(v.phases)], v.values)

    def mat(m):
        return m and tf.PhaseMatrix(on[len(m.phases)], m.array)

    return dataclasses.replace(
        model, lines=tuple(dataclasses.replace(ln, z=mat(ln.z)) for ln in model.lines),
        buses=tuple(dataclasses.replace(b, phases=on[len(b.phases)], load=vec(b.load),
                                        shunt=mat(b.shunt)) for b in model.buses))


def _line_calls(model) -> int:
    """cProfile's count of the Python calls of ``build_stamps``,
    ``constants_from_solution`` and ``linear_system``, after one warm-up."""
    base = tf.solve_zbus(model, tf.taps_to_ratios(model, tf.zero_taps(model)))

    def run():
        tf.ybus.build_stamps(model)
        tf.linflow.linear_system(tf.constants_from_solution(base), _windows(model))

    run()
    profile = cProfile.Profile()
    profile.runcall(run)
    return pstats.Stats(profile).total_calls


@pytest.mark.parametrize("seed", [3, 9])
def test_line_work_does_not_grow_with_the_phase_sets(seed):
    """The line rows, stamps and constants run per line or per phase count,
    never per phase set: a feeder whose lines span all seven phase sets
    costs as many Python calls as a copy with three. The counts may differ
    by the scatter plan's summand ranks (a call or two each), not by a
    loop per phase set (about 500 calls on these feeders)."""
    model = bench_feeders().generate_feeder(seed, 60)
    relabelled = _three_phase_sets(model)
    assert not tf.validate(relabelled)
    assert len({ln.z.phases for ln in model.lines}) == 7
    assert len({ln.z.phases for ln in relabelled.lines}) == 3
    assert [len(ln.z.phases) for ln in relabelled.lines] == [len(ln.z.phases) for ln in model.lines]
    assert abs(_line_calls(model) - _line_calls(relabelled)) <= 20


def test_linear_powerflow_rejects_a_wrong_number_of_ratio_maps(ieee13):
    ratios = tf.taps_to_ratios(ieee13, tf.zero_taps(ieee13))
    constants = tf.constants_balanced(ieee13)
    for wrong in ([], ratios * 2):
        with pytest.raises(ValueError, match=f"{len(wrong)} ratio maps for 1 regulators"):
            tf.linear_powerflow(ieee13, constants, wrong)


def test_linear_powerflow_rejects_a_missing_phase(ieee13):
    ratios = tf.taps_to_ratios(ieee13, tf.zero_taps(ieee13))
    del ratios[0]["b"]
    with pytest.raises(ValueError, match=r"svr 650->RG60: no ratio for phase\(s\) \['b'\]"):
        tf.linear_powerflow(ieee13, tf.constants_balanced(ieee13), ratios)
