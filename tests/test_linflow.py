import numpy as np
import pytest

import tapflow as tf

from conftest import PARITY_FEEDERS, chain_model
from lp_reference import sweep_powerflow

ALPHA = np.exp(2j * np.pi / 3)


def test_balanced_rotation_entries():
    model = chain_model([0.1], phases=("a", "b", "c"))
    const = tf.constants_balanced(model)
    g = const.gamma["sub->b1"]
    assert g.entry("a", "a") == pytest.approx(1.0)
    assert g.entry("a", "b") == pytest.approx(ALPHA)
    assert g.entry("a", "c") == pytest.approx(ALPHA**2)
    assert g.entry("b", "c") == pytest.approx(ALPHA)
    assert g.entry("c", "a") == pytest.approx(ALPHA)
    assert np.max(np.abs(const.h["sub->b1"].values)) == 0.0
    assert np.max(np.abs(const.l["sub->b1"].values)) == 0.0


def test_balanced_single_phase_is_identity():
    model = chain_model([0.1])
    g = tf.constants_balanced(model).gamma["sub->b1"]
    assert g.array.shape == (1, 1) and g.entry("a", "a") == 1.0


def test_constants_zero_current_base():
    model = chain_model([0.0, 0.0])
    base = tf.solve_zbus(model, [])
    const = tf.constants_from_solution(model, base)
    for key in ("sub->b1", "b1->b2"):
        assert np.max(np.abs(const.h[key].values)) < 1e-15
        assert np.max(np.abs(const.l[key].values)) < 1e-15
        assert const.gamma[key].entry("a", "a") == pytest.approx(1.0)


def test_constants_require_convergence():
    model = chain_model([40.0 + 20.0j], z_per_edge=0.05 + 0.15j)
    sol = tf.solve_zbus(model, [], max_iter=50)
    with pytest.raises(ValueError):
        tf.constants_from_solution(model, sol)


def test_flat_balanced_base_equals_balanced_constants():
    model = chain_model([0.0], phases=("a", "b", "c"))
    base = tf.solve_zbus(model, [])
    got = tf.constants_from_solution(model, base)
    want = tf.constants_balanced(model)
    assert np.allclose(got.gamma["sub->b1"].array, want.gamma["sub->b1"].array,
                       atol=1e-12)


def test_zero_load_linear_flow_flat():
    model = chain_model([0.0, 0.0], phases=("a", "b", "c"))
    ratios = []
    v_sq, flows = tf.linear_powerflow(model, tf.constants_balanced(model), ratios)
    for bid in ("b1", "b2"):
        assert np.allclose([v_sq[bid][p].real for p in "abc"], 1.0, atol=1e-14)
    for vec in flows.values():
        assert np.max(np.abs(vec.values)) < 1e-14


def exactness_error(model, ratios):
    sol = tf.solve_zbus(model, ratios, tol=1e-12)
    assert sol.converged
    const = tf.constants_from_solution(model, sol)
    v_sq, flows = tf.linear_powerflow(model, const, ratios)
    worst = 0.0
    for bid, vec in sol.voltages.items():
        for p in vec.phases:
            worst = max(worst, abs(v_sq[bid][p].real - abs(vec[p]) ** 2))
    return worst


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
    const = tf.constants_from_solution(ieee13, ieee13_base)
    ratios = tf.taps_to_ratios(ieee13, tf.zero_taps(ieee13))
    v_sq, flows = tf.linear_powerflow(ieee13, const, ratios)

    cfg = tf.config_from_model(ieee13, v_min=0.5, v_max=1.5)
    lp, varmap = tf.build_lp(ieee13, const, cfg)
    x = np.zeros(lp.A.shape[1])
    for (bus, p), col in varmap.vsq.items():
        x[col] = v_sq[bus][p].real
    for (key, p), (re_col, im_col) in varmap.flow.items():
        x[re_col] = flows[key][p].real
        x[im_col] = flows[key][p].imag
    resid = lp.A @ x - lp.b
    # Ratio-window rows contain slack columns we left at zero; check the rest.
    eq_rows = [i for i in range(lp.A.shape[0])]
    slack_cols = {c for pair in varmap.slack_cols.values() for c in pair}
    acsr = lp.A.tocsr()
    for i in eq_rows:
        cols = set(acsr.indices[acsr.indptr[i]:acsr.indptr[i + 1]])
        if cols & slack_cols:
            continue
        assert abs(resid[i]) < 1e-9, f"row {i}"


def test_overestimation_on_shipped_fixtures(ieee13, ieee13_base, tiny3):
    ratios = tf.taps_to_ratios(ieee13, tf.zero_taps(ieee13))
    v_sq, _ = tf.linear_powerflow(ieee13, tf.constants_balanced(ieee13), ratios)
    rep = tf.lindiff(ieee13, ieee13_base, v_sq)
    assert rep.min_lin >= rep.min_exact

    r3 = tf.taps_to_ratios(tiny3, tf.zero_taps(tiny3))
    sol3 = tf.solve_zbus(tiny3, r3)
    v_sq3, _ = tf.linear_powerflow(tiny3, tf.constants_balanced(tiny3), r3)
    rep3 = tf.lindiff(tiny3, sol3, v_sq3)
    assert rep3.min_lin >= rep3.min_exact


def test_lindiff_csv_schema(ieee13, ieee13_base):
    ratios = tf.taps_to_ratios(ieee13, tf.zero_taps(ieee13))
    v_sq, _ = tf.linear_powerflow(ieee13, tf.constants_balanced(ieee13), ratios)
    text = tf.lindiff(ieee13, ieee13_base, v_sq).to_csv()
    lines = text.strip().splitlines()
    assert lines[0] == "phase,max_abs_diff,min_v_linear,min_v_exact"
    assert [ln.split(",")[0] for ln in lines[1:]] == ["a", "b", "c", "all"]


@pytest.mark.parametrize("name", sorted(PARITY_FEEDERS))
def test_linear_powerflow_matches_sweep(name, request):
    """One LU solve of the model's rows agrees with the backward/forward sweep."""
    model = PARITY_FEEDERS[name](request)
    zero = tf.taps_to_ratios(model, tf.zero_taps(model))
    taps = [{p: (-1) ** k * (3 + 2 * k) for k, p in enumerate(sv.phases)} for sv in model.svrs]
    shifted = tf.taps_to_ratios(model, taps)
    base = tf.solve_zbus(model, zero, tol=1e-12)
    assert base.converged
    for constants in (tf.constants_balanced(model), tf.constants_from_solution(model, base)):
        for ratios in (zero, shifted):
            v_sq, flows = tf.linear_powerflow(model, constants, ratios)
            v_ref, f_ref = sweep_powerflow(model, constants, ratios)
            assert v_sq.keys() == v_ref.keys() and flows.keys() == f_ref.keys()
            for bid, vec in v_ref.items():
                assert v_sq[bid].phases == vec.phases
                assert np.max(np.abs(v_sq[bid].values - vec.values)) <= 1e-12
            for key, vec in f_ref.items():
                assert flows[key].phases == vec.phases
                assert np.max(np.abs(flows[key].values - vec.values)) <= 1e-12


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
