import dataclasses
import json
import math

import numpy as np
import pytest

import tapflow as tf
from tapflow import linflow, opts
from tapflow.errors import PipelineError

from conftest import PARITY_FEEDERS, bench_feeders, cascade_model, chain_model
from lp_reference import pin_row_lexicographic


def census(model):
    """Variable/row counts derived from the model alone, independent of the builder."""
    slack = model.slack.id
    bus_ph = sum(len(b.phases) for b in model.buses if not b.is_slack)
    line_ph = sum(len(ln.z.phases) for ln in model.lines)
    svr_ph = sum(len(s.phases) for s in model.svrs)
    n_vars = bus_ph + 2 * (line_ph + svr_ph) + 2 * svr_ph
    n_rows = line_ph + 2 * line_ph + 2 * svr_ph + 2 * svr_ph
    return n_vars, n_rows


def build(model, **cfg_over):
    cfg = tf.config_from_model(model, **cfg_over)
    base = tf.solve_zbus(model, tf.taps_to_ratios(model, tf.zero_taps(model)))
    const = tf.constants_from_solution(model, base)
    return tf.build_lp(model, const, cfg), cfg


# ---------------------------------------------------------------------------
# build_lp
# ---------------------------------------------------------------------------

def test_two_bus_single_phase_counts():
    model = chain_model([0.2 + 0.1j])
    (lp, varmap), _ = build(model)
    assert lp.A.shape == (3, 3)            # 1 drop row + 2 balance rows
    assert len(varmap.vsq) == 1 and len(varmap.flow) == 1


def test_single_phase_svr_adds_four_rows():
    plain = chain_model([0.2 + 0.1j])
    with_svr = chain_model([0.2 + 0.1j], svr_kind="B")
    (lp0, _), _ = build(plain)
    (lp1, vm1), _ = build(with_svr)
    # Two ratio-window inequality rows + Re/Im of the exact SVR balance.
    assert lp1.A.shape[0] - lp0.A.shape[0] == 4
    assert len(vm1.slack_cols) == 1


def test_ieee13_census_matches_manifest(ieee13):
    from conftest import FIXTURES

    (lp, varmap), _ = build(ieee13)
    n_vars, n_rows = census(ieee13)
    assert lp.A.shape == (n_rows, n_vars)
    manifest = json.loads((FIXTURES / "ieee13_manifest.json").read_text())
    assert lp.A.shape[1] == manifest["lp_variables"]
    assert lp.A.shape[0] == manifest["lp_rows"]


def test_voltage_bounds_applied(ieee13):
    (lp, varmap), cfg = build(ieee13)
    for col in varmap.vsq.values():
        assert lp.lower[col] == pytest.approx(cfg.v_min**2)
        assert lp.upper[col] == pytest.approx(cfg.v_max**2)
    for (key, p), (re_col, im_col) in varmap.flow.items():
        assert lp.lower[re_col] == -np.inf and lp.upper[im_col] == np.inf


# ---------------------------------------------------------------------------
# recover_ratios
# ---------------------------------------------------------------------------

def test_recover_ratio_formula(tiny3):
    (lp, varmap), _ = build(tiny3)
    x = np.zeros(lp.A.shape[1])
    x[varmap.vsq[("reg", "a")]] = 1.0
    x[varmap.vsq[("load", "a")]] = 1.0
    assert tf.recover_ratios(x, varmap, tiny3)[0]["a"] == pytest.approx(1.0)
    x[varmap.vsq[("reg", "a")]] = 1.0 / 0.81
    # sqrt(v_up / v_down) with the slack as the upstream side: 1 / sqrt(1.2346) = 0.9
    assert tf.recover_ratios(x, varmap, tiny3)[0]["a"] == pytest.approx(0.9)


def test_recover_rejects_nonpositive(tiny3):
    (lp, varmap), _ = build(tiny3)
    x = np.zeros(lp.A.shape[1])
    with pytest.raises(ValueError, match="nonpositive"):
        tf.recover_ratios(x, varmap, tiny3)


def test_recover_rejects_large_excursion(tiny3):
    (lp, varmap), _ = build(tiny3)
    x = np.zeros(lp.A.shape[1])
    x[varmap.vsq[("reg", "a")]] = 4.0     # ratio sqrt(1/4) = 0.5, far out of range
    x[varmap.vsq[("load", "a")]] = 4.0
    with pytest.raises(ValueError, match="outside"):
        tf.recover_ratios(x, varmap, tiny3)


def test_recover_clamps_solver_noise(tiny3):
    (lp, varmap), _ = build(tiny3)
    x = np.zeros(lp.A.shape[1])
    eps = 1e-8
    x[varmap.vsq[("reg", "a")]] = (1.0 / 0.81) * (1 + eps)
    x[varmap.vsq[("load", "a")]] = 1.0
    r = tf.recover_ratios(x, varmap, tiny3)[0]["a"]
    assert r == 0.9


# ---------------------------------------------------------------------------
# Ratio-window relaxation invariants
# ---------------------------------------------------------------------------

def test_ratio_window_membership_and_recovery():
    rng = np.random.default_rng(13)
    r_lo, r_hi = 0.9, 1.1
    for _ in range(1000):
        r = rng.uniform(r_lo, r_hi)
        v_dn = rng.uniform(0.5, 1.5)
        v_up = r**2 * v_dn
        assert r_lo**2 * v_dn - 1e-12 <= v_up <= r_hi**2 * v_dn + 1e-12
        back = np.sqrt(v_up / v_dn)
        assert r_lo - 1e-9 <= back <= r_hi + 1e-9


# ---------------------------------------------------------------------------
# run_opts pipeline
# ---------------------------------------------------------------------------

def test_run_opts_no_svrs(ieee13):
    stripped_buses = []
    for b in ieee13.buses:
        if b.id == "RG60":
            continue
        stripped_buses.append(b)
    lines = tuple(
        tf.LineSpec(from_bus="650" if ln.from_bus == "RG60" else ln.from_bus,
                    to_bus=ln.to_bus, z=ln.z)
        for ln in ieee13.lines)
    model = tf.FeederModel(buses=tuple(stripped_buses), lines=lines, svrs=(),
                           slack_voltage=ieee13.slack_voltage)
    assert not tf.validate(model)
    report = tf.run_opts(model, tf.config_from_model(model))
    assert report.taps == [] and report.ratios == []
    assert report.objective_lp is None
    assert report.objective_verified == pytest.approx(0.7198, rel=0.01)
    assert not report.feasible                      # min voltage below 0.9


def test_run_opts_tiny3_against_bruteforce(tiny3):
    cfg = tf.config_from_model(tiny3)
    report = tf.run_opts(tiny3, cfg)
    oracle = tf.brute_force(tiny3, cfg)
    assert report.objective_verified <= oracle.objective * 1.005
    sol = tf.solve_zbus(tiny3, tf.taps_to_ratios(tiny3, oracle.taps))
    assert tf.feasibility(sol, tiny3, cfg.v_min_verify, cfg.v_max_verify)


def test_tap_snap_consistency(tiny3):
    report = tf.run_opts(tiny3, tf.config_from_model(tiny3))
    for sv, taps, ratios in zip(tiny3.svrs, report.taps, report.ratios):
        for p in sv.phases:
            assert ratios[p] == tf.tap_to_ratio(taps[p], sv.kind, sv.step,
                                                sv.tap_min, sv.tap_max)


def test_monotone_versus_no_svr_on_fixtures(ieee13, tiny3):
    for model in (ieee13, tiny3):
        cfg = tf.config_from_model(model)
        base = tf.solve_zbus(model, tf.taps_to_ratios(model, tf.zero_taps(model)))
        c_zero = tf.import_objective(base, model)
        report = tf.run_opts(model, cfg)
        assert report.objective_verified <= c_zero


def test_svr_power_balance_in_lp_solution(ieee13):
    (lp, varmap), cfg = build(ieee13)
    sol, _ = tf.solve_lp_lexicographic(lp, varmap)
    assert sol.status == "optimal"
    idx = tf.tree_index(ieee13)
    for svx, sv in enumerate(ieee13.svrs):
        child = idx.children[sv.to_bus][0]
        for p in sv.phases:
            re_s, im_s = varmap.flow[(f"{sv.from_bus}->{sv.to_bus}", p)]
            re_c, im_c = varmap.flow[(child.key(), p)]
            assert abs(sol.x[re_s] - sol.x[re_c]) <= 1e-7
            assert abs(sol.x[im_s] - sol.x[im_c]) <= 1e-7


def test_in_place_tie_break_matches_pin_row_reference(monkeypatch, ieee13, tiny3):
    """The condensed lexicographic solve picks the taps and import value that
    two full-LP solves of build_lp's LP, the second with a pinned import row,
    pick."""
    models = [ieee13, tiny3,
              chain_model([0.1 + 0.03j] * 3, svr_kind="B"),
              chain_model([0.05 + 0.02j] * 6, svr_kind="A"),
              chain_model([0.01 + 0.004j] * 25, z_per_edge=0.002 + 0.006j, svr_kind="B",
                          phases=("a", "b", "c")),
              cascade_model(shunt_y=0.01 + 0.03j)]
    got = [tf.run_opts(m, tf.config_from_model(m)) for m in models]
    monkeypatch.setattr(opts, "solve_lp_lexicographic", pin_row_lexicographic)
    for model, report in zip(models, got):
        want = tf.run_opts(model, tf.config_from_model(model))
        assert report.taps == want.taps
        assert abs(report.objective_lp - want.objective_lp) <= 1e-9
        assert report.objective_verified == want.objective_verified
        assert report.v_envelope == want.v_envelope


_GENERATED = [(960, 15), (961, 30), (962, 45), (963, 60)]


@pytest.mark.parametrize("name", sorted(PARITY_FEEDERS) + ["cascade-injecting"]
                         + [f"gen{s}-{n}" for s, n in _GENERATED])
def test_condensed_matches_full_lp_reference(request, name):
    """On the parity feeders and generated 15-60 bus feeders the condensed
    solve lands on the full-LP reference's taps and import value. The
    injecting shunt (negative conductance) makes the lowest profile import
    more than the optimum, so there the pin row decides the answer."""
    if name in PARITY_FEEDERS:
        model = PARITY_FEEDERS[name](request)
    elif name == "cascade-injecting":
        model = cascade_model(shunt_y=-0.01 + 0.03j)
    else:
        seed, n_buses = (int(v) for v in name[3:].split("-"))
        model = bench_feeders().generate_feeder(seed, n_buses)
    (lp, varmap), _ = build(model)
    sol, import_value = tf.solve_lp_lexicographic(lp, varmap)
    ref, ref_value = pin_row_lexicographic(lp, varmap)
    assert sol.status == ref.status == "optimal" and sol.tie_break == "optimal"
    assert abs(import_value - ref_value) <= 1e-9
    assert sol.objective == import_value
    primal, bound = tf.residuals(lp, sol)
    assert primal <= 1e-9 and bound <= 1e-9

    def taps(x):
        return [{p: tf.ratio_to_tap(r[p], sv.kind, sv.step, sv.tap_min, sv.tap_max)
                 for p in sv.phases}
                for sv, r in zip(model.svrs, tf.recover_ratios(x, varmap, model))]

    assert taps(sol.x) == taps(ref.x)


def test_condensed_without_regulators():
    """With no regulator (k = 0) the LP has one point, the linear power flow;
    it is returned when it lies inside the band and reported infeasible when not."""
    model = chain_model([0.25 + 0.1j, 0.2 + 0.08j])
    base = tf.solve_zbus(model, [])
    const = tf.constants_from_solution(model, base)
    v_sq, flows = tf.linear_powerflow(model, const, [])
    lp, varmap = tf.build_lp(model, const, tf.config_from_model(model))
    sol, import_value = tf.solve_lp_lexicographic(lp, varmap)
    assert sol.status == "optimal" and sol.tie_break == "optimal"
    for (bus, p), col in varmap.vsq.items():
        assert sol.x[col] == pytest.approx(v_sq[bus][p].real, abs=1e-12)
    assert import_value == pytest.approx(flows["sub->b1"]["a"].real, abs=1e-12)

    tight = tf.config_from_model(model, v_min=1.0, v_max=1.05)
    lp, varmap = tf.build_lp(model, const, tight)
    sol, import_value = tf.solve_lp_lexicographic(lp, varmap)
    assert sol.status == "infeasible" and math.isnan(import_value)


@pytest.mark.parametrize("model", [cascade_model(), cascade_model(shunt_y=0.01 + 0.03j)],
                         ids=["profile-pass-only", "import-pass"])
def test_infeasible_band_raises_at_solve_lp(model):
    """No regulator ratio brings the first secondary down to the band."""
    cfg = tf.config_from_model(model, v_min=0.5, v_max=0.6)
    with pytest.raises(PipelineError, match="status infeasible") as err:
        tf.run_opts(model, cfg)
    assert err.value.stage == "solve_lp"


def test_singular_elimination_raises_pipeline_error(monkeypatch, tiny3):
    def singular(matrix):
        raise RuntimeError("Factor is exactly singular")

    monkeypatch.setattr(linflow, "splu", singular)
    with pytest.raises(PipelineError, match="singular") as err:
        tf.run_opts(tiny3, tf.config_from_model(tiny3))
    assert err.value.stage == "solve_lp"


def test_lexicographic_reports_tie_break_status(ieee13_lp):
    lp, varmap = ieee13_lp
    sol, import_value = tf.solve_lp_lexicographic(lp, varmap)
    assert sol.status == "optimal" and sol.tie_break == "optimal"
    assert import_value == tf.solve_lp(lp).objective


def test_lp_objective_not_above_feasible_zero_tap_point(tiny3):
    """Minimization sanity: the optimum is no worse than the zero-tap linear
    point whenever that point is feasible (relaxed voltage band)."""
    (lp, varmap), cfg = build(tiny3, v_min=0.8, v_max=1.2)
    base = tf.solve_zbus(tiny3, tf.taps_to_ratios(tiny3, tf.zero_taps(tiny3)))
    const = tf.constants_from_solution(tiny3, base)
    v_sq, flows = tf.linear_powerflow(tiny3, const,
                                      tf.taps_to_ratios(tiny3, tf.zero_taps(tiny3)))
    assert all(cfg.v_min**2 <= v_sq[b][p].real <= cfg.v_max**2
               for b in v_sq if b != "sub" for p in v_sq[b].phases)
    zero_tap_obj = sum(flows[key][p].real
                       for key in flows for p in flows[key].phases
                       if key.startswith("sub->"))
    sol = tf.solve_lp(lp)
    assert sol.status == "optimal"
    assert sol.objective <= zero_tap_obj + 1e-9


def test_pipeline_error_carries_stage(tiny3):
    cfg = tf.config_from_model(tiny3, v_min=1.04, v_max=1.05)   # infeasible band
    with pytest.raises(PipelineError) as err:
        tf.run_opts(tiny3, cfg)
    assert err.value.stage == "solve_lp"


def test_run_opts_with_lower_bound(tiny3):
    cfg = tf.config_from_model(tiny3)
    oracle = tf.brute_force(tiny3, cfg)
    report = tf.run_opts(tiny3, cfg, lower_bound=oracle.objective)
    assert report.gap_percent is not None
    assert report.gap_percent <= 0.5


# ---------------------------------------------------------------------------
# Gap arithmetic and report serialization
# ---------------------------------------------------------------------------

def test_optimality_gap_paper_values():
    assert tf.optimality_gap(0.7176, 0.7141) == pytest.approx(0.49, abs=0.01)
    assert tf.optimality_gap(0.4206, 0.4161) == pytest.approx(1.08, abs=0.01)
    assert tf.optimality_gap(0.5, 0.5) == 0.0
    assert tf.optimality_gap(0.4176, 0.4184) < 0.0    # inconsistent bound passes through
    with pytest.raises(ValueError):
        tf.optimality_gap(1.0, 0.0)


def test_report_serialization(tiny3):
    report = tf.run_opts(tiny3, tf.config_from_model(tiny3))
    doc = json.loads(report.to_json())
    assert {"objective_lp", "objective_verified", "v_envelope", "feasible",
            "unbalance", "gap_percent", "timings", "svrs"} <= set(doc)
    assert doc["svrs"][0]["id"] == "sub->reg"

    summary = report.summary_csv()
    assert summary.splitlines()[0].startswith("method,objective_lp")
    taps_csv = report.taps_csv()
    assert taps_csv.splitlines()[0] == "svr,phases,taps"
    assert taps_csv.splitlines()[1].startswith("sub->reg,a,")


# ---------------------------------------------------------------------------
# Brute force
# ---------------------------------------------------------------------------

def test_bruteforce_cap():
    model = chain_model([0.1 + 0.05j], svr_kind="B")
    with pytest.raises(ValueError, match="cap"):
        tf.brute_force(model, tf.config_from_model(model), cap=10)


def test_bruteforce_zero_load_prefers_neutral_taps():
    model = chain_model([0.0], svr_kind="B")
    result = tf.brute_force(model, tf.config_from_model(model))
    assert result.taps == [{"a": 0}]
    assert result.objective == pytest.approx(0.0, abs=1e-12)


def test_bruteforce_best_not_above_any_feasible(tiny3):
    cfg = tf.config_from_model(tiny3)
    best = tf.brute_force(tiny3, cfg)
    sv = tiny3.svrs[0]
    for tap in range(sv.tap_min, sv.tap_max + 1):
        sol = tf.solve_zbus(tiny3, tf.taps_to_ratios(tiny3, [{"a": tap}]))
        if not sol.converged or not tf.feasibility(sol, tiny3, cfg.v_min_verify,
                                                   cfg.v_max_verify):
            continue
        assert best.objective <= tf.import_objective(sol, tiny3) + 1e-12


def test_bruteforce_ieee13_optimum(ieee13):
    """IEEE-13's discrete optimum over the full tap grid (35,937 combinations)
    is 0.714279 at taps (14, 13, 14). The grid windowed to taps 12..16 on
    every regulator phase holds it and takes 125 solves."""
    model = dataclasses.replace(ieee13, svrs=tuple(
        dataclasses.replace(sv, tap_min=12, tap_max=16) for sv in ieee13.svrs))
    result = tf.brute_force(model, tf.config_from_model(model))
    assert result.taps == [{"a": 14, "b": 13, "c": 14}]
    assert result.objective == pytest.approx(0.7142790613732702, abs=1e-9)
    assert result.evaluated == 125


@pytest.mark.parametrize("name", ["tiny3", "ieee13"])
def test_bruteforce_shared_stamps_match_fresh_solves(monkeypatch, request, name):
    """One stamp set per sweep gives the answer of a fresh assembly for each
    combination (IEEE-13 with its taps windowed to -2..2)."""
    model = request.getfixturevalue(name)
    if name == "ieee13":
        model = dataclasses.replace(model, svrs=tuple(
            dataclasses.replace(sv, tap_min=-2, tap_max=2) for sv in model.svrs))
    cfg = tf.config_from_model(model)
    shared = tf.brute_force(model, cfg)

    passed = []

    def fresh_solve(*args, stamps=None, **kwargs):
        passed.append(stamps is not None)
        return tf.solve_zbus(*args, **kwargs)

    monkeypatch.setattr(opts, "solve_zbus", fresh_solve)
    fresh = tf.brute_force(model, cfg)
    assert len(passed) == fresh.evaluated and all(passed)
    assert shared.taps == fresh.taps
    assert shared.objective.hex() == fresh.objective.hex()
    assert (shared.feasible_count, shared.evaluated) == (fresh.feasible_count, fresh.evaluated)
