import dataclasses
import json
import math

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import splu

import tapflow as tf
from tapflow import linflow, opts, ybus, zbus
from tapflow.errors import PipelineError

from conftest import PARITY_FEEDERS, bench_feeders, cascade_model, chain_model, lp_columns
from lp_reference import pin_row_lexicographic
import stamps_reference
from sweep_reference import loop_brute_force


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
    const = tf.constants_from_solution(base)
    return tf.build_lp(model, const, cfg), cfg


# ---------------------------------------------------------------------------
# build_lp
# ---------------------------------------------------------------------------

def test_two_bus_single_phase_counts():
    model = chain_model([0.2 + 0.1j])
    (lp, varmap), _ = build(model)
    assert lp.A.shape == (3, 3)            # 1 drop row + 2 balance rows
    vsq, flow, _ = lp_columns(model, varmap)
    assert len(vsq) == 1 and len(flow) == 1


def test_single_phase_svr_adds_four_rows():
    plain = chain_model([0.2 + 0.1j])
    with_svr = chain_model([0.2 + 0.1j], svr_kind="B")
    (lp0, _), _ = build(plain)
    (lp1, vm1), _ = build(with_svr)
    # Two ratio-window inequality rows + Re/Im of the exact SVR balance.
    assert lp1.A.shape[0] - lp0.A.shape[0] == 4
    assert vm1.slack_cols.shape == (1, 2)


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
    vsq, flow, _ = lp_columns(ieee13, varmap)
    for col in vsq.values():
        assert lp.lower[col] == pytest.approx(cfg.v_min**2)
        assert lp.upper[col] == pytest.approx(cfg.v_max**2)
    for (key, p), (re_col, im_col) in flow.items():
        assert lp.lower[re_col] == -np.inf and lp.upper[im_col] == np.inf


# ---------------------------------------------------------------------------
# recover_ratios
# ---------------------------------------------------------------------------

def test_recover_ratio_formula(tiny3):
    (lp, varmap), _ = build(tiny3)
    vsq, _, _ = lp_columns(tiny3, varmap)
    x = np.zeros(lp.A.shape[1])
    x[vsq[("reg", "a")]] = 1.0
    x[vsq[("load", "a")]] = 1.0
    assert tf.recover_ratios(x, varmap, tiny3)[0]["a"] == pytest.approx(1.0)
    x[vsq[("reg", "a")]] = 1.0 / 0.81
    # sqrt(v_up / v_down) with the slack as the upstream side: 1 / sqrt(1.2346) = 0.9
    assert tf.recover_ratios(x, varmap, tiny3)[0]["a"] == pytest.approx(0.9)


def test_recover_rejects_nonpositive(tiny3):
    (lp, varmap), _ = build(tiny3)
    x = np.zeros(lp.A.shape[1])
    with pytest.raises(PipelineError, match="nonpositive") as err:
        tf.recover_ratios(x, varmap, tiny3)
    assert err.value.stage == "recover"


def test_recover_rejects_large_excursion(tiny3):
    (lp, varmap), _ = build(tiny3)
    vsq, _, _ = lp_columns(tiny3, varmap)
    x = np.zeros(lp.A.shape[1])
    x[vsq[("reg", "a")]] = 4.0     # ratio sqrt(1/4) = 0.5, far out of range
    x[vsq[("load", "a")]] = 4.0
    with pytest.raises(PipelineError, match="outside") as err:
        tf.recover_ratios(x, varmap, tiny3)
    assert err.value.stage == "recover"


def test_recover_clamps_solver_noise(tiny3):
    (lp, varmap), _ = build(tiny3)
    vsq, _, _ = lp_columns(tiny3, varmap)
    x = np.zeros(lp.A.shape[1])
    eps = 1e-8
    x[vsq[("reg", "a")]] = (1.0 / 0.81) * (1 + eps)
    x[vsq[("load", "a")]] = 1.0
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
            assert ratios[p] == sv.ratio(taps[p])


def test_monotone_versus_no_svr_on_fixtures(ieee13, tiny3):
    for model in (ieee13, tiny3):
        cfg = tf.config_from_model(model)
        base = tf.solve_zbus(model, tf.taps_to_ratios(model, tf.zero_taps(model)))
        c_zero = tf.import_objective(base, model)
        report = tf.run_opts(model, cfg)
        assert report.objective_verified <= c_zero


def test_svr_power_balance_in_lp_solution(ieee13):
    (lp, varmap), cfg = build(ieee13)
    sol = tf.solve_lp_lexicographic(lp, varmap)
    assert sol.status == "optimal"
    idx = stamps_reference.tree_index(ieee13)
    _, flow, _ = lp_columns(ieee13, varmap)
    for svx, sv in enumerate(ieee13.svrs):
        child = idx.children[sv.to_bus][0]
        for p in sv.phases:
            re_s, im_s = flow[(f"{sv.from_bus}->{sv.to_bus}", p)]
            re_c, im_c = flow[(child.key(), p)]
            assert abs(sol.x[re_s] - sol.x[re_c]) <= 1e-7
            assert abs(sol.x[im_s] - sol.x[im_c]) <= 1e-7


def _pinned(lp, varmap):
    """``pin_row_lexicographic`` in ``solve_lp_lexicographic``'s shape: its
    solution, with the import value as the objective."""
    sol, import_value = pin_row_lexicographic(lp, varmap)
    return dataclasses.replace(sol, objective=import_value)


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
    monkeypatch.setattr(opts, "solve_lp_lexicographic", _pinned)
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
    more than the optimum, so there the pin row decides the answer. The
    generated feeders' shunts get a conductance of 0.3 |b|, so that import
    depends on the taps and the import pass and its pin row run."""
    if name in PARITY_FEEDERS:
        model = PARITY_FEEDERS[name](request)
    elif name == "cascade-injecting":
        model = cascade_model(shunt_y=-0.01 + 0.03j)
    else:
        seed, n_buses = (int(v) for v in name[3:].split("-"))
        model = bench_feeders().generate_feeder(seed, n_buses)
        model = dataclasses.replace(model, buses=tuple(
            b if b.shunt is None else dataclasses.replace(b, shunt=tf.PhaseMatrix(
                b.shunt.phases, b.shunt.array + 0.3 * np.abs(b.shunt.array.imag)))
            for b in model.buses))
    (lp, varmap), _ = build(model)
    if name.startswith("gen"):
        assert np.any(lp.c @ linflow.eliminate(varmap, "solve_lp")[1])
    sol = tf.solve_lp_lexicographic(lp, varmap)
    ref, ref_value = pin_row_lexicographic(lp, varmap)
    assert sol.status == ref.status == "optimal" and sol.tie_break == "optimal"
    assert abs(sol.objective - ref_value) <= 1e-9
    primal, bound = tf.residuals(lp, sol)
    assert primal <= 1e-9 and bound <= 1e-9

    def taps(x):
        return [{p: sv.tap(r[p]) for p in sv.phases}
                for sv, r in zip(model.svrs, tf.recover_ratios(x, varmap, model))]

    assert taps(sol.x) == taps(ref.x)


def test_condensed_without_regulators():
    """With no regulator (k = 0) the LP has one point, the linear power flow;
    it is returned when it lies inside the band and reported infeasible when not."""
    model = chain_model([0.25 + 0.1j, 0.2 + 0.08j])
    base = tf.solve_zbus(model, [])
    const = tf.constants_from_solution(base)
    v_sq, flows = tf.linear_powerflow(model, const, [])
    lp, varmap = tf.build_lp(model, const, tf.config_from_model(model))
    sol = tf.solve_lp_lexicographic(lp, varmap)
    assert sol.status == "optimal" and sol.tie_break == "optimal"
    vcol = varmap.vcol[varmap.layout.at >= 0]      # per coordinate of v_sq, -1 at the slack
    assert sol.x[vcol[vcol >= 0]] == pytest.approx(v_sq[vcol >= 0], abs=1e-12)
    assert sol.objective == pytest.approx(flows[0, 0].real, abs=1e-12)    # sub->b1, phase a

    tight = tf.config_from_model(model, v_min=1.0, v_max=1.05)
    lp, varmap = tf.build_lp(model, const, tight)
    sol = tf.solve_lp_lexicographic(lp, varmap)
    assert sol.status == "infeasible"


@pytest.mark.parametrize("model", [cascade_model(), cascade_model(shunt_y=0.01 + 0.03j)],
                         ids=["profile-pass-only", "import-pass"])
def test_infeasible_band_raises_at_solve_lp(model):
    """No regulator ratio brings the first secondary down to the band."""
    cfg = tf.config_from_model(model, v_min=0.5, v_max=0.6)
    with pytest.raises(PipelineError, match="status infeasible") as err:
        tf.run_opts(model, cfg)
    assert err.value.stage == "solve_lp"


def test_singular_elimination_raises_pipeline_error(monkeypatch, tiny3):
    """A singular factorization is reported at the LP's stage, for tiny3's
    LP and for generate_feeder(5, 200)'s, both factored leaves first."""
    calls = []

    def singular(matrix, **kwargs):
        calls.append(kwargs)
        raise RuntimeError("Factor is exactly singular")

    monkeypatch.setattr(linflow, "splu", singular)
    for model in (tiny3, bench_feeders().generate_feeder(5, 200)):
        del calls[:]
        with pytest.raises(PipelineError, match="singular") as err:
            tf.run_opts(model, tf.config_from_model(model))
        assert err.value.stage == "solve_lp" and calls == [{"permc_spec": "NATURAL"}]


@pytest.mark.parametrize("rows,cols", [(0, 3), (4, 0), (1, 1), (7, 2), (60, 6), (257, 12)])
def test_condensed_transpose_equals_scipy_conversion(rows, cols):
    """The dual's matrix G.T, read from ``np.nonzero(G)``, has the data bytes,
    indices and index pointers, dtypes included, of ``sp.csc_matrix(G.T)``,
    on seeded G with signed zeros, all-zero rows and all-zero columns."""
    rng = np.random.default_rng([rows, cols])
    G = rng.normal(size=(rows, cols)) * rng.choice([1.0, 0.0, -0.0], size=(rows, cols))
    G[::3] = -0.0
    G[:, ::4] = 0.0
    got, want = opts._csc_of_transpose(G), sp.csc_matrix(G.T)
    assert got.shape == want.shape
    for part in ("data", "indices", "indptr"):
        a, b = getattr(got, part), getattr(want, part)
        assert (a.dtype, a.tobytes()) == (b.dtype, b.tobytes()), part


def test_lexicographic_reports_tie_break_status(ieee13_lp):
    lp, varmap = ieee13_lp
    sol = tf.solve_lp_lexicographic(lp, varmap)
    assert sol.status == "optimal" and sol.tie_break == "optimal"
    # IEEE-13's import is constant over the feasible set (c @ N = 0), so the
    # import pass is skipped and the value is read at the profile pass's
    # point: a different LP than solve_lp's, equal up to rounding.
    assert sol.objective == pytest.approx(tf.solve_lp(lp).objective, rel=1e-12, abs=0)


def test_lp_objective_not_above_feasible_zero_tap_point(tiny3):
    """Minimization sanity: the optimum is no worse than the zero-tap linear
    point whenever that point is feasible (relaxed voltage band)."""
    (lp, varmap), cfg = build(tiny3, v_min=0.8, v_max=1.2)
    base = tf.solve_zbus(tiny3, tf.taps_to_ratios(tiny3, tf.zero_taps(tiny3)))
    const = tf.constants_from_solution(base)
    v_sq, flows = tf.linear_powerflow(tiny3, const,
                                      tf.taps_to_ratios(tiny3, tf.zero_taps(tiny3)))
    nonslack = v_sq[base.system.stamps.nonslack_at]
    assert np.all((cfg.v_min**2 <= nonslack) & (nonslack <= cfg.v_max**2))
    layout = const.layout                     # the edges out of the slack bus
    zero_tap_obj = flows[layout.slack[np.concatenate([layout.frm, layout.svr_ends[:, 0]])]].real.sum()
    sol = tf.solve_lp(lp)
    assert sol.status == "optimal"
    assert sol.objective <= zero_tap_obj + 1e-9


def test_pipeline_error_carries_stage(tiny3):
    cfg = tf.config_from_model(tiny3, v_min=1.04, v_max=1.05)   # infeasible band
    with pytest.raises(PipelineError) as err:
        tf.run_opts(tiny3, cfg)
    assert err.value.stage == "solve_lp"


def _verify_outlasts_base():
    """A generated feeder whose zero-tap solve converges in 10 steps and
    whose solve at the LP's snapped taps needs 11."""
    model = bench_feeders().generate_feeder(0, 60)
    base = tf.solve_zbus(model, tf.taps_to_ratios(model, tf.zero_taps(model)))
    verified = tf.solve_zbus(model, tf.run_opts(model, tf.OptsConfig()).ratios)
    assert (base.iterations, verified.iterations) == (10, 11)
    return model


def test_unconverged_verify_raises_at_its_stage():
    model = _verify_outlasts_base()
    with pytest.raises(PipelineError, match="power flow at snapped taps did not converge") as err:
        tf.run_opts(model, tf.OptsConfig(zbus_max_iter=10))
    assert err.value.stage == "verify_powerflow"


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
    with pytest.raises(ValueError, match="not finite"):
        tf.optimality_gap(0.7, 1e-310)       # the gap overflows to inf


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
    with pytest.raises(ValueError, match="not JSON compliant"):
        dataclasses.replace(report, unbalance=math.nan).to_json()


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


def _windowed(model, lo, hi, scale=1.0):
    model = dataclasses.replace(model, svrs=tuple(
        dataclasses.replace(sv, tap_min=lo, tap_max=hi) for sv in model.svrs))
    return model if scale == 1.0 else bench_feeders().scale_loads(model, lambda _b, _p: scale)


# IEEE-13 sweeps: (lowest tap, load scale) on a window of five taps. At
# load x1.3 taps -2..2 have no feasible combination.
IEEE13_SWEEPS = {"ieee13": (-2, 1.0), "ieee13x0.75": (-2, 0.75), "ieee13x1.3": (-2, 1.3),
                 "ieee13-12..16": (12, 1.0), "ieee13-12..16x0.75": (12, 0.75),
                 "ieee13-12..16x1.3": (12, 1.3)}


@pytest.mark.parametrize("name", ["tiny3", "gen3-30", *IEEE13_SWEEPS])
def test_bruteforce_shared_stamps_match_fresh_solves(request, name):
    """The block sweep returns what one solve per combination on a shared
    stamp set returns (``sweep_reference``): the same taps, the objective to
    the bit and the same counts, or the same error when no combination is
    feasible. Y of generate_feeder(3, 30) moves with its taps."""
    if name == "tiny3":
        model = request.getfixturevalue("tiny3")
    elif name == "gen3-30":
        model = _windowed(bench_feeders().generate_feeder(3, 30), 0, 1)
    else:
        lo, scale = IEEE13_SWEEPS[name]
        model = _windowed(request.getfixturevalue("ieee13"), lo, lo + 4, scale)
    cfg = tf.config_from_model(model)
    try:
        want = loop_brute_force(model, cfg)
    except PipelineError as exc:
        assert name == "ieee13x1.3"
        with pytest.raises(PipelineError) as got:
            tf.brute_force(model, cfg)
        assert (got.value.stage, str(got.value)) == (exc.stage, str(exc))
        return
    assert name != "ieee13x1.3"
    got = tf.brute_force(model, cfg)
    assert got.taps == want.taps
    assert got.objective.hex() == want.objective.hex()
    assert (got.feasible_count, got.evaluated) == (want.feasible_count, want.evaluated)


def test_bruteforce_picks_the_optimum_whatever_the_visit_order(monkeypatch):
    """Imports in a chain of near ties, the least, +0.7e-12 and +1.4e-12,
    at taps -2, -1 and 0, visited in that order while their tap keys fall:
    the winner is the smallest key within 1e-12 of the least import (tap
    -1), not the end of the chain (tap 0), which a running best that
    re-anchors its tie window at each new winner would return."""
    model = chain_model([0.1 + 0.05j], svr_kind="B")
    sv = dataclasses.replace(model.svrs[0], tap_min=-2, tap_max=0)
    model = dataclasses.replace(model, svrs=(sv,))
    imports = {sv.ratio(-2): 0.5, sv.ratio(-1): 0.5 + 0.7e-12, sv.ratio(0): 0.5 + 1.4e-12}

    def chained(block, v_min, v_max):
        ratios = block.system.ratios[:, 0].tolist()
        return np.ones(len(ratios), dtype=bool), np.array([imports[r] for r in ratios])

    monkeypatch.setattr(opts, "block_metrics", chained)
    got = tf.brute_force(model, tf.config_from_model(model))
    assert got.taps == [{"a": -1}]
    assert got.objective.hex() == (0.5 + 0.7e-12).hex()
    assert (got.feasible_count, got.evaluated) == (3, 3)


def test_bruteforce_near_lossless_ieee13_ties_to_the_least_import(ieee13):
    """IEEE-13 with every line resistance scaled by 1e-9 and taps windowed
    to -3..3: all 343 combinations are feasible and their imports lie within
    a few 1e-12 of each other. The optimum is taps (1, -2, 3), the smallest
    tap key within 1e-12 of the least import; the per-combination loop
    agrees to the bit."""
    lines = tuple(dataclasses.replace(ln, z=tf.PhaseMatrix(
        ln.z.phases, ln.z.array.real * 1e-9 + 1j * ln.z.array.imag)) for ln in ieee13.lines)
    model = _windowed(dataclasses.replace(ieee13, lines=lines), -3, 3)
    assert not tf.validate(model)
    cfg = tf.config_from_model(model)
    got, want = tf.brute_force(model, cfg), loop_brute_force(model, cfg)
    assert got.taps == [{"a": 1, "b": -2, "c": 3}]
    assert (got.feasible_count, got.evaluated) == (343, 343)
    assert (got.taps, got.objective.hex(), got.feasible_count) == \
        (want.taps, want.objective.hex(), want.feasible_count)


def test_bruteforce_blocks_change_no_result(monkeypatch, ieee13):
    """Blocks of 7 combinations give the sweep's result, with one
    factorization of Y per block: 18 blocks over 125 combinations."""
    model = _windowed(ieee13, -2, 2)
    cfg = tf.config_from_model(model)
    want = tf.brute_force(model, cfg)
    calls = []

    def counting(*args, **kwargs):
        calls.append(None)
        return splu(*args, **kwargs)

    monkeypatch.setattr(opts, "_SWEEP_BLOCK", 7)
    monkeypatch.setattr(zbus, "splu", counting)
    got = tf.brute_force(model, cfg)
    assert len(calls) == 18 and got.evaluated == 125
    assert (got.taps, got.objective.hex(), got.feasible_count) == \
        (want.taps, want.objective.hex(), want.feasible_count)


def test_bruteforce_blocks_stay_within_the_cell_cap(monkeypatch, ieee13):
    """A block spans at most ``_SWEEP_CELLS`` (coordinate, combination)
    cells: with room for 7 combinations over IEEE-13's 29 retained
    coordinates, 125 combinations take 18 blocks and give the sweep's
    result."""
    model = _windowed(ieee13, -2, 2)
    cfg = tf.config_from_model(model)
    want = tf.brute_force(model, cfg)
    n = len(ybus.build_stamps(model).v_flat)
    assert n == 29
    calls = []

    def counting(*args, **kwargs):
        calls.append(None)
        return splu(*args, **kwargs)

    monkeypatch.setattr(opts, "_SWEEP_CELLS", 8 * n - 1)
    monkeypatch.setattr(zbus, "splu", counting)
    got = tf.brute_force(model, cfg)
    assert len(calls) == 18 and got.evaluated == 125
    assert (got.taps, got.objective.hex(), got.feasible_count) == \
        (want.taps, want.objective.hex(), want.feasible_count)


@pytest.mark.parametrize("kind,zero_tap", [("B", 10), ("A", -10)])
def test_bruteforce_zero_ratio_raises_the_solve_error(kind, zero_tap):
    """With a step of 0.1 the tap grid reaches ratio 0; the sweep raises the
    error of the first combination there, as the per-combination loop does."""
    model = chain_model([0.1 + 0.05j], svr_kind=kind)
    model = dataclasses.replace(model, svrs=(dataclasses.replace(model.svrs[0], step=0.1),))
    assert model.svrs[0].ratio(zero_tap) == 0.0
    cfg = tf.config_from_model(model)
    with pytest.raises(ValueError) as want:
        loop_brute_force(model, cfg)
    with pytest.raises(ValueError) as got:
        tf.brute_force(model, cfg)
    assert str(got.value) == str(want.value)
    assert "ratios must be finite and nonzero, got [0.0]" in str(got.value)


def test_bruteforce_raises_the_solve_error_on_an_unstamped_phase():
    """The cascade's second regulator, made type B with step 0.1 and taps
    -2..10, reaches ratio 0 first on phase c alone, which the line behind it
    does not carry. The sweep raises the per-combination loop's error, which
    names that regulator's whole ratio row."""
    model = cascade_model()
    head, second = model.svrs
    model = dataclasses.replace(model, svrs=(
        dataclasses.replace(head, tap_min=0, tap_max=0),
        dataclasses.replace(second, kind="B", step=0.1, tap_min=-2, tap_max=10)))
    cfg = tf.config_from_model(model)
    with pytest.raises(ValueError) as want:
        loop_brute_force(model, cfg)
    with pytest.raises(ValueError) as got:
        tf.brute_force(model, cfg)
    assert str(got.value) == str(want.value)
    assert str(got.value).startswith("svr n1->r2: ratios must be finite and nonzero, got [1.2")
    assert str(got.value).endswith(", 0.0]")


@pytest.mark.parametrize("mode", ["from_zero_tap_solution", "balanced"])
def test_run_opts_builds_the_tree_index_once(monkeypatch, ieee13, mode):
    """Both constants modes read the stamp set's layout, so a pipeline run
    builds the feeder's tree index once."""
    calls = []
    original = ybus.tree_index

    def counting(model):
        calls.append(None)
        return original(model)

    monkeypatch.setattr(ybus, "tree_index", counting)
    tf.run_opts(ieee13, tf.config_from_model(ieee13, constants_mode=mode))
    assert len(calls) == 1


@pytest.mark.parametrize("name", ["ieee13", "tiny3"])
def test_build_lp_reads_the_slack_bus_once(monkeypatch, name, request):
    """With the bus list reversed, so that finding the slack bus walks every
    bus, ``build_lp`` reads ``FeederModel.slack`` at most once, and the
    objective is 1 exactly on the Re flow columns of the edges leaving it."""
    model = request.getfixturevalue(name)
    model = dataclasses.replace(model, buses=model.buses[::-1])
    assert tf.validate(model) == [] and model.buses[-1].is_slack
    constants = tf.constants_balanced(model)
    reads = []
    slack = tf.FeederModel.slack

    def counting(self):
        reads.append(None)
        return slack.fget(self)

    monkeypatch.setattr(tf.FeederModel, "slack", property(counting))
    lp, system = tf.build_lp(model, constants, tf.config_from_model(model))
    monkeypatch.undo()
    assert len(reads) <= 1
    slack_id = model.buses[-1].id
    heads = {f"{e.from_bus}->{e.to_bus}" for e in (*model.lines, *model.svrs)
             if e.from_bus == slack_id}
    _, flow, _ = lp_columns(model, system)
    want = np.zeros(len(lp.c))
    want[[re for (key, _), (re, _) in flow.items() if key in heads]] = 1.0
    assert heads and lp.c.tobytes() == want.tobytes()
