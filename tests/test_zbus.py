import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy.sparse.linalg import splu

import tapflow as tf
from tapflow import ybus, zbus
from tapflow.ybus import build_stamps

from conftest import (FIXTURES, SMALL_FEEDERS, bench_feeders, cascade_model, chain_model,
                      colamd_in_model_order, fixed_y_feeder, small_or_generated)
import solution_reference
from sweep_reference import loop_brute_force


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


def test_singular_admittance_matrix_raises_pipeline_error(tiny3):
    """A shunt of -1/z at the load bus cancels its line's admittance, so Y
    is exactly singular: the one-solve and the block paths raise
    ``PipelineError`` (a ``RuntimeError``) tagged "powerflow"."""
    (line,) = tiny3.lines
    shunt = tf.PhaseMatrix(("a",), [[-1.0 / line.z.array[0, 0]]])
    model = dataclasses.replace(tiny3, buses=tuple(
        dataclasses.replace(b, shunt=shunt) if b.id == line.to_bus else b for b in tiny3.buses))
    stamps = build_stamps(model)
    for solve in (lambda: tf.solve_zbus(model, [{"a": 1.0}], stamps=stamps),
                  lambda: zbus.solve_block(stamps, np.array([[1.0], [1.00625]]))):
        with pytest.raises(tf.PipelineError, match="admittance matrix is singular") as err:
            solve()
        assert err.value.stage == "powerflow" and isinstance(err.value, RuntimeError)


@pytest.mark.parametrize("case", ["ieee13", "overflowing-tiny3"])
def test_returned_voltages_alias_no_solver_state(case, ieee13, tiny3):
    """Writing into every returned bus vector, the slack bus's included,
    leaves the model's slack voltage and the stamp set's flat start and
    loads alone, and a second solve on the shared stamp set gives the same
    bits. The overflowing load's first update is not finite, so that
    solve stops at iteration 1 with the flat start as its iterate."""
    if case == "ieee13":
        model, ratios = ieee13, tf.taps_to_ratios(ieee13, tf.zero_taps(ieee13))
    else:
        model, ratios = _huge_load_tiny3(tiny3, 1.7e308 - 1.7e308j), [{"a": 1.0}]
    stamps = build_stamps(model)
    v_flat, loads = stamps.v_flat.tobytes(), stamps.loads.tobytes()
    slack = model.slack_voltage.values.tobytes()
    first = tf.solve_zbus(model, ratios, stamps=stamps)
    assert first.converged == (case == "ieee13")
    assert case == "ieee13" or first.iterations == 1
    bits = {bus: vec.values.tobytes() for bus, vec in first.voltages.items()}
    for vec in first.voltages.values():
        vec.values[:] = 7.0 + 7.0j
    assert stamps.v_flat.tobytes() == v_flat and stamps.loads.tobytes() == loads
    assert model.slack_voltage.values.tobytes() == slack
    again = tf.solve_zbus(model, ratios, stamps=stamps)
    assert (again.iterations, again.converged) == (first.iterations, first.converged)
    assert {bus: vec.values.tobytes() for bus, vec in again.voltages.items()} == bits


def _assert_view_splits_v(model, taps):
    """A solve's per-bus view has ``model.buses``' order as its keys and,
    as each value, a view of its bus's slice of ``v`` with its bus's phases;
    the CSV, written from ``v``, is the per-bus reference writer's."""
    sol = tf.solve_zbus(model, tf.taps_to_ratios(model, taps))
    assert list(sol.voltages) == [b.id for b in model.buses]
    stop = 0
    for b, vec in zip(model.buses, sol.voltages.values()):
        start, stop = stop, stop + len(b.phases)
        assert vec.phases == b.phases, b.id
        assert vec.values.tobytes() == sol.v[start:stop].tobytes(), b.id
        assert np.shares_memory(vec.values, sol.v), b.id
    assert stop == len(sol.v)
    assert tf.solution_csv(sol, model) == solution_reference.solution_csv(sol, model)


@settings(derandomize=True, max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 2**16), n_buses=st.integers(10, 150), reverse=st.booleans(),
       tap=st.integers(-4, 4))
def test_per_bus_view_and_csv_read_v_in_model_order(seed, n_buses, reverse, tap):
    """On generated feeders of drawn size, in either bus order, at drawn
    taps: the slack bus and the regulator secondaries sit in their model
    places in the view and the CSV (``_assert_view_splits_v``)."""
    model = bench_feeders().generate_feeder(seed, n_buses)
    if reverse:
        model = dataclasses.replace(model, buses=model.buses[::-1])
    _assert_view_splits_v(model, [{p: tap for p in sv.phases} for sv in model.svrs])


@pytest.mark.parametrize("case", ["gen200-reversed", "gen30"])
def test_per_bus_view_and_csv_with_slack_last_or_secondaries_mid_feeder(case):
    """``_assert_view_splits_v`` on generate_feeder(5, 200) with its bus list
    reversed, the slack bus last, and on fixtures/gen30.json, whose
    regulator secondaries are listed second and eighth, at zero taps and at
    the top of gen30's window."""
    if case == "gen30":
        model = tf.parse_feeder((FIXTURES / "gen30.json").read_text(encoding="utf-8"))
        assert [b.id for b in model.buses].index("rm") == 7
    else:
        model = bench_feeders().generate_feeder(5, 200)
        model = dataclasses.replace(model, buses=model.buses[::-1])
        assert model.buses[-1].is_slack
    for tap in (0, 1):
        _assert_view_splits_v(model, [{p: tap for p in sv.phases} for sv in model.svrs])


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


def _edges_from_view(solution, model):
    """``import_objective_edges`` reading the to-bus voltages from the per-bus view."""
    stamps = solution.system.stamps
    heads = [(k, None) for k, ln in enumerate(model.lines) if ln.from_bus == model.slack.id]
    for svx, (sv, k) in enumerate(zip(model.svrs, stamps.layout.svr_lines)):
        if sv.from_bus == model.slack.id:
            start = sum(len(earlier.phases) for earlier in model.svrs[:svx])
            r = solution.system.ratios[0, [start + sv.phases.index(p)
                                           for p in model.lines[k].z.phases]]
            heads.append((k, 1.0 / r if sv.kind == "B" else r))
    total = 0.0
    for k, g in heads:
        ln, zinv = model.lines[k], stamps.line_zinv(k)
        vn = np.array([model.slack_voltage[p] for p in ln.z.phases])
        vm = np.array([solution.voltages[ln.to_bus][p] for p in ln.z.phases])
        i_edge = zinv @ (vn - vm) if g is None else np.diag(g) @ (zinv @ (g * vn - vm))
        total += float(np.sum((vn * np.conj(i_edge)).real))
    return total


@pytest.mark.parametrize("case", ["ieee13", "tiny3", "generated"])
def test_edge_objective_reads_the_array(case, request):
    """The edge-wise import reads ``v`` without building the per-bus view,
    and has the bits of the reading through that view."""
    if case == "generated":
        model = bench_feeders().generate_feeder(7, 120)
    else:
        model = request.getfixturevalue(case)
    sol = tf.solve_zbus(model, tf.taps_to_ratios(model, tf.zero_taps(model)))
    got = tf.import_objective_edges(sol, model)
    assert "voltages" not in vars(sol)
    assert got.hex() == _edges_from_view(sol, model).hex()


def test_kcl_certificate_on_converged_solutions(ieee13, ieee13_base, tiny3):
    assert tf.kcl_certificate(ieee13_base, ieee13) <= 1e-8
    sol = tf.solve_zbus(tiny3, [{"a": 0.95}])
    assert sol.converged
    assert tf.kcl_certificate(sol, tiny3) <= 1e-8


def test_unbalance_direct_formula(ieee13, ieee13_base):
    """The worst over IEEE-13's multi-phase buses of 100 max |  |v| - mean| / mean."""
    worst = 0.0
    for vec in ieee13_base.voltages.values():
        if len(vec.phases) >= 2:
            mags = [abs(z) for z in vec.values]
            mean = sum(mags) / len(mags)
            worst = max(worst, 100.0 * max(abs(m - mean) for m in mags) / mean)
    assert worst > 1.0
    assert tf.voltage_unbalance(ieee13_base) == pytest.approx(worst, rel=1e-12)


def test_unbalance_balanced_is_zero():
    model = chain_model([0.0, 0.0], phases=("a", "b", "c"))
    sol = tf.solve_zbus(model, [])
    assert tf.voltage_unbalance(sol) == pytest.approx(0.0, abs=1e-12)


def test_single_phase_buses_skipped_in_unbalance(tiny3):
    """tiny3's buses are all single-phase, so no bus counts."""
    sol = tf.solve_zbus(tiny3, [{"a": 0.9}])
    assert sol.converged and tf.voltage_unbalance(sol) == 0.0


def test_metrics_reject_an_unconverged_solve():
    """An unconverged three-phase solve raises in every metric, rather than
    reporting an unbalance of its last iterate."""
    model = chain_model([40.0 + 20.0j], z_per_edge=0.05 + 0.15j, phases=("a", "b", "c"))
    sol = tf.solve_zbus(model, [], max_iter=50)
    assert not sol.converged
    for metric in (tf.voltage_unbalance, lambda s: tf.voltage_envelope(s, model),
                   lambda s: tf.import_objective(s, model),
                   lambda s: tf.import_objective_edges(s, model)):
        with pytest.raises(ValueError, match="did not converge"):
            metric(sol)


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


# ---------------------------------------------------------------------------
# Factorization reuse


def _windowed(model, lo, hi):
    return dataclasses.replace(model, svrs=tuple(
        dataclasses.replace(sv, tap_min=lo, tap_max=hi) for sv in model.svrs))


def _tap_grid(model):
    """Ratios of every tap combination, in product order, the order in
    which ``brute_force`` numbers them."""
    axes = [(svx, p, sv) for svx, sv in enumerate(model.svrs) for p in sv.phases]
    for combo in itertools.product(*(range(sv.tap_min, sv.tap_max + 1) for _, _, sv in axes)):
        taps = [{} for _ in model.svrs]
        for (svx, p, _), t in zip(axes, combo):
            taps[svx][p] = t
        yield tf.taps_to_ratios(model, taps)


@pytest.fixture
def splu_calls(monkeypatch):
    """The keyword arguments of each factorization made through
    ``tapflow.zbus.splu``, one dict per call."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(kwargs)
        return splu(*args, **kwargs)

    monkeypatch.setattr(zbus, "splu", counting)
    return calls


@pytest.mark.parametrize("case", ["tiny3", "ieee13"])
def test_one_factorization_per_sweep_when_y_is_fixed(case, request, splu_calls):
    """tiny3's and IEEE-13's regulators sit at the slack bus, so a sweep
    factors Y once per block; a pipeline run factors it once per solve."""
    model = request.getfixturevalue(case)
    cfg = tf.config_from_model(model)
    if case == "ieee13":
        tf.run_opts(model, cfg)               # base and verify solves
        assert len(splu_calls) == 2
        model = _windowed(model, -2, 2)
    del splu_calls[:]
    result = tf.brute_force(model, cfg)
    assert len(splu_calls) == 1 and result.evaluated == (125 if case == "ieee13" else 33)


@pytest.mark.parametrize("case,groups", [("gen3-30", 8), ("gen30", 27), ("cascade", 9)],
                         ids=["gen3-30", "gen30", "cascade"])
def test_one_factorization_per_y_group_when_taps_move_y(case, groups, splu_calls):
    """Where taps move Y, the sweep factors Y once per set of those taps,
    each factorization shared by the combinations that agree on them, and
    returns what one solve per combination returns: taps, objective to the
    bit and counts. generate_feeder(3, 30) on taps 0..1 has 2^3 sets of its
    mid-feeder regulator's taps among 64 combinations, ``fixtures/gen30.json``
    3^3 among 729, and the cascade on taps -1..1 3^2 among 729: its second
    regulator moves Y on phases a and b, the phases of its outgoing line,
    and not on phase c."""
    band = {}
    if case == "gen3-30":
        model = _windowed(bench_feeders().generate_feeder(3, 30), 0, 1)
        band = {"v_min_verify": 0.5, "v_max_verify": 1.5}
    elif case == "gen30":
        model = tf.parse_feeder((FIXTURES / "gen30.json").read_text(encoding="utf-8"))
    else:
        model = _windowed(cascade_model(), -1, 1)
    cfg = tf.config_from_model(model, **band)
    result = tf.brute_force(model, cfg)
    assert len(splu_calls) == groups
    want = loop_brute_force(model, cfg)
    assert (result.taps, result.objective.hex(), result.feasible_count, result.evaluated) == \
        (want.taps, want.objective.hex(), want.feasible_count, want.evaluated)


def test_fresh_solve_factors_once(ieee13, splu_calls):
    sol = tf.solve_zbus(ieee13, tf.taps_to_ratios(ieee13, tf.zero_taps(ieee13)))
    assert sol.converged and len(splu_calls) == 1


# The factorization of a Y numbered leaves first, as ``_solve`` calls splu:
# in that order, with no column ordering.
TREE_SPLU = {"permc_spec": "NATURAL", "diag_pivot_thresh": 0.1, "panel_size": 1,
             "options": {"SymmetricMode": True}}


def test_every_size_is_factored_leaves_first(tiny3, ieee13, splu_calls):
    """At every size, from tiny3's one row of Y to generate_feeder(5, 200)'s,
    Y's rows are numbered leaves first and Y is factored in that order, and
    the solve's certificate equals its residual."""
    feeders = bench_feeders()
    for model in (tiny3, ieee13, *(feeders.generate_feeder(5, n) for n in (15, 45, 120, 200))):
        del splu_calls[:]
        st = build_stamps(model)
        sol = tf.solve_zbus(model, tf.taps_to_ratios(model, tf.zero_taps(model)), stamps=st)
        assert sol.converged and tf.kcl_certificate(sol, model) == sol.residual
        assert splu_calls == [TREE_SPLU]
        bus_at = np.nonzero(st.layout.at >= 0)[0]
        assert (np.diff(st.layout.depth[bus_at[st.full_of[0]]]) <= 0).all()


def test_depth_is_computed_once_per_layout(ieee13, monkeypatch):
    """A ``run_opts`` builds one layout and computes its bus depths once;
    on IEEE-13 and on generate_feeder(5, 200) both of its factorizations,
    Y's and the LP's, take their leaves-first order from that one array."""
    computed, built, lp_calls = [], [], []
    depths, stamps_of = ybus._depths, tf.opts.build_stamps

    def counting(*args):
        computed.append(depths(*args))
        return computed[-1]

    def keeping(model):
        built.append(stamps_of(model))
        return built[-1]

    def factoring(*args, **kwargs):
        lp_calls.append(kwargs)
        return splu(*args, **kwargs)

    monkeypatch.setattr(ybus, "_depths", counting)
    monkeypatch.setattr(tf.opts, "build_stamps", keeping)
    monkeypatch.setattr(tf.linflow, "splu", factoring)
    for model in (ieee13, bench_feeders().generate_feeder(5, 200)):
        del computed[:], built[:], lp_calls[:]
        tf.run_opts(model, tf.config_from_model(model))
        (stamps,) = built
        assert len(computed) == 1 and stamps.layout.depth is computed[0]
        assert lp_calls == [{"permc_spec": "NATURAL"}]


# Generated feeders (seed, buses, bus list reversed) on which the two
# factorizations must give one solve: 200-5000 buses, and one with the slack
# bus listed last; and the fixtures and small feeders of ``SMALL_FEEDERS``.
TREE_FEEDERS = [*SMALL_FEEDERS, (5, 200, False), (5, 500, False), (5, 1000, False),
                (5, 2000, False), (5, 5000, False), (11, 500, True)]


@pytest.mark.parametrize("seed,n_buses,reverse", TREE_FEEDERS)
def test_tree_order_matches_colamd(seed, n_buses, reverse, request, monkeypatch):
    """At 8 seeded tap settings in -8..8, the solve with Y numbered and
    factored leaves first and the solve with Y in model order and COLAMD's
    order (``colamd_in_model_order``) take the same steps to the same
    verdict, with voltages within 1e-10 p.u. and imports within a relative
    1e-10."""
    model = small_or_generated(seed, n_buses, reverse, request)
    stamps = build_stamps(model)
    with monkeypatch.context() as reference:
        colamd_in_model_order(reference)
        in_model_order = build_stamps(model)
    assert (np.diff(in_model_order.full_of[0]) > 0).all()
    rng = np.random.default_rng([seed, n_buses] if n_buses else list(seed.encode()))
    for _ in range(8):
        taps = [{p: int(rng.integers(-8, 9)) for p in sv.phases} for sv in model.svrs]
        ratios = tf.taps_to_ratios(model, taps)
        tree = tf.solve_zbus(model, ratios, stamps=stamps)
        with monkeypatch.context() as reference:
            colamd_in_model_order(reference)
            colamd = tf.solve_zbus(model, ratios, stamps=in_model_order)
        assert (tree.iterations, tree.converged) == (colamd.iterations, colamd.converged)
        assert np.abs(tree.v - colamd.v).max() <= 1e-10
        if colamd.converged:
            want = tf.import_objective(colamd, model)
            assert abs(tf.import_objective(tree, model) - want) <= 1e-10 * abs(want)


@pytest.mark.parametrize("n_buses", [300, 1000])
def test_tree_order_fills_no_more_than_colamd(n_buses):
    """Y numbered leaves first and factored in that order has at most
    COLAMD's L + U entries, and no fill-in: at most Y's entries and L's unit
    diagonal."""
    model = bench_feeders().generate_feeder(5, n_buses)
    system = tf.assemble(model, tf.taps_to_ratios(model, tf.zero_taps(model)))
    tree, colamd = splu(system.Y, **TREE_SPLU), splu(system.Y)
    assert tree.L.nnz + tree.U.nnz <= colamd.L.nnz + colamd.U.nnz
    assert tree.L.nnz + tree.U.nnz <= system.Y.nnz + system.Y.shape[0]


@pytest.mark.parametrize("case,scale", [("tiny3", 1.0), ("ieee13", 1.0), ("ieee13", 0.75)])
def test_reused_factorization_changes_no_bits_over_the_grid(case, scale, request):
    """At every tap combination, a solve on one shared stamp set equals a
    fresh solve bit for bit, and Y's values are the same bytes at every
    combination (IEEE-13 windowed to taps -2..2)."""
    model = request.getfixturevalue(case)
    if case == "ieee13":
        model = _windowed(model, -2, 2)
    model = bench_feeders().scale_loads(model, lambda _bus, _phase: scale)
    stamps = build_stamps(model)
    assert not stamps.moves_y.any()
    y_data = set()
    for ratios in _tap_grid(model):
        shared = tf.solve_zbus(model, ratios, stamps=stamps)
        fresh = tf.solve_zbus(model, ratios)
        assert shared.converged
        assert (shared.iterations, shared.residual) == (fresh.iterations, fresh.residual)
        assert shared.voltages.keys() == fresh.voltages.keys()
        assert all(shared.voltages[bus].values.tobytes() == vec.values.tobytes()
                   for bus, vec in fresh.voltages.items())
        y_data.add(shared.system.Y.data.tobytes())
    assert len(y_data) == 1


# ---------------------------------------------------------------------------
# Block solves


# (feeder, load scale, max_iter) -> how the columns stop. At load x1.8 some
# IEEE-13 columns converge and the others run to max_iter; at x1e307 some
# tiny3 columns stop at a non-finite update and the others run to max_iter.
# gen300-fixed-y's Y is numbered and factored leaves first.
BLOCK_CASES = {("tiny3", 1.0, 200): {"converged"}, ("tiny3", 1e307, 200): {"non-finite", "capped"},
               ("tiny3", 1.0, 3): {"capped"}, ("ieee13", 1.0, 200): {"converged"},
               ("ieee13", 1.8, 200): {"converged", "capped"}, ("ieee13", 1.0, 3): {"capped"},
               ("gen300-fixed-y", 1.0, 200): {"converged"}}


@pytest.mark.parametrize("tol", [0.0, float("nan")])
def test_block_rejects_nonpositive_or_nan_tol(tiny3, tol):
    """A block checks ``tol`` as ``solve_zbus`` does, rather than running
    every column to ``max_iter`` unconverged."""
    with pytest.raises(ValueError, match="tol must be positive"):
        zbus.solve_block(build_stamps(tiny3), np.ones((1, 1)), tol=tol, max_iter=50)


def test_block_of_many_sets_needs_fixed_y():
    """Y of generate_feeder(3, 30) moves with its mid-feeder regulator's
    ratios, so two ratio sets that differ there cannot share one
    factorization of it: the block raises. One set at a time is
    ``solve_zbus`` to the bit, and so is each column of a block of sets that
    differ only in the head regulator's ratios, which leave Y alone."""
    model = bench_feeders().generate_feeder(3, 30)
    stamps = build_stamps(model)
    assert stamps.moves_y.tolist() == [False] * 3 + [True] * 3
    base = tf.taps_to_ratios(model, tf.zero_taps(model))
    grid = [base, [{p: r + 0.05 for p, r in ratios.items()} for ratios in base]]
    flat = np.array([[r[p] for r in ratios for p in r] for ratios in grid])
    with pytest.raises(ValueError, match="a block of ratio sets must agree on every ratio "
                                         "that moves Y"):
        zbus.solve_block(stamps, flat)
    for row, ratios in zip(flat, grid):
        block = zbus.solve_block(stamps, row[None, :])
        sol = tf.solve_zbus(model, ratios, stamps=stamps)
        assert block.converged[0] and block.v[:, 0].tobytes() == sol.v[stamps.full_of[0]].tobytes()
    head = [[{p: r + 0.00625 * t for p, r in base[0].items()}, base[1]] for t in (-2, 0, 1, 3)]
    flat = np.array([[r[p] for r in ratios for p in r] for ratios in head])
    block = zbus.solve_block(stamps, flat)
    feasible, objective = zbus.block_metrics(block, 0.5, 1.5)
    for j, ratios in enumerate(head):
        sol = tf.solve_zbus(model, ratios, stamps=stamps)
        assert block.converged[j] and block.v[:, j].tobytes() == sol.v[stamps.full_of[0]].tobytes()
        assert (block.iterations[j], float(block.residual[j]).hex()) == \
            (sol.iterations, sol.residual.hex())
        assert feasible[j] and objective[j].hex() == tf.import_objective(sol, model).hex()


@pytest.mark.parametrize("case,scale,max_iter", sorted(BLOCK_CASES))
def test_block_columns_equal_single_solves(case, scale, max_iter, request):
    """Column j of a block solve is ``solve_zbus`` at combination j (tiny3's
    33 taps, IEEE-13 windowed to taps -2..2, generate_feeder(5, 300) with Y
    fixed and taps -1..1): the voltage bytes, steps, residual and converged
    flag. At converged columns the block metrics are the one-solve metrics
    to the bit, and the certificate is the residual; no metric reads another
    column, so no overflow warning escapes (warnings are errors under the
    test settings)."""
    if case == "gen300-fixed-y":
        model = fixed_y_feeder(bench_feeders().generate_feeder(5, 300), -1, 1)
    else:
        model = request.getfixturevalue(case)
    if case == "ieee13":
        model = _windowed(model, -2, 2)
    model = bench_feeders().scale_loads(model, lambda _bus, _phase: scale)
    stamps = build_stamps(model)
    grid = list(_tap_grid(model))
    flat = np.array([[r[p] for r in ratios for p in r] for ratios in grid])
    block = zbus.solve_block(stamps, flat, max_iter=max_iter)
    feasible, objective = zbus.block_metrics(block, 0.9, 1.1)
    stops = set()
    for j, ratios in enumerate(grid):
        sol = tf.solve_zbus(model, ratios, max_iter=max_iter, stamps=stamps)
        assert block.v[:, j].tobytes() == sol.v[stamps.full_of[0]].tobytes()
        assert (block.iterations[j], block.converged[j]) == (sol.iterations, sol.converged)
        assert float(block.residual[j]).hex() == sol.residual.hex()
        if sol.converged:
            assert feasible[j] == tf.feasibility(sol, model, 0.9, 1.1)
            assert objective[j].hex() == tf.import_objective(sol, model).hex()
            assert tf.kcl_certificate(sol, model) == sol.residual
        else:
            assert not feasible[j] and np.isnan(objective[j])
        stops.add("converged" if sol.converged
                  else "capped" if sol.iterations == max_iter else "non-finite")
    assert stops == BLOCK_CASES[case, scale, max_iter]
