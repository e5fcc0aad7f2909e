import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp

import tapflow as tf
from tapflow.ybus import build_stamps

from conftest import PARITY_FEEDERS, bench_feeders, cascade_model, chain_model
from ybus_reference import loop_assemble


def reference_solve(model, ratios, tol=1e-12, max_iter=300):
    """Power flow keeping SVR secondaries explicit: the elimination oracle.

    Unknowns are voltages at every non-slack bus plus the per-phase primary
    current of each regulator; the ideal-transformer relations enter as
    explicit constraint rows instead of being folded into Y.
    """
    coords = [(b.id, p) for b in model.buses if not b.is_slack for p in b.phases]
    row = {c: i for i, c in enumerate(coords)}
    nv = len(coords)
    jcols = [(svx, p) for svx, sv in enumerate(model.svrs) for p in sv.phases]
    jcol = {c: nv + i for i, c in enumerate(jcols)}
    n = nv + len(jcols)
    slack = model.slack.id
    vs = {p: model.slack_voltage[p] for p in model.slack_voltage.phases}

    M = np.zeros((n, n), dtype=complex)
    rhs_const = np.zeros(n, dtype=complex)

    def add(r, bus, phase, val):
        if bus == slack:
            rhs_const[r] -= val * vs[phase]
        else:
            M[r, row[(bus, phase)]] += val

    for ln in model.lines:
        zinv = np.linalg.inv(ln.z.array)
        ph = ln.z.phases
        for a, p in enumerate(ph):
            for b, q in enumerate(ph):
                if ln.from_bus != slack:
                    r = row[(ln.from_bus, p)]
                    add(r, ln.from_bus, q, zinv[a, b])
                    add(r, ln.to_bus, q, -zinv[a, b])
                r = row[(ln.to_bus, p)]
                add(r, ln.to_bus, q, zinv[a, b])
                add(r, ln.from_bus, q, -zinv[a, b])
    for bus in model.buses:
        if bus.shunt is None:
            continue
        for a, p in enumerate(bus.shunt.phases):
            for b, q in enumerate(bus.shunt.phases):
                add(row[(bus.id, p)], bus.id, q, bus.shunt.array[a, b])

    ceq = nv + 0
    for svx, sv in enumerate(model.svrs):
        for p in sv.phases:
            r_val = float(ratios[svx][p])
            a_gain = r_val if sv.kind == "B" else 1.0 / r_val
            # Primary current leaves the from-bus; A*j enters the secondary.
            if sv.from_bus != slack:
                M[row[(sv.from_bus, p)], jcol[(svx, p)]] += 1.0
            M[row[(sv.to_bus, p)], jcol[(svx, p)]] -= a_gain
            # Constraint v_from = A v_to (type-B) in the same row block as j.
            r = jcol[(svx, p)]
            add(r, sv.from_bus, p, 1.0)
            add(r, sv.to_bus, p, -a_gain)

    loads = np.zeros(n, dtype=complex)
    for b in model.buses:
        if b.load is None:
            continue
        for p in b.load.phases:
            loads[row[(b.id, p)]] = b.load[p]

    x = np.zeros(n, dtype=complex)
    for (bus, p), i in row.items():
        x[i] = vs[p]
    lu = np.linalg.inv(M)
    for _ in range(max_iter):
        rhs = rhs_const.copy()
        v = x[:nv]
        with np.errstate(all="raise"):
            rhs[:nv] += -np.conj(loads[:nv] / np.where(v == 0, 1, v))
        x_new = lu @ rhs
        if np.max(np.abs(x_new - x)) < tol:
            x = x_new
            break
        x = x_new
    voltages = {slack: model.slack_voltage}
    by_id = {b.id: b for b in model.buses}
    for bid in {c[0] for c in coords}:
        ph = by_id[bid].phases
        voltages[bid] = tf.PhaseVector(ph, [x[row[(bid, p)]] for p in ph])
    return voltages


# ---------------------------------------------------------------------------

def test_single_line_block():
    model = chain_model([0.1 + 0.05j])
    sys_ = tf.assemble(model, [])
    z = model.lines[0].z.array[0, 0]
    assert sys_.Y.shape == (1, 1)
    assert sys_.Y[0, 0] == pytest.approx(1.0 / z)
    assert sys_.Y_NS[0, 0] == pytest.approx(-1.0 / z)
    # Slack row over the full coordinates: [slack, load] columns.
    full = sys_.stamps.full_coords
    assert sys_.Y_S[0, full.index(("sub", "a"))] == pytest.approx(1.0 / z)
    assert sys_.Y_S[0, full.index(("b1", "a"))] == pytest.approx(-1.0 / z)


def test_identity_gain_matches_closed_connection(tiny3):
    """At ratio 1 the eliminated SVR behaves as a plain closed connection."""
    sys_svr = tf.assemble(tiny3, [{"a": 1.0}])
    z = tiny3.lines[0].z.array[0, 0]
    k = sys_svr.stamps.coords.index(("load", "a"))
    assert sys_svr.Y[k, k] == pytest.approx(1.0 / z)
    assert sys_svr.Y_NS[k, 0] == pytest.approx(-1.0 / z)


def test_gain_scaling_formulas(tiny3):
    """Eliminated blocks carry 1/r and 1/r^2 exactly (type-B)."""
    r = 0.95
    sys_ = tf.assemble(tiny3, [{"a": r}])
    y = 1.0 / tiny3.lines[0].z.array[0, 0]
    k = sys_.stamps.coords.index(("load", "a"))
    full = sys_.stamps.full_coords
    assert sys_.Y[k, k] == pytest.approx(y)
    assert sys_.Y_NS[k, 0] == pytest.approx(-y / r)
    assert sys_.Y_S[0, full.index(("sub", "a"))] == pytest.approx(y / r**2)
    assert sys_.Y_S[0, full.index(("load", "a"))] == pytest.approx(-y / r)


def test_missing_ratio_raises(tiny3):
    with pytest.raises(ValueError, match="no ratio"):
        tf.assemble(tiny3, [{}])


@pytest.mark.parametrize("ratio", [0.0, float("nan"), float("inf")])
def test_degenerate_ratio_raises(tiny3, ratio):
    with pytest.raises(ValueError, match="finite and nonzero"):
        tf.assemble(tiny3, [{"a": ratio}])


def test_singular_impedance_raises():
    model = chain_model([0.1])
    z = tf.PhaseMatrix("ab", [[0.02 + 0.06j, 0.02 + 0.06j],
                              [0.02 + 0.06j, 0.02 + 0.06j]])
    bad = tf.FeederModel(
        buses=(tf.BusSpec(id="sub", phases=("a", "b"), is_slack=True),
               tf.BusSpec(id="b1", phases=("a", "b"))),
        lines=(tf.LineSpec(from_bus="sub", to_bus="b1", z=z),),
        svrs=(), slack_voltage=tf.PhaseVector("ab", [1.0, 1.0]))
    with pytest.raises(ValueError, match="singular"):
        tf.assemble(bad, [])


@pytest.mark.parametrize("where", ["line", "slack"])
def test_unvalidated_phase_mismatch_raises(tiny3, where):
    """A hand-built model that fails validation with a line phase its buses
    lack, or a bus phase the slack voltage lacks, is refused rather than
    stamped into another coordinate."""
    if where == "line":
        ln = tiny3.lines[0]
        bad = dataclasses.replace(ln, z=tf.PhaseMatrix(("b",), [[ln.z.array[0, 0]]]))
        model = dataclasses.replace(tiny3, lines=(bad,) + tiny3.lines[1:])
    else:
        model = dataclasses.replace(tiny3, slack_voltage=tf.PhaseVector(("b",), [1.0]))
    assert tf.validate(model)
    with pytest.raises(ValueError, match="model fails validation"):
        build_stamps(model)


def test_zero_row_sum_without_shunts_or_svrs(ieee13):
    """Kirchhoff consistency: Y 1 + Y_NS 1 = 0 when only lines are present."""
    stripped = tf.FeederModel(
        buses=tuple(tf.BusSpec(id=b.id, phases=b.phases, load=b.load,
                               shunt=None, is_slack=b.is_slack)
                    for b in ieee13.buses),
        lines=ieee13.lines, svrs=(),
        slack_voltage=ieee13.slack_voltage)
    # Dropping the SVR strands its secondary; reconnect RG60 with a stub line.
    stub = tf.LineSpec(from_bus="650", to_bus="RG60",
                       z=tf.PhaseMatrix("abc", np.diag([0.001 + 0.001j] * 3)))
    stripped = tf.FeederModel(buses=stripped.buses, lines=stripped.lines + (stub,),
                              svrs=(), slack_voltage=stripped.slack_voltage)
    assert not tf.validate(stripped)
    sys_ = tf.assemble(stripped, [])
    resid = sys_.Y @ np.ones(sys_.Y.shape[1]) + sys_.Y_NS @ np.ones(sys_.Y_NS.shape[1])
    assert np.max(np.abs(resid)) < 1e-9


@pytest.mark.parametrize("ratio", [0.9, 1.0, 1.05, 1.1])
def test_symmetry_for_any_ratio(ieee13, ratio):
    sys_ = tf.assemble(ieee13, [{p: ratio for p in "abc"}])
    diff = (sys_.Y - sys_.Y.T).toarray()
    assert np.max(np.abs(diff)) < 1e-10


def test_recover_secondary_identity_and_division(tiny3):
    volts = {"sub": tf.PhaseVector("a", [1.1 + 0.0j])}
    rec = tf.recover_svr_secondary(tiny3, [{"a": 1.1}], volts)
    assert rec["reg"]["a"] == pytest.approx(1.0 + 0.0j)
    rec = tf.recover_svr_secondary(tiny3, [{"a": 1.0}], volts)
    assert rec["reg"]["a"] == pytest.approx(1.1 + 0.0j)


@pytest.mark.parametrize("kind,ratios", [
    ("B", {"a": 0.95}),
    ("B", {"a": 1.0625}),
    ("A", {"a": 0.95}),
])
def test_elimination_exactness_vs_reference(kind, ratios):
    model = chain_model([0.25 + 0.1j, 0.15 + 0.05j], svr_kind=kind)
    sol = tf.solve_zbus(model, [ratios], tol=1e-12)
    assert sol.converged
    ref = reference_solve(model, [ratios])
    for bid, vec in ref.items():
        for p in vec.phases:
            assert abs(sol.voltages[bid][p] - vec[p]) < 1e-10, (bid, p)


def test_elimination_exactness_ieee13(ieee13):
    ratios = [{"a": 0.975, "b": 1.05, "c": 0.95625}]
    sol = tf.solve_zbus(ieee13, ratios, tol=1e-12)
    ref = reference_solve(ieee13, ratios)
    worst = max(abs(sol.voltages[b][p] - ref[b][p])
                for b in ref for p in ref[b].phases)
    assert worst < 1e-10


def _ratio_sets(model):
    """Zero taps, alternating shifted taps, every phase at the lower and at
    the upper tap limit, the limits alternating by phase, and seeded random
    taps."""
    shifted = [{p: (-1) ** k * (3 + 2 * k) for k, p in enumerate(sv.phases)}
               for sv in model.svrs]
    low = [{p: sv.tap_min for p in sv.phases} for sv in model.svrs]
    high = [{p: sv.tap_max for p in sv.phases} for sv in model.svrs]
    extreme = [{p: sv.tap_max if k % 2 else sv.tap_min for k, p in enumerate(sv.phases)}
               for sv in model.svrs]
    rng = np.random.default_rng(len(model.buses))
    random = [{p: int(rng.integers(sv.tap_min, sv.tap_max + 1)) for p in sv.phases}
              for sv in model.svrs]
    return {name: tf.taps_to_ratios(model, taps)
            for name, taps in (("zero", tf.zero_taps(model)), ("shifted", shifted),
                               ("low", low), ("high", high), ("extreme", extreme),
                               ("random", random))}


def _layout(system):
    # An AdmittanceSystem keeps its layout in its stamp set; the loop
    # reference's record carries its own.
    s = getattr(system, "stamps", system)
    return s.coords, s.slack_coords, s.full_coords, s.eliminated


def _assert_same_system(got, ref):
    assert _layout(got) == _layout(ref)
    for name in ("Y", "Y_NS", "Y_S"):
        a, b = getattr(got, name), getattr(ref, name)
        assert a.format == b.format == "csc" and a.shape == b.shape, name
        for part in ("indptr", "indices", "data"):
            x, y = getattr(a, part), getattr(b, part)
            assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), (name, part)
        for flag in ("has_sorted_indices", "has_canonical_format"):
            assert getattr(a, flag) == getattr(b, flag), (name, flag)


def _cascade_with_large_capacitor():
    """cascade_model with a 0.123 p.u. capacitor at the second regulator's
    primary. That diagonal sums both regulators' blocks, a line block and
    the shunt, and with these values its rounding depends on the order of
    the sum, so a reordered stamp shows in the last bits."""
    model = cascade_model()
    abc = ("a", "b", "c")
    shunt = tf.PhaseMatrix(abc, np.diag([0.123j] * 3))
    return dataclasses.replace(model, buses=tuple(
        dataclasses.replace(b, shunt=shunt) if b.id == "n1" else b for b in model.buses))


# Generated feeders whose Y columns sum up to 27 and 35 stamped entries
# (IEEE-13: 22), where the order of duplicate summation is most exposed.
# chain-A-3ph and chain-B-3ph have a diagonal impedance behind the
# regulator, so exact zeros of its blocks are dropped at every ratio.
YBUS_FEEDERS = {**PARITY_FEEDERS, "cascade-capacitor": lambda _: _cascade_with_large_capacitor(),
                "gen972-60": lambda _: bench_feeders().generate_feeder(972, 60),
                "gen973-200": lambda _: bench_feeders().generate_feeder(973, 200)}


@pytest.mark.parametrize("name", sorted(YBUS_FEEDERS))
def test_assemble_matches_loop_reference(name, request):
    """Stamp set plus per-ratio step gives the per-entry loop's bytes, with
    a fresh stamp set and with one reused across ratios."""
    model = YBUS_FEEDERS[name](request)
    stamps = build_stamps(model)
    for ratios in _ratio_sets(model).values():
        ref = loop_assemble(model, ratios)
        _assert_same_system(tf.assemble(model, ratios), ref)
        _assert_same_system(tf.assemble(model, ratios, stamps=stamps), ref)


@pytest.mark.parametrize("name", sorted(PARITY_FEEDERS))
def test_shared_stamp_set_changes_no_bits(name, request):
    """Solves that share one stamp set give a fresh set's voltages, iteration
    count and residual bit for bit, and the certificate recomputed from the
    returned voltages equals the residual the solve stopped on."""
    model = PARITY_FEEDERS[name](request)
    stamps = build_stamps(model)
    # Each bus's rows hold its phases in order, and together they cover the rows.
    assert all(stamps.coords[rows] == tuple((b.id, p) for p in b.phases)
               for b, rows in stamps.bus_rows)
    assert [c for _, rows in stamps.bus_rows for c in stamps.coords[rows]] == list(stamps.coords)
    for ratios in _ratio_sets(model).values():
        assert tf.assemble(model, ratios, stamps=stamps).stamps is stamps
        shared = tf.solve_zbus(model, ratios, stamps=stamps)
        fresh = tf.solve_zbus(model, ratios)
        assert shared.converged and fresh.converged
        assert (shared.iterations, shared.residual) == (fresh.iterations, fresh.residual)
        assert shared.voltages.keys() == fresh.voltages.keys()
        for bus, vec in fresh.voltages.items():
            got = shared.voltages[bus]
            assert got.phases == vec.phases and got.values.tobytes() == vec.values.tobytes()
        assert tf.kcl_certificate(shared, model) == shared.residual


@pytest.mark.parametrize("name", sorted(YBUS_FEEDERS))
def test_array_metrics_match_per_coordinate_reads(name, request):
    """The import, the KCL certificate and the envelope read the voltages as
    whole arrays and give the bits of reading them coordinate by coordinate."""
    model = YBUS_FEEDERS[name](request)
    stamps = build_stamps(model)
    for ratios in _ratio_sets(model).values():
        sol = tf.solve_zbus(model, ratios, stamps=stamps)
        assert sol.converged
        system, vs = sol.system, sol.voltages
        i_s = system.Y_S @ np.array([vs[bus][p] for bus, p in stamps.full_coords])
        assert tf.import_objective(sol, model) == float(np.sum((stamps.v_slack * np.conj(i_s)).real))
        v = np.array([vs[bus][p] for bus, p in stamps.coords])
        mism = system.Y @ v + system.Y_NS @ stamps.v_slack - (-np.conj(stamps.loads / v))
        assert tf.kcl_certificate(sol, model) == float(np.max(np.abs(mism)))
        mags = np.concatenate([np.abs(vec.values) for bus, vec in vs.items()
                               if bus != model.slack.id])
        assert tf.voltage_envelope(sol, model) == (float(np.min(mags)), float(np.max(mags)))


def test_stamp_set_keeps_no_state_between_ratios():
    """r1, r2, r1 from one stamp set equal fresh builds, even after a caller
    writes into a returned matrix's values and pattern."""
    model = cascade_model()
    sets = _ratio_sets(model)
    stamps = build_stamps(model)
    for key in ("shifted", "extreme", "shifted"):
        got = tf.assemble(model, sets[key], stamps=stamps)
        _assert_same_system(got, tf.assemble(model, sets[key]))
        for name in ("Y", "Y_NS", "Y_S"):
            m = getattr(got, name)
            m.data[:] = np.nan
            m.indices[:] = -1
            m.indptr[:] = -1


def test_shared_stamp_set_builds_no_coo_matrix(monkeypatch, ieee13):
    """With a stamp set, assembly scatters into the fixed CSC pattern and
    converts no COO matrix."""
    stamps = build_stamps(ieee13)

    def no_coo(*args, **kwargs):
        raise AssertionError("assemble built a COO matrix")

    monkeypatch.setattr(sp, "coo_matrix", no_coo)
    for ratios in _ratio_sets(ieee13).values():
        tf.assemble(ieee13, ratios, stamps=stamps)
