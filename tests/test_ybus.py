import dataclasses
import itertools

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import tapflow as tf
from tapflow.ybus import _ratio_row, assemble_block, build_stamps

import stamps_reference
from conftest import PARITY_FEEDERS, bench_feeders, cascade_model, chain_model
from solution_reference import assert_solution_parity
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


def test_singular_impedance_names_the_first_line_in_stamp_order():
    """Lines are inverted in stamp order: lines that leave no regulator
    secondary, then each regulator's outgoing line. With both singular, the
    plain line b1->b2 is named although reg->b1 comes first in the model."""
    model = chain_model([0.1, 0.1], svr_kind="B")
    zero = tf.PhaseMatrix(("a",), [[0.0]])
    bad = dataclasses.replace(model, lines=tuple(dataclasses.replace(ln, z=zero)
                                                 for ln in model.lines))
    assert [(ln.from_bus, ln.to_bus) for ln in bad.lines] == [("reg", "b1"), ("b1", "b2")]
    with pytest.raises(ValueError, match="singular impedance matrix on line b1->b2$"):
        build_stamps(bad)


@pytest.mark.parametrize("bad,named", [
    # n1->n3 (phase c) is first in the 1-phase batch and in stamp order.
    (("r1->n1", "n1->n3"), "n1->n3"),
    # Only regulator outgoing lines: the first regulator's line is named,
    # although the 2-phase batch (r2->n2) is inverted before the 3-phase one.
    (("r2->n2",), "r2->n2"),
    (("r2->n2", "r1->n1"), "r1->n1"),
])
def test_singular_impedance_names_the_first_line_across_phase_groups(bad, named):
    """The lines are inverted per phase count, but a singular one is named
    in stamp order: plain lines, then regulators' outgoing lines. In
    cascade_model the batches are c (n1->n3), ab (r2->n2) and abc (r1->n1),
    and the stamp order is n1->n3, r1->n1, r2->n2."""
    model = cascade_model()
    assert [(q.shape[1], ks.tolist()) for ks, q, _ in build_stamps(model).layout.by_size] == \
        [(1, [2]), (2, [1]), (3, [0])]

    def singular(ln):       # rank one, or zero on one phase
        s = len(ln.z.phases)
        z = np.full((s, s), 0.1 + 0.2j if s > 1 else 0.0)
        return dataclasses.replace(ln, z=tf.PhaseMatrix(ln.z.phases, z))

    lines = tuple(singular(ln) if f"{ln.from_bus}->{ln.to_bus}" in bad else ln
                  for ln in model.lines)
    with pytest.raises(ValueError, match=f"singular impedance matrix on line {named}$"):
        build_stamps(dataclasses.replace(model, lines=lines))


@pytest.mark.parametrize("where", ["line", "slack", "regulator"])
def test_unvalidated_phase_mismatch_raises(tiny3, where):
    """A hand-built model that fails validation with a line phase its buses
    lack, a bus phase the slack voltage lacks, or a regulator secondary
    phase (c) that the regulator lacks, is refused rather than stamped into
    another coordinate."""
    if where == "line":
        ln = tiny3.lines[0]
        bad = dataclasses.replace(ln, z=tf.PhaseMatrix(("b",), [[ln.z.array[0, 0]]]))
        model = dataclasses.replace(tiny3, lines=(bad,) + tiny3.lines[1:])
    elif where == "slack":
        model = dataclasses.replace(tiny3, slack_voltage=tf.PhaseVector(("b",), [1.0]))
    else:
        model = chain_model([0.1 + 0.05j], svr_kind="B", phases=("a", "c"))
        model = dataclasses.replace(model, svrs=(dataclasses.replace(model.svrs[0], phases=("a",)),))
    assert tf.validate(model)
    with pytest.raises(ValueError, match="model fails validation"):
        build_stamps(model)


def test_unvalidated_secondary_feeding_two_lines_raises(tiny3):
    """A hand-built model whose regulator secondary feeds a second line
    fails validation and is refused: the elimination would drop that line."""
    extra = tf.BusSpec(id="tap", phases=("a",))
    line = dataclasses.replace(tiny3.lines[0], to_bus="tap")
    model = dataclasses.replace(tiny3, buses=tiny3.buses + (extra,), lines=tiny3.lines + (line,))
    assert tf.validate(model)
    with pytest.raises(ValueError, match="a regulator secondary feeds another line"):
        build_stamps(model)


def test_unvalidated_secondary_feeding_no_line_raises(tiny3):
    """A hand-built model whose regulator secondary feeds no line fails
    validation and is refused with an error that says so."""
    model = dataclasses.replace(tiny3, lines=())
    assert tf.validate(model)
    with pytest.raises(ValueError, match="a regulator secondary feeds no line") as err:
        build_stamps(model)
    assert "feeds another line" not in str(err.value)


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


def test_recover_secondary_rejects_a_zero_ratio(tiny3):
    volts = {"sub": tf.PhaseVector("a", [1.1 + 0.0j])}
    with pytest.raises(ValueError, match=r"svr sub->reg: zero ratio on phase a"):
        tf.recover_svr_secondary(tiny3, [{"a": 0.0}], volts)


@pytest.mark.parametrize("ratio", [0.0, float("inf"), float("nan")])
def test_solve_rejects_a_secondary_ratio(ratio):
    """Phase c of the cascade's second (type-A) regulator is on its
    secondary but not on the line behind it, so no stamp reads its ratio.
    Assembly still checks it with every other regulator phase's."""
    second = {"a": 1.0, "b": 1.0, "c": ratio}
    with pytest.raises(ValueError, match=r"svr n1->r2: ratios must be finite and nonzero, "
                                         rf"got \[1.0, 1.0, {ratio}\]$"):
        tf.solve_zbus(cascade_model(), [dict.fromkeys("abc", 1.0), second])


def test_solve_rejects_a_missing_secondary_ratio():
    with pytest.raises(ValueError, match=r"svr n1->r2: no ratio for phase\(s\) \['c'\]"):
        tf.solve_zbus(cascade_model(), [dict.fromkeys("abc", 1.0), {"a": 1.0, "b": 1.0}])


def test_solve_raises_recovery_error_on_an_overflowing_secondary():
    """A finite nonzero ratio can still make a secondary voltage overflow:
    1e-309 on phase c of the cascade's second regulator, made type B. The
    solve raises recovery's error for it."""
    model = cascade_model()
    model = dataclasses.replace(model, svrs=(model.svrs[0],
                                             dataclasses.replace(model.svrs[1], kind="B")))
    with pytest.raises(ValueError, match="non-finite phase value"):
        tf.solve_zbus(model, [dict.fromkeys("abc", 1.0), {"a": 1.0, "b": 1.0, "c": 1e-309}])


@pytest.mark.parametrize("count", [0, 1, 3])
def test_solve_rejects_a_wrong_number_of_ratio_maps(count):
    """One ratio map per regulator, no fewer and no more."""
    with pytest.raises(ValueError, match=rf"{count} ratio maps for 2 regulators"):
        tf.solve_zbus(cascade_model(), [dict.fromkeys("abc", 1.0)] * count)


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
    return s.coords, s.slack_coords, s.full_coords


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
    _assert_leaves_first(stamps)
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


@pytest.mark.parametrize("name", sorted(PARITY_FEEDERS))
def test_solution_view_and_metrics_match_eager_reference(name, request):
    """A solve's per-bus view and its array metrics equal the eagerly built
    dict and the metrics that read it, bit for bit, at every ratio set."""
    model = PARITY_FEEDERS[name](request)
    stamps = build_stamps(model)
    for ratios in _ratio_sets(model).values():
        assert_solution_parity(model, ratios, stamps=stamps)


@pytest.mark.parametrize("kind", ["A", "B"])
def test_secondaries_are_recovery_bits_to_the_sign_of_zero(kind):
    """The solve's regulator secondaries are ``recover_svr_secondary``'s
    bits, zero signs and underflow included, at primaries with zero,
    negative-zero and subnormal parts (the cascade's second regulator, whose
    primary n1 is a retained bus, made type ``kind``)."""
    model = cascade_model()
    model = dataclasses.replace(model, svrs=(model.svrs[0],
                                             dataclasses.replace(model.svrs[1], kind=kind)))
    stamps = build_stamps(model)
    parts = [0.0, -0.0, 1.5, -1.5, 5e-324, -2.5e-310]
    cols = [(complex(x, y), g) for x in parts for y in parts for g in (0.9, 1.1, 1e-300)]
    v = np.repeat(stamps.v_flat[:, None], len(cols), axis=1)
    v[[stamps.coords.index(("n1", p)) for p in "abc"]] = [z for z, _ in cols]
    r = np.array([[1.0] * 3 + [g] * 3 for _, g in cols]).T
    full = tf.zbus._full_voltages(stamps, v, r)
    for j, (z, g) in enumerate(cols):
        want = tf.recover_svr_secondary(model, [dict.fromkeys("abc", 1.0), dict.fromkeys("abc", g)],
                                        {"sub": model.slack_voltage,
                                         "n1": tf.PhaseVector("abc", [z] * 3)})
        assert full[j, stamps.secondaries[0]].tobytes() == \
            np.concatenate([want["r1"].values, want["r2"].values]).tobytes(), (z, g)


def _edge_import_by_line(solution, model):
    """``import_objective_edges`` inverting each head line's impedance itself
    and finding each regulator's line through the reference tree index."""
    slack_id = model.slack.id
    total = 0.0
    for ln in model.lines:
        if ln.from_bus != slack_id:
            continue
        ph = ln.z.phases
        vn = np.array([model.slack_voltage[p] for p in ph])
        vm = np.array([solution.voltages[ln.to_bus][p] for p in ph])
        i_edge = np.linalg.inv(ln.z.array) @ (vn - vm)
        total += float(np.sum((vn * np.conj(i_edge)).real))
    children = stamps_reference.tree_index(model).children
    for svx, sv in enumerate(model.svrs):
        if sv.from_bus != slack_id:
            continue
        line = model.lines[children[sv.to_bus][0].index]
        ph = line.z.phases
        start = sum(len(earlier.phases) for earlier in model.svrs[:svx])
        r = solution.system.ratios[0, [start + sv.phases.index(p) for p in ph]]
        g = 1.0 / r if sv.kind == "B" else r
        vn = np.array([model.slack_voltage[p] for p in ph])
        vm = np.array([solution.voltages[line.to_bus][p] for p in ph])
        i_edge = np.diag(g) @ (np.linalg.inv(line.z.array) @ (g * vn - vm))
        total += float(np.sum((vn * np.conj(i_edge)).real))
    return total


def _unbalance_by_bus(solution):
    worst = 0.0
    for vec in solution.voltages.values():
        if len(vec.phases) < 2:
            continue
        mags = np.abs(vec.values)
        avg = float(np.mean(mags))
        worst = max(worst, 100.0 * float(np.max(np.abs(mags - avg))) / avg)
    return worst


@pytest.mark.parametrize("name", sorted(YBUS_FEEDERS))
def test_array_metrics_match_per_coordinate_reads(name, request):
    """The import, the KCL certificate, the envelope and the unbalance read
    the voltages as whole arrays and give the bits of reading them coordinate
    by coordinate or bus by bus; the edge-wise import with the stamp set's
    line inverses gives the bits of inverting each line again."""
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
        assert tf.voltage_unbalance(sol) == _unbalance_by_bus(sol)
        assert tf.import_objective_edges(sol, model) == _edge_import_by_line(sol, model)


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


def test_assembly_converts_one_coo_matrix(monkeypatch, ieee13):
    """``build_stamps`` converts no COO matrix, an assembly converts one, and
    a block of m ratio rows one whatever m."""
    conversions = []
    tocsc = sp.coo_matrix.tocsc

    def counting(self, *args, **kwargs):
        conversions.append(self.shape)
        return tocsc(self, *args, **kwargs)

    monkeypatch.setattr(sp.coo_matrix, "tocsc", counting)
    stamps = build_stamps(ieee13)
    assert conversions == []
    for ratios in _ratio_sets(ieee13).values():
        tf.assemble(ieee13, ratios, stamps=stamps)
    assert len(conversions) == len(_ratio_sets(ieee13))
    rows = np.ones((25, sum(len(sv.phases) for sv in ieee13.svrs)))
    for m in (1, 2, 25):
        conversions.clear()
        assemble_block(stamps, rows[:m])
        assert len(conversions) == 1


def _tap_rows(model):
    """The ratio row of every tap combination, in product order, the order
    in which ``brute_force`` numbers them."""
    axes = [(svx, p, sv) for svx, sv in enumerate(model.svrs) for p in sv.phases]
    out = []
    for combo in itertools.product(*(range(sv.tap_min, sv.tap_max + 1) for _, _, sv in axes)):
        taps = [{} for _ in model.svrs]
        for (svx, p, _), t in zip(axes, combo):
            taps[svx][p] = t
        out.append(_ratio_row(model.svrs, tf.taps_to_ratios(model, taps)))
    return np.array(out)


def _diagonal_block(a, j, shape):
    """Block j of the block-diagonal CSC matrix ``a``, of blocks of
    ``shape``: its indptr, indices and data."""
    (n_rows, n_cols) = shape
    ptr = a.indptr[j * n_cols:(j + 1) * n_cols + 1]
    indices = a.indices[ptr[0]:ptr[-1]] - j * n_rows
    assert ((0 <= indices) & (indices < n_rows)).all(), "an entry off the diagonal block"
    return ptr - ptr[0], indices, a.data[ptr[0]:ptr[-1]]


@pytest.mark.parametrize("case", ["tiny3", "ieee13"])
def test_block_equals_single_assemblies(case, request):
    """``assemble_block`` on every tap combination (tiny3's 33 taps, IEEE-13
    windowed to taps -2..2) gives row 0's Y, and in Y_NS and Y_S, one
    diagonal block per row j with the bytes of ``assemble`` at row j; both
    block matrices are canonical, as a single assembly's are."""
    model = request.getfixturevalue(case)
    if case == "ieee13":
        model = dataclasses.replace(model, svrs=tuple(
            dataclasses.replace(sv, tap_min=-2, tap_max=2) for sv in model.svrs))
    stamps = build_stamps(model)
    rows = _tap_rows(model)
    block = assemble_block(stamps, rows)
    singles = [assemble_block(stamps, row[None]) for row in rows]
    # Y is row 0's: with row 0's Y_NS and Y_S, the block is row 0's system.
    _assert_same_system(dataclasses.replace(block, Y_NS=singles[0].Y_NS, Y_S=singles[0].Y_S),
                        singles[0])
    for name in ("Y_NS", "Y_S"):
        got = getattr(block, name)
        shape = getattr(singles[0], name).shape
        assert got.shape == (len(rows) * shape[0], len(rows) * shape[1]), name
        assert got.has_sorted_indices and got.has_canonical_format, name
        assert got.nnz == sum(getattr(one, name).nnz for one in singles), name
        for j, one in enumerate(singles):
            want = getattr(one, name)
            for part, ref in zip(_diagonal_block(got, j, shape), (want.indptr, want.indices, want.data)):
                assert part.dtype == ref.dtype and part.tobytes() == ref.tobytes(), (name, j)
            assert want.has_sorted_indices and want.has_canonical_format, (name, j)


@pytest.mark.parametrize("name", sorted(YBUS_FEEDERS))
def test_y_fixed_exactly_when_the_ratios_leave_y_alone(name, request):
    """Moving one ratio alone from the zero-tap set changes Y's bytes
    exactly at the columns that the stamp set marks as moving Y: the phases
    on the outgoing line of a regulator whose primary is not the slack bus.
    Y's bytes are the same at every ratio set exactly when no column moves
    Y, on the feeders whose regulators all sit at the slack bus."""
    model = YBUS_FEEDERS[name](request)
    stamps = build_stamps(model)
    zero = _ratio_row(model.svrs, tf.taps_to_ratios(model, tf.zero_taps(model)))
    y_zero = assemble_block(stamps, zero[None]).Y.data.tobytes()
    moved = []
    for col in range(len(zero)):
        row = zero.copy()
        row[col] = 1.05
        moved.append(assemble_block(stamps, row[None]).Y.data.tobytes() != y_zero)
    assert stamps.moves_y.dtype == bool and stamps.moves_y.tolist() == moved
    ys = [tf.assemble(model, ratios, stamps=stamps).Y for ratios in _ratio_sets(model).values()]
    same = all(y.data.tobytes() == ys[0].data.tobytes() for y in ys)
    assert (not stamps.moves_y.any()) == same
    assert same == all(sv.from_bus == model.slack.id for sv in model.svrs)


@pytest.mark.parametrize("name", ["ieee13", "cascade"])
def test_written_system_changes_no_later_assembly_or_solve(name, request):
    """Writing into a returned system's values and patterns changes neither
    the next assembly on its stamp set nor later solves on it."""
    model = PARITY_FEEDERS[name](request)
    sets = _ratio_sets(model)
    stamps = build_stamps(model)
    for key in ("zero", "shifted", "extreme", "shifted"):
        _assert_same_system(tf.assemble(model, sets[key], stamps=stamps),
                            tf.assemble(model, sets[key]))
        got, want = (tf.solve_zbus(model, sets[key], stamps=s) for s in (stamps, None))
        assert (got.iterations, got.residual) == (want.iterations, want.residual)
        assert all(got.voltages[bus].values.tobytes() == vec.values.tobytes()
                   for bus, vec in want.voltages.items())
        for system in (got.system, tf.assemble(model, sets[key], stamps=stamps)):
            for m in (system.Y, system.Y_NS, system.Y_S):
                m.data[:] = np.nan
                m.indices[:] = -1
                m.indptr[:] = -1


def _assert_same_bytes(a, b, what):
    a, b = np.asarray(a), np.asarray(b)
    assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), what


def _reversed_buses(model):
    """``model`` with its bus list reversed: the slack bus comes last."""
    out = dataclasses.replace(model, buses=model.buses[::-1])
    assert tf.validate(out) == []
    return out


def test_stamp_set_reads_no_tree_map(monkeypatch, ieee13):
    """A stamp set calls ``tree_index`` once and gets only the root's id."""
    built = []

    def keeping(model):
        built.append(tf.tree_index(model))
        return built[-1]

    monkeypatch.setattr(tf.ybus, "tree_index", keeping)
    build_stamps(ieee13)
    assert built == ["650"]


def _assert_leaves_first(stamps) -> np.ndarray:
    """Check, from ``full_of[0]``, ``layout.at`` and ``layout.depth``, that
    Y's rows are the retained buses' coordinates, that each retained bus's
    rows are together and in phase order, and that they come leaves first,
    by descending depth. Returns each full coordinate's row of Y, -1 off Y."""
    layout, retained = stamps.layout, stamps.full_of[0]
    bus_at = np.nonzero(layout.at >= 0)[0]          # each full coordinate's bus
    kept = ~layout.slack
    kept[layout.svr_ends[:, 1]] = False
    assert np.array_equal(np.unique(bus_at[retained]), np.flatnonzero(kept))
    assert len(retained) == np.count_nonzero(layout.at[kept] >= 0)
    row_of = np.full(len(bus_at), -1)
    row_of[retained] = np.arange(len(retained))
    for k in np.flatnonzero(kept).tolist():
        rows = row_of[layout.at[k][layout.at[k] >= 0]]
        assert np.array_equal(rows, np.arange(rows[0], rows[0] + len(rows))), k
    assert (np.diff(layout.depth[bus_at[retained]]) <= 0).all()
    return row_of


def test_elimination_order_puts_each_bus_after_the_buses_below_it():
    """On a generated feeder whose slack bus is listed last, the stamp set
    numbers Y's rows so that each retained bus's rows stay together, in
    phase order, after the rows of every retained bus it feeds: through a
    line, or through the mid-feeder regulator and the line out of its
    secondary."""
    model = _reversed_buses(bench_feeders().generate_feeder(11, 200))
    stamps = build_stamps(model)
    row_of, at = _assert_leaves_first(stamps), stamps.layout.at
    rows = {b.id: row_of[at[k][at[k] >= 0]] for k, b in enumerate(model.buses)}
    parent = {e.to_bus: e.from_bus for e in (*model.lines, *model.svrs)}
    secondaries = {sv.to_bus for sv in model.svrs}
    checked = set()
    for bus, at_bus in rows.items():
        if bus == model.slack.id or bus in secondaries:
            continue
        up = parent[bus]
        if up in secondaries:
            up = parent[up]
        if up != model.slack.id:
            assert at_bus.max() < rows[up].min(), (bus, up)
            checked.add((bus, up))
    mid = model.svrs[1]
    assert (next(ln.to_bus for ln in model.lines if ln.from_bus == mid.to_bus), mid.from_bus) in checked


@pytest.mark.parametrize("case", ["ieee13", "gen-small", "gen200", "gen200-reversed"])
def test_rows_are_numbered_leaves_first_at_every_size(case, ieee13):
    """At every size each bus's rows are contiguous, in phase order, and
    come after those of every bus below it, in either bus order, and that
    numbering is not model order. A solution's per-bus view keeps model key
    order, the slack bus and the regulator secondaries in their model places."""
    feeders = bench_feeders()
    model = {"ieee13": lambda: ieee13, "gen-small": lambda: feeders.generate_feeder(5, 40),
             "gen200": lambda: feeders.generate_feeder(5, 200),
             "gen200-reversed": lambda: _reversed_buses(feeders.generate_feeder(5, 200))}[case]()
    stamps = build_stamps(model)
    _assert_leaves_first(stamps)
    assert not (np.diff(stamps.full_of[0]) > 0).all()
    sol = tf.solve_zbus(model, tf.taps_to_ratios(model, tf.zero_taps(model)), stamps=stamps)
    assert list(sol.voltages) == [b.id for b in model.buses]


def _assert_stamp_parity(model):
    """``build_stamps`` gives the reference build's stamp set field by field
    and bit for bit, ``tree_index`` gives its root, and assembly on the
    stamp set gives the per-entry loop's matrices at two ratio sets."""
    got, want = build_stamps(model), stamps_reference.build_stamps(model)
    for name in ("values", "moving", "v_flat", "v_slack", "loads", "moves_y"):
        _assert_same_bytes(getattr(got, name), getattr(want, name), name)
    for a, b in zip(got.full_of, want.full_of, strict=True):
        _assert_same_bytes(a, b, "full_of")
    for name in ("coords", "slack_coords", "full_coords"):
        assert getattr(got, name) == getattr(want, name), name
    # Each reference regulator record: its ends, its kind and the ratio
    # columns of its line's phases in the layout's rows, its zinv in the
    # stamp set's.
    layout, bus_of = got.layout, got.layout.bus_of
    for i, ref in enumerate(want.regulators):
        sv, k = ref.svr, layout.svr_lines[i]
        assert layout.svr_ends[i].tolist() == [bus_of[sv.from_bus], bus_of[sv.to_bus]]
        assert layout.svr_type_b[i] == (sv.kind == "B")
        assert layout.svr_cols[i][layout.mask[k]].tolist() == ref.cols
        _assert_same_bytes(got.svr_zinv[i][np.ix_(layout.mask[k], layout.mask[k])], ref.zinv,
                           "regulator zinv")
    for k, ref in enumerate(want.zinv):
        _assert_same_bytes(got.line_zinv(k), ref, f"zinv of line {k}")
    ref_layout = want.layout
    _assert_same_bytes(layout.at, ref_layout.at, "at")
    _assert_same_bytes(layout.load, ref_layout.load, "load")
    assert (layout.bus_of, layout.svr_lines) == (ref_layout.bus_of, ref_layout.svr_lines)
    _assert_same_bytes(layout.slack, [b.is_slack for b in model.buses], "slack")
    assert tf.tree_index(model) == stamps_reference.tree_index(model).root

    sets = _ratio_sets(model)
    for key in ("zero", "random"):
        _assert_same_system(tf.assemble(model, sets[key], stamps=got),
                            loop_assemble(model, sets[key]))


@pytest.mark.parametrize("name", ["ieee13", "tiny3"])
def test_stamp_set_matches_reference_build_on_fixtures(name, request):
    _assert_stamp_parity(request.getfixturevalue(name))


@pytest.mark.parametrize("case", ["reversed", "800"])
def test_stamp_set_matches_reference_build_on_large_and_reversed_feeders(case):
    """Parity beyond the property's 10-300 buses: a feeder whose slack bus is
    listed last, and one at the top of the one-shot benchmark's sizes."""
    feeders = bench_feeders()
    if case == "reversed":
        _assert_stamp_parity(_reversed_buses(feeders.generate_feeder(11, 200)))
    else:
        _assert_stamp_parity(feeders.generate_feeder(12, 800))


@settings(derandomize=True, max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 2**16), n_buses=st.integers(10, 300),
       shares=st.tuples(*[st.integers(0, 8)] * 3).filter(any))
def test_stamp_set_matches_reference_build(seed, n_buses, shares):
    """On generated feeders of drawn size and 1-, 2- and 3-phase lateral
    shares (a type-B regulator at the head, a type-A one mid-feeder), the
    one-pass stamp set equals the reference build's, and a solve's voltages
    and metrics equal the eagerly built reference's."""
    mix = tuple(s / sum(shares) for s in shares)
    model = bench_feeders().generate_feeder(seed, n_buses, mix)
    _assert_stamp_parity(model)
    sets = _ratio_sets(model)
    for key in ("zero", "random"):
        assert_solution_parity(model, sets[key])
