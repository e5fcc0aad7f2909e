import dataclasses
import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import tapflow as tf
from tapflow.network import canonical_phases

from conftest import FIXTURES, bench_feeders, chain_model
import stamps_reference


# ---------------------------------------------------------------------------
# Phase carriers
# ---------------------------------------------------------------------------

def test_phase_vector_indexing():
    v = tf.PhaseVector("ac", [1 + 2j, 3 - 1j])
    assert v["a"] == 1 + 2j and v["c"] == 3 - 1j
    with pytest.raises(KeyError):
        v["b"]


def test_phase_order_normalized():
    v = tf.PhaseVector("ca", [5.0, 7.0])
    assert v.phases == ("a", "c")
    assert v["c"] == 5.0 and v["a"] == 7.0
    m = tf.PhaseMatrix("ba", [[1, 2], [3, 4]])
    assert m.phases == ("a", "b")
    # Declared row b = [1, 2] over columns (b, a): entries follow the phases.
    assert m.entry("b", "a") == 2 and m.entry("a", "b") == 3

    with pytest.raises(ValueError):
        canonical_phases("aab")
    with pytest.raises(ValueError):
        canonical_phases("ax")


def test_phase_matrix_shape_checked():
    with pytest.raises(ValueError):
        tf.PhaseMatrix("ab", [[1.0, 2.0]])


# ---------------------------------------------------------------------------
# Tap <-> ratio algebra
# ---------------------------------------------------------------------------

TYPE_B, TYPE_A = tf.SvrSpec("x", "y"), tf.SvrSpec("x", "y", kind="A")


def test_ratio_known_values():
    assert TYPE_B.ratio(0) == 1.0
    assert TYPE_B.ratio(16) == pytest.approx(0.9)
    assert TYPE_B.ratio(-16) == pytest.approx(1.1)
    assert TYPE_B.ratio(4) == pytest.approx(0.975)
    assert TYPE_A.ratio(16) == pytest.approx(1.1)
    with pytest.raises(ValueError):
        TYPE_B.ratio(17)


def test_tap_known_values():
    assert TYPE_B.tap(1.0) == 0
    assert TYPE_B.tap(0.9) == 16
    assert TYPE_B.tap(0.95) == 8
    assert TYPE_B.tap(0.5) == 16      # clamped
    assert TYPE_B.tap(1.5) == -16
    with pytest.raises(ValueError):
        TYPE_B.tap(-0.1)


def test_round_trip_every_tap_both_kinds():
    for sv in (TYPE_A, TYPE_B):
        for t in range(-16, 17):
            r = sv.ratio(t)
            assert sv.tap(r) == t


def test_ratio_monotone():
    rb = [TYPE_B.ratio(t) for t in range(-16, 17)]
    ra = [TYPE_A.ratio(t) for t in range(-16, 17)]
    assert all(x > y for x, y in zip(rb, rb[1:]))   # strictly decreasing
    assert all(x < y for x, y in zip(ra, ra[1:]))   # strictly increasing


def test_rounding_half_away_from_zero():
    # 1 - 0.9971875 = 0.0028125 = 0.45 steps -> 0; half-step boundary rounds away.
    assert TYPE_B.tap(1.0 - 0.5 * 0.00625) == 1
    assert TYPE_B.tap(1.0 + 0.5 * 0.00625) == -1
    # With a step of 2**-7 the half steps are exact ties: 0.5 and 2.5 steps
    # round to 1 and 3, not to the even 0 and 2.
    for sv in (dataclasses.replace(TYPE_A, step=2**-7), dataclasses.replace(TYPE_B, step=2**-7)):
        sign = 1 if sv.kind == "A" else -1
        for half, want in ((0.5, 1), (2.5, 3), (-0.5, -1), (-2.5, -3)):
            assert sv.tap(1.0 + sign * half * 2**-7) == want


@settings(derandomize=True, max_examples=100, deadline=None)
@example(kind="B", step=0.00625, tap_min=-16, tap_max=16, keys=set())
@given(kind=st.sampled_from("AB"), step=st.floats(1e-4, 0.02),
       tap_min=st.integers(-40, 0), tap_max=st.integers(0, 40),
       keys=st.sets(st.sampled_from(("tap_min", "tap_max", "step"))))
def test_tap_grid_property(kind, step, tap_min, tap_max, keys):
    """Every tap round-trips; the ratio range is the ratios at the two bounds,
    low ratio first; ``ratio`` raises outside the bounds and ``tap`` clamps
    there; a tap key left out of the feeder file parses to the field default."""
    sv = tf.SvrSpec("x", "y", kind=kind, tap_min=tap_min, tap_max=tap_max, step=step)
    assert all(sv.tap(sv.ratio(t)) == t for t in range(tap_min, tap_max + 1))
    ends = (sv.ratio(tap_min), sv.ratio(tap_max))
    low, high = sv.ratio_range()
    assert (low, high) == (ends[::-1] if kind == "B" else ends)
    for t in (tap_min - 1, tap_max + 1):
        with pytest.raises(ValueError, match="outside"):
            sv.ratio(t)
    clamped = (sv.tap(low - step), sv.tap(high + step), sv.tap(1e-9), sv.tap(1e9))
    assert clamped == ((tap_max, tap_min) if kind == "B" else (tap_min, tap_max)) * 2

    doc = json.loads((FIXTURES / "tiny3.json").read_text())
    kept = {k: getattr(sv, k) for k in keys}
    node = doc["svrs"][0]
    doc["svrs"] = [{"from": node["from"], "to": node["to"], "kind": kind, "phases": "a", **kept}]
    assert tf.parse_feeder(json.dumps(doc)).svrs == (
        tf.SvrSpec(node["from"], node["to"], kind=kind, phases="a", **kept),)


# ---------------------------------------------------------------------------
# Parsing / serialization
# ---------------------------------------------------------------------------

MINIMAL = """
{
  "format": 1,
  "slack_voltage": {"phases": "a", "values": [[1.0, 0.0]]},
  "buses": [
    {"id": "src", "phases": "a", "is_slack": true},
    {"id": "load", "phases": "a", "load": {"phases": "a", "values": [[0.1, 0.05]]}}
  ],
  "lines": [
    {"from": "src", "to": "load",
     "z": {"phases": "a", "rows": [[[0.01, 0.03]]]}}
  ],
  "svrs": []
}
"""


def test_parse_minimal_two_bus():
    model = tf.parse_feeder(MINIMAL)
    assert len(model.buses) == 2
    assert len(model.lines) == 1
    assert not model.svrs
    assert model.slack.id == "src"
    assert model.bus("load").load["a"] == 0.1 + 0.05j


def test_serialize_round_trip():
    model = tf.parse_feeder(MINIMAL)
    text = tf.serialize(model)
    again = tf.parse_feeder(text)
    assert again == model
    assert tf.serialize(again) == text     # serialize-parse is a fixed point


@pytest.mark.parametrize("name", ["ieee13", "tiny3", "gen3-60"])
def test_serialize_round_trip_real_feeders(request, name):
    """Regulators, shunts and config survive the round trip too."""
    model = (bench_feeders().generate_feeder(3, 60) if name == "gen3-60"
             else request.getfixturevalue(name))
    text = tf.serialize(model)
    again = tf.parse_feeder(text)
    assert again == model
    assert tf.serialize(again) == text


def test_parse_reports_syntax_position():
    with pytest.raises(tf.FeederFormatError) as err:
        tf.parse_feeder("{\n  \"format\": 1,\n  oops\n}")
    assert err.value.line == 3


def test_parse_rejects_schema_problems():
    with pytest.raises(tf.FeederFormatError):
        tf.parse_feeder("[1, 2]")
    with pytest.raises(tf.FeederFormatError):
        tf.parse_feeder('{"format": 2, "buses": [], "lines": [], "svrs": [], '
                        '"slack_voltage": {"phases": "a", "values": [[1, 0]]}}')
    doc = json.loads(MINIMAL)
    doc["buses"][1]["load"]["values"] = [[0.1, 0.05], [0.2, 0.1]]   # arity mismatch
    with pytest.raises(tf.FeederFormatError):
        tf.parse_feeder(json.dumps(doc))
    doc = json.loads(MINIMAL)
    doc["buses"][1]["model"] = "delta-z"
    with pytest.raises(tf.FeederFormatError):
        tf.parse_feeder(json.dumps(doc))
    # Wrong JSON types where the schema has arrays, objects or phase strings.
    for edit in (lambda d: d.update(buses=5),
                 lambda d: d["buses"].append(1),
                 lambda d: d["lines"].append(3),
                 lambda d: d["buses"][1].update(phases=5),
                 lambda d: d["svrs"].append({"from": "src", "to": "load", "kind": "B",
                                             "phases": 3}),
                 lambda d: d["lines"][0].update(z={"phases": "a", "rows": None}),
                 lambda d: d["buses"][1]["load"].update(values=[[True, 0]])):
        doc = json.loads(MINIMAL)
        edit(doc)
        with pytest.raises(tf.FeederFormatError):
            tf.parse_feeder(json.dumps(doc))
    doc = json.loads(MINIMAL)
    doc["buses"][1]["load"]["values"] = "x"
    with pytest.raises(tf.FeederFormatError, match="'values' must be an array"):
        tf.parse_feeder(json.dumps(doc))


_SVR = {"from": "src", "to": "load", "kind": "B", "phases": "a"}


@pytest.mark.parametrize("edit,match", [
    (lambda d: d.pop("lines"), "missing top-level key 'lines'"),
    (lambda d: d["buses"][1].pop("phases"), "bus entries need 'id' and 'phases'"),
    (lambda d: d["buses"][1].update(colour="red"), r"bus load: unknown keys \['colour'\]"),
    (lambda d: d["lines"][0].pop("z"), "line entries need 'from', 'to', 'z'"),
    (lambda d: d["svrs"].append({k: v for k, v in _SVR.items() if k != "kind"}),
     "svr entries need 'from', 'to', 'kind', 'phases'"),
    (lambda d: d["svrs"].append(dict(_SVR, kind="C")), "svr kind must be 'A' or 'B', got 'C'"),
    (lambda d: d.update(config=[]), "'config' must be an object"),
    (lambda d: d["buses"][1].update(load=[0.1, 0.05]), r"bus load: expected \{phases, values\}"),
    (lambda d: d["lines"][0].update(z=[[0.01, 0.03]]),
     r"line src->load: expected \{phases, rows\}"),
    (lambda d: d["lines"][0]["z"].update(rows=[]), "line src->load: row count 0 != phase count 1"),
    (lambda d: d["lines"][0]["z"].update(rows=[[[0.01, 0.03], [0.0, 0.0]]]),
     "line src->load: matrix rows must have 1 entries"),
    (lambda d: d["buses"][1]["load"].update(values=[[0.1, 0.05, 0.0]]),
     r"bus load: complex values must be \[re, im\] 2-arrays"),
    # Every object is checked against its own key set, so a misspelt
    # ``tap_max`` is not silently read as the default.
    (lambda d: d.update(name="feeder"), r"top level: unknown keys \['name'\]"),
    (lambda d: d["lines"][0].update(length=1.0), r"line src->load: unknown keys \['length'\]"),
    (lambda d: d["svrs"].append(dict(_SVR, tapmax=4)), r"svr src->load: unknown keys \['tapmax'\]"),
    (lambda d: d["slack_voltage"].update(unit="pu"), r"slack_voltage: unknown keys \['unit'\]"),
    (lambda d: d["buses"][1]["load"].update(unit="pu"), r"bus load: unknown keys \['unit'\]"),
    (lambda d: d["lines"][0]["z"].update(unit="ohm"),
     r"line src->load: unknown keys \['unit'\]"),
    (lambda d: d["buses"][1].update(shunt={"phases": "a", "rows": [[[0.0, 0.01]]], "unit": "pu"}),
     r"bus load: unknown keys \['unit'\]"),
], ids=["top-level-key", "bus-keys", "bus-unknown-key", "line-keys", "svr-keys", "svr-kind",
        "config-list", "vector-shape", "matrix-shape", "matrix-row-count", "matrix-row-width",
        "complex-pair", "top-level-unknown-key", "line-unknown-key", "svr-unknown-key",
        "slack-voltage-unknown-key", "load-unknown-key", "z-unknown-key", "shunt-unknown-key"])
def test_parse_names_each_structure_error(edit, match):
    doc = json.loads(MINIMAL)
    edit(doc)
    with pytest.raises(tf.FeederFormatError, match=match):
        tf.parse_feeder(json.dumps(doc))


def test_parse_reports_the_svr_specs_kind_rule():
    """``parse_feeder`` holds no kind rule of its own: it reports
    ``SvrSpec``'s, naming the svr."""
    doc = json.loads(MINIMAL)
    doc["svrs"].append(dict(_SVR, kind="C"))
    with pytest.raises(ValueError) as want:
        tf.SvrSpec(from_bus="src", to_bus="load", kind="C", phases=("a",))
    with pytest.raises(tf.FeederFormatError) as got:
        tf.parse_feeder(json.dumps(doc))
    assert str(got.value) == f"svr src->load: {want.value}"
    assert str(want.value) == "svr kind must be 'A' or 'B', got 'C'"


@pytest.mark.parametrize("svr,bus,error,match", [
    ({"tap_min": -15.7}, {}, tf.FeederFormatError, "'tap_min' must be an integer"),
    ({"step": True}, {}, tf.FeederFormatError, "'step' must be a number"),
    ({"step": float("nan")}, {}, tf.ModelValidationError, "step must be positive and finite"),
    ({"step": float("inf")}, {}, tf.ModelValidationError, "step must be positive and finite"),
    ({"step": 1e200}, {}, tf.ModelValidationError, r"ratio range \(.*\) must have finite squares"),
    # tiny3's type-B regulator has taps -16..16: tap 16 reaches ratio 1 - 16 step.
    ({"step": 0.1}, {}, tf.ModelValidationError,
     r"\[svr-bounds\] ratio range \(-0.6000000000000001, 2.6\) must be positive"),
    ({"step": 0.0625}, {}, tf.ModelValidationError,
     r"\[svr-bounds\] ratio range \(0.0, 2.0\) must be positive"),
    ({"kind": "A", "step": 0.0625}, {}, tf.ModelValidationError,
     r"\[svr-bounds\] ratio range \(0.0, 2.0\) must be positive"),
    ({}, {"is_slack": "false"}, tf.FeederFormatError, "'is_slack' must be a boolean"),
], ids=["fractional-tap", "bool-step", "nan-step", "inf-step", "huge-step", "negative-ratio",
        "zero-ratio", "zero-ratio-type-a", "string-slack"])
def test_parse_types_regulator_and_slack_fields(svr, bus, error, match):
    doc = json.loads((FIXTURES / "tiny3.json").read_text())
    doc["svrs"][0].update(svr)
    doc["buses"][2].update(bus)
    with pytest.raises(error, match=match):
        tf.parse_feeder(json.dumps(doc))


@pytest.mark.parametrize("place", [
    lambda d, big: d["buses"][2]["load"]["values"][0].__setitem__(0, big),
    lambda d, big: d["svrs"][0].update(step=big),
    lambda d, big: d["svrs"][0].update(tap_max=big),
    lambda d, big: d["svrs"][0].update(tap_min=-big),
    lambda d, big: d["config"].update(v_min=big),
], ids=["load", "step", "tap-max", "tap-min", "config"])
def test_parse_rejects_an_integer_no_float_holds(place):
    """Every number field is read as a float, so an integer beyond float
    range (here 1 followed by 400 zeros) is a format error, not an
    ``OverflowError`` later."""
    doc = json.loads((FIXTURES / "tiny3.json").read_text())
    place(doc, 10**400)
    with pytest.raises(tf.FeederFormatError, match="^an integer of 401 digits does not fit a float$"):
        tf.parse_feeder(json.dumps(doc))


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")],
                         ids=["nan", "inf", "minus-inf"])
@pytest.mark.parametrize("place, where", [
    (lambda d, bad: d["buses"][2]["load"]["values"][0].__setitem__(1, bad), "bus load"),
    (lambda d, bad: d["lines"][0]["z"]["rows"][0][0].__setitem__(0, bad), "line reg->load"),
    (lambda d, bad: d["slack_voltage"]["values"][0].__setitem__(0, bad), "slack_voltage"),
], ids=["load", "impedance", "slack-voltage"])
def test_parse_rejects_a_nonfinite_complex_part_naming_its_place(place, where, bad):
    """NaN, Infinity and 1e999 (which reads as Infinity) in a complex value
    are format errors that name the entry."""
    doc = json.loads((FIXTURES / "tiny3.json").read_text())
    place(doc, bad)
    with pytest.raises(tf.FeederFormatError, match=f"^{where}: complex values must be finite, got "):
        tf.parse_feeder(json.dumps(doc))


@pytest.mark.parametrize("edit,match", [
    (lambda d: d["buses"][3].update(phases="abx"), "bus 633: unknown phase 'x'"),
    (lambda d: d["buses"][3].update(phases="aab"), "bus 633: duplicate phase 'a'"),
    (lambda d: d["lines"][0]["z"].update(phases="ax"), "line RG60->632: unknown phase 'x'"),
    (lambda d: d["svrs"][0].update(phases="abd"), "svr 650->RG60: unknown phase 'd'"),
    (lambda d: d["slack_voltage"].update(phases="abq"), "slack_voltage: unknown phase 'q'"),
    (lambda d: d["buses"][3].update(id=[1]), r"buses\[3\]: 'id' must be a string, got \[1\]"),
    (lambda d: d["lines"][0].update({"from": 650}), r"lines\[0\]: 'from' must be a string"),
    (lambda d: d["svrs"][0].update(to=None), r"svrs\[0\]: 'to' must be a string, got None"),
], ids=["bus-letter", "bus-duplicate", "line-letter", "svr-letter", "slack-letter",
        "bus-id-list", "line-from-int", "svr-to-null"])
def test_parse_names_bad_phase_letters_and_bus_references(edit, match):
    doc = json.loads((FIXTURES / "ieee13.json").read_text())
    edit(doc)
    with pytest.raises(tf.FeederFormatError, match=match):
        tf.parse_feeder(json.dumps(doc))


def test_parse_ieee13_fixture(ieee13):
    head_svrs = [s for s in ieee13.svrs if s.from_bus == ieee13.slack.id]
    assert len(head_svrs) == 1 and head_svrs[0].phases == ("a", "b", "c")
    sizes = {len(b.phases) for b in ieee13.buses}
    assert sizes == {1, 2, 3}
    line_sizes = {len(ln.z.phases) for ln in ieee13.lines}
    assert line_sizes == {1, 2, 3}


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

def test_valid_chain_has_no_violations():
    model = chain_model([0.1 + 0.05j, 0.05j])
    assert tf.validate(model) == []
    # Idempotent and side-effect free.
    assert tf.validate(model) == []


def test_cycle_detected():
    model = chain_model([0.1 + 0.05j, 0.05j])
    z = model.lines[0].z
    cyc = tf.FeederModel(
        buses=model.buses,
        lines=model.lines + (tf.LineSpec(from_bus="b2", to_bus="b1", z=z),),
        svrs=(), slack_voltage=model.slack_voltage)
    rules = {v.rule for v in tf.validate(cyc)}
    assert "not-a-tree" in rules


def test_bus_fed_twice_lists_only_its_in_degree_violations():
    """A bus fed by two lines is reported once, by its in-degree, and by no
    second "cycle detected" violation from the tree walk."""
    model = chain_model([0.1 + 0.05j, 0.05j])
    twice = dataclasses.replace(model, lines=model.lines + (
        tf.LineSpec(from_bus="sub", to_bus="b2", z=model.lines[1].z),))
    assert [(v.element, v.rule, v.message) for v in tf.validate(twice)] == [
        ("b2", "not-a-tree", "bus has 2 incoming edges, expected 1")]


def test_two_slacks_rejected():
    model = chain_model([0.1])
    bad = tf.FeederModel(
        buses=(model.buses[0],
               tf.BusSpec(id="b1", phases=("a",), is_slack=True)),
        lines=model.lines, svrs=(), slack_voltage=model.slack_voltage)
    assert any(v.rule == "slack-count" for v in tf.validate(bad))


def test_svr_secondary_isolation_violations():
    model = chain_model([0.2 + 0.1j], svr_kind="B")
    # Hang a load on the regulator secondary.
    buses = tuple(
        tf.BusSpec(id=b.id, phases=b.phases,
                   load=tf.PhaseVector("a", [0.1]) if b.id == "reg" else b.load,
                   shunt=b.shunt, is_slack=b.is_slack)
        for b in model.buses)
    bad = tf.FeederModel(buses=buses, lines=model.lines, svrs=model.svrs,
                         slack_voltage=model.slack_voltage)
    assert any(v.rule == "svr-secondary-isolation" for v in tf.validate(bad))


def test_unknown_bus_reference():
    model = chain_model([0.1])
    bad = tf.FeederModel(
        buses=model.buses,
        lines=(tf.LineSpec(from_bus="sub", to_bus="ghost", z=model.lines[0].z),),
        svrs=(), slack_voltage=model.slack_voltage)
    assert any(v.rule == "unknown-bus" for v in tf.validate(bad))


def test_asymmetric_impedance_flagged():
    model = chain_model([0.1])
    z = tf.PhaseMatrix("ab", [[0.02 + 0.06j, 0.01j], [0.02j, 0.02 + 0.06j]])
    bad = tf.FeederModel(
        buses=(tf.BusSpec(id="sub", phases=("a", "b"), is_slack=True),
               tf.BusSpec(id="b1", phases=("a", "b"))),
        lines=(tf.LineSpec(from_bus="sub", to_bus="b1", z=z),),
        svrs=(), slack_voltage=tf.PhaseVector("ab", [1.0, 1.0]))
    assert any(v.rule == "line-symmetric" for v in tf.validate(bad))


@pytest.mark.parametrize("gap,symmetric", [(1e-12, True), (2e-12, False)])
def test_symmetry_tolerance_boundary(gap, symmetric):
    """An asymmetry of exactly the tolerance is accepted; twice it is not,
    on the real and on the imaginary part."""
    for off in (gap, gap * 1j):
        z = tf.PhaseMatrix("ab", [[1.0, off], [0.0, 1.0]])
        assert z.is_symmetric() is symmetric


def _with_bus(model, bus_id, **fields):
    return dataclasses.replace(model, buses=tuple(
        dataclasses.replace(b, **fields) if b.id == bus_id else b for b in model.buses))


def _with_lines(model, *extra):
    """``model`` with more lines over phase a, each (from, to)."""
    z = model.lines[0].z
    return dataclasses.replace(model, lines=model.lines + tuple(
        tf.LineSpec(from_bus=f, to_bus=t, z=z) for f, t in extra))


def _with_svr(model, **fields):
    return dataclasses.replace(model, svrs=(dataclasses.replace(model.svrs[0], **fields),))


# Case -> (rule, message part, edit). tiny3 is sub (slack) -SVR-> reg -line-> load,
# all on phase a.
RULE_EDITS = {
    "duplicate-bus": ("duplicate-bus", "appears more than once",
                      lambda m: dataclasses.replace(m, buses=m.buses + m.buses[-1:])),
    "slack-injection": ("slack-injection", "no load and no shunt",
                        lambda m: _with_bus(m, "sub", load=tf.PhaseVector("a", [0.1]))),
    "load-mask": ("load-mask", "load phases not a subset",
                  lambda m: _with_bus(m, "load", load=tf.PhaseVector("ab", [0.1, 0.1]))),
    "shunt-mask": ("shunt-mask", "shunt phases not a subset",
                   lambda m: _with_bus(m, "load", shunt=tf.PhaseMatrix("b", [[0.01j]]))),
    "line-diagonal": ("line-diagonal", "diagonal entry is zero", lambda m: dataclasses.replace(
        m, lines=(dataclasses.replace(m.lines[0], z=tf.PhaseMatrix("a", [[0.0]])),))),
    "line-square": ("line-square", "must have finite squares", lambda m: dataclasses.replace(
        m, lines=(dataclasses.replace(m.lines[0], z=tf.PhaseMatrix("a", [[1e308 + 0.16j]])),))),
    "svr-bounds": ("svr-bounds", "must contain 0", lambda m: _with_svr(m, tap_min=1)),
    "svr-ratio-square": ("svr-bounds", "must have finite squares",
                         lambda m: _with_svr(m, step=1e200)),
    "slack-voltage-square": ("slack-voltage-square", "must have finite squares",
                             lambda m: dataclasses.replace(
                                 m, slack_voltage=tf.PhaseVector("a", [1e308 + 1e308j]))),
    "svr-mask": ("svr-mask", "not present at both endpoints",
                 lambda m: _with_svr(m, phases=("a", "b"))),
    "slack-incoming": ("not-a-tree", "slack bus has an incoming edge",
                       lambda m: _with_lines(m, ("load", "sub"))),
    "island-cycle": ("not-a-tree", "not reachable from the slack bus", lambda m: _with_lines(
        dataclasses.replace(m, buses=m.buses + (tf.BusSpec(id="x", phases=("a",)),
                                                tf.BusSpec(id="y", phases=("a",)))),
        ("x", "y"), ("y", "x"))),
    "secondary-outgoing": ("svr-secondary-isolation", "exactly one outgoing line",
                           lambda m: _with_lines(dataclasses.replace(
                               m, buses=m.buses + (tf.BusSpec(id="x", phases=("a",)),)),
                               ("reg", "x"))),
    "secondary-slack": ("svr-secondary-isolation", "cannot be the slack bus",
                        lambda m: _with_svr(m, from_bus="load", to_bus="sub")),
    "secondary-mask": ("svr-secondary-isolation", "must equal the SVR phase mask",
                       lambda m: _with_bus(m, "reg", phases=("a", "b"))),
}


@pytest.mark.parametrize("case", sorted(RULE_EDITS))
def test_validate_rule_reached(tiny3, case):
    """Each edit of the valid tiny3 model breaks the named rule."""
    rule, message, edit = RULE_EDITS[case]
    assert tf.validate(tiny3) == []
    found = {(v.rule, v.message) for v in tf.validate(edit(tiny3))}
    assert any(r == rule and message in text for r, text in found), found


def test_every_valid_model_has_unique_root_path(ieee13):
    idx = stamps_reference.tree_index(ieee13)
    assert idx.root == tf.tree_index(ieee13) == ieee13.slack.id
    non_slack = [b.id for b in ieee13.buses if not b.is_slack]
    for bid in non_slack:
        # Walk to the root; must terminate without revisiting.
        seen = set()
        cur = bid
        while cur != idx.root:
            assert cur not in seen
            seen.add(cur)
            cur = idx.parent[cur].from_bus
