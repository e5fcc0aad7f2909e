import json

import pytest

import tapflow as tf
from tapflow.network import canonical_phases

from conftest import FIXTURES, chain_model


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

def test_tap_to_ratio_known_values():
    assert tf.tap_to_ratio(0, "B") == 1.0
    assert tf.tap_to_ratio(16, "B") == pytest.approx(0.9)
    assert tf.tap_to_ratio(-16, "B") == pytest.approx(1.1)
    assert tf.tap_to_ratio(4, "B") == pytest.approx(0.975)
    assert tf.tap_to_ratio(16, "A") == pytest.approx(1.1)
    with pytest.raises(ValueError):
        tf.tap_to_ratio(17, "B")


def test_ratio_to_tap_known_values():
    assert tf.ratio_to_tap(1.0, "B") == 0
    assert tf.ratio_to_tap(0.9, "B") == 16
    assert tf.ratio_to_tap(0.95, "B") == 8
    assert tf.ratio_to_tap(0.5, "B") == 16      # clamped
    assert tf.ratio_to_tap(1.5, "B") == -16
    with pytest.raises(ValueError):
        tf.ratio_to_tap(-0.1, "B")


def test_round_trip_every_tap_both_kinds():
    for kind in ("A", "B"):
        for t in range(-16, 17):
            r = tf.tap_to_ratio(t, kind)
            assert tf.ratio_to_tap(r, kind) == t


def test_tap_to_ratio_monotone():
    rb = [tf.tap_to_ratio(t, "B") for t in range(-16, 17)]
    ra = [tf.tap_to_ratio(t, "A") for t in range(-16, 17)]
    assert all(x > y for x, y in zip(rb, rb[1:]))   # strictly decreasing
    assert all(x < y for x, y in zip(ra, ra[1:]))   # strictly increasing


def test_rounding_half_away_from_zero():
    # 1 - 0.9971875 = 0.0028125 = 0.45 steps -> 0; half-step boundary rounds away.
    assert tf.ratio_to_tap(1.0 - 0.5 * 0.00625, "B") == 1
    assert tf.ratio_to_tap(1.0 + 0.5 * 0.00625, "B") == -1


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


@pytest.mark.parametrize("svr,bus,error,match", [
    ({"tap_min": -15.7}, {}, tf.FeederFormatError, "'tap_min' must be an integer"),
    ({"step": True}, {}, tf.FeederFormatError, "'step' must be a number"),
    ({"step": float("nan")}, {}, tf.ModelValidationError, "step must be positive and finite"),
    ({"step": float("inf")}, {}, tf.ModelValidationError, "step must be positive and finite"),
    ({}, {"is_slack": "false"}, tf.FeederFormatError, "'is_slack' must be a boolean"),
], ids=["fractional-tap", "bool-step", "nan-step", "inf-step", "string-slack"])
def test_parse_types_regulator_and_slack_fields(svr, bus, error, match):
    doc = json.loads((FIXTURES / "tiny3.json").read_text())
    doc["svrs"][0].update(svr)
    doc["buses"][2].update(bus)
    with pytest.raises(error, match=match):
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


def test_every_valid_model_has_unique_root_path(ieee13):
    idx = tf.tree_index(ieee13)
    assert idx.root == ieee13.slack.id
    non_slack = [b.id for b in ieee13.buses if not b.is_slack]
    for bid in non_slack:
        # Walk to the root; must terminate without revisiting.
        seen = set()
        cur = bid
        while cur != idx.root:
            assert cur not in seen
            seen.add(cur)
            cur = idx.parent[cur].from_bus
