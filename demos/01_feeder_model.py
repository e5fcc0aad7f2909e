"""Feeder files, validation, and the tap/ratio algebra.

A feeder is a directed tree of buses rooted at the slack bus, with series
elements (lines, transformers-as-lines, step-voltage regulators) pointing
away from the root. This walkthrough loads the IEEE-13 fixture, pokes at the
model, deliberately breaks an invariant, and exercises the tap algebra.
"""

from pathlib import Path

import tapflow as tf

HERE = Path(__file__).resolve().parent
model = tf.parse_feeder((HERE.parent / "fixtures" / "ieee13.json").read_text())

print(f"buses: {len(model.buses)}, lines: {len(model.lines)}, svrs: {len(model.svrs)}")
print(f"slack: {model.slack.id} at {model.slack_voltage}")
for sv in model.svrs:
    print(f"regulator {sv.from_bus}->{sv.to_bus}: type-{sv.kind}, phases "
          f"{''.join(sv.phases)}, taps [{sv.tap_min}, {sv.tap_max}], "
          f"ratio range {sv.ratio_range()}")

# Serialization round-trips exactly.
text = tf.serialize(model)
assert tf.parse_feeder(text) == model
print("serialize -> parse round-trip: ok")

# Validation returns violations as data; an empty list means valid.
print("violations on the fixture:", tf.validate(model))

broken = tf.FeederModel(
    buses=model.buses,
    lines=model.lines + (model.lines[0],),   # duplicate edge -> not a tree
    svrs=model.svrs,
    slack_voltage=model.slack_voltage,
)
for v in tf.validate(broken):
    print("deliberately broken model:", v)

# Each regulator maps its tap positions to effective ratios and back.
sv = model.svrs[0]
for tap in (-16, -8, 0, 4, 16):
    r = sv.ratio(tap)
    print(f"type-{sv.kind} tap {tap:+3d} -> ratio {r:.5f} -> tap {sv.tap(r):+3d}")
