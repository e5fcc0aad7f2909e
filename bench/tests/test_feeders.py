"""Properties of the benchmark's seeded feeder generator."""

import numpy as np
import pytest

import tapflow as tf

from feeders import TOTAL_LOAD, generate_feeder, lateral_counts, scale_loads

CASES = [(1, 15), (2, 30), (3, 45), (4, 200)]


@pytest.mark.parametrize("seed,n_buses", CASES)
def test_generated_model_is_valid(seed, n_buses):
    assert tf.validate(generate_feeder(seed, n_buses)) == []


@pytest.mark.parametrize("seed,n_buses", CASES)
def test_same_seed_same_bytes(seed, n_buses):
    text = tf.serialize(generate_feeder(seed, n_buses))
    assert tf.serialize(generate_feeder(seed, n_buses)) == text
    assert tf.serialize(generate_feeder(seed + 1, n_buses)) != text
    assert tf.serialize(tf.parse_feeder(text)) == text


@pytest.mark.parametrize("seed,n_buses", CASES)
def test_zero_tap_solve_converges(seed, n_buses):
    model = generate_feeder(seed, n_buses)
    sol = tf.solve_zbus(model, tf.taps_to_ratios(model, tf.zero_taps(model)))
    assert sol.converged
    assert tf.kcl_certificate(sol, model) <= 1e-8


@pytest.mark.parametrize("n_buses,mix", [(15, (0.55, 0.25, 0.2)), (45, (0.55, 0.25, 0.2)),
                                         (120, (0.2, 0.3, 0.5)), (120, (1.0, 0.0, 0.0))])
def test_size_and_phase_mix_match_request(n_buses, mix):
    model = generate_feeder(7, n_buses, mix)
    assert len(model.buses) == n_buses
    n_trunk, n1, n2, n3 = lateral_counts(n_buses, mix)
    assert n_trunk + n1 + n2 + n3 + 3 == n_buses
    lateral = [b for b in model.buses if b.id.startswith("l")]
    widths = [len(b.phases) for b in lateral]
    assert (widths.count(1), widths.count(2), widths.count(3)) == (n1, n2, n3)
    assert all(len(b.phases) == 3 for b in model.buses if b.id.startswith("t"))


def test_regulators_loads_and_shunts():
    model = generate_feeder(5, 60)
    head, mid = model.svrs
    assert (head.from_bus, head.kind) == ("sub", "B")
    assert mid.kind == "A" and mid.from_bus.startswith("t")
    total = sum(v.real for b in model.buses if b.load is not None for v in b.load.values)
    assert total == pytest.approx(TOTAL_LOAD)
    shunts = [b.shunt.array for b in model.buses if b.shunt is not None]
    assert len(shunts) == 3
    assert all(np.all(s.real == 0.0) and np.all(np.diag(s).imag > 0) for s in shunts)


def test_scale_loads():
    model = generate_feeder(3, 20)
    scaled = scale_loads(model, lambda _bus, _phase: 0.5)
    for b, s in zip(model.buses, scaled.buses):
        if b.load is not None:
            assert np.allclose(s.load.values, 0.5 * b.load.values)
    assert tf.validate(scaled) == []
