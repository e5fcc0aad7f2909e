"""The workloads' seeded inputs and answer checks."""

from pathlib import Path

import pytest

import tapflow as tf

from workloads import WORKLOADS, spread

ROOT = Path(__file__).resolve().parents[2]


def test_spread_puts_one_point_in_each_stratum():
    for seed in (1, 2):
        values = [spread(seed, i) for i in range(16)]
        for k in (1, 2, 4, 8, 16):
            assert sorted(int(v * k) for v in values[:k]) == list(range(k))
    assert spread(1, 5) != spread(2, 5)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_inputs_depend_only_on_the_seed(name):
    a, b, c = WORKLOADS[name](ROOT, 4), WORKLOADS[name](ROOT, 4), WORKLOADS[name](ROOT, 5)
    for i in (0, 1):
        model = next(x for x in a.instance(i) if isinstance(x, tf.FeederModel))
        same = next(x for x in b.instance(i) if isinstance(x, tf.FeederModel))
        other = next(x for x in c.instance(i) if isinstance(x, tf.FeederModel))
        assert tf.serialize(model) == tf.serialize(same)
        assert tf.serialize(model) != tf.serialize(other)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_warmup_answer_passes_its_checks(name):
    workload = WORKLOADS[name](ROOT, 1)
    inst = workload.warmup()
    outcome = workload.check(inst, workload.call(inst))
    assert outcome.completed and outcome.problems == []
    assert outcome.import_pu > 0
