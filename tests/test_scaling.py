"""Linear-scaling guard: the work of each pipeline stage, counted rather than
timed, grows at most linearly with the feeder.

A stage's work is the number of Python calls and lines it executes, counted
with ``sys.settrace``: deterministic for fixed inputs and library versions,
whatever the host's speed. Lines are counted as well as calls because a scan
inside one call, such as reading ``FeederModel.slack`` (a loop over the
buses) once per edge, adds no call but n lines per read. Work done inside
numpy or scipy's compiled code is not seen.
"""

import dataclasses
import sys

import pytest

import tapflow as tf
from tapflow.ybus import build_stamps

from conftest import bench_feeders

N = 60          # the feeder sizes compared are N and 4 N buses
MAX_RATIO = 4.6


def _work(fn, *args):
    """``fn(*args)`` and the number of Python calls and lines it executed."""
    count = [0]

    def trace(frame, event, arg):
        if event in ("call", "line"):
            count[0] += 1
        return trace

    before = sys.gettrace()
    sys.settrace(trace)
    try:
        out = fn(*args)
    finally:
        sys.settrace(before)
    return out, count[0]


def _stage_work(model) -> dict:
    """The work of each stage of a parse and a ``run_opts`` on ``model``."""
    work = {}
    text = tf.serialize(model)
    model, work["parse_feeder"] = _work(tf.parse_feeder, text)
    _, work["validate"] = _work(tf.validate, model)
    stamps, work["build_stamps"] = _work(build_stamps, model)
    base = tf.solve_zbus(model, tf.taps_to_ratios(model, tf.zero_taps(model)), stamps=stamps)
    constants, work["constants"] = _work(tf.constants_from_solution, model, base)
    (lp, varmap), work["build_lp"] = _work(tf.build_lp, model, constants,
                                           tf.config_from_model(model))
    (solution, _), work["solve_lp_lexicographic"] = _work(tf.solve_lp_lexicographic, lp, varmap)
    ratios, work["recover_ratios"] = _work(tf.recover_ratios, solution.x, varmap, model)
    _, work["verify_solve"] = _work(lambda: tf.solve_zbus(model, ratios, stamps=stamps))
    return work


@pytest.mark.parametrize("order", ["slack-first", "bus-reversed"])
def test_stage_work_grows_at_most_linearly(order):
    """From N to 4 N buses no stage's work grows by more than 4.6 times, with
    the slack bus listed first or last (bus list reversed)."""
    def feeder(n):
        model = bench_feeders().generate_feeder(5, n)
        return model if order == "slack-first" else \
            dataclasses.replace(model, buses=model.buses[::-1])

    _stage_work(feeder(N // 4))          # warm-up: lazy imports and caches are not counted
    small, large = _stage_work(feeder(N)), _stage_work(feeder(4 * N))
    ratios = {stage: large[stage] / small[stage] for stage in small}
    assert max(ratios.values()) <= MAX_RATIO, ratios
