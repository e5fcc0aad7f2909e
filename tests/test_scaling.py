"""Linear-scaling guard: the work and the memory of each pipeline stage,
and of one tap-sweep block, counted rather than timed, grow at most
linearly with the feeder.

A stage's work is the number of Python calls and lines it executes, counted
with ``sys.settrace``: deterministic for fixed inputs and library versions,
whatever the host's speed. Lines are counted as well as calls because a scan
inside one call, such as reading ``FeederModel.slack`` (a loop over the
buses) once per edge, adds no call but n lines per read. Work done inside
numpy or scipy's compiled code is not seen.

A stage's memory is the peak of the memory it allocated, traced with
``tracemalloc``, which sees numpy's arrays too: a dense n x n array adds no
Python call or line, but 16 times the bytes from n to 4 n.
"""

import dataclasses
import sys
import tracemalloc

import pytest

import numpy as np

import tapflow as tf
from tapflow import ybus
from tapflow.ybus import build_stamps

from conftest import bench_feeders, fixed_y_feeder

N = 60          # the work is compared at N and 4 N buses
MAX_WORK_RATIO = 4.6
# The memory peaks are compared at PEAK_N and 4 PEAK_N buses, where a float
# array over bus pairs is no longer small against the linear part (at 60
# buses it is 29 kB against build_stamps' 159 kB). Containers that grow by
# doubling can double a peak between sizes; a dense n x n array that
# dominates it makes it 16 times.
PEAK_N = 240
MAX_PEAK_RATIO = 8.0


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


def _peak(fn, *args):
    """``fn(*args)`` and the peak, in bytes, of the memory it allocated."""
    tracemalloc.start()
    try:
        out = fn(*args)
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _stage_figures(model, measure) -> dict:
    """``measure``'s figure for each stage of a parse and a ``run_opts`` on
    ``model``, for its layout's bus depths, and for a
    ``brute_force`` of one block, 27 combinations, on its variant whose taps
    cannot move Y."""
    got = {}
    text = tf.serialize(model)
    model, got["parse_feeder"] = measure(tf.parse_feeder, text)
    _, got["validate"] = measure(tf.validate, model)
    stamps, got["build_stamps"] = measure(build_stamps, model)
    layout = stamps.layout
    _, got["depth"] = measure(ybus._depths, layout.slack, np.stack([layout.frm, layout.to]),
                              layout.svr_ends)
    base = tf.solve_zbus(model, tf.taps_to_ratios(model, tf.zero_taps(model)), stamps=stamps)
    constants, got["constants"] = measure(tf.constants_from_solution, base)
    (lp, varmap), got["build_lp"] = measure(tf.build_lp, model, constants,
                                            tf.config_from_model(model))
    solution, got["solve_lp_lexicographic"] = measure(tf.solve_lp_lexicographic, lp, varmap)
    ratios, got["recover_ratios"] = measure(tf.recover_ratios, solution.x, varmap, model)
    _, got["verify_solve"] = measure(lambda: tf.solve_zbus(model, ratios, stamps=stamps))
    fixed = fixed_y_feeder(model, -1, 1)
    _, got["brute_force"] = measure(tf.brute_force, fixed, tf.config_from_model(fixed))
    return got


def _stage_ratios(order, measure, n) -> dict:
    """Per stage, ``measure``'s figure at 4 n buses over its figure at n,
    with the slack bus listed first or last (bus list reversed)."""
    def feeder(size):
        model = bench_feeders().generate_feeder(5, size)
        return model if order == "slack-first" else \
            dataclasses.replace(model, buses=model.buses[::-1])

    _stage_figures(feeder(15), measure)          # warm-up: lazy imports and caches are not counted
    small, large = _stage_figures(feeder(n), measure), _stage_figures(feeder(4 * n), measure)
    return {stage: large[stage] / small[stage] for stage in small}


@pytest.mark.parametrize("order", ["slack-first", "bus-reversed"])
def test_stage_work_grows_at_most_linearly(order):
    """From N to 4 N buses no stage's work grows by more than 4.6 times."""
    ratios = _stage_ratios(order, _work, N)
    assert max(ratios.values()) <= MAX_WORK_RATIO, ratios


@pytest.mark.parametrize("order", ["slack-first", "bus-reversed"])
def test_stage_memory_peak_grows_at_most_linearly(order):
    """From PEAK_N to 4 PEAK_N buses no stage's memory peak grows by more
    than 8 times."""
    ratios = _stage_ratios(order, _peak, PEAK_N)
    assert max(ratios.values()) <= MAX_PEAK_RATIO, ratios
