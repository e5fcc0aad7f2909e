"""The traced run's span recorders: installed only inside the block, and
per-layer self times add up."""

import json
from pathlib import Path

import tapflow.opts as opts
import tapflow.zbus as zbus

import tracing


def test_wrappers_are_restored(tmp_path):
    tracer = tracing.Tracer()
    original = opts.solve_lp
    with tracer.installed():
        assert opts.solve_lp is not original
        assert not tracing.no_wrappers_active()
    assert opts.solve_lp is original
    assert tracing.no_wrappers_active()


def test_layer_metrics_on_a_small_solve(tiny_model):
    model, ratios = tiny_model
    tracer = tracing.Tracer()
    with tracer.installed():
        zbus.solve_zbus(model, ratios)           # outside a call: not recorded
        assert tracer.spans == []
        with tracer.call(0):
            zbus.solve_zbus(model, ratios)
    names = [s[0] for s in tracer.spans]
    assert names[0] == tracing.ROOT
    assert {"zbus.solve_zbus", "ybus.assemble", "zbus.splu", "network.tree_index"} <= set(names)
    m = tracing.layer_metrics(tracer.spans)
    assert m["ybus.assemble.calls"][0] == 1
    assert m["zbus.iterations"][0] >= 1
    shares = sum(m[f"{layer}.share"][0] for layer in tracing.LAYERS)
    assert 0.5 < shares <= 1.0


def test_per_layer_names_match_benchmark_file(tiny_model):
    model, ratios = tiny_model
    tracer = tracing.Tracer()
    with tracer.installed(), tracer.call(0):
        zbus.solve_zbus(model, ratios)
    produced = {name: unit for name, (_, unit) in tracing.layer_metrics(tracer.spans).items()}
    produced["trace.overhead_s"] = "s"
    spec = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
    assert produced == {m["name"]: m["unit"] for m in spec["per_layer"]}
