"""Span recording around tapflow's module boundaries, for the traced run only.

``Tracer.installed()`` replaces each function in ``TARGETS`` with a recorder
in the namespace of the module that calls it (``tapflow.opts.solve_lp``,
``tapflow.zbus.assemble``, ...) and puts the originals back on exit, also
when the body raises. Spans stay in memory as
``(name, start, end, parent, call id, attrs)`` and are aggregated into
per-layer metrics by ``layer_metrics``; ``write_spans`` dumps them as JSON
lines when the run ends.

A span's self time is its duration minus the durations of its direct
children. Layers are tapflow's modules: the part of a span name before the
first dot. The root span of each benchmark call is named ``bench.call``.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from contextlib import contextmanager

ROOT = "bench.call"
LAYERS = ("network", "ybus", "zbus", "linflow", "simplex", "opts")
METRIC_SPANS = ("zbus.import_objective", "zbus.voltage_envelope", "zbus.feasibility",
                "zbus.voltage_unbalance")


def _lp_attrs(out):
    return {"status": out.status, "pivots": out.iterations}


def _build_lp_attrs(out):
    lp = out[0]
    return {"rows": lp.A.shape[0], "cols": lp.A.shape[1], "nnz": int(lp.A.nnz)}


def _assemble_attrs(out):
    return {"n": out.Y.shape[0], "nnz": int(out.Y.nnz)}


def _zbus_attrs(out):
    return {"iterations": out.iterations, "converged": bool(out.converged)}


def _sweep_attrs(out):
    return {"evaluated": out.evaluated, "feasible": out.feasible_count}


# (module whose namespace is patched, attribute, span name, result annotator)
TARGETS = (
    ("tapflow.opts", "run_opts", "opts.run_opts", None),
    ("tapflow.opts", "brute_force", "opts.brute_force", _sweep_attrs),
    ("tapflow.opts", "build_lp", "opts.build_lp", _build_lp_attrs),
    ("tapflow.opts", "solve_lp_lexicographic", "opts.solve_lp_lexicographic", None),
    ("tapflow.opts", "recover_ratios", "opts.recover_ratios", None),
    ("tapflow.opts", "solve_lp", "simplex.solve_lp", _lp_attrs),
    ("tapflow.opts", "constants_from_solution", "linflow.constants_from_solution", None),
    ("tapflow.opts", "constants_balanced", "linflow.constants_balanced", None),
    ("tapflow.opts", "tree_index", "network.tree_index", None),
    ("tapflow.opts", "taps_to_ratios", "network.taps_to_ratios", None),
    ("tapflow.opts", "zero_taps", "network.zero_taps", None),
    ("tapflow.opts", "solve_zbus", "zbus.solve_zbus", _zbus_attrs),
    ("tapflow.opts", "import_objective", "zbus.import_objective", None),
    ("tapflow.opts", "voltage_envelope", "zbus.voltage_envelope", None),
    ("tapflow.opts", "feasibility", "zbus.feasibility", None),
    ("tapflow.opts", "voltage_unbalance", "zbus.voltage_unbalance", None),
    ("tapflow.zbus", "solve_zbus", "zbus.solve_zbus", _zbus_attrs),
    ("tapflow.zbus", "import_objective", "zbus.import_objective", None),
    ("tapflow.zbus", "voltage_envelope", "zbus.voltage_envelope", None),
    ("tapflow.zbus", "feasibility", "zbus.feasibility", None),
    ("tapflow.zbus", "assemble", "ybus.assemble", _assemble_attrs),
    ("tapflow.zbus", "splu", "zbus.splu", None),
    ("tapflow.zbus", "recover_svr_secondary", "ybus.recover_svr_secondary", None),
    ("tapflow.ybus", "tree_index", "network.tree_index", None),
)


class Tracer:
    """In-memory span recorder; records only inside ``call`` blocks."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._call_id = -1

    def _open(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self._call_id, None])
        self._stack.append(sid)
        return sid

    def _close(self, sid: int) -> None:
        self.spans[sid][2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn, annotate=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self._stack:
                return fn(*args, **kwargs)
            sid = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(sid)
            if annotate is not None:
                self.spans[sid][5] = annotate(out)
            return out

        traced.__wrapped_by_bench__ = True
        return traced

    @contextmanager
    def call(self, call_id: int):
        """Root span around one benchmark call."""
        self._call_id = call_id
        sid = self._open(ROOT)
        try:
            yield
        finally:
            self._close(sid)

    @contextmanager
    def installed(self):
        saved = []
        try:
            for module_name, attr, name, annotate in TARGETS:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(name, original, annotate))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, (name, start, end, parent, call_id, attrs) in enumerate(self.spans):
                fh.write(json.dumps({"id": sid, "name": name, "start": start, "end": end,
                                     "parent": parent, "call": call_id, "attrs": attrs},
                                    separators=(",", ":")) + "\n")


def no_wrappers_active() -> bool:
    """True when every traced target is the original function again."""
    for module_name, attr, _, _ in TARGETS:
        if getattr(getattr(importlib.import_module(module_name), attr),
                   "__wrapped_by_bench__", False):
            return False
    return True


def layer_metrics(spans) -> dict[str, tuple[float, str]]:
    """Per-call per-layer metrics from closed spans: name -> (value, unit).

    Times are self times in seconds per call and counts are per call, except
    ``ybus.n``/``ybus.nnz`` (mean system size per assembly), ``opts.lp.*``
    (mean LP size per build), the ``s_per_*`` rates and the ratios.
    """
    n = len(spans)
    child_sum = [0.0] * n
    for name, start, end, parent, _, _ in spans:
        if parent is not None:
            child_sum[parent] += end - start
    self_time: dict[str, float] = {}
    for sid, (name, start, end, _, _, _) in enumerate(spans):
        self_time[name] = self_time.get(name, 0.0) + (end - start - child_sum[sid])

    roots = [s for s in spans if s[0] == ROOT]
    calls = max(1, len(roots))
    call_time = sum(s[2] - s[1] for s in roots)

    def per_call(x):
        return x / calls

    def ratio(num, den):
        return num / den if den else 0.0

    def attrs(name):
        return [s[5] for s in spans if s[0] == name and s[5] is not None]

    # Pass 1 / pass 2: first and second solve_lp child of each lexicographic span.
    lex = {sid for sid, s in enumerate(spans) if s[0] == "opts.solve_lp_lexicographic"}
    passes: dict[int, list] = {}
    for s in spans:
        if s[0] == "simplex.solve_lp" and s[3] in lex:
            passes.setdefault(s[3], []).append(s)
    pass1 = [p[0] for p in passes.values()]
    pass2 = [p[1] for p in passes.values() if len(p) > 1]
    pivots = [a["pivots"] for a in attrs("simplex.solve_lp")]
    lp_sizes = attrs("opts.build_lp")
    assembled = attrs("ybus.assemble")
    solves = attrs("zbus.solve_zbus")
    sweeps = attrs("opts.brute_force")
    iterations = sum(a["iterations"] for a in solves)

    def mean_of(items, key):
        return ratio(sum(a[key] for a in items), len(items))

    def layer_self(layer):
        return sum(t for name, t in self_time.items() if name.split(".")[0] == layer)

    out = {
        "simplex.pass1.s": (per_call(sum(s[2] - s[1] for s in pass1)), "s"),
        "simplex.pass2.s": (per_call(sum(s[2] - s[1] for s in pass2)), "s"),
        "simplex.pass1.pivots": (per_call(sum(s[5]["pivots"] for s in pass1 if s[5])), "count"),
        "simplex.pass2.pivots": (per_call(sum(s[5]["pivots"] for s in pass2 if s[5])), "count"),
        "simplex.s_per_pivot": (ratio(self_time.get("simplex.solve_lp", 0.0), sum(pivots)), "s"),
        "simplex.pass2.fallbacks": (per_call(sum(not s[5] or s[5]["status"] != "optimal"
                                                 for s in pass2)), "count"),
        "opts.lp.rows": (mean_of(lp_sizes, "rows"), "count"),
        "opts.lp.cols": (mean_of(lp_sizes, "cols"), "count"),
        "opts.lp.nnz": (mean_of(lp_sizes, "nnz"), "count"),
        "opts.build_lp.s": (per_call(self_time.get("opts.build_lp", 0.0)), "s"),
        "linflow.constants.s": (per_call(layer_self("linflow")), "s"),
        "opts.recover.s": (per_call(self_time.get("opts.recover_ratios", 0.0)), "s"),
        "zbus.metrics.s": (per_call(sum(self_time.get(k, 0.0) for k in METRIC_SPANS)), "s"),
        "ybus.assemble.calls": (per_call(len(assembled)), "count"),
        "ybus.assemble.s": (per_call(self_time.get("ybus.assemble", 0.0)), "s"),
        "network.tree_index.calls": (per_call(sum(s[0] == "network.tree_index" for s in spans)),
                                     "count"),
        "network.tree_index.s": (per_call(self_time.get("network.tree_index", 0.0)), "s"),
        "zbus.splu.s": (per_call(self_time.get("zbus.splu", 0.0)), "s"),
        "zbus.s_per_iter": (ratio(self_time.get("zbus.solve_zbus", 0.0), iterations), "s"),
        "opts.brute_force.self_s": (per_call(self_time.get("opts.brute_force", 0.0)), "s"),
        "opts.sweep.evaluated": (per_call(sum(a["evaluated"] for a in sweeps)), "count"),
        "opts.sweep.feasible_ratio": (ratio(sum(a["feasible"] for a in sweeps),
                                            sum(a["evaluated"] for a in sweeps)), "ratio"),
        "zbus.solve.self_s": (per_call(self_time.get("zbus.solve_zbus", 0.0)), "s"),
        "zbus.iterations": (per_call(iterations), "count"),
        "zbus.nonconverged": (per_call(sum(not a["converged"] for a in solves)), "count"),
        "ybus.n": (mean_of(assembled, "n"), "count"),
        "ybus.nnz": (mean_of(assembled, "nnz"), "count"),
    }
    for layer in LAYERS:
        out[f"{layer}.share"] = (ratio(layer_self(layer), call_time), "ratio")
    return out
