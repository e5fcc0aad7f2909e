"""The benchmark's seeded workloads: inputs, the timed call, and answer checks.

Each workload is built from the repository root and a seed. ``instance(i)``
returns the i-th input of the seeded sequence (every call gets a distinct
input); ``call`` is the only timed part; ``check`` re-verifies the answer
with the exact solver outside the timed region and returns an ``Outcome``.
Functions are looked up on the tapflow modules at call time, so the traced
run's replacements in those namespaces are seen.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import tapflow.network as network
import tapflow.opts as opts
import tapflow.zbus as zbus
from tapflow.errors import PipelineError

from feeders import generate_feeder, scale_loads

V_MIN, V_MAX = 0.9, 1.1          # verification band
KCL_MAX = 1e-8
IEEE13_REFERENCE = {"a": 4, "b": -8, "c": 7}


@dataclass
class Outcome:
    """What one call produced, after the answer checks."""

    completed: bool                  # returned, or raised an expected error
    problems: list = field(default_factory=list)   # answer-check mismatches
    feasible: bool = False
    import_pu: float | None = None


def spread(seed: int, index: int) -> float:
    """The index-th point in [0, 1) of the base-2 van der Corput sequence,
    shifted by a seeded offset: every prefix of 2**k points has one point in
    each of 2**k equal strata, so any run length sees the same mix of sizes
    and load levels whatever the seed."""
    x, scale = 0.0, 0.5
    while index:
        index, bit = divmod(index, 2)
        x += bit * scale
        scale /= 2
    return (x + np.random.default_rng([seed, 7]).random()) % 1.0


def _load_ieee13(root: Path):
    return network.parse_feeder((root / "fixtures" / "ieee13.json").read_text(encoding="utf-8"))


def _resolve(model, taps, cfg):
    return zbus.solve_zbus(model, network.taps_to_ratios(model, taps),
                           tol=cfg.zbus_tol, max_iter=cfg.zbus_max_iter)


class OptsMix:
    """run_opts on alternating load-scaled IEEE-13 and generated 15-45 bus feeders."""

    name = "opts_mix"

    def __init__(self, root: Path, seed: int):
        self.seed = seed
        self.ieee13 = _load_ieee13(root)
        self.cfg13 = opts.config_from_model(self.ieee13)

    def warmup(self):
        return ("ieee13", self.ieee13, self.cfg13)

    def instance(self, i: int):
        rng = np.random.default_rng([self.seed, i])
        if i % 2 == 0:
            factors = {(b.id, p): float(rng.uniform(0.85, 1.15))
                       for b in self.ieee13.buses if b.load is not None for p in b.load.phases}
            model = scale_loads(self.ieee13, lambda bus, phase: factors[(bus, phase)])
            return ("ieee13-scaled", model, self.cfg13)
        size = 15 + int(31 * spread(self.seed, i // 2))
        model = generate_feeder(int(rng.integers(2**31)), size)
        return (f"gen{size}", model, opts.config_from_model(model))

    def call(self, inst):
        _, model, cfg = inst
        return opts.run_opts(model, cfg)

    def check(self, inst, report) -> Outcome:
        label, model, cfg = inst
        out = Outcome(completed=True, feasible=bool(report.feasible),
                      import_pu=report.objective_verified)
        sol = _resolve(model, report.taps, cfg)
        if not sol.converged:
            out.problems.append("re-solve at the chosen taps did not converge")
            return out
        if abs(zbus.import_objective(sol, model) - report.objective_verified) > 1e-9:
            out.problems.append("objective_verified differs from the re-solve")
        env = zbus.voltage_envelope(sol, model)
        if max(abs(env[0] - report.v_envelope[0]), abs(env[1] - report.v_envelope[1])) > 1e-9:
            out.problems.append("v_envelope differs from the re-solve")
        if zbus.feasibility(sol, model, cfg.v_min_verify, cfg.v_max_verify) != report.feasible:
            out.problems.append("feasible differs from the re-solve")
        if zbus.kcl_certificate(sol, model) > KCL_MAX:
            out.problems.append("KCL certificate above 1e-8")
        if label == "ieee13":
            taps = report.taps[0]
            if any(abs(taps[p] - IEEE13_REFERENCE[p]) > 2 for p in "abc"):
                out.problems.append(f"IEEE-13 taps {taps} not within 2 of {IEEE13_REFERENCE}")
        return out


class SweepIeee13:
    """brute_force on IEEE-13 with taps -2..2 and loads scaled by 0.7-1.0."""

    name = "sweep_ieee13"
    window = 2

    def __init__(self, root: Path, seed: int):
        self.seed = seed
        base = _load_ieee13(root)
        self.model = dataclasses.replace(base, svrs=tuple(
            dataclasses.replace(sv, tap_min=-self.window, tap_max=self.window)
            for sv in base.svrs))
        self.cfg = opts.config_from_model(self.model)
        phases = sum(len(sv.phases) for sv in self.model.svrs)
        self.combinations = (2 * self.window + 1) ** phases

    def warmup(self):
        return (1.0, self.model)

    def instance(self, i: int):
        factor = 0.7 + 0.3 * spread(self.seed, i)
        return (factor, scale_loads(self.model, lambda _bus, _phase: factor))

    def call(self, inst):
        try:
            return opts.brute_force(inst[1], self.cfg)
        except PipelineError as exc:
            if exc.stage == "bruteforce":
                return None          # correctly reported: no feasible combination
            raise

    def check(self, inst, result) -> Outcome:
        if result is None:
            return Outcome(completed=True)
        model = inst[1]
        out = Outcome(completed=True, feasible=True, import_pu=result.objective)
        if result.evaluated != self.combinations:
            out.problems.append(f"evaluated {result.evaluated} != {self.combinations}")
        sol = _resolve(model, result.taps, self.cfg)
        if not sol.converged:
            out.problems.append("re-solve at the optimum taps did not converge")
            return out
        if not zbus.feasibility(sol, model, self.cfg.v_min_verify, self.cfg.v_max_verify):
            out.problems.append("optimum taps do not re-verify as feasible")
        if abs(zbus.import_objective(sol, model) - result.objective) > 1e-9:
            out.problems.append("optimum objective differs from the re-solve")
        return out


class FlowLarge:
    """solve_zbus plus metrics on generated 200-800 bus feeders at seeded taps."""

    name = "flow_large"

    def __init__(self, root: Path, seed: int):
        self.seed = seed
        self.cfg = opts.OptsConfig()

    def _at_taps(self, model, rng):
        head, mid = model.svrs
        taps = [{p: int(rng.integers(-2, 9)) for p in head.phases},
                {p: int(rng.integers(-4, 5)) for p in mid.phases}]
        return (model, network.taps_to_ratios(model, taps))

    def warmup(self):
        return self._at_taps(generate_feeder(0, 500), np.random.default_rng(0))

    def instance(self, i: int):
        rng = np.random.default_rng([self.seed, i])
        size = 200 + int(601 * spread(self.seed, i))
        return self._at_taps(generate_feeder(int(rng.integers(2**31)), size), rng)

    def call(self, inst):
        model, ratios = inst
        sol = zbus.solve_zbus(model, ratios, tol=self.cfg.zbus_tol,
                              max_iter=self.cfg.zbus_max_iter)
        if not sol.converged:
            return sol, math.nan, None, False
        return (sol, zbus.import_objective(sol, model), zbus.voltage_envelope(sol, model),
                zbus.feasibility(sol, model, V_MIN, V_MAX))

    def check(self, inst, result) -> Outcome:
        model, _ = inst
        sol, imp, _, feasible = result
        if not sol.converged:
            return Outcome(completed=False, problems=["power flow did not converge"])
        out = Outcome(completed=True, feasible=feasible, import_pu=imp)
        if zbus.kcl_certificate(sol, model) > KCL_MAX:
            out.problems.append("KCL certificate above 1e-8")
        if abs(zbus.import_objective_edges(sol, model) - imp) > 1e-10:
            out.problems.append("import_objective differs from import_objective_edges")
        return out


WORKLOADS = {w.name: w for w in (OptsMix, SweepIeee13, FlowLarge)}
