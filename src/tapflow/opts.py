"""Tap-selection pipeline: build the linear program, solve, snap, verify, report.

The LP decides squared voltage magnitudes and complex edge flows; its rows
are the linear model's own (``linflow.linear_system``). Regulator ratios are
not explicit variables: each regulator contributes a pair of valid
inequalities confining the primary-side squared magnitude to the attainable
ratio window times the secondary-side one, plus an exact per-phase power
balance. Ratios are recovered afterwards from the voltage variables, snapped
to the integer tap grid, and the result is verified against the exact
nonlinear power flow.

The LP has one degree of freedom per regulator phase. ``solve_lp_lexicographic``
keeps the k high-window slacks theta as the free variables and eliminates
every other column with one sparse LU factorization, x = x0 + N theta
(``linflow.eliminate``, shared with ``linear_powerflow``); the finite bounds
become k-column inequalities G theta <= h, and each pass solves the k-row
dual of min d.theta over them with the in-repo simplex, reading theta from
the dual's row duals.

Minimizing real power import leaves the optimum massively degenerate whenever
loads are constant-power and shunts are pure susceptance (the objective is
then constant over the feasible set, and the import pass is skipped). A
second lexicographic pass therefore minimizes the sum of squared voltage
magnitudes over the optimal-import face, deterministically selecting the
lowest feasible voltage profile.
"""

from __future__ import annotations

import io
import itertools
import json
import math
import numbers
import time
from dataclasses import asdict, dataclass, fields

import numpy as np
import scipy.sparse as sp

from .errors import PipelineError
from .linflow import (LinearizationConstants, LinearSystem, _slack_squares,
                      constants_balanced, constants_from_solution, eliminate, linear_system)
from .network import (FeederModel, ratio_to_tap, taps_to_ratios, tree_index,
                      zero_taps)
from .simplex import LpSolution, SparseLp, solve_lp
from .ybus import build_stamps
from .zbus import (DEFAULT_MAX_ITER, DEFAULT_TOL, feasibility, import_objective,
                   solve_zbus, voltage_envelope, voltage_unbalance)


@dataclass(frozen=True)
class OptsConfig:
    """Pipeline settings; the LP band may be tighter than the verification band."""

    v_min: float = 0.9
    v_max: float = 1.1
    zbus_tol: float = DEFAULT_TOL
    zbus_max_iter: int = DEFAULT_MAX_ITER
    constants_mode: str = "from_zero_tap_solution"   # or "balanced"
    v_min_verify: float = 0.9
    v_max_verify: float = 1.1

    def __post_init__(self):
        # Values may come from a feeder file, so check types before comparing.
        for key in ("v_min", "v_max", "zbus_tol", "v_min_verify", "v_max_verify"):
            val = getattr(self, key)
            if isinstance(val, bool) or not isinstance(val, numbers.Real) or math.isnan(val):
                raise ValueError(f"config key {key!r} must be a number, got {val!r}")
        if not self.zbus_tol > 0:
            raise ValueError(f"config key 'zbus_tol' must be positive, got {self.zbus_tol!r}")
        val = self.zbus_max_iter
        if isinstance(val, bool) or not isinstance(val, numbers.Integral) or val < 1:
            raise ValueError(f"config key 'zbus_max_iter' must be an integer >= 1, got {val!r}")
        for lo, hi in (("v_min", "v_max"), ("v_min_verify", "v_max_verify")):
            if not 0.0 < getattr(self, lo) < getattr(self, hi):
                raise ValueError(f"config keys {lo!r} and {hi!r} need 0 < {lo} < {hi}")
        if self.constants_mode not in ("balanced", "from_zero_tap_solution"):
            raise ValueError(f"unknown constants_mode {self.constants_mode!r}")


def config_from_model(model: FeederModel, **overrides) -> OptsConfig:
    """Built-in defaults, overlaid with feeder-embedded config, then overrides.

    Keys that are not ``OptsConfig`` fields are rejected; ``None`` overrides
    are skipped.
    """
    keys = {f.name for f in fields(OptsConfig)}
    for key in (*model.config, *overrides):
        if key not in keys:
            raise ValueError(f"unknown config key {key!r}")
    values = dict(model.config)
    values.update((key, val) for key, val in overrides.items() if val is not None)
    return OptsConfig(**values)


def build_lp(model: FeederModel, constants: LinearizationConstants,
             config: OptsConfig) -> tuple[SparseLp, LinearSystem]:
    """Assemble the tap-selection LP for a validated model.

    The rows are the linear model's (``linear_system``) with each regulator
    phase's window set to the attainable ratio range. Bounds: squared
    magnitudes within the configured voltage band, flows free, window slacks
    nonnegative. Objective: real power leaving the slack bus.
    """
    windows = [dict.fromkeys(sv.phases, sv.ratio_range()) for sv in model.svrs]
    system = linear_system(model, constants, windows)

    n = system.A.shape[1]
    lower, upper = np.full(n, -np.inf), np.full(n, np.inf)
    vsq_cols = list(system.vsq.values())
    lower[vsq_cols], upper[vsq_cols] = config.v_min**2, config.v_max**2
    lower[[col for pair in system.slack_cols.values() for col in pair]] = 0.0
    c = np.zeros(n)
    for e in tree_index(model).edges:
        if e.from_bus == model.slack.id:
            for p in e.phases:
                c[system.flow[(e.key(), p)][0]] = 1.0
    return SparseLp(A=system.A, b=system.b, c=c, lower=lower, upper=upper), system


def _solve_condensed(G: np.ndarray, h: np.ndarray, d: np.ndarray) -> LpSolution:
    """min d.theta subject to G theta <= h, as its dual min h.lam subject to
    G^T lam = -d, lam >= 0; theta is the dual's row-dual vector.

    On ``build_lp``'s LPs the voltage bounds keep theta in a box, so the dual
    is feasible and an unbounded dual means an infeasible primal; both
    outcomes are reported as "infeasible".
    """
    sol = solve_lp(SparseLp(A=sp.csc_matrix(G.T), b=-d, c=h, lower=np.zeros(len(h)),
                            upper=np.full(len(h), np.inf)))
    if sol.status in ("unbounded", "infeasible"):
        sol.status = "infeasible"
    return sol


def solve_lp_lexicographic(lp: SparseLp, varmap: LinearSystem) -> tuple[LpSolution, float]:
    """Minimize import, then break the (typically massive) tie by minimizing
    the total squared-magnitude profile over the optimal-import face.

    Both passes run on the condensed LP (``linflow.eliminate``). The import pass is
    skipped when import does not depend on theta; the profile pass carries
    the pin row import <= optimum + 1e-9. Returns (solution at the tie-broken
    point, in the full column space, and the optimal import objective). When
    the profile pass does not end optimal, ``solution.tie_break`` says so and
    the solution is the import pass's point.
    """
    x0, N = eliminate(varmap, "solve_lp")
    upper, lower = np.isfinite(lp.upper), np.isfinite(lp.lower)
    G = np.vstack([N[upper], -N[lower]])
    h = np.concatenate([lp.upper[upper] - x0[upper], x0[lower] - lp.lower[lower]])
    profile = np.zeros(lp.A.shape[1])
    profile[list(varmap.vsq.values())] = 1.0

    import_cost = lp.c @ N
    x1, pivots = None, 0
    if np.any(import_cost):
        first = _solve_condensed(G, h, import_cost)
        pivots = first.iterations
        if first.status != "optimal":
            return LpSolution(first.status, x0, float(lp.c @ x0), pivots), math.nan
        x1 = x0 + N @ first.duals
        import_value = float(lp.c @ x1)
        G = np.vstack([G, import_cost])
        h = np.append(h, import_value - lp.c @ x0 + 1e-9)

    second = _solve_condensed(G, h, profile @ N)
    pivots += second.iterations
    if second.status == "optimal":
        x = x0 + N @ second.duals
        if x1 is None:
            import_value = float(lp.c @ x)
        return LpSolution("optimal", x, import_value, pivots, tie_break="optimal"), import_value
    if x1 is None:
        return LpSolution(second.status, x0, float(lp.c @ x0), pivots), math.nan
    return LpSolution("optimal", x1, import_value, pivots, tie_break=second.status), import_value


def recover_ratios(x: np.ndarray, varmap: LinearSystem, model: FeederModel) -> list[dict]:
    """Effective ratios from the optimal squared magnitudes, r = sqrt(up/down).

    Clamps excursions beyond the ratio window up to 1e-6 (solver tolerance);
    anything larger indicates a broken solution and raises.
    """
    slack_sq = _slack_squares(model)

    def value(bus, phase) -> float:
        if bus == model.slack.id:
            return slack_sq[phase]
        return float(x[varmap.vsq[(bus, phase)]])

    out = []
    for sv in model.svrs:
        r_lo, r_hi = sv.ratio_range()
        ratios = {}
        for p in sv.phases:
            vn = value(sv.from_bus, p)
            vs = value(sv.to_bus, p)
            if vn <= 0.0 or vs <= 0.0:
                raise ValueError(f"nonpositive squared magnitude on svr phase {p}")
            r = math.sqrt(vn / vs) if sv.kind == "B" else math.sqrt(vs / vn)
            if r < r_lo - 1e-6 or r > r_hi + 1e-6:
                raise ValueError(
                    f"recovered ratio {r:.8f} outside [{r_lo}, {r_hi}] on svr phase {p}")
            ratios[p] = min(max(r, r_lo), r_hi)
        out.append(ratios)
    return out


def _check_lower_bound(lower_bound: float) -> None:
    if not 0.0 < lower_bound < math.inf:      # also rejects NaN
        raise ValueError(f"lower bound must be positive and finite, got {lower_bound!r}")


def optimality_gap(verified: float, lower_bound: float) -> float:
    """Percent gap of a verified objective above an external lower bound."""
    _check_lower_bound(lower_bound)
    return (verified - lower_bound) / lower_bound * 100.0


@dataclass
class OptsReport:
    """Everything the pipeline decided and verified, plus per-stage timings."""

    svr_ids: list
    taps: list                      # per svr: {phase: int}
    ratios: list                    # per svr: {phase: float}, snapped to the tap grid
    objective_lp: float | None
    objective_verified: float
    v_envelope: tuple
    feasible: bool
    unbalance: float
    gap_percent: float | None
    timings: dict

    def to_json(self) -> str:
        doc = asdict(self)
        doc["v_envelope"] = {"min": self.v_envelope[0], "max": self.v_envelope[1]}
        doc["svrs"] = [{"id": sid, "taps": t, "ratios": r}
                       for sid, t, r in zip(self.svr_ids, self.taps, self.ratios)]
        for key in ("svr_ids", "taps", "ratios"):
            del doc[key]
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"

    def summary_csv(self, label: str = "opts") -> str:
        gap = f"{self.gap_percent:.6g}" if self.gap_percent is not None else ""
        obj_lp = f"{self.objective_lp:.6g}" if self.objective_lp is not None else ""
        total = sum(self.timings.values())
        return (
            "method,objective_lp,objective_verified,v_min,v_max,feasible,unbalance_percent,"
            "time_sec,gap_percent\n"
            f"{label},{obj_lp},{self.objective_verified:.6g},{self.v_envelope[0]:.6g},"
            f"{self.v_envelope[1]:.6g},{'feas' if self.feasible else 'infeas'},"
            f"{self.unbalance:.6g},{total:.4g},{gap}\n"
        )

    def taps_csv(self) -> str:
        buf = io.StringIO()
        buf.write("svr,phases,taps\n")
        for sid, taps in zip(self.svr_ids, self.taps):
            phases = "".join(taps.keys())
            vals = " ".join(str(taps[p]) for p in taps)
            buf.write(f"{sid},{phases},{vals}\n")
        return buf.getvalue()


def run_opts(model: FeederModel, config: OptsConfig,
             lower_bound: float | None = None) -> OptsReport:
    """Full pipeline; raises PipelineError with a stage tag on any failure.

    A ``lower_bound`` that is not positive and finite raises ``ValueError``
    before any solve.
    """
    if lower_bound is not None:
        _check_lower_bound(lower_bound)
    timings: dict[str, float] = {}

    def stage(name):
        timings[name] = time.perf_counter()
        return name

    def done(name):
        timings[name] = time.perf_counter() - timings[name]

    stage("base_powerflow")
    stamps = build_stamps(model)          # shared by the base and verify solves
    base_ratios = taps_to_ratios(model, zero_taps(model))
    base = solve_zbus(model, base_ratios, tol=config.zbus_tol, max_iter=config.zbus_max_iter,
                      stamps=stamps)
    if not base.converged:
        raise PipelineError("base_powerflow", "zero-tap power flow did not converge")
    done("base_powerflow")

    # Without regulators there is nothing to decide: the base case is the answer.
    taps, snapped, import_value, verified = [], [], None, base
    if model.svrs:
        stage("constants")
        if config.constants_mode == "balanced":
            constants = constants_balanced(model)
        else:
            constants = constants_from_solution(model, base)
        done("constants")

        stage("build_lp")
        lp, varmap = build_lp(model, constants, config)
        done("build_lp")

        stage("solve_lp")
        sol, import_value = solve_lp_lexicographic(lp, varmap)
        if sol.status != "optimal":
            raise PipelineError("solve_lp", f"LP terminated with status {sol.status}")
        done("solve_lp")

        stage("recover")
        cont_ratios = recover_ratios(sol.x, varmap, model)
        taps = [{p: ratio_to_tap(rmap[p], sv.kind, sv.step, sv.tap_min, sv.tap_max)
                 for p in sv.phases} for sv, rmap in zip(model.svrs, cont_ratios)]
        snapped = taps_to_ratios(model, taps)
        done("recover")

        stage("verify_powerflow")
        verified = solve_zbus(model, snapped, tol=config.zbus_tol,
                              max_iter=config.zbus_max_iter, stamps=stamps)
        if not verified.converged:
            raise PipelineError("verify_powerflow",
                                "power flow at snapped taps did not converge")
        done("verify_powerflow")

    stage("metrics")
    objective_verified = import_objective(verified, model)
    envelope = voltage_envelope(verified, model)
    report = OptsReport(
        svr_ids=[f"{sv.from_bus}->{sv.to_bus}" for sv in model.svrs],
        taps=taps,
        ratios=snapped,
        objective_lp=import_value,
        objective_verified=objective_verified,
        v_envelope=envelope,
        feasible=feasibility(verified, model, config.v_min_verify, config.v_max_verify),
        unbalance=voltage_unbalance(verified),
        gap_percent=None if lower_bound is None else optimality_gap(objective_verified, lower_bound),
        timings=timings,
    )
    done("metrics")
    return report


# ---------------------------------------------------------------------------
# Exhaustive tap-grid oracle
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BruteForceResult:
    taps: list                 # per svr: {phase: int}
    objective: float
    feasible_count: int
    evaluated: int


def _tap_order_key(flat_taps) -> tuple:
    # Neutral taps first, then small magnitudes, positive before negative.
    return tuple((abs(t), 0 if t >= 0 else 1, t) for t in flat_taps)


def brute_force(model: FeederModel, config: OptsConfig,
                cap: int = 100_000) -> BruteForceResult:
    """Enumerate every tap combination, verify each with the exact power flow,
    and keep the feasible minimum import. Ties (within 1e-12) prefer small
    tap magnitudes, so the all-zero vector wins on lossless networks.
    """
    axes = [(svx, p, sv) for svx, sv in enumerate(model.svrs) for p in sv.phases]
    total = 1
    for _, _, sv in axes:
        total *= sv.tap_max - sv.tap_min + 1
    if total > cap:
        raise ValueError(f"{total} tap combinations exceed cap {cap}")

    stamps = build_stamps(model)          # only the regulator blocks change per combination
    best_obj = np.inf
    best_key = None
    best_taps = None
    feasible_count = 0
    evaluated = 0
    ranges = [range(sv.tap_min, sv.tap_max + 1) for _, _, sv in axes]
    for combo in itertools.product(*ranges):
        evaluated += 1
        taps = [dict() for _ in model.svrs]
        for (svx, p, _), t in zip(axes, combo):
            taps[svx][p] = t
        ratios = taps_to_ratios(model, taps)
        sol = solve_zbus(model, ratios, tol=config.zbus_tol, max_iter=config.zbus_max_iter,
                         stamps=stamps)
        if not sol.converged:
            continue
        if not feasibility(sol, model, config.v_min_verify, config.v_max_verify):
            continue
        feasible_count += 1
        obj = import_objective(sol, model)
        key = _tap_order_key(combo)
        if obj < best_obj - 1e-12 or (abs(obj - best_obj) <= 1e-12
                                      and (best_key is None or key < best_key)):
            best_obj, best_key, best_taps = obj, key, taps
    if best_taps is None:
        raise PipelineError("bruteforce", "no feasible tap combination found")
    return BruteForceResult(taps=best_taps, objective=float(best_obj),
                            feasible_count=feasible_count, evaluated=evaluated)
