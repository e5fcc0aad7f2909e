"""Tap-selection pipeline: build the linear program, solve, snap, verify, report.

The LP decides squared voltage magnitudes and complex edge flows. Regulator
ratios are not explicit variables: each regulator contributes a pair of valid
inequalities confining the primary-side squared magnitude to the attainable
ratio window times the secondary-side one, plus an exact per-phase power
balance. Ratios are recovered afterwards from the voltage variables, snapped
to the integer tap grid, and the result is verified against the exact
nonlinear power flow.

Minimizing real power import leaves the optimum massively degenerate whenever
loads are constant-power and shunts are pure susceptance (the objective is
then constant over the feasible set). A second lexicographic pass therefore
minimizes the sum of squared voltage magnitudes over the optimal-import face,
deterministically selecting the lowest feasible voltage profile.
"""

from __future__ import annotations

import io
import itertools
import json
import math
import time
from dataclasses import asdict, dataclass

import numpy as np
import scipy.sparse as sp

from .errors import PipelineError
from .linflow import LinearizationConstants, constants_balanced, constants_from_solution
from .network import (FeederModel, ratio_to_tap, taps_to_ratios, tree_index,
                      zero_taps)
from .simplex import LpSolution, SparseLp, solve_lp
from .zbus import (feasibility, import_objective, solve_zbus, voltage_envelope,
                   voltage_unbalance)


@dataclass(frozen=True)
class OptsConfig:
    """Pipeline settings; the LP band may be tighter than the verification band."""

    v_min: float = 0.9
    v_max: float = 1.1
    r_min: float = 0.9
    r_max: float = 1.1
    zbus_tol: float = 1e-9
    zbus_max_iter: int = 200
    constants_mode: str = "from_zero_tap_solution"   # or "balanced"
    v_min_verify: float = 0.9
    v_max_verify: float = 1.1

    def __post_init__(self):
        if not 0.0 < self.v_min < self.v_max:
            raise ValueError("need 0 < v_min < v_max")
        if not 0.0 < self.r_min < self.r_max:
            raise ValueError("need 0 < r_min < r_max")
        if self.constants_mode not in ("balanced", "from_zero_tap_solution"):
            raise ValueError(f"unknown constants_mode {self.constants_mode!r}")


_CONFIG_KEYS = ("v_min", "v_max", "r_min", "r_max", "zbus_tol", "zbus_max_iter",
                "constants_mode", "v_min_verify", "v_max_verify")


def config_from_model(model: FeederModel, **overrides) -> OptsConfig:
    """Built-in defaults, overlaid with feeder-embedded config, then overrides."""
    values = {}
    for key in _CONFIG_KEYS:
        if key in model.config:
            values[key] = model.config[key]
    for key, val in overrides.items():
        if key not in _CONFIG_KEYS:
            raise ValueError(f"unknown config key {key!r}")
        if val is not None:
            values[key] = val
    return OptsConfig(**values)


@dataclass(frozen=True)
class LpVariables:
    """Column/row bookkeeping so solutions can be read back by name."""

    names: tuple
    vsq: dict          # (bus, phase) -> column, non-slack buses only
    flow: dict         # (edge key, phase) -> (re column, im column)
    slack_cols: dict   # (svr index, phase) -> (low-slack column, high-slack column)
    n_rows: int


def _effective_ratio_range(svr, config: OptsConfig) -> tuple[float, float]:
    lo_dev, hi_dev = svr.ratio_range()
    lo, hi = max(lo_dev, config.r_min), min(hi_dev, config.r_max)
    if lo > hi:
        raise ValueError(f"svr {svr.from_bus}->{svr.to_bus}: empty effective ratio range")
    return lo, hi


def build_lp(model: FeederModel, constants: LinearizationConstants,
             config: OptsConfig) -> tuple[SparseLp, LpVariables]:
    """Assemble the tap-selection LP for a validated model.

    Variables: squared magnitudes per non-slack (bus, phase) bounded by the
    configured voltage window, then Re/Im flow per (edge, phase) free, then two
    nonnegative slacks per regulator phase for the ratio-window inequalities.
    """
    idx = tree_index(model)
    by_id = {b.id: b for b in model.buses}
    slack_id = model.slack.id
    slack_sq = {p: abs(model.slack_voltage[p]) ** 2 for p in model.slack_voltage.phases}

    names: list[str] = []
    vsq: dict = {}
    flow: dict = {}
    slack_cols: dict = {}
    lower: list[float] = []
    upper: list[float] = []

    def add_var(name, lo, hi) -> int:
        names.append(name)
        lower.append(lo)
        upper.append(hi)
        return len(names) - 1

    for b in model.buses:
        if b.is_slack:
            continue
        for p in b.phases:
            vsq[(b.id, p)] = add_var(f"v[{b.id}.{p}]", config.v_min**2, config.v_max**2)
    for e in idx.edges:
        for p in e.phases:
            re = add_var(f"Sre[{e.key()}.{p}]", -np.inf, np.inf)
            im = add_var(f"Sim[{e.key()}.{p}]", -np.inf, np.inf)
            flow[(e.key(), p)] = (re, im)
    for svx, sv in enumerate(model.svrs):
        for p in sv.phases:
            lo = add_var(f"rlo[{sv.from_bus}->{sv.to_bus}.{p}]", 0.0, np.inf)
            hi = add_var(f"rhi[{sv.from_bus}->{sv.to_bus}.{p}]", 0.0, np.inf)
            slack_cols[(svx, p)] = (lo, hi)

    rows_i: list[int] = []
    rows_j: list[int] = []
    rows_v: list[float] = []
    rhs: list[float] = []

    def new_row(entries, b_val) -> None:
        r = len(rhs)
        for col, coef in entries:
            if coef != 0.0:
                rows_i.append(r)
                rows_j.append(col)
                rows_v.append(float(coef))
        rhs.append(float(b_val))

    def vsq_term(bus, phase, coef, entries, b_shift):
        """Add coef * v~[bus,phase]; slack-bus magnitudes are constants."""
        if bus == slack_id:
            return b_shift - coef * slack_sq[phase]
        entries.append((vsq[(bus, phase)], coef))
        return b_shift

    # Voltage-drop rows (one real equation per line-edge phase).
    for e in idx.edges:
        if e.kind != "line":
            continue
        ln = model.lines[e.index]
        key = e.key()
        m_rot = constants.gamma[key].array * np.conj(ln.z.array)
        hvec = constants.h[key]
        ph = e.phases
        for a, p in enumerate(ph):
            entries: list = []
            b_val = hvec[p].real
            b_val = vsq_term(e.from_bus, p, +1.0, entries, b_val)
            b_val = vsq_term(e.to_bus, p, -1.0, entries, b_val)
            for bq, q in enumerate(ph):
                re_col, im_col = flow[(key, q)]
                entries.append((re_col, -2.0 * m_rot[a, bq].real))
                entries.append((im_col, +2.0 * m_rot[a, bq].imag))
            new_row(entries, b_val)

    # Power-balance rows at the to-bus of every line edge (Re and Im).
    for e in idx.edges:
        if e.kind != "line":
            continue
        bus = by_id[e.to_bus]
        key = e.key()
        lvec = constants.l[key]
        shunt = bus.shunt
        ybar = np.conj(shunt.array).T if shunt is not None else None
        for p in e.phases:
            re_col, im_col = flow[(key, p)]
            for part, col in (("re", re_col), ("im", im_col)):
                entries = [(col, 1.0)]
                load = bus.load[p] if (bus.load is not None and p in bus.load) else 0.0
                b_val = (load.real + lvec[p].real) if part == "re" else (load.imag + lvec[p].imag)
                for child in idx.children[bus.id]:
                    if p in child.phases:
                        c_re, c_im = flow[(child.key(), p)]
                        entries.append((c_re if part == "re" else c_im, -1.0))
                if ybar is not None:
                    a = shunt.phases.index(p) if p in shunt.phases else None
                    if a is not None:
                        for bq, q in enumerate(shunt.phases):
                            coef = ybar[a, bq]
                            val = coef.real if part == "re" else coef.imag
                            b_val = vsq_term(bus.id, q, -val, entries, b_val)
                new_row(entries, b_val)

    # Regulator ratio-window inequalities (slacked) and exact power balance.
    for svx, sv in enumerate(model.svrs):
        r_lo, r_hi = _effective_ratio_range(sv, config)
        child = idx.children[sv.to_bus][0]
        for p in sv.phases:
            lo_col, hi_col = slack_cols[(svx, p)]
            if sv.kind == "B":
                up_bus, dn_bus = sv.from_bus, sv.to_bus
            else:
                up_bus, dn_bus = sv.to_bus, sv.from_bus
            # r_lo^2 * v~[dn] <= v~[up] <= r_hi^2 * v~[dn]
            entries: list = []
            b_val = vsq_term(up_bus, p, +1.0, entries, 0.0)
            b_val = vsq_term(dn_bus, p, -r_lo**2, entries, b_val)
            entries.append((lo_col, -1.0))
            new_row(entries, b_val)
            entries = []
            b_val = vsq_term(up_bus, p, +1.0, entries, 0.0)
            b_val = vsq_term(dn_bus, p, -r_hi**2, entries, b_val)
            entries.append((hi_col, +1.0))
            new_row(entries, b_val)

            re_col, im_col = flow[(f"{sv.from_bus}->{sv.to_bus}", p)]
            if p in child.phases:
                c_re, c_im = flow[(child.key(), p)]
                new_row([(re_col, 1.0), (c_re, -1.0)], 0.0)
                new_row([(im_col, 1.0), (c_im, -1.0)], 0.0)
            else:
                # Phase regulated but not carried onward: no current can flow.
                new_row([(re_col, 1.0)], 0.0)
                new_row([(im_col, 1.0)], 0.0)

    n = len(names)
    c = np.zeros(n)
    for e in idx.edges:
        if e.from_bus == slack_id:
            for p in e.phases:
                c[flow[(e.key(), p)][0]] = 1.0

    A = sp.coo_matrix((rows_v, (rows_i, rows_j)), shape=(len(rhs), n)).tocsc()
    lp = SparseLp(A=A, b=np.array(rhs), c=c,
                  lower=np.array(lower), upper=np.array(upper), names=list(names))
    varmap = LpVariables(names=tuple(names), vsq=vsq, flow=flow,
                         slack_cols=slack_cols, n_rows=len(rhs))
    return lp, varmap


def solve_lp_lexicographic(lp: SparseLp, varmap: LpVariables) -> tuple[LpSolution, float]:
    """Minimize import, then break the (typically massive) tie by minimizing
    the total squared-magnitude profile over the optimal-import face.

    Returns (solution at the tie-broken point, optimal import objective). When
    the tie-break pass does not end optimal, ``solution.tie_break`` says so and
    the solution is the first pass's point.
    """
    tie_break = np.zeros(lp.A.shape[1])
    tie_break[list(varmap.vsq.values())] = 1.0
    sol = solve_lp(lp, tie_break=tie_break)
    return sol, (sol.objective if sol.status == "optimal" else math.nan)


def recover_ratios(x: np.ndarray, varmap: LpVariables, model: FeederModel,
                   config: OptsConfig) -> list[dict]:
    """Effective ratios from the optimal squared magnitudes, r = sqrt(up/down).

    Clamps excursions beyond the ratio window up to 1e-6 (solver tolerance);
    anything larger indicates a broken solution and raises.
    """
    slack_sq = {p: abs(model.slack_voltage[p]) ** 2 for p in model.slack_voltage.phases}

    def value(bus, phase) -> float:
        if bus == model.slack.id:
            return slack_sq[phase]
        return float(x[varmap.vsq[(bus, phase)]])

    out = []
    for svx, sv in enumerate(model.svrs):
        r_lo, r_hi = _effective_ratio_range(sv, config)
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


def optimality_gap(verified: float, lower_bound: float) -> float:
    """Percent gap of a verified objective above an external lower bound."""
    if lower_bound <= 0.0:
        raise ValueError("lower bound must be positive")
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
    """Full pipeline; raises PipelineError with a stage tag on any failure."""
    timings: dict[str, float] = {}

    def stage(name):
        timings[name] = time.perf_counter()
        return name

    def done(name):
        timings[name] = time.perf_counter() - timings[name]

    stage("base_powerflow")
    base_ratios = taps_to_ratios(model, zero_taps(model))
    base = solve_zbus(model, base_ratios, tol=config.zbus_tol, max_iter=config.zbus_max_iter)
    if not base.converged:
        raise PipelineError("base_powerflow", "zero-tap power flow did not converge")
    done("base_powerflow")

    if not model.svrs:
        stage("metrics")
        envelope = voltage_envelope(base, model)
        report = OptsReport(
            svr_ids=[], taps=[], ratios=[], objective_lp=None,
            objective_verified=import_objective(base, model),
            v_envelope=envelope,
            feasible=feasibility(base, model, config.v_min_verify, config.v_max_verify),
            unbalance=voltage_unbalance(base),
            gap_percent=None if lower_bound is None else
            optimality_gap(import_objective(base, model), lower_bound),
            timings=timings,
        )
        done("metrics")
        return report

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
    cont_ratios = recover_ratios(sol.x, varmap, model, config)
    taps = []
    for sv, rmap in zip(model.svrs, cont_ratios):
        taps.append({p: ratio_to_tap(rmap[p], sv.kind, sv.step, sv.tap_min, sv.tap_max)
                     for p in sv.phases})
    snapped = taps_to_ratios(model, taps)
    done("recover")

    stage("verify_powerflow")
    verified = solve_zbus(model, snapped, tol=config.zbus_tol, max_iter=config.zbus_max_iter)
    if not verified.converged:
        raise PipelineError("verify_powerflow", "power flow at snapped taps did not converge")
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
        sol = solve_zbus(model, ratios, tol=config.zbus_tol, max_iter=config.zbus_max_iter)
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
