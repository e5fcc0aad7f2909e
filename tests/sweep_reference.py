"""Reference version of the exhaustive tap sweep the library now solves in blocks.

``loop_brute_force`` is the per-combination loop ``opts.brute_force`` ran
before it solved a sweep as column blocks of one fixed-point iteration:
each combination gets its own ``solve_zbus`` on one shared stamp set, its
own feasibility check and its own import objective, in ``itertools.product``
order. The optimum is picked once, after the loop, by the rule
``brute_force`` states, so that it does not depend on the order of the
visits. For the same model and config both must return equal
``BruteForceResult``s, the objective to the bit, and raise the same errors.
"""

from __future__ import annotations

import itertools

from tapflow.errors import PipelineError
from tapflow.network import FeederModel, taps_to_ratios
from tapflow.opts import BruteForceResult, OptsConfig, _tap_order_key
from tapflow.ybus import build_stamps
from tapflow.zbus import feasibility, import_objective, solve_zbus


def loop_brute_force(model: FeederModel, config: OptsConfig,
                     cap: int = 100_000) -> BruteForceResult:
    """Enumerate every tap combination, verify each with the exact power flow,
    and keep the feasible minimum import. Imports within 1e-12 of the least
    tie, and ties prefer small tap magnitudes, so the all-zero vector wins on
    lossless networks.
    """
    axes = [(svx, p, sv) for svx, sv in enumerate(model.svrs) for p in sv.phases]
    total = 1
    for _, _, sv in axes:
        total *= sv.tap_max - sv.tap_min + 1
    if total > cap:
        raise ValueError(f"{total} tap combinations exceed cap {cap}")

    stamps = build_stamps(model)          # only the regulator blocks change per combination
    verified = []                         # (import, combination, taps) per feasible combination
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
        verified.append((import_objective(sol, model), combo, taps))
    if not verified:
        raise PipelineError("bruteforce", "no feasible tap combination found")
    least = min(obj for obj, _, _ in verified)
    obj, _, taps = min((item for item in verified if abs(item[0] - least) <= 1e-12),
                       key=lambda item: _tap_order_key(item[1]))
    return BruteForceResult(taps=taps, objective=float(obj),
                            feasible_count=feasible_count, evaluated=evaluated)
