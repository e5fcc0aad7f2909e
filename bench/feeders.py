"""Seeded generator of radial unbalanced feeders for the benchmark.

``generate_feeder(seed, n_buses)`` builds a validated ``tapflow.FeederModel``:

    sub (slack) -> head type-B regulator -> three-phase trunk
        -> cascaded type-A regulator half-way down the trunk -> rest of trunk

with 1-, 2- and 3-phase laterals hanging off the trunk and a few three-phase
shunt capacitors (pure susceptance). Loads are wye constant-power, normalized
to a fixed total real power. Line impedances are scaled so that a first-order
(linear DistFlow) estimate of the worst zero-tap voltage drop equals a fixed
value, so feeders of every size sit in the same voltage regime and import
about the same power. The same arguments always give the same model, byte for
byte.
"""

from __future__ import annotations

import math

import numpy as np

import tapflow as tf

PHASES = ("a", "b", "c")
BALANCED = {"a": 1.0 + 0.0j,
            "b": complex(math.cos(-2 * math.pi / 3), math.sin(-2 * math.pi / 3)),
            "c": complex(math.cos(2 * math.pi / 3), math.sin(2 * math.pi / 3))}

# Relative series impedance per unit length (symmetric, mutually coupled),
# shaped like overhead configurations 601 (trunk) and 602 (laterals).
_Z_TRUNK = np.array([
    [0.3465 + 1.0179j, 0.1560 + 0.5017j, 0.1580 + 0.4236j],
    [0.1560 + 0.5017j, 0.3375 + 1.0478j, 0.1535 + 0.3849j],
    [0.1580 + 0.4236j, 0.1535 + 0.3849j, 0.3414 + 1.0348j],
])
_Z_LATERAL = np.array([
    [0.7526 + 1.1814j, 0.1580 + 0.4236j, 0.1560 + 0.5017j],
    [0.1580 + 0.4236j, 0.7475 + 1.1983j, 0.1535 + 0.3849j],
    [0.1560 + 0.5017j, 0.1535 + 0.3849j, 0.7436 + 1.2112j],
])
_TWO_PHASE = (("a", "b"), ("b", "c"), ("a", "c"))
_MASKS = (("a",), ("b",), ("c",)) + _TWO_PHASE + (PHASES,)

DEFAULT_PHASE_MIX = (0.55, 0.25, 0.2)   # shares of 1-, 2- and 3-phase lateral buses
TOTAL_LOAD = 0.7     # summed real load, p.u.; IEEE-13 imports about the same
DROP = 0.07          # estimated worst zero-tap voltage drop, p.u.
N_SHUNTS = 3


def lateral_counts(n_buses: int, phase_mix=DEFAULT_PHASE_MIX) -> tuple[int, int, int, int]:
    """(trunk, 1-phase, 2-phase, 3-phase lateral) bus counts for a request.

    Three buses are fixed: the slack and the two regulator secondaries.
    """
    if n_buses < 10:
        raise ValueError("need at least 10 buses")
    if len(phase_mix) != 3 or min(phase_mix) < 0 or abs(sum(phase_mix) - 1.0) > 1e-9:
        raise ValueError("phase_mix must be three nonnegative shares summing to 1")
    rest = n_buses - 3
    trunk = max(4, round(2.0 * math.sqrt(rest)))
    lateral = rest - trunk
    n1 = round(phase_mix[0] * lateral)
    n2 = round(phase_mix[1] * lateral)
    return trunk, n1, n2, lateral - n1 - n2


def generate_feeder(seed: int, n_buses: int, phase_mix=DEFAULT_PHASE_MIX) -> tf.FeederModel:
    """Random radial unbalanced feeder with exactly ``n_buses`` buses.

    ``phase_mix`` gives the shares of 1-, 2- and 3-phase lateral buses. The
    model carries no embedded config, so the pipeline runs with its built-in
    defaults.
    """
    rng = np.random.default_rng([seed, n_buses])
    n_trunk, n1, n2, n3 = lateral_counts(n_buses, phase_mix)

    phases: dict[str, tuple] = {"sub": PHASES, "rh": PHASES, "rm": PHASES}
    parent: dict[str, str] = {"rh": "sub"}      # regulator secondaries hang off their primary
    order = ["sub", "rh"]
    mid = n_trunk // 2
    prev = "rh"
    trunk = []
    for k in range(1, n_trunk + 1):
        bid = f"t{k}"
        phases[bid] = PHASES
        parent[bid] = prev
        order.append(bid)
        trunk.append(bid)
        prev = bid
        if k == mid:
            parent["rm"] = bid
            order.append("rm")
            prev = "rm"

    # Laterals: 3-phase first, then 2-phase, then 1-phase buses, each attached
    # to a compatible earlier bus, preferring the last one added (chains).
    # ``hosts[mask]`` lists the buses able to feed a lateral bus with that mask.
    hosts: dict[tuple, list[str]] = {m: list(trunk) for m in _MASKS}
    kinds = [3] * n3 + [2] * n2 + [1] * n1
    laterals: list[str] = []
    for k, width in enumerate(kinds, start=1):
        if width == 3:
            ph = PHASES
        elif width == 2:
            ph = _TWO_PHASE[int(rng.integers(3))]
        else:
            ph = (PHASES[int(rng.integers(3))],)
        candidates = hosts[ph]
        last = laterals[-1] if laterals else None
        if last is not None and set(ph) <= set(phases[last]) and rng.random() < 0.6:
            par = last
        else:
            par = candidates[int(rng.integers(len(candidates)))]
        bid = f"l{k}"
        phases[bid] = ph
        parent[bid] = par
        order.append(bid)
        laterals.append(bid)
        for mask in _MASKS:
            if set(mask) <= set(ph):
                hosts[mask].append(bid)

    loaded = trunk + laterals
    loads: dict[str, np.ndarray] = {}
    for bid in loaded:
        if rng.random() < 0.85:
            p = rng.uniform(0.5, 1.5, len(phases[bid]))
            q = p * rng.uniform(0.3, 0.6, len(phases[bid]))
            loads[bid] = p + 1j * q
    if not loads:
        loads[trunk[-1]] = np.full(3, 1.0 + 0.45j)
    p_sum = sum(float(v.real.sum()) for v in loads.values())
    for bid in loads:
        loads[bid] = loads[bid] * (TOTAL_LOAD / p_sum)
    q_sum = sum(float(v.imag.sum()) for v in loads.values())

    three_phase = [b for b in loaded if len(phases[b]) == 3]
    cap_buses = sorted(rng.choice(len(three_phase), size=min(N_SHUNTS, len(three_phase)),
                                  replace=False).tolist())
    shunts = {three_phase[i]: rng.uniform(0.3, 0.6) * q_sum / (3 * N_SHUNTS) for i in cap_buses}

    # Relative impedances, then one global scale from the drop estimate.
    z_rel: dict[str, np.ndarray] = {}
    for bid in loaded:
        template = _Z_TRUNK if bid in trunk else _Z_LATERAL
        pos = [PHASES.index(p) for p in phases[bid]]
        z_rel[bid] = template[np.ix_(pos, pos)] * rng.uniform(0.5, 1.5)
    scale = DROP / _estimated_drop(order, parent, phases, z_rel, loads, shunts)

    buses, lines, svrs = [], [], []
    for bid in order:
        load = shunt = None
        if bid in loads:
            load = tf.PhaseVector(phases[bid], loads[bid])
        if bid in shunts:
            shunt = tf.PhaseMatrix.diagonal(PHASES, [1j * shunts[bid]] * 3)
        buses.append(tf.BusSpec(id=bid, phases=phases[bid], load=load, shunt=shunt,
                                is_slack=bid == "sub"))
        if bid in z_rel:
            lines.append(tf.LineSpec(from_bus=parent[bid], to_bus=bid,
                                     z=tf.PhaseMatrix(phases[bid], z_rel[bid] * scale)))
    svrs.append(tf.SvrSpec(from_bus="sub", to_bus="rh", kind="B", phases=PHASES))
    svrs.append(tf.SvrSpec(from_bus=parent["rm"], to_bus="rm", kind="A", phases=PHASES))
    return tf.FeederModel(buses=tuple(buses), lines=tuple(lines), svrs=tuple(svrs),
                          slack_voltage=tf.PhaseVector(PHASES, [BALANCED[p] for p in PHASES]))


def _estimated_drop(order, parent, phases, z_rel, loads, shunts) -> float:
    """Worst per-phase voltage drop of the linear DistFlow model at unit scale.

    Uses self impedances only and treats regulators as ratio 1; capacitors
    inject their reactive power at nominal voltage.
    """
    down: dict[str, dict[str, complex]] = {b: {p: 0j for p in phases[b]} for b in order}
    for bid in reversed(order):
        if bid in loads:
            for p, s in zip(phases[bid], loads[bid]):
                down[bid][p] += s
        if bid in shunts:
            for p in phases[bid]:
                down[bid][p] -= 1j * shunts[bid]
        if bid in parent:
            for p, s in down[bid].items():
                down[parent[bid]][p] += s
    drop = {"sub": {p: 0.0 for p in PHASES}}
    worst = 0.0
    for bid in order[1:]:
        up = drop[parent[bid]]
        if bid not in z_rel:
            drop[bid] = dict(up)
            continue
        z = z_rel[bid]
        drop[bid] = {}
        for a, p in enumerate(phases[bid]):
            s = down[bid][p]
            d = up[p] + z[a, a].real * s.real + z[a, a].imag * s.imag
            drop[bid][p] = d
            worst = max(worst, d)
    if worst <= 0.0:
        raise ValueError("generated feeder has no voltage drop to scale")
    return worst


def scale_loads(model: tf.FeederModel, factor) -> tf.FeederModel:
    """Copy of ``model`` with each load phase multiplied by ``factor(bus id, phase)``."""
    buses = []
    for b in model.buses:
        if b.load is not None:
            vals = [b.load[p] * factor(b.id, p) for p in b.load.phases]
            b = tf.BusSpec(id=b.id, phases=b.phases, load=tf.PhaseVector(b.load.phases, vals),
                           shunt=b.shunt, is_slack=b.is_slack)
        buses.append(b)
    return tf.FeederModel(buses=tuple(buses), lines=model.lines, svrs=model.svrs,
                          slack_voltage=model.slack_voltage, config=dict(model.config))
