import dataclasses
import importlib.util
from pathlib import Path

import numpy as np
import pytest
from scipy.sparse.linalg import splu

import tapflow as tf
from tapflow.network import PHASES

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"


def bench_feeders():
    """``bench/feeders.py`` loaded by path, without putting ``bench/`` on sys.path."""
    path = Path(__file__).resolve().parents[1] / "bench" / "feeders.py"
    spec = importlib.util.spec_from_file_location("bench_feeders", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def fixed_y_feeder(model, tap_min, tap_max):
    """A ``generate_feeder`` model whose taps cannot move Y: its mid-feeder
    regulator replaced by a line with the impedance of the line out of that
    regulator's secondary, and the head regulator's taps windowed to
    ``tap_min..tap_max``."""
    head, mid = model.svrs
    after = next(ln for ln in model.lines if ln.from_bus == mid.to_bus)
    line = tf.LineSpec(from_bus=mid.from_bus, to_bus=mid.to_bus, z=after.z)
    out = dataclasses.replace(model, lines=model.lines + (line,), svrs=(
        dataclasses.replace(head, tap_min=tap_min, tap_max=tap_max),))
    assert not tf.validate(out)
    return out


BALANCED = {"a": 1.0 + 0.0j,
            "b": np.exp(-2j * np.pi / 3),
            "c": np.exp(2j * np.pi / 3)}


def lp_columns(model, system) -> tuple[dict, dict, dict]:
    """A ``LinearSystem``'s columns by name, read from its arrays: (bus,
    phase) -> v~ column over non-slack buses, (edge key, phase) -> (Re, Im)
    flow columns, and (regulator index, phase) -> (low, high) window slacks."""
    vsq = {(b.id, p): int(system.vcol[k, PHASES.index(p)])
           for k, b in enumerate(model.buses) if not b.is_slack for p in b.phases}
    flow = {(f"{e.from_bus}->{e.to_bus}", p): (int(c), int(c) + 1)
            for e, row in zip((*model.lines, *model.svrs), system.fcol)
            for p, c in zip(PHASES, row) if c >= 0}
    regulator_phases = [(svx, p) for svx, sv in enumerate(model.svrs) for p in sv.phases]
    return vsq, flow, dict(zip(regulator_phases, map(tuple, system.slack_cols.tolist())))


def colamd_in_model_order(monkeypatch):
    """Set up, through ``monkeypatch``, the factorizations that the
    leaves-first ones are compared against: every bus at depth 0, so that a
    layout built from here on keeps Y's rows in model order and the LP's
    columns in column order (both are sorted stably by depth), and
    ``zbus.splu`` and ``linflow.splu`` with splu's defaults, COLAMD's column
    order and partial pivoting."""
    monkeypatch.setattr(tf.ybus, "_depths", lambda slack, *_: np.zeros(len(slack), dtype=np.intp))
    monkeypatch.setattr(tf.zbus, "splu", lambda matrix, **_: splu(matrix))
    monkeypatch.setattr(tf.linflow, "splu", lambda matrix, **_: splu(matrix))


# The fixtures and the generated feeders (seed, buses, bus list reversed)
# of 15-120 buses on which a leaves-first factorization is compared with
# ``colamd_in_model_order``'s, as parameters for ``small_or_generated``.
SMALL_FEEDERS = [pytest.param("tiny3", None, False, id="tiny3"),
                 pytest.param("ieee13", None, False, id="ieee13"),
                 (5, 15, False), (5, 30, False), (5, 45, False), (5, 60, False), (5, 90, False),
                 (5, 120, False), (11, 60, True)]


def small_or_generated(seed, n_buses, reverse, request):
    """The fixture named ``seed`` when ``n_buses`` is None, else
    ``generate_feeder(seed, n_buses)``, its bus list reversed if ``reverse``."""
    if n_buses is None:
        model = request.getfixturevalue(seed)
    else:
        model = bench_feeders().generate_feeder(seed, n_buses)
    return dataclasses.replace(model, buses=model.buses[::-1]) if reverse else model


@pytest.fixture(scope="session")
def ieee13():
    return tf.parse_feeder((FIXTURES / "ieee13.json").read_text(encoding="utf-8"))


@pytest.fixture(scope="session")
def tiny3():
    return tf.parse_feeder((FIXTURES / "tiny3.json").read_text(encoding="utf-8"))


@pytest.fixture(scope="session")
def ieee13_base(ieee13):
    """Converged zero-tap solution of the IEEE-13 fixture, shared across tests."""
    ratios = tf.taps_to_ratios(ieee13, tf.zero_taps(ieee13))
    sol = tf.solve_zbus(ieee13, ratios)
    assert sol.converged
    return sol


@pytest.fixture(scope="session")
def ieee13_lp(ieee13, ieee13_base):
    """(LP, variable map) of IEEE-13 at the default config, zero-tap constants."""
    const = tf.constants_from_solution(ieee13_base)
    return tf.build_lp(ieee13, const, tf.config_from_model(ieee13))


def chain_model(loads, z_per_edge=0.02 + 0.06j, svr_kind=None, phases=("a",),
                v_min=None):
    """Single-phase chain: slack -> [optional SVR ->] bus1 -> bus2 -> ...

    ``loads`` is a list of complex consumption per non-slack bus (after the
    regulator bus when an SVR is present).
    """
    buses = [tf.BusSpec(id="sub", phases=phases, is_slack=True)]
    lines = []
    svrs = ()
    prev = "sub"
    if svr_kind is not None:
        buses.append(tf.BusSpec(id="reg", phases=phases))
        svrs = (tf.SvrSpec(from_bus="sub", to_bus="reg", kind=svr_kind, phases=phases),)
        prev = "reg"
    for k, load in enumerate(loads, start=1):
        bid = f"b{k}"
        vec = tf.PhaseVector(phases, [load] * len(phases)) if load else None
        buses.append(tf.BusSpec(id=bid, phases=phases, load=vec))
        n = len(phases)
        z = [[z_per_edge if i == j else 0.0 for j in range(n)] for i in range(n)]
        lines.append(tf.LineSpec(from_bus=prev, to_bus=bid, z=tf.PhaseMatrix(phases, z)))
        prev = bid
    config = {} if v_min is None else {"v_min": v_min}
    model = tf.FeederModel(buses=tuple(buses), lines=tuple(lines), svrs=svrs,
                           slack_voltage=tf.PhaseVector(phases, [BALANCED[p] for p in phases]),
                           config=config)
    assert not tf.validate(model)
    return model


def cascade_model(shunt_y=0.03j):
    """Head type-B and cascaded type-A regulators, a shunt of admittance
    ``shunt_y`` per phase (a capacitor by default), and a regulated phase (c)
    that the line after the second regulator does not carry."""
    abc = ("a", "b", "c")
    z = [[0.02 + 0.06j, 0.006 + 0.02j, 0.005 + 0.018j],
         [0.006 + 0.02j, 0.021 + 0.062j, 0.006 + 0.019j],
         [0.005 + 0.018j, 0.006 + 0.019j, 0.019 + 0.058j]]
    z_ab = [row[:2] for row in z[:2]]
    shunt = tf.PhaseMatrix.diagonal(abc, [shunt_y] * 3)
    buses = (
        tf.BusSpec(id="sub", phases=abc, is_slack=True),
        tf.BusSpec(id="r1", phases=abc),
        tf.BusSpec(id="n1", phases=abc, shunt=shunt,
                   load=tf.PhaseVector(abc, [0.1 + 0.04j, 0.08 + 0.03j, 0.12 + 0.05j])),
        tf.BusSpec(id="r2", phases=abc),
        tf.BusSpec(id="n2", phases=("a", "b"),
                   load=tf.PhaseVector(("a", "b"), [0.15 + 0.06j, 0.1 + 0.05j])),
        tf.BusSpec(id="n3", phases=("c",), load=tf.PhaseVector(("c",), [0.05 + 0.02j])),
    )
    lines = (
        tf.LineSpec(from_bus="r1", to_bus="n1", z=tf.PhaseMatrix(abc, z)),
        tf.LineSpec(from_bus="r2", to_bus="n2", z=tf.PhaseMatrix(("a", "b"), z_ab)),
        tf.LineSpec(from_bus="n1", to_bus="n3", z=tf.PhaseMatrix(("c",), [[0.03 + 0.05j]])),
    )
    svrs = (tf.SvrSpec(from_bus="sub", to_bus="r1", kind="B", phases=abc),
            tf.SvrSpec(from_bus="n1", to_bus="r2", kind="A", phases=abc))
    model = tf.FeederModel(buses=buses, lines=lines, svrs=svrs,
                           slack_voltage=tf.PhaseVector(abc, [BALANCED[p] for p in abc]))
    assert not tf.validate(model)
    return model


PARITY_FEEDERS = {
    "ieee13": lambda request: request.getfixturevalue("ieee13"),
    "tiny3": lambda request: request.getfixturevalue("tiny3"),
    "chain-A-1ph": lambda _: chain_model([0.25 + 0.1j, 0.2 + 0.08j], svr_kind="A"),
    "chain-B-1ph": lambda _: chain_model([0.25 + 0.1j, 0.2 + 0.08j], svr_kind="B"),
    "chain-A-3ph": lambda _: chain_model([0.25 + 0.1j, 0.2 + 0.08j], svr_kind="A",
                                         phases=("a", "b", "c")),
    "chain-B-3ph": lambda _: chain_model([0.25 + 0.1j, 0.2 + 0.08j], svr_kind="B",
                                         phases=("a", "b", "c")),
    # Regulators on phases a and c: their ratio columns skip phase b.
    "chain-A-ac": lambda _: chain_model([0.25 + 0.1j, 0.2 + 0.08j], svr_kind="A",
                                        phases=("a", "c")),
    "chain-B-ac": lambda _: chain_model([0.25 + 0.1j, 0.2 + 0.08j], svr_kind="B",
                                        phases=("a", "c")),
    "cascade": lambda _: cascade_model(),
    # A conductive shunt makes import depend on the regulator ratios.
    "cascade-lossy": lambda _: cascade_model(shunt_y=0.01 + 0.03j),
}
