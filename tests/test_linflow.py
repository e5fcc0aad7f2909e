import cProfile
import dataclasses
import pstats

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import splu

import tapflow as tf
from tapflow.network import PHASES

import linflow_reference
import stamps_reference
from conftest import (PARITY_FEEDERS, SMALL_FEEDERS, bench_feeders, chain_model,
                      colamd_in_model_order, lp_columns, small_or_generated)
from lp_reference import sweep_powerflow

ALPHA = np.exp(2j * np.pi / 3)


def test_balanced_rotation_entries():
    model = chain_model([0.1], phases=("a", "b", "c"))
    const = tf.constants_balanced(model)
    assert const.layout.mask.tolist() == [[True, True, True]]
    g = const.gamma[0]                      # line sub->b1; rows and columns a, b, c
    assert g[0, 0] == pytest.approx(1.0)
    assert g[0, 1] == pytest.approx(ALPHA)
    assert g[0, 2] == pytest.approx(ALPHA**2)
    assert g[1, 2] == pytest.approx(ALPHA)
    assert g[2, 0] == pytest.approx(ALPHA)
    assert np.max(np.abs(const.h[0])) == 0.0
    assert np.max(np.abs(const.l[0])) == 0.0


def test_balanced_single_phase_is_identity():
    model = chain_model([0.1])
    g = tf.constants_balanced(model).gamma[0]   # padded over a, b, c: only [a, a] is the line's
    assert g.shape == (3, 3) and g[0, 0] == 1.0 and np.count_nonzero(g) == 1


def test_constants_zero_current_base():
    model = chain_model([0.0, 0.0])
    base = tf.solve_zbus(model, [])
    const = tf.constants_from_solution(model, base)
    assert const.layout.mask.tolist() == [[True, False, False]] * 2    # sub->b1, b1->b2
    for k in range(2):
        assert np.max(np.abs(const.h[k])) < 1e-15
        assert np.max(np.abs(const.l[k])) < 1e-15
        assert const.gamma[k][0, 0] == pytest.approx(1.0)


def test_constants_require_convergence():
    model = chain_model([40.0 + 20.0j], z_per_edge=0.05 + 0.15j)
    sol = tf.solve_zbus(model, [], max_iter=50)
    with pytest.raises(ValueError):
        tf.constants_from_solution(model, sol)


def _with_zero_voltage(solution, buses):
    """``solution`` with a copy of its voltages, each bus's first phase zeroed."""
    layout, v = solution.system.stamps.layout, solution.v.copy()
    for bus in buses:
        at = layout.at[layout.bus_of[bus]]
        v[at[at >= 0][0]] = 0.0
    return dataclasses.replace(solution, v=v)


@pytest.mark.parametrize("zeroed, named", [
    (("b1",), "sub->b1"),          # an endpoint of both lines: the first is named
    (("b2",), "b1->b2"),
])
def test_zero_endpoint_voltage_names_the_line(zeroed, named):
    model = chain_model([0.1, 0.1])
    base = _with_zero_voltage(tf.solve_zbus(model, []), zeroed)
    with pytest.raises(ValueError, match=f"zero phase voltage at an endpoint of line {named}$"):
        tf.constants_from_solution(model, base)


def test_zero_endpoint_voltage_names_the_first_line_in_model_order(ieee13, ieee13_base):
    """645->646 (line 4, phases bc) comes before 692->675 (line 11, phases
    abc): the first bad line in model order is named, whatever its phase
    count."""
    base = _with_zero_voltage(ieee13_base, ("675", "646"))
    with pytest.raises(ValueError, match="line 645->646$"):
        tf.constants_from_solution(ieee13, base)


def test_flat_balanced_base_equals_balanced_constants():
    model = chain_model([0.0], phases=("a", "b", "c"))
    base = tf.solve_zbus(model, [])
    got = tf.constants_from_solution(model, base)
    want = tf.constants_balanced(model)
    assert np.allclose(got.gamma[0], want.gamma[0], atol=1e-12)


def test_zero_load_linear_flow_flat():
    model = chain_model([0.0, 0.0], phases=("a", "b", "c"))
    ratios = []
    v_sq, flows = tf.linear_powerflow(model, tf.constants_balanced(model), ratios)
    for bid in ("b1", "b2"):
        assert np.allclose([v_sq[bid][p].real for p in "abc"], 1.0, atol=1e-14)
    for vec in flows.values():
        assert np.max(np.abs(vec.values)) < 1e-14


def exactness_error(model, ratios):
    sol = tf.solve_zbus(model, ratios, tol=1e-12)
    assert sol.converged
    const = tf.constants_from_solution(model, sol)
    v_sq, flows = tf.linear_powerflow(model, const, ratios)
    worst = 0.0
    for bid, vec in sol.voltages.items():
        for p in vec.phases:
            worst = max(worst, abs(v_sq[bid][p].real - abs(vec[p]) ** 2))
    return worst


def test_exactness_at_linearization_point_chain():
    model = chain_model([0.25 + 0.1j, 0.2 + 0.08j], svr_kind="B",
                        phases=("a", "b", "c"))
    assert exactness_error(model, [{p: 1.0 for p in "abc"}]) < 1e-10
    assert exactness_error(model, [{"a": 0.95, "b": 1.05, "c": 0.975}]) < 1e-10


def test_exactness_at_linearization_point_ieee13(ieee13):
    for ratios in ([{p: 1.0 for p in "abc"}],
                   [{"a": 0.975, "b": 1.05, "c": 0.95625}]):
        assert exactness_error(ieee13, ratios) < 1e-8


def test_exactness_type_a():
    model = chain_model([0.3 + 0.12j], svr_kind="A")
    assert exactness_error(model, [{"a": 1.04}]) < 1e-10


def test_linear_rows_satisfied_by_sweep_solution(ieee13, ieee13_base):
    """The sweep solution solves the same equations the LP assembles."""
    const = tf.constants_from_solution(ieee13, ieee13_base)
    ratios = tf.taps_to_ratios(ieee13, tf.zero_taps(ieee13))
    v_sq, flows = tf.linear_powerflow(ieee13, const, ratios)

    cfg = tf.config_from_model(ieee13, v_min=0.5, v_max=1.5)
    lp, varmap = tf.build_lp(ieee13, const, cfg)
    x = np.zeros(lp.A.shape[1])
    vsq, flow, _ = lp_columns(ieee13, varmap)
    for (bus, p), col in vsq.items():
        x[col] = v_sq[bus][p].real
    for (key, p), (re_col, im_col) in flow.items():
        x[re_col] = flows[key][p].real
        x[im_col] = flows[key][p].imag
    resid = lp.A @ x - lp.b
    # Ratio-window rows contain slack columns we left at zero; check the rest.
    eq_rows = [i for i in range(lp.A.shape[0])]
    slack_cols = set(varmap.slack_cols.ravel().tolist())
    acsr = lp.A.tocsr()
    for i in eq_rows:
        cols = set(acsr.indices[acsr.indptr[i]:acsr.indptr[i + 1]])
        if cols & slack_cols:
            continue
        assert abs(resid[i]) < 1e-9, f"row {i}"


def _heavy_chain():
    """A three-phase chain whose load no power flow carries: the exact solve
    does not converge and every balanced linear v~ at b1 is negative (-9)."""
    model = chain_model([40.0 + 20.0j], z_per_edge=0.05 + 0.15j, phases=("a", "b", "c"))
    v_sq, _ = tf.linear_powerflow(model, tf.constants_balanced(model), [])
    return model, v_sq


def test_lindiff_requires_a_converged_exact_solution():
    model, v_sq = _heavy_chain()
    exact = tf.solve_zbus(model, [], max_iter=50)
    assert not exact.converged
    with pytest.raises(ValueError, match="did not converge"):
        tf.lindiff(model, exact, v_sq)


@pytest.mark.parametrize("bad", [None, float("nan"), float("inf")],
                         ids=["negative", "nan", "inf"])
def test_lindiff_rejects_a_negative_or_nonfinite_square(bad):
    """A v~ that has no real square root raises, rather than dropping out of
    the worst difference (max(0.0, nan) is 0.0)."""
    model, v_sq = _heavy_chain()
    light = chain_model([0.1 + 0.05j], z_per_edge=0.05 + 0.15j, phases=("a", "b", "c"))
    exact = tf.solve_zbus(light, [])
    assert exact.converged and v_sq["b1"]["a"].real < 0.0
    if bad is not None:
        v_sq = {bus: {p: 1.0 for p in vec.phases} for bus, vec in v_sq.items()}
        v_sq["b1"]["b"] = bad
    with pytest.raises(ValueError, match="not a finite square"):
        tf.lindiff(light, exact, v_sq)


def test_overestimation_on_shipped_fixtures(ieee13, ieee13_base, tiny3):
    ratios = tf.taps_to_ratios(ieee13, tf.zero_taps(ieee13))
    v_sq, _ = tf.linear_powerflow(ieee13, tf.constants_balanced(ieee13), ratios)
    rep = tf.lindiff(ieee13, ieee13_base, v_sq)
    assert rep.min_lin >= rep.min_exact

    r3 = tf.taps_to_ratios(tiny3, tf.zero_taps(tiny3))
    sol3 = tf.solve_zbus(tiny3, r3)
    v_sq3, _ = tf.linear_powerflow(tiny3, tf.constants_balanced(tiny3), r3)
    rep3 = tf.lindiff(tiny3, sol3, v_sq3)
    assert rep3.min_lin >= rep3.min_exact


def test_lindiff_csv_schema(ieee13, ieee13_base):
    ratios = tf.taps_to_ratios(ieee13, tf.zero_taps(ieee13))
    v_sq, _ = tf.linear_powerflow(ieee13, tf.constants_balanced(ieee13), ratios)
    text = tf.lindiff(ieee13, ieee13_base, v_sq).to_csv()
    lines = text.strip().splitlines()
    assert lines[0] == "phase,max_abs_diff,min_v_linear,min_v_exact"
    assert [ln.split(",")[0] for ln in lines[1:]] == ["a", "b", "c", "all"]


@pytest.mark.parametrize("name", sorted(PARITY_FEEDERS))
def test_linear_powerflow_matches_sweep(name, request):
    """One LU solve of the model's rows agrees with the backward/forward sweep."""
    model = PARITY_FEEDERS[name](request)
    zero = tf.taps_to_ratios(model, tf.zero_taps(model))
    taps = [{p: (-1) ** k * (3 + 2 * k) for k, p in enumerate(sv.phases)} for sv in model.svrs]
    shifted = tf.taps_to_ratios(model, taps)
    base = tf.solve_zbus(model, zero, tol=1e-12)
    assert base.converged
    for constants, reference in (
            (tf.constants_balanced(model), linflow_reference.constants_balanced(model)),
            (tf.constants_from_solution(model, base),
             linflow_reference.constants_from_solution(model, base))):
        for ratios in (zero, shifted):
            v_sq, flows = tf.linear_powerflow(model, constants, ratios)
            v_ref, f_ref = sweep_powerflow(model, reference, ratios)
            assert v_sq.keys() == v_ref.keys() and flows.keys() == f_ref.keys()
            for bid, vec in v_ref.items():
                assert v_sq[bid].phases == vec.phases
                assert np.max(np.abs(v_sq[bid].values - vec.values)) <= 1e-12
            for key, vec in f_ref.items():
                assert flows[key].phases == vec.phases
                assert np.max(np.abs(flows[key].values - vec.values)) <= 1e-12


def test_singular_linear_system_raises_pipeline_error():
    """A shunt whose coupling cancels the line's voltage drop makes the rows singular."""
    phases = ("a",)
    model = tf.FeederModel(
        buses=(tf.BusSpec(id="sub", phases=phases, is_slack=True),
               tf.BusSpec(id="b1", phases=phases, load=tf.PhaseVector(phases, [0.1]),
                          shunt=tf.PhaseMatrix(phases, [[1j]]))),
        lines=(tf.LineSpec(from_bus="sub", to_bus="b1",
                           z=tf.PhaseMatrix(phases, [[0.25 + 0.5j]])),),
        svrs=(), slack_voltage=tf.PhaseVector(phases, [1.0]))
    with pytest.raises(tf.PipelineError) as err:
        tf.linear_powerflow(model, tf.constants_balanced(model), [])
    assert err.value.stage == "linear_powerflow"


# Generated feeders (seed, buses, bus list reversed) whose LPs are factored
# leaves first: 200-5000 buses, and one with the slack bus listed last; and
# the fixtures and small feeders of ``SMALL_FEEDERS``.
TREE_LP_FEEDERS = [*SMALL_FEEDERS, (5, 200, False), (5, 800, False), (5, 2000, False),
                   (5, 5000, False), (11, 500, True)]


@pytest.mark.parametrize("seed,n_buses,reverse", TREE_LP_FEEDERS)
def test_leaves_first_lp_matches_colamd(seed, n_buses, reverse, request, monkeypatch):
    """The LP's square columns factored leaves first give x0 and N within a
    relative 1e-12 of the same columns kept in column order and factored in
    COLAMD's order (``colamd_in_model_order``), and ``run_opts`` picks the
    same taps either way."""
    model = small_or_generated(seed, n_buses, reverse, request)
    config = tf.config_from_model(model)
    _, varmap = tf.build_lp(model, _base_constants(model), config)
    tree = tf.linflow.eliminate(varmap, "solve_lp")
    tree_taps = tf.run_opts(model, config).taps
    colamd_in_model_order(monkeypatch)
    layout = dataclasses.replace(varmap.layout, depth=np.zeros_like(varmap.layout.depth))
    colamd = tf.linflow.eliminate(dataclasses.replace(varmap, layout=layout), "solve_lp")
    for got, want in zip(tree, colamd):
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
    assert tree_taps == tf.run_opts(model, config).taps


@pytest.mark.parametrize("seed,n_buses,reverse", SMALL_FEEDERS)
def test_lp_columns_are_factored_leaves_first(seed, n_buses, reverse, request, monkeypatch):
    """``eliminate`` factors every column but the high window slacks, each
    at the depth of its bus (a v~ column's own, a flow's to-bus, a low
    slack's regulator secondary), deepest first and stable in column order,
    with no column ordering; the depths are counted down
    ``stamps_reference``'s own tree."""
    model = small_or_generated(seed, n_buses, reverse, request)
    _, varmap = tf.build_lp(model, _base_constants(model), tf.config_from_model(model))
    vsq, flow, slack = lp_columns(model, varmap)
    bus_of = {c: bus for (bus, _), c in vsq.items()}
    bus_of.update((c, key.split("->")[1]) for (key, _), cols in flow.items() for c in cols)
    bus_of.update((low, model.svrs[svx].to_bus) for (svx, _), (low, _) in slack.items())
    depth = stamps_reference.depths(model)
    order = sorted(sorted(bus_of), key=lambda c: -depth[bus_of[c]])
    factored = []

    def keeping(square, **kwargs):
        factored.append((square, kwargs))
        return splu(square, **kwargs)

    monkeypatch.setattr(tf.linflow, "splu", keeping)
    tf.linflow.eliminate(varmap, "solve_lp")
    ((square, kwargs),) = factored
    assert kwargs == {"permc_spec": "NATURAL"}
    assert (square != varmap.A[:, order]).nnz == 0


def _lines_reversed(model):
    """``model`` with its line list reversed, so its phase counts interleave."""
    return dataclasses.replace(model, lines=model.lines[::-1])


LP_FEEDERS = {**PARITY_FEEDERS,
              **{f"gen{seed}-{n}": (lambda _, seed=seed, n=n: bench_feeders().generate_feeder(seed, n))
                 for seed, n in ((0, 15), (1, 30), (2, 60), (3, 120), (4, 200), (5, 400))},
              "gen6-60-lines-reversed": lambda _: _lines_reversed(bench_feeders().generate_feeder(6, 60)),
              # Only 1-phase laterals: no line has two phases.
              "gen7-60-1ph": lambda _: bench_feeders().generate_feeder(7, 60, phase_mix=(1.0, 0.0, 0.0))}


@pytest.mark.parametrize("name", sorted(LP_FEEDERS))
def test_lp_matches_reference(name, request):
    """The per-line rows of constants hold the reference values, and
    ``build_lp`` on them gives the per-entry reference's LP byte for byte,
    for both constants modes."""
    model = LP_FEEDERS[name](request)
    base = tf.solve_zbus(model, tf.taps_to_ratios(model, tf.zero_taps(model)))
    assert base.converged
    config = tf.config_from_model(model)
    for mode in ("balanced", "from_solution"):
        if mode == "balanced":
            got, want = tf.constants_balanced(model), linflow_reference.constants_balanced(model)
        else:
            got = tf.constants_from_solution(model, base)
            want = linflow_reference.constants_from_solution(model, base)
        mask = got.layout.mask
        assert got.gamma.shape == (len(model.lines), 3, 3) and got.h.shape == got.l.shape == mask.shape
        for k, ln in enumerate(model.lines):
            key, q = f"{ln.from_bus}->{ln.to_bus}", np.flatnonzero(mask[k])
            assert tuple(PHASES[i] for i in q) == want.gamma[key].phases
            assert got.gamma[k][np.ix_(q, q)].tobytes() == want.gamma[key].array.tobytes(), (mode, key)
            assert got.h[k][q].tobytes() == want.h[key].values.real.tobytes(), (mode, key)
            assert got.l[k][q].tobytes() == want.l[key].values.tobytes(), (mode, key)
        # Off each line's phases the rows hold exact zeros.
        off = ~(mask[:, :, None] & mask[:, None, :])
        assert not got.gamma[off].any() and not got.h[~mask].any() and not got.l[~mask].any()
        lp, varmap = tf.build_lp(model, got, config)
        lp_ref, varmap_ref = linflow_reference.build_lp(model, want, config)
        assert lp.A.shape == lp_ref.A.shape
        for a, b in [(getattr(lp.A, f), getattr(lp_ref.A, f)) for f in ("indptr", "indices", "data")] + \
                    [(getattr(lp, f), getattr(lp_ref, f)) for f in ("b", "c", "lower", "upper")]:
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), mode
        assert lp_columns(model, varmap) == (varmap_ref.vsq, varmap_ref.flow, varmap_ref.slack_cols)


def _windows(model):
    return [sv.ratio_range() for sv in model.svrs for _ in sv.phases]


def _base_constants(model):
    base = tf.solve_zbus(model, tf.taps_to_ratios(model, tf.zero_taps(model)))
    assert base.converged
    return tf.constants_from_solution(model, base)


TRIPLET_FEEDERS = {
    "ieee13": lambda request: request.getfixturevalue("ieee13"),
    "tiny3": lambda request: request.getfixturevalue("tiny3"),
    **{f"gen8-60-{s}ph": (lambda _, mix=mix: bench_feeders().generate_feeder(8, 60, phase_mix=mix))
       for s, mix in ((1, (1.0, 0.0, 0.0)), (2, (0.0, 1.0, 0.0)), (3, (0.0, 0.0, 1.0)))},
}


@pytest.mark.parametrize("name", sorted(TRIPLET_FEEDERS))
def test_linear_system_triplets_are_distinct(name, request, monkeypatch):
    """No (row, column) repeats among ``linear_system``'s kept triplets, so
    their order cannot change A: the line rows may be placed in any order."""
    model = TRIPLET_FEEDERS[name](request)
    constants, seen = _base_constants(model), []
    coo = sp.coo_matrix

    def recording(arg, **kwargs):
        seen.append(arg[1])
        return coo(arg, **kwargs)

    monkeypatch.setattr(tf.linflow.sp, "coo_matrix", recording)
    tf.linflow.linear_system(constants, _windows(model))
    (rows, cols), = seen
    assert len(set(zip(rows.tolist(), cols.tolist()))) == len(rows) > 0


def _three_phase_sets(model):
    """``model`` with every 1-phase bus, load and line on phase a and every
    2-phase one on phases a and b: the same sizes, three phase sets."""
    on = {1: ("a",), 2: ("a", "b"), 3: ("a", "b", "c")}

    def vec(v):
        return v and tf.PhaseVector(on[len(v.phases)], v.values)

    def mat(m):
        return m and tf.PhaseMatrix(on[len(m.phases)], m.array)

    return dataclasses.replace(
        model, lines=tuple(dataclasses.replace(ln, z=mat(ln.z)) for ln in model.lines),
        buses=tuple(dataclasses.replace(b, phases=on[len(b.phases)], load=vec(b.load),
                                        shunt=mat(b.shunt)) for b in model.buses))


def _line_calls(model) -> int:
    """cProfile's count of the Python calls of ``build_stamps``,
    ``constants_from_solution`` and ``linear_system``, after one warm-up."""
    base = tf.solve_zbus(model, tf.taps_to_ratios(model, tf.zero_taps(model)))

    def run():
        tf.ybus.build_stamps(model)
        tf.linflow.linear_system(tf.constants_from_solution(model, base), _windows(model))

    run()
    profile = cProfile.Profile()
    profile.runcall(run)
    return pstats.Stats(profile).total_calls


@pytest.mark.parametrize("seed", [3, 9])
def test_line_work_does_not_grow_with_the_phase_sets(seed):
    """The line rows, stamps and constants run per line or per phase count,
    never per phase set: a feeder whose lines span all seven phase sets
    costs as many Python calls as a copy with three. The counts may differ
    by the scatter plan's summand ranks (a call or two each), not by a
    loop per phase set (about 500 calls on these feeders)."""
    model = bench_feeders().generate_feeder(seed, 60)
    relabelled = _three_phase_sets(model)
    assert not tf.validate(relabelled)
    assert len({ln.z.phases for ln in model.lines}) == 7
    assert len({ln.z.phases for ln in relabelled.lines}) == 3
    assert [len(ln.z.phases) for ln in relabelled.lines] == [len(ln.z.phases) for ln in model.lines]
    assert abs(_line_calls(model) - _line_calls(relabelled)) <= 20


def test_linear_powerflow_rejects_a_wrong_number_of_ratio_maps(ieee13):
    ratios = tf.taps_to_ratios(ieee13, tf.zero_taps(ieee13))
    constants = tf.constants_balanced(ieee13)
    for wrong in ([], ratios * 2):
        with pytest.raises(ValueError, match=f"{len(wrong)} ratio maps for 1 regulators"):
            tf.linear_powerflow(ieee13, constants, wrong)


def test_linear_powerflow_rejects_a_missing_phase(ieee13):
    ratios = tf.taps_to_ratios(ieee13, tf.zero_taps(ieee13))
    del ratios[0]["b"]
    with pytest.raises(ValueError, match=r"svr 650->RG60: no ratio for phase\(s\) \['b'\]"):
        tf.linear_powerflow(ieee13, tf.constants_balanced(ieee13), ratios)
