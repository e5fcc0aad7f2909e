"""Acceptance suite: one test per release criterion, tolerances pinned inline.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per criterion.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

import tapflow as tf

from conftest import chain_model, lp_columns
from lp_oracle import enumerate_lp, random_lp
import stamps_reference


@contextmanager
def criterion(num: int, summary: str):
    try:
        yield
    except BaseException:
        print(f"[criterion {num}] FAIL - {summary}")
        raise
    print(f"[criterion {num}] PASS - {summary}")


def zero_tap_ratios(model):
    return tf.taps_to_ratios(model, tf.zero_taps(model))


# ---------------------------------------------------------------------------

def test_criterion_1_linear_vs_exact_comparison(ieee13):
    with criterion(1, "linear-vs-exact voltage comparison on IEEE-13"):
        t0 = time.perf_counter()
        ratios = zero_tap_ratios(ieee13)
        exact = tf.solve_zbus(ieee13, ratios)
        assert exact.converged
        v_sq, _ = tf.linear_powerflow(ieee13, tf.constants_balanced(ieee13), ratios)
        rep = tf.lindiff(exact, v_sq)
        elapsed = time.perf_counter() - t0

        for phase in ("a", "b", "c"):
            assert rep.max_diff[phase] <= 0.015, (phase, rep.max_diff)
        assert rep.min_exact == pytest.approx(0.88, abs=0.01)
        assert rep.min_lin == pytest.approx(0.89, abs=0.01)
        assert rep.min_lin >= rep.min_exact
        assert elapsed < 2.0


def test_criterion_2_verified_tap_selection(ieee13):
    with criterion(2, "verified tap selection metrics on IEEE-13"):
        t0 = time.perf_counter()
        cfg = tf.config_from_model(ieee13)
        assert cfg.v_min == 0.93 and (cfg.v_min_verify, cfg.v_max_verify) == (0.9, 1.1)
        report = tf.run_opts(ieee13, cfg)

        base = tf.solve_zbus(ieee13, zero_tap_ratios(ieee13))
        c_zero = tf.import_objective(base, ieee13)
        zero_feasible = tf.feasibility(base, ieee13, 0.9, 1.1)
        elapsed = time.perf_counter() - t0

        assert report.objective_verified == pytest.approx(0.7176, rel=0.01)
        assert report.v_envelope[0] == pytest.approx(0.92, abs=0.015)
        assert report.v_envelope[1] == pytest.approx(1.04, abs=0.015)
        assert report.feasible
        assert report.unbalance == pytest.approx(4.15, abs=0.5)
        assert c_zero == pytest.approx(0.7198, rel=0.01)
        assert not zero_feasible
        assert elapsed < 5.0


def test_criterion_3_recovered_taps(ieee13):
    with criterion(3, "recovered regulator taps on IEEE-13"):
        report = tf.run_opts(ieee13, tf.config_from_model(ieee13))
        taps = report.taps[0]
        reference = {"a": 4, "b": -8, "c": 7}
        if taps != reference:
            for p in "abc":
                assert abs(taps[p] - reference[p]) <= 2, (p, taps)
            assert report.objective_verified == pytest.approx(0.7176, rel=0.01)


def test_criterion_4_gap_arithmetic():
    with criterion(4, "optimality-gap arithmetic"):
        assert tf.optimality_gap(0.7176, 0.7141) == pytest.approx(0.49, abs=0.01)
        assert tf.optimality_gap(0.4206, 0.4161) == pytest.approx(1.08, abs=0.01)


def test_criterion_5_oracle_equivalence():
    with criterion(5, "tap selection within 0.5% of the exhaustive oracle"):
        t0 = time.perf_counter()
        feeders = [
            chain_model([0.45 + 0.2j], z_per_edge=0.02 + 0.10j, svr_kind="B",
                        v_min=0.93),
            chain_model([0.25 + 0.1j, 0.2 + 0.08j], z_per_edge=0.015 + 0.06j,
                        svr_kind="B", v_min=0.93),
            chain_model([0.5 + 0.22j], z_per_edge=0.02 + 0.12j, svr_kind="A",
                        v_min=0.93),
        ]
        for model in feeders:
            cfg = tf.config_from_model(model)
            oracle = tf.brute_force(model, cfg)
            sol = tf.solve_zbus(model, tf.taps_to_ratios(model, oracle.taps))
            assert sol.converged
            assert tf.feasibility(sol, model, cfg.v_min_verify, cfg.v_max_verify)
            report = tf.run_opts(model, cfg)
            assert report.objective_verified <= oracle.objective * 1.005
        assert time.perf_counter() - t0 < 10.0


def test_criterion_6_nonlinear_solution_certificates(ieee13, tiny3):
    with criterion(6, "KCL and objective-equivalence certificates"):
        cases = [
            (ieee13, [{p: 1.0 for p in "abc"}]),
            (ieee13, [{"a": 0.98125, "b": 1.0375, "c": 0.9625}]),
            (ieee13, [{"a": 0.975, "b": 1.05, "c": 0.95625}]),
            (tiny3, [{"a": 1.0}]),
            (tiny3, [{"a": 0.9875}]),
            (tiny3, [{"a": 1.1}]),
        ]
        for model, ratios in cases:
            sol = tf.solve_zbus(model, ratios)
            assert sol.converged
            assert tf.kcl_certificate(sol, model) <= 1e-8
            adm = tf.import_objective(sol, model)
            edge = tf.import_objective_edges(sol, model)
            assert abs(adm - edge) <= 1e-10


def test_criterion_7_linearization_point_exactness(ieee13, tiny3):
    with criterion(7, "exactness of the linear model at its linearization point"):
        rng = np.random.default_rng(2024)
        for model in (ieee13, tiny3):
            for _ in range(3):
                ratios = [
                    {p: float(rng.uniform(*sv.ratio_range())) for p in sv.phases}
                    for sv in model.svrs
                ]
                sol = tf.solve_zbus(model, ratios, tol=1e-12)
                assert sol.converged
                const = tf.constants_from_solution(sol)
                v_sq, _ = tf.linear_powerflow(model, const, ratios)
                err = np.abs(v_sq - np.abs(sol.v) ** 2)
                assert err.max() <= 1e-8, sol.system.stamps.full_coords[err.argmax()]


def test_criterion_8_lp_solver_suite():
    with criterion(8, "simplex agrees with the vertex-enumeration oracle"):
        rng = np.random.default_rng(20240811)
        for _ in range(50):
            lp = random_lp(rng)
            want_status, want_obj = enumerate_lp(lp)
            sol = tf.solve_lp(lp)
            sol2 = tf.solve_lp(lp)
            assert sol.status == want_status == sol2.status
            assert np.array_equal(sol.x, sol2.x)
            if want_status == "optimal":
                assert sol.objective == pytest.approx(want_obj, abs=1e-7)


def test_criterion_9_roundtrip_and_relaxation(ieee13, tiny3):
    with criterion(9, "tap round-trip, ratio-window membership, SVR balance"):
        for kind in ("A", "B"):
            sv = tf.SvrSpec("x", "y", kind=kind)
            for t in range(-16, 17):
                assert sv.tap(sv.ratio(t)) == t

        rng = np.random.default_rng(5)
        for _ in range(1000):
            r = rng.uniform(0.9, 1.1)
            v_dn = rng.uniform(0.5, 1.5)
            v_up = r * r * v_dn
            assert 0.81 * v_dn - 1e-12 <= v_up <= 1.21 * v_dn + 1e-12
            assert 0.9 - 1e-9 <= np.sqrt(v_up / v_dn) <= 1.1 + 1e-9

        for model in (ieee13, tiny3):
            cfg = tf.config_from_model(model)
            base = tf.solve_zbus(model, zero_tap_ratios(model))
            const = tf.constants_from_solution(base)
            lp, varmap = tf.build_lp(model, const, cfg)
            sol = tf.solve_lp_lexicographic(lp, varmap)
            assert sol.status == "optimal"
            idx = stamps_reference.tree_index(model)
            _, flow, _ = lp_columns(model, varmap)
            for svx, sv in enumerate(model.svrs):
                child = idx.children[sv.to_bus][0]
                for p in sv.phases:
                    re_s, im_s = flow[(f"{sv.from_bus}->{sv.to_bus}", p)]
                    re_c, im_c = flow[(child.key(), p)]
                    assert abs(sol.x[re_s] - sol.x[re_c]) <= 1e-7
                    assert abs(sol.x[im_s] - sol.x[im_c]) <= 1e-7
