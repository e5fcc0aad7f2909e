import json
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

import tapflow as tf
from tapflow import simplex

from lp_oracle import enumerate_lp, random_lp
from lp_reference import LoopTableau


def make_lp(A, b, c, lower, upper):
    return tf.SparseLp(A=sp.csc_matrix(np.asarray(A, dtype=float)),
                       b=np.asarray(b, dtype=float), c=np.asarray(c, dtype=float),
                       lower=np.asarray(lower, dtype=float),
                       upper=np.asarray(upper, dtype=float))


def test_trivial_equality():
    lp = make_lp([[1.0]], [1.0], [1.0], [0.0], [2.0])
    sol = tf.solve_lp(lp)
    assert sol.status == "optimal"
    assert sol.x[0] == pytest.approx(1.0, abs=1e-9)
    assert sol.objective == pytest.approx(1.0, abs=1e-9)
    assert tf.residuals(lp, sol) == (pytest.approx(0.0, abs=1e-9),
                                     pytest.approx(0.0, abs=1e-12))


def test_unbounded_no_constraints():
    lp = tf.SparseLp(A=sp.csc_matrix((0, 1)), b=np.zeros(0), c=np.array([-1.0]),
                     lower=np.array([0.0]), upper=np.array([np.inf]))
    assert tf.solve_lp(lp).status == "unbounded"


def test_unbounded_with_constraint():
    # min -x - y  s.t.  x - y = 0, both >= 0: the ray x = y -> inf.
    lp = make_lp([[1.0, -1.0]], [0.0], [-1.0, -1.0], [0.0, 0.0],
                 [np.inf, np.inf])
    assert tf.solve_lp(lp).status == "unbounded"


def test_infeasible_box():
    lp = make_lp([[1.0, 1.0]], [5.0], [1.0, 1.0], [0.0, 0.0], [1.0, 1.0])
    assert tf.solve_lp(lp).status == "infeasible"


def test_bound_flip_path():
    # min -x1 - 2 x2  s.t. x1 + x2 = 1.5, boxes [0,1]: needs an upper-bound pin.
    lp = make_lp([[1.0, 1.0]], [1.5], [-1.0, -2.0], [0, 0], [1, 1])
    sol = tf.solve_lp(lp)
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(-2.5, abs=1e-9)
    assert sol.x[1] == pytest.approx(1.0, abs=1e-9)


def test_negative_lower_bounds():
    lp = make_lp([[1.0, 1.0]], [0.0], [1.0, 0.0], [-3.0, -1.0], [2.0, 1.0])
    sol = tf.solve_lp(lp)
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(-1.0, abs=1e-9)   # x = (-1, 1)


def test_free_variable():
    # min y  s.t.  y - x = 0, x in [-5, 5], y free.
    lp = make_lp([[-1.0, 1.0]], [0.0], [0.0, 1.0], [-5.0, -np.inf],
                 [5.0, np.inf])
    sol = tf.solve_lp(lp)
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(-5.0, abs=1e-9)


def test_beale_cycling_guard():
    """Beale's classic cycling instance terminates under the Bland fallback."""
    A = [[0.25, -60.0, -1.0 / 25.0, 9.0, 1.0, 0.0, 0.0],
         [0.5, -90.0, -1.0 / 50.0, 3.0, 0.0, 1.0, 0.0],
         [0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0]]
    b = [0.0, 0.0, 1.0]
    c = [-0.75, 150.0, -0.02, 6.0, 0.0, 0.0, 0.0]
    n = 7
    lp = make_lp(A, b, c, [0.0] * n, [np.inf] * n)
    sol = tf.solve_lp(lp)
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(-0.05, abs=1e-9)


def _check_random_corpus():
    rng = np.random.default_rng(20240811)
    optimal = infeasible = 0
    for _ in range(50):
        lp = random_lp(rng)
        want_status, want_obj = enumerate_lp(lp)
        sol = tf.solve_lp(lp)
        assert sol.status == want_status
        if want_status == "optimal":
            optimal += 1
            assert sol.objective == pytest.approx(want_obj, abs=1e-7)
            primal, bound = tf.residuals(lp, sol)
            assert primal <= 1e-7 and bound <= 1e-9
        else:
            infeasible += 1
    # The corpus must exercise both classifications.
    assert optimal >= 10 and infeasible >= 5


def test_random_lps_match_vertex_oracle():
    _check_random_corpus()


def test_random_lps_match_vertex_oracle_under_bland(monkeypatch):
    """Bland's rule from the first pivot still reaches every optimum."""
    monkeypatch.setattr(simplex, "_DEGEN_STREAK", 0)
    _check_random_corpus()


def _vsq_tie_break(lp, varmap):
    tie = np.zeros(lp.A.shape[1])
    tie[list(varmap.vsq.values())] = 1.0
    return tie


def test_ieee13_pass1_matches_recorded(ieee13_lp):
    """Pass 1 on the IEEE-13 LP makes as many pivots and lands on the same bits
    as the row-by-row pivot loop did when ieee13_lp_pass1.json was recorded
    (exact equality assumes the same BLAS kernels)."""
    ref = json.loads((Path(__file__).parent / "ieee13_lp_pass1.json").read_text())
    sol = tf.solve_lp(ieee13_lp[0])
    assert sol.status == ref["status"]
    assert sol.iterations == ref["iterations"]
    assert np.array_equal(sol.x, np.array(ref["x"]))


@pytest.mark.parametrize("degen_streak", [simplex._DEGEN_STREAK, 0])
def test_vectorized_pivots_match_loop_reference(monkeypatch, ieee13_lp, degen_streak):
    """The vectorized tableau pivots exactly like the loop version, tie-break
    pass included, under Dantzig and under Bland pricing."""
    monkeypatch.setattr(simplex, "_DEGEN_STREAK", degen_streak)
    rng = np.random.default_rng(5)
    cases = []
    for _ in range(40):
        lp = random_lp(rng)
        cases.append((lp, None))
        cases.append((lp, rng.integers(-2, 3, size=lp.A.shape[1]).astype(float)))
    lp13, varmap = ieee13_lp
    cases += [(lp13, None), (lp13, _vsq_tie_break(lp13, varmap))]

    got = [tf.solve_lp(lp, tie_break=tie) for lp, tie in cases]
    monkeypatch.setattr(simplex, "_Tableau", LoopTableau)
    want = [tf.solve_lp(lp, tie_break=tie) for lp, tie in cases]
    for g, w in zip(got, want):
        assert (g.status, g.iterations, g.tie_break) == (w.status, w.iterations, w.tie_break)
        assert np.array_equal(g.x, w.x)
        assert g.objective == w.objective


def test_tie_break_matches_vertex_oracle_on_optimal_face():
    """The tie-break pass stays on the optimal face of c.x and reaches the
    tie-break optimum over it, checked by enumerating the face's vertices."""
    rng = np.random.default_rng(31)
    checked = 0
    for _ in range(60):
        lp = random_lp(rng)
        tie = rng.integers(-3, 4, size=lp.A.shape[1]).astype(float)
        sol = tf.solve_lp(lp, tie_break=tie)
        if sol.status != "optimal" or not np.any(lp.c):
            continue
        assert sol.tie_break == "optimal"
        assert lp.c @ sol.x == pytest.approx(sol.objective, abs=1e-7)
        face = tf.SparseLp(A=sp.vstack([lp.A, sp.csc_matrix(lp.c)]),
                           b=np.append(lp.b, sol.objective), c=tie,
                           lower=lp.lower, upper=lp.upper)
        status, want = enumerate_lp(face)
        assert status == "optimal"
        assert tie @ sol.x == pytest.approx(want, abs=1e-7)
        checked += 1
    assert checked >= 15


def test_tie_break_fallback_keeps_pass1_point(ieee13_lp):
    """Pass 2 cut off by the pivot budget is reported, and pass 1's point returned."""
    lp, varmap = ieee13_lp
    tie = _vsq_tie_break(lp, varmap)
    first = tf.solve_lp(lp)
    full = tf.solve_lp(lp, tie_break=tie)
    assert first.tie_break is None
    assert full.status == "optimal" and full.tie_break == "optimal"
    assert full.iterations > first.iterations
    assert full.objective == first.objective
    cut = tf.solve_lp(lp, max_iter=first.iterations, tie_break=tie)
    assert cut.status == "optimal" and cut.tie_break == "iteration_limit"
    assert np.array_equal(cut.x, first.x)
    assert cut.objective == first.objective


def test_tie_break_without_rows():
    lp = tf.SparseLp(A=sp.csc_matrix((0, 3)), b=np.zeros(0), c=np.array([1.0, 0.0, 0.0]),
                     lower=np.zeros(3), upper=np.array([1.0, 2.0, np.inf]))
    sol = tf.solve_lp(lp, tie_break=np.array([5.0, -1.0, 1.0]))
    assert sol.tie_break == "optimal"
    assert np.array_equal(sol.x, [0.0, 2.0, 0.0])
    sol = tf.solve_lp(lp, tie_break=np.array([0.0, 0.0, -1.0]))
    assert sol.status == "optimal" and sol.tie_break == "unbounded"
    assert np.array_equal(sol.x, [0.0, 0.0, 0.0])


def test_determinism():
    rng = np.random.default_rng(7)
    lp = random_lp(rng)
    a = tf.solve_lp(lp)
    b = tf.solve_lp(lp)
    assert a.status == b.status and a.iterations == b.iterations
    assert np.array_equal(a.x, b.x)


def test_objective_scaling_keeps_argmin():
    rng = np.random.default_rng(99)
    while True:
        lp = random_lp(rng)
        sol = tf.solve_lp(lp)
        if sol.status == "optimal":
            break
    scaled = tf.SparseLp(A=lp.A, b=lp.b, c=5.0 * lp.c, lower=lp.lower,
                         upper=lp.upper)
    sol5 = tf.solve_lp(scaled)
    assert sol5.status == "optimal"
    assert np.array_equal(sol.x, sol5.x)
    assert sol5.objective == pytest.approx(5.0 * sol.objective, abs=1e-9)


def test_residuals_report_perturbation():
    lp = make_lp([[2.0]], [2.0], [1.0], [0.0], [5.0])
    sol = tf.solve_lp(lp)
    sol.x = sol.x + 0.5
    primal, bound = tf.residuals(lp, sol)
    assert primal == pytest.approx(1.0, abs=1e-12)   # row norm 2 * 0.5
    assert bound == pytest.approx(0.0, abs=1e-12)


def test_dimension_validation():
    with pytest.raises(ValueError):
        make_lp([[1.0, 0.0]], [1.0], [1.0], [0.0], [1.0])
    with pytest.raises(ValueError):
        make_lp([[1.0]], [1.0], [1.0], [2.0], [1.0])     # lower > upper
    with pytest.raises(ValueError):
        make_lp([[0.0]], [1.0], [1.0], [0.0], [1.0])     # empty row
