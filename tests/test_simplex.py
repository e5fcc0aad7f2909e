import json
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

import tapflow as tf
from tapflow import linflow, opts, simplex

from conftest import cascade_model, colamd_in_model_order
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


# Condensed tap-LP dual (3 significant digits) of a 200-bus generated feeder
# with a zero right-hand side: every pivot is degenerate. Bland's rule with
# ratio ties broken by row position revisits a basis here and never ends.
_CYCLING_G = [
    [0.876, -0.0194, -0.00356, -0.0344, 0.0136, 0.00249],
    [-0.0179, -0.00257, 0.876, 0.0126, 0.00179, -0.035],
    [-0.00413, -0.000624, 0.838, 0.0029, 0.000436, -0.00813],
    [-0.00475, 0.868, -0.0136, 0.00333, -0.029, 0.00954],
    [0.838, -0.00455, -0.000822, -0.00799, 0.0032, 0.000576],
    [-0.00133, 0.838, -0.00386, 0.000934, -0.00826, 0.00271],
    [-0.0258, -0.00364, 1.07, 0.0192, 0.00271, -1.05],
    [1.07, -0.0278, -0.00514, -1.05, 0.0207, 0.00384],
    [-0.878, 0.0203, 0.00372, 0.0366, -0.0145, -0.00265],
    [0.0061, -0.879, 0.0174, -0.00436, 0.0378, -0.0125],
    [0.0187, 0.00267, -0.879, -0.0134, -0.0019, 0.0372],
    [0.00739, -1.06, 0.0211, -0.00527, 1.05, -0.0151],
    [0.0226, 0.00323, -1.06, -0.0162, -0.0023, 1.05],
    [-0.866, 0.0159, 0.0029, 0.028, -0.0111, -0.00203],
    [0.00475, -0.868, 0.0136, -0.00333, 0.029, -0.00954],
    [0.0146, 0.00212, -0.867, -0.0102, -0.00148, 0.0285],
    [-1.07, 0.0284, 0.00523, 1.05, -0.0212, -0.00394],
]
_CYCLING_H = [0.472, 0.45, 0.407, 0.438, 0.41, 0.395, 0.308, 0.339, -0.075, -0.0154,
              -0.0521, 0.152, 0.107, -0.0777, -0.0371, -0.0586, 0.0585]


def _cycling_lp():
    G = np.array(_CYCLING_G)
    return make_lp(G.T, np.zeros(G.shape[1]), _CYCLING_H, np.zeros(len(_CYCLING_H)),
                   np.full(len(_CYCLING_H), np.inf))


def test_bland_ties_leave_by_smallest_basic_index():
    """The degenerate condensed dual that cycled under row-position tie
    breaking ends optimal; its duals satisfy the primal rows G y <= h."""
    lp = _cycling_lp()
    sol = tf.solve_lp(lp, max_iter=2000)
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(0.0, abs=1e-12)
    assert np.all(np.array(_CYCLING_G) @ sol.duals <= np.array(_CYCLING_H) + 1e-9)


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


def test_ieee13_pass1_matches_recorded(ieee13, monkeypatch):
    """Pass 1 on the IEEE-13 LP makes as many pivots and lands on the same bits
    as the row-by-row pivot loop did when ieee13_lp_pass1.json was recorded
    (exact equality assumes the same BLAS kernels). The LP's constants come
    from the zero-tap base solve with Y in model order and factored in
    COLAMD's order, as at the recording."""
    ref = json.loads((Path(__file__).parent / "ieee13_lp_pass1.json").read_text())
    colamd_in_model_order(monkeypatch)
    base = tf.solve_zbus(ieee13, tf.taps_to_ratios(ieee13, tf.zero_taps(ieee13)))
    lp, _ = tf.build_lp(ieee13, tf.constants_from_solution(ieee13, base),
                        tf.config_from_model(ieee13))
    sol = tf.solve_lp(lp)
    assert sol.status == ref["status"]
    assert sol.iterations == ref["iterations"]
    assert np.array_equal(sol.x, np.array(ref["x"]))


def _condensed_duals(lp, varmap):
    """Both lexicographic passes' dual LPs, as solve_lp_lexicographic builds them."""
    duals = []

    def record(dual, **kwargs):
        duals.append(dual)
        return tf.solve_lp(dual, **kwargs)

    mp = pytest.MonkeyPatch()
    mp.setattr(opts, "solve_lp", record)
    try:
        tf.solve_lp_lexicographic(lp, varmap)
    finally:
        mp.undo()
    return duals


def _cascade_lp(shunt_y):
    model = cascade_model(shunt_y=shunt_y)
    base = tf.solve_zbus(model, tf.taps_to_ratios(model, tf.zero_taps(model)))
    return tf.build_lp(model, tf.constants_from_solution(model, base),
                       tf.config_from_model(model))


@pytest.mark.parametrize("degen_streak", [simplex._DEGEN_STREAK, 0])
def test_vectorized_pivots_match_loop_reference(monkeypatch, ieee13_lp, degen_streak):
    """The vectorized tableau pivots exactly like the loop version, duals
    included, under Dantzig and under Bland pricing: on random LPs, the full
    IEEE-13 LP, the condensed duals of IEEE-13 and of a lossy feeder, and a
    degenerate LP that needs the Bland leaving rule."""
    rng = np.random.default_rng(5)
    cases = [random_lp(rng) for _ in range(40)]
    cases += [ieee13_lp[0], _cycling_lp(), *_condensed_duals(*ieee13_lp),
              *_condensed_duals(*_cascade_lp(0.01 + 0.03j))]
    monkeypatch.setattr(simplex, "_DEGEN_STREAK", degen_streak)

    got = [tf.solve_lp(lp) for lp in cases]
    monkeypatch.setattr(simplex, "_Tableau", LoopTableau)
    want = [tf.solve_lp(lp) for lp in cases]
    for g, w in zip(got, want):
        assert (g.status, g.iterations) == (w.status, w.iterations)
        assert np.array_equal(g.x, w.x)
        assert g.objective == w.objective
        assert (g.duals is None) == (w.duals is None)
        assert g.duals is None or np.array_equal(g.duals, w.duals)


def test_condensed_solve_stacks_no_sparse_matrix(monkeypatch, ieee13_lp):
    """The tableau is dense: once the condensed dual's ``SparseLp`` exists,
    a solve builds no sparse matrix, and gives the duals of an unpatched solve."""
    duals = _condensed_duals(*ieee13_lp)
    want = [tf.solve_lp(lp) for lp in duals]

    def refuse(*args, **kwargs):
        raise AssertionError("the solve built a sparse matrix")

    for name in ("csc_matrix", "csr_matrix", "coo_matrix", "hstack", "diags"):
        monkeypatch.setattr(sp, name, refuse)
    for lp, w in zip(duals, want):
        g = tf.solve_lp(lp)
        assert (g.status, g.iterations) == (w.status, w.iterations)
        assert g.duals.tobytes() == w.duals.tobytes()


@pytest.mark.parametrize("m", [1, 2, 3, 9])
def test_tableau_products_sum_in_sparse_order(m):
    """The dense tableau's products carry the bits of A's sparse products:
    pricing those of c - csr(A^T) y, ``recompute_basics`` those of
    B^-1 (b - csc(A) x_N). Every structural sits at a nonzero bound, and a
    one-row A has at least 9 nonbasic columns with nonzero entries, enough
    for numpy's pairwise sum to part from a column-by-column one."""
    rng = np.random.default_rng(m)
    for _ in range(25):
        n = int(rng.integers(m + 20, 2 * m + 30))
        A = rng.normal(size=(m, n)) * (rng.random((m, n)) < 0.8)
        lower, upper = -rng.uniform(0.5, 2.0, n), rng.uniform(0.5, 2.0, n)
        lp = make_lp(A, rng.normal(size=m), rng.normal(size=n), lower, upper)
        tab = simplex._Tableau(lp)
        tab.x[:n] = np.where(rng.random(n) < 0.5, lower, upper)
        tab.basis = rng.choice(n + m, m, replace=False)
        while not tab.refactor():
            tab.basis = rng.choice(n + m, m, replace=False)
        nonbasic = np.setdiff1d(np.arange(n), tab.basis)
        assert m > 1 or np.count_nonzero(A[0, nonbasic]) >= 9

        cost = rng.normal(size=n + m)
        y = tab.binv.T @ cost[tab.basis]
        want = cost - sp.csr_matrix(tab.AT) @ y
        assert tab.reduced_costs(cost).tobytes() == want.tobytes()

        xn = tab.x.copy()
        xn[tab.basis] = 0.0
        want = tab.binv @ (tab.b - sp.csc_matrix(tab.A) @ xn)
        tab.recompute_basics()
        assert tab.x[tab.basis].tobytes() == want.tobytes()


def test_tie_break_fallback_keeps_pass1_point(monkeypatch):
    """Pass 2 cut off by the pivot budget is reported, and pass 1's point
    returned (an injecting shunt, so the two passes end at different points)."""
    lp, varmap = _cascade_lp(-0.01 + 0.03j)
    full, import_value = tf.solve_lp_lexicographic(lp, varmap)
    assert full.status == "optimal" and full.tie_break == "optimal"

    passes = []

    def capped(dual, max_iter=20000):
        passes.append(tf.solve_lp(dual, max_iter=max_iter if not passes else 0))
        return passes[-1]

    monkeypatch.setattr(opts, "solve_lp", capped)
    cut, cut_value = tf.solve_lp_lexicographic(lp, varmap)
    assert len(passes) == 2 and passes[1].status == "iteration_limit"
    assert cut.status == "optimal" and cut.tie_break == "iteration_limit"
    assert cut.objective == cut_value == full.objective == import_value
    x0, N = linflow.eliminate(varmap, "solve_lp")
    assert np.array_equal(cut.x, x0 + N @ passes[0].duals)
    assert not np.array_equal(cut.x, full.x)
    assert cut.iterations == passes[0].iterations


def test_duals_solve_the_primal_of_the_dual():
    """An optimal solution's row duals are optimal for the LP's own dual:
    A^T y <= c on columns at a zero lower bound, and b.y equals c.x."""
    rng = np.random.default_rng(17)
    checked = 0
    for _ in range(40):
        m, n = int(rng.integers(1, 5)), int(rng.integers(2, 8))
        A = rng.integers(-3, 4, size=(m, n)).astype(float)
        A[:, 0] = 1.0                                  # no empty rows
        x_feas = rng.uniform(0.0, 2.0, size=n)
        lp = make_lp(A, A @ x_feas, rng.uniform(0.1, 3.0, size=n), np.zeros(n),
                     np.full(n, np.inf))
        sol = tf.solve_lp(lp)
        assert sol.status == "optimal"
        assert np.all(A.T @ sol.duals <= lp.c + 1e-9)
        assert lp.b @ sol.duals == pytest.approx(sol.objective, abs=1e-9)
        checked += 1
    assert checked == 40


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
