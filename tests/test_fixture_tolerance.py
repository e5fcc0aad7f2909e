"""The fixtures' answers, pinned to a stated tolerance.

The values below were recorded with Y in model order and both sparse
factorizations, Y's and the LP's, in COLAMD's order. Y and the LP are now
factored leaves first at every size, which moves IEEE-13's numbers in their
last digits and leaves tiny3's bits as they were. gen30's values were
recorded with the leaves-first factorizations. The stated tolerance:
taps and counts equal, every number within 1e-10 absolute, and the verified
import within 1e-12 relative.
"""

import dataclasses

import pytest

import tapflow as tf

from conftest import FIXTURES

ABS_TOL = 1e-10
IMPORT_REL_TOL = 1e-12

# Per fixture: run_opts' taps, LP and verified objectives, envelope and
# unbalance; lindiff's max |v_lin - v_exact| per phase, min v_lin and min
# v_exact, with balanced constants and with constants from the zero-tap
# solution; brute_force's taps, objective and (evaluated, feasible) counts,
# for IEEE-13 on the window 12..16 of every regulator phase, which holds the
# full grid's optimum (35,937 combinations, the same bits). gen30 is
# generate_feeder(5, 30) with both regulators on taps -1..1: a type-B head
# regulator and a type-A mid-feeder one, whose taps move Y.
RECORDED = {
    "tiny3": {
        "opts": ([{"a": 2}], 0.6628958151476876, 0.6625113062467821,
                 (0.9333873731512725, 1.0126582278481011), 0.0),
        "lindiff": {"balanced": ({"a": 0.009072681761163826}, 0.9284395510748128, 0.919366869313649),
                    "base": ({"a": 4.1553760432577747e-11}, 0.9193668692720952, 0.919366869313649)},
        "bruteforce": ([{"a": 14}], 0.6603861572325406, (33, 17)),
    },
    "ieee13": {
        "opts": ([{"a": 2, "b": -6, "c": 6}], 0.7203711858294526, 0.7187952160261162,
                 (0.9236876790930875, 1.0389610389610386), 4.109085176816766),
        "lindiff": {
            "balanced": ({"a": 0.008373670232825647, "b": 0.006011072655423999, "c": 0.012473694193822382},
                         0.8983379656442446, 0.8858642714504222),
            "base": ({"a": 5.3254956000614584e-11, "b": 1.9524826200267853e-11,
                      "c": 5.2855164689447065e-11},
                     0.8858642713975671, 0.8858642714504222)},
        "bruteforce": ([{"a": 14, "b": 13, "c": 14}], 0.7142790613732702, (125, 18)),
    },
    "gen30": {
        "opts": ([{"a": -1, "b": -1, "c": -1}, {"a": -1, "b": -1, "c": -1}],
                 0.7116908543455134, 0.7118705724914123,
                 (0.9382485129877082, 0.9937888198757763), 2.481132044707733),
        "lindiff": {
            "balanced": ({"a": 0.0005502265258863215, "b": 0.004097712125425201,
                          "c": 0.0006323526249750744},
                         0.9491992936524257, 0.9451015815270005),
            "base": ({"a": 1.9559909247846008e-12, "b": 2.736566528938056e-11,
                      "c": 1.4538703574373812e-11},
                     0.945101581499635, 0.9451015815270005)},
        "bruteforce": ([{"a": 1, "b": 1, "c": 1}, {"a": 1, "b": 1, "c": 1}], 0.7115134371294579,
                       (729, 729)),
    },
}


def _close(got, want):
    assert got == pytest.approx(want, rel=0, abs=ABS_TOL)


@pytest.mark.parametrize("name", sorted(RECORDED))
def test_fixture_answers_within_stated_tolerance(name):
    model = tf.parse_feeder((FIXTURES / f"{name}.json").read_text(encoding="utf-8"))
    want = RECORDED[name]
    config = tf.config_from_model(model)

    taps, objective_lp, objective_verified, envelope, unbalance = want["opts"]
    report = tf.run_opts(model, config)
    assert report.taps == taps and report.feasible
    _close(report.objective_lp, objective_lp)
    _close(report.objective_verified, objective_verified)
    assert report.objective_verified == pytest.approx(objective_verified, rel=IMPORT_REL_TOL, abs=0)
    _close(report.v_envelope, envelope)
    _close(report.unbalance, unbalance)

    ratios = tf.taps_to_ratios(model, tf.zero_taps(model))
    exact = tf.solve_zbus(model, ratios)
    for mode, constants in (("balanced", tf.constants_balanced(model)),
                            ("base", tf.constants_from_solution(exact))):
        max_diff, min_lin, min_exact = want["lindiff"][mode]
        v_sq, _ = tf.linear_powerflow(model, constants, ratios)
        got = tf.lindiff(exact, v_sq)
        assert got.max_diff.keys() == max_diff.keys()
        _close(got.max_diff, max_diff)
        _close((got.min_lin, got.min_exact), (min_lin, min_exact))

    taps, objective, counts = want["bruteforce"]
    if name == "ieee13":
        model = dataclasses.replace(model, svrs=tuple(
            dataclasses.replace(sv, tap_min=12, tap_max=16) for sv in model.svrs))
    result = tf.brute_force(model, config)
    assert result.taps == taps and (result.evaluated, result.feasible_count) == counts
    _close(result.objective, objective)
