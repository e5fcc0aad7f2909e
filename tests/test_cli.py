import argparse
import contextlib
import copy
import dataclasses
import io
import json
import math
import os
import re
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import tapflow as tf
from tapflow import opts
from tapflow.cli import _build_parser, main
from tapflow.opts import OptsConfig

from conftest import FIXTURES, bench_feeders

IEEE13 = str(FIXTURES / "ieee13.json")
TINY3 = str(FIXTURES / "tiny3.json")


def run(args):
    return main(args)


def test_powerflow_writes_csv(tmp_path, capsys):
    out = tmp_path / "pf.csv"
    code = run(["powerflow", "--feeder", TINY3, "--taps", "0", "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "bus,phase,re,im,magnitude,angle_deg"
    assert len(lines) == 4


def test_powerflow_missing_file(capsys):
    assert run(["powerflow", "--feeder", "no-such-feeder.json"]) == 1
    assert "cannot read" in capsys.readouterr().err


def test_powerflow_bad_taps_arity(capsys):
    assert run(["powerflow", "--feeder", TINY3, "--taps", "1,2"]) == 1
    capsys.readouterr()
    assert run(["powerflow", "--feeder", TINY3, "--taps", "1;2"]) == 1
    assert "has 2 group(s)" in capsys.readouterr().err


def test_powerflow_ieee13_min_magnitude(tmp_path):
    out = tmp_path / "pf13.csv"
    assert run(["powerflow", "--feeder", IEEE13, "--taps", "0", "--out", str(out)]) == 0
    rows = [ln.split(",") for ln in out.read_text().strip().splitlines()[1:]]
    mags = [float(r[4]) for r in rows if r[0] != "650"]
    assert min(mags) == pytest.approx(0.88, abs=0.01)


def test_opts_json_report(tmp_path):
    out = tmp_path / "report.json"
    code = run(["opts", "--feeder", TINY3, "--out", str(out)])
    assert code == 0                        # verified profile feasible
    doc = json.loads(out.read_text())
    assert doc["feasible"] is True
    assert doc["svrs"][0]["taps"]["a"] == 2


def test_opts_csv_report(tmp_path):
    out = tmp_path / "report.csv"
    assert run(["opts", "--feeder", TINY3, "--format", "csv", "--out", str(out)]) == 0
    text = out.read_text()
    assert text.startswith("method,objective_lp")
    assert "svr,phases,taps" in text


def test_opts_feeder_without_svrs(tmp_path):
    feeder = tmp_path / "plain.json"
    feeder.write_text(json.dumps({
        "format": 1,
        "slack_voltage": {"phases": "a", "values": [[1.0, 0.0]]},
        "buses": [{"id": "s", "phases": "a", "is_slack": True},
                  {"id": "l", "phases": "a",
                   "load": {"phases": "a", "values": [[0.2, 0.1]]}}],
        "lines": [{"from": "s", "to": "l",
                   "z": {"phases": "a", "rows": [[[0.01, 0.04]]]}}],
        "svrs": [],
    }))
    out = tmp_path / "r.json"
    assert run(["opts", "--feeder", str(feeder), "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["svrs"] == [] and doc["feasible"] is True


@pytest.mark.parametrize("command", ["opts", "bruteforce", "lindiff"])
def test_slack_only_feeder_exit_1(tmp_path, capsys, command):
    """A feeder whose only bus is the slack is valid and solves, but has no
    voltage envelope to check, so the commands that need one stop with a
    message that says why."""
    feeder = tmp_path / "slack-only.json"
    feeder.write_text(json.dumps({
        "format": 1,
        "slack_voltage": {"phases": "a", "values": [[1.0, 0.0]]},
        "buses": [{"id": "s", "phases": "a", "is_slack": True}],
        "lines": [], "svrs": [],
    }))
    assert run(["validate", "--feeder", str(feeder)]) == 0
    assert run(["powerflow", "--feeder", str(feeder)]) == 0
    capsys.readouterr()
    assert run([command, "--feeder", str(feeder)]) == 1
    assert "no non-slack bus" in capsys.readouterr().err


def test_three_phase_slack_only_feeder(tmp_path, capsys):
    """On a three-phase feeder whose only bus is the slack, powerflow writes
    one CSV row per slack phase, and lindiff, with no non-slack bus to
    compare, stops with exit 1 and opts' message, before the linear model
    runs."""
    feeder = tmp_path / "slack-only-abc.json"
    feeder.write_text(json.dumps({
        "format": 1,
        "slack_voltage": {"phases": "abc", "values": [[1.0, 0.0], [-0.5, -0.75], [-0.5, 0.75]]},
        "buses": [{"id": "s", "phases": "abc", "is_slack": True}],
        "lines": [], "svrs": [],
    }))
    assert run(["powerflow", "--feeder", str(feeder)]) == 0
    assert capsys.readouterr().out == ("bus,phase,re,im,magnitude,angle_deg\n"
                                       "s,a,1,0,1,0\n"
                                       "s,b,-0.5,-0.75,0.901387818866,-123.690067526\n"
                                       "s,c,-0.5,0.75,0.901387818866,123.690067526\n")
    assert run(["lindiff", "--feeder", str(feeder)]) == 1
    assert capsys.readouterr() == ("", "no voltage envelope: the feeder has no non-slack bus\n")


def test_opts_infeasible_exit_code(tmp_path):
    # Verification band (feeder config) tighter than any tap can satisfy.
    doc = json.loads((FIXTURES / "tiny3.json").read_text())
    doc["config"]["v_min_verify"] = 0.999
    feeder = tmp_path / "strict.json"
    feeder.write_text(json.dumps(doc))
    out = tmp_path / "r.json"
    assert run(["opts", "--feeder", str(feeder), "--out", str(out)]) == 3
    assert json.loads(out.read_text())["feasible"] is False


def test_opts_gap_populated(tmp_path):
    bf_out = tmp_path / "bf.json"
    assert run(["bruteforce", "--feeder", TINY3, "--out", str(bf_out)]) == 0
    best = json.loads(bf_out.read_text())["objective"]
    out = tmp_path / "r.json"
    assert run(["opts", "--feeder", TINY3, "--lower-bound", str(best),
                "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["gap_percent"] == pytest.approx(0.32, abs=0.1)


@pytest.mark.parametrize("command, message", [("powerflow", "did not converge"),
                                              ("opts", "[base_powerflow]"),
                                              ("lindiff", "exact power flow did not converge")])
def test_overflowing_power_flow_exit_2(tmp_path, capsys, command, message):
    """A solve whose iterate overflows is reported unconverged, not as bad input."""
    doc = json.loads((FIXTURES / "tiny3.json").read_text())
    doc["buses"][2]["load"]["values"] = [[0.65e307, 0.35e307]]
    feeder = tmp_path / "huge-load.json"
    feeder.write_text(json.dumps(doc))
    assert run([command, "--feeder", str(feeder)]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("command", ["powerflow", "opts", "bruteforce", "lindiff"])
def test_singular_admittance_matrix_exit_2(tmp_path, capsys, command):
    """A shunt of -1/z at the end of tiny3's line, of impedance z, cancels
    the line's admittance: Y is exactly singular, a numeric failure."""
    doc = json.loads((FIXTURES / "tiny3.json").read_text())
    y = -1.0 / complex(*doc["lines"][0]["z"]["rows"][0][0])
    doc["buses"][2]["shunt"] = {"phases": "a", "rows": [[[y.real, y.imag]]]}
    feeder = tmp_path / "singular.json"
    feeder.write_text(json.dumps(doc))
    assert run([command, "--feeder", str(feeder)]) == 2
    assert capsys.readouterr().err.startswith("[powerflow] admittance matrix is singular: ")


def test_unconverged_verify_exit_2(tmp_path, capsys):
    """The generated feeder's solve at the LP's taps needs one step more than
    its zero-tap solve (``test_opts``), so a cap between them fails only the
    verification."""
    feeder = tmp_path / "gen0-60.json"
    feeder.write_text(tf.serialize(bench_feeders().generate_feeder(0, 60)))
    assert run(["opts", "--feeder", str(feeder), "--max-iter", "10"]) == 2
    assert capsys.readouterr().err == \
        "[verify_powerflow] power flow at snapped taps did not converge\n"


@pytest.mark.parametrize("bound", ["0", "-1", "nan", "inf"])
def test_opts_rejects_bad_lower_bound(tmp_path, capsys, monkeypatch, bound):
    """A gap against a bound that is not a positive finite number would be
    meaningless, and NaN would make the report invalid JSON. The bound is
    rejected before any power flow runs."""

    def no_solve(*args, **kwargs):
        raise AssertionError("solve_zbus ran before the lower bound was checked")

    monkeypatch.setattr(opts, "solve_zbus", no_solve)
    out = tmp_path / "r.json"
    assert run(["opts", "--feeder", TINY3, "--lower-bound", bound, "--out", str(out)]) == 1
    assert "lower bound must be positive and finite" in capsys.readouterr().err
    assert not out.exists()


def test_lindiff_csv(tmp_path):
    out = tmp_path / "ld.csv"
    assert run(["lindiff", "--feeder", IEEE13, "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "phase,max_abs_diff,min_v_linear,min_v_exact"
    diffs = {ln.split(",")[0]: float(ln.split(",")[1]) for ln in lines[1:4]}
    assert all(d <= 0.015 for d in diffs.values())


def test_lindiff_reads_feeder_constants_mode(tmp_path):
    """Flag > feeder config > lindiff's balanced default."""
    doc = json.loads((FIXTURES / "tiny3.json").read_text())
    doc["config"]["constants_mode"] = "from_zero_tap_solution"
    feeder = tmp_path / "base-mode.json"
    feeder.write_text(json.dumps(doc))
    outs = {name: tmp_path / f"{name}.csv" for name in ("config", "flag", "override")}
    assert run(["lindiff", "--feeder", str(feeder), "--out", str(outs["config"])]) == 0
    assert run(["lindiff", "--feeder", TINY3, "--constants", "base",
                "--out", str(outs["flag"])]) == 0
    assert run(["lindiff", "--feeder", str(feeder), "--constants", "balanced",
                "--out", str(outs["override"])]) == 0
    assert outs["config"].read_bytes() == outs["flag"].read_bytes()
    assert outs["override"].read_bytes() != outs["flag"].read_bytes()


def test_lindiff_base_constants_exact_at_zero_taps(tmp_path):
    """Constants from the zero-tap exact solution make the linear model exact there."""
    out = tmp_path / "ld.csv"
    for feeder in (IEEE13, TINY3):
        assert run(["lindiff", "--feeder", feeder, "--constants", "base",
                    "--out", str(out)]) == 0
        rows = [ln.split(",") for ln in out.read_text().strip().splitlines()[1:]]
        diffs = [float(r[1]) for r in rows if r[0] != "all"]
        assert diffs and max(diffs) <= 1e-8


@pytest.mark.parametrize("argv", [
    ["opts", "--feeder", TINY3, "--vmin", "abc"],
    ["opts", "--feeder", TINY3, "--no-such-flag"],
    [],
    ["powerflow", "--feeder", TINY3, "--format", "json"],
    ["lindiff", "--feeder", TINY3, "--vmin", "0.95"],
    ["bruteforce", "--feeder", TINY3, "--constants", "base"],
], ids=["bad-value", "unknown-flag", "no-subcommand", "powerflow-format",
        "lindiff-vmin", "bruteforce-constants"])
def test_usage_errors_exit_1(argv, capsys):
    assert run(argv) == 1
    assert "error:" in capsys.readouterr().err


def test_every_flag_is_read_by_its_subcommand():
    """Each subcommand accepts exactly the flags its handler reads."""
    subparsers = next(a for a in _build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    flags = {name: sorted(opt for a in p._actions if not isinstance(a, argparse._HelpAction)
                          for opt in a.option_strings)
             for name, p in subparsers.choices.items()}
    assert flags == {
        "powerflow": ["--feeder", "--max-iter", "--out", "--taps", "--tol"],
        "opts": ["--constants", "--feeder", "--format", "--lower-bound", "--max-iter",
                 "--out", "--tol", "--vmax", "--vmin"],
        "lindiff": ["--constants", "--feeder", "--max-iter", "--out", "--tol"],
        "bruteforce": ["--cap", "--feeder", "--format", "--max-iter", "--out", "--tol"],
        "validate": ["--feeder"],
    }
    assert sum(map(len, flags.values())) == 26
    assert [f.name for f in dataclasses.fields(OptsConfig)] == [
        "v_min", "v_max", "zbus_tol", "zbus_max_iter", "constants_mode",
        "v_min_verify", "v_max_verify"]


@pytest.mark.parametrize("config, flags, key", [
    ({"v_min": "0.9"}, [], "v_min"),
    ({"zbus_max_iter": 2.5}, [], "zbus_max_iter"),
    ({"zbus_tol": True}, [], "zbus_tol"),
    ({"vmin": 0.99}, [], "vmin"),
    ({"r_min": 0.9}, [], "r_min"),
    ({"zbus_tol": float("nan")}, [], "zbus_tol"),
    ({"zbus_tol": 0.0}, [], "zbus_tol"),
    ({"v_min_verify": float("nan")}, [], "v_min_verify"),
    ({}, ["--tol", "nan"], "zbus_tol"),
    ({"v_min_verify": 1.2, "v_max_verify": 0.8}, [], "v_min_verify"),
    ({"v_min_verify": 0.0}, [], "v_min_verify"),
    ({"v_min": 1.2}, [], "v_min"),
    ({"v_max": 1e308}, [], "v_max"),
    ({}, ["--vmax", "1e200"], "v_max"),
    ({"v_max": float("inf")}, [], "v_max"),
], ids=["string-band", "fractional-iter", "bool-tol", "typo", "removed-key", "nan-tol",
        "zero-tol", "nan-verify-band", "nan-tol-flag", "inverted-verify-band",
        "zero-verify-floor", "inverted-lp-band", "huge-lp-band", "huge-vmax-flag",
        "infinite-lp-band"])
def test_bad_feeder_config_exit_1(tmp_path, capsys, config, flags, key):
    doc = json.loads((FIXTURES / "tiny3.json").read_text())
    doc["config"].update(config)
    feeder = tmp_path / "bad-config.json"
    feeder.write_text(json.dumps(doc))
    assert run(["opts", "--feeder", str(feeder)] + flags) == 1
    assert repr(key) in capsys.readouterr().err
    if not flags:            # validate agrees with the solvers on the feeder's own config
        assert run(["validate", "--feeder", str(feeder)]) == 1
        out, err = capsys.readouterr()
        assert out == "" and repr(key) in err


@pytest.mark.parametrize("command", ["validate", "powerflow", "opts", "lindiff"])
def test_slack_voltage_without_a_finite_square_exit_1(tmp_path, capsys, command):
    """A slack voltage of 1e308 p.u. has no finite square, which the linear
    model needs: every subcommand refuses the feeder with a message and
    exit 1, as ``validate`` does, rather than an ``OverflowError``."""
    doc = json.loads((FIXTURES / "tiny3.json").read_text())
    doc["slack_voltage"]["values"] = [[1e308, 0.0]]
    feeder = tmp_path / "huge-slack.json"
    feeder.write_text(json.dumps(doc))
    assert run([command, "--feeder", str(feeder)]) == 1
    out, err = capsys.readouterr()
    assert "slack_voltage: [slack-voltage-square] magnitudes must have finite squares" in out + err


def test_opts_rejects_a_lower_bound_with_an_infinite_gap(capsys):
    """A bound of 1e-310 is positive and finite, but the gap over it is not,
    and the JSON report cannot carry an infinite gap."""
    assert run(["opts", "--feeder", TINY3, "--lower-bound", "1e-310", "--format", "json"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and "gap over lower bound 1e-310 is not finite" in err


def _no_constant(name):
    raise ValueError(f"{name} is not JSON")


EXTREMES = st.sampled_from([0.0, 5e-324, 1e-310, 1e200, 1e308, math.inf, -math.inf, math.nan,
                            -1.0, -1e200])
BAND_KEYS = ("v_min", "v_max", "v_min_verify", "v_max_verify", "zbus_tol")


@settings(derandomize=True, max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(drawn=st.dictionaries(st.sampled_from((*BAND_KEYS, "step", "lower_bound")), EXTREMES,
                             max_size=3))
@example(drawn={"v_max": 1e200})
@example(drawn={"step": 1e200})
@example(drawn={"lower_bound": 1e-310})
def test_opts_exits_through_its_codes_on_extreme_numbers(tmp_path_factory, drawn):
    """On tiny3 with extreme floats in up to three of the band keys,
    ``zbus_tol``, the regulator's step and ``--lower-bound``, ``opts``
    returns an exit code of 0-3 without raising, and on exit 0 prints
    strict JSON. The examples are the inputs that once escaped as an
    ``OverflowError`` or printed ``Infinity``."""
    doc = json.loads((FIXTURES / "tiny3.json").read_text())
    doc["config"].update((key, drawn[key]) for key in BAND_KEYS if key in drawn)
    if "step" in drawn:
        doc["svrs"][0]["step"] = drawn["step"]
    feeder = tmp_path_factory.getbasetemp() / "extreme-tiny3.json"
    feeder.write_text(json.dumps(doc))
    argv = ["opts", "--feeder", str(feeder), "--format", "json"]
    if "lower_bound" in drawn:
        argv += ["--lower-bound", repr(drawn["lower_bound"])]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    assert code in (0, 1, 2, 3), err.getvalue()
    if code == 0:
        json.loads(out.getvalue(), parse_constant=_no_constant)


# The documents that the mutation property starts from: both fixtures and a
# small generated feeder, as parsed JSON.
MUTATED_DOCS = {name: json.loads((FIXTURES / f"{name}.json").read_text()) for name in ("tiny3", "ieee13")}
MUTATED_DOCS["gen15"] = json.loads(tf.serialize(bench_feeders().generate_feeder(0, 15)))
# What replaces a leaf: extreme numbers, and values of a wrong type or
# phase strings.
NUMBERS = st.sampled_from([0.0, 1e-300, 1e308, -1e308, -1.0, 2.5, 1e6, 10**20, math.nan, math.inf,
                           -math.inf])
LEAVES = NUMBERS | st.sampled_from(["", "a", "abc", "d", None, True, [], {}, [[1.0, 0.0]]])
# What scales a number: to zero, its negative, far down or up, or by one
# rounding step, so that many scaled documents stay valid.
FACTORS = st.sampled_from([0.0, -1.0, 1e-6, 1e6, 1 + 1e-9])


def _places(node, path=()):
    """Every (path, value) under ``node``, containers included, ``node``
    itself first."""
    yield path, node
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield from _places(child, (*path, key))


def _mutate(doc, mutation):
    """Apply one (kind, path, leaf) mutation to ``doc`` in place: replace
    the value at ``path`` by ``leaf``, multiply the number there by ``leaf``
    (an integer stays an integer), delete the key at ``path`` or duplicate
    the list item at ``path``."""
    kind, path, leaf = mutation
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if kind == "replace":
        parent[path[-1]] = copy.deepcopy(leaf)
    elif kind == "scale":
        parent[path[-1]] = type(parent[path[-1]])(parent[path[-1]] * leaf)
    elif kind == "delete":
        del parent[path[-1]]
    else:
        parent.insert(path[-1], copy.deepcopy(parent[path[-1]]))


@st.composite
def mutated_feeders(draw):
    """(document name, 1-3 mutations), each drawn on the document as the
    ones before it left it: a number replaced by an extreme one or scaled,
    any leaf replaced by an extreme number or a wrong-typed value, a key
    deleted or a list item duplicated. A number kept a number, and above
    all a scaled one, leaves more documents valid, so that the solvers run
    on some."""
    name = draw(st.sampled_from(sorted(MUTATED_DOCS)))
    doc, mutations = copy.deepcopy(MUTATED_DOCS[name]), []
    for _ in range(draw(st.integers(1, 3))):
        places = list(_places(doc))[1:]
        leaves = [(p, v) for p, v in places if not isinstance(v, (dict, list))]
        numbers = [p for p, v in leaves if type(v) in (int, float)]
        paths = {"number": numbers, "scale": numbers,
                 "replace": [p for p, _ in leaves],
                 "delete": [p for p, _ in places if isinstance(p[-1], str)],
                 "duplicate": [p for p, _ in places if isinstance(p[-1], int)]}
        kind = draw(st.sampled_from([k for k, found in paths.items() if found]))
        # The top-level key first, so that the short sections (slack_voltage,
        # svrs, config) are drawn as often as the long ones.
        section = draw(st.sampled_from(sorted({p[0] for p in paths[kind]})))
        path = draw(st.sampled_from([p for p in paths[kind] if p[0] == section]))
        leaf = draw({"number": NUMBERS, "scale": FACTORS, "replace": LEAVES}.get(kind, st.none()))
        mutation = ("replace" if kind == "number" else kind, path, leaf)
        _mutate(doc, mutation)
        mutations.append(mutation)
    return name, tuple(mutations)


@settings(derandomize=True, max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(mutated=mutated_feeders())
@example(mutated=("tiny3", (("replace", ("slack_voltage", "values", 0, 0), 1e308),)))
@example(mutated=("tiny3", (("replace", ("config", "v_min"), math.nan),)))
@example(mutated=("ieee13", (("replace", ("buses", 13, "shunt", "rows", 0, 1, 1), -1.0),)))
@example(mutated=("ieee13", (("replace", ("lines", 6, "z", "rows", 1, 1, 0), 1e308),)))
def test_mutated_feeders_exit_through_their_codes(tmp_path_factory, mutated):
    """On a fixture or a small generated feeder with 1-3 structure-aware
    mutations, ``validate``, ``powerflow``, ``opts`` and ``lindiff`` each
    return an exit code of 0-3 without raising, and a feeder that
    ``validate`` accepts fails in no solver with an input error (exit 1).
    The examples once broke it: a slack voltage with no finite square
    passed ``validate`` and escaped the solvers as an ``OverflowError``; a
    NaN ``v_min`` passed ``validate`` and every solver refused it; on
    IEEE-13 a shunt susceptance of -1 between phases a and b of bus 675
    made the linear model's v~ negative, and an impedance entry of 1e308
    made it overflow, both of which ``lindiff`` reported as an input
    error."""
    name, mutations = mutated
    doc = copy.deepcopy(MUTATED_DOCS[name])
    for mutation in mutations:
        _mutate(doc, mutation)
    feeder = tmp_path_factory.getbasetemp() / "mutated.json"
    feeder.write_text(json.dumps(doc))
    codes = {}
    for command in ("validate", "powerflow", "opts", "lindiff"):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            codes[command] = run([command, "--feeder", str(feeder)])
        assert codes[command] in (0, 1, 2, 3), err.getvalue()
    if codes["validate"] == 0:
        assert 1 not in codes.values(), codes


def test_help_exits_0(capsys):
    assert run(["opts", "--help"]) == 0
    assert "--feeder" in capsys.readouterr().out


def test_bruteforce_csv_and_cap(tmp_path, capsys):
    out = tmp_path / "bf.csv"
    assert run(["bruteforce", "--feeder", TINY3, "--format", "csv",
                "--out", str(out)]) == 0
    assert out.read_text().splitlines()[0] == "svr,phases,taps,objective"
    assert run(["bruteforce", "--feeder", TINY3, "--cap", "5"]) == 1
    assert "cap" in capsys.readouterr().err


def test_bruteforce_no_feasible_exit_3(tmp_path, capsys):
    doc = json.loads((FIXTURES / "tiny3.json").read_text())
    doc["buses"][2]["load"]["values"] = [[3.5, 1.8]]   # hopelessly heavy
    feeder = tmp_path / "heavy.json"
    feeder.write_text(json.dumps(doc))
    assert run(["bruteforce", "--feeder", str(feeder)]) == 3


def test_validate_ok(capsys):
    assert run(["validate", "--feeder", IEEE13]) == 0
    assert capsys.readouterr().out.strip() == "ok"


def test_validate_reports_violations(tmp_path, capsys):
    doc = json.loads((FIXTURES / "tiny3.json").read_text())
    doc["buses"][1]["load"] = {"phases": "a", "values": [[0.1, 0.0]]}  # on SVR secondary
    feeder = tmp_path / "bad.json"
    feeder.write_text(json.dumps(doc))
    assert run(["validate", "--feeder", str(feeder)]) == 1
    assert "svr-secondary-isolation" in capsys.readouterr().out


def test_malformed_feeder_structure_exit_1_without_traceback(tmp_path):
    doc = json.loads((FIXTURES / "tiny3.json").read_text())
    doc["buses"].append(1)
    feeder = tmp_path / "malformed.json"
    feeder.write_text(json.dumps(doc))
    env = dict(os.environ, PYTHONPATH=str(FIXTURES.parent / "src"))
    proc = subprocess.run([sys.executable, "-m", "tapflow.cli", "validate", "--feeder",
                           str(feeder)], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert "'buses' must be an array of objects" in proc.stderr


@pytest.mark.parametrize("edit,message", [
    (lambda d: d["buses"][3].update(phases="abx"), "bus 633: unknown phase 'x'"),
    (lambda d: d["buses"][3].update(id=[1]), "buses[3]: 'id' must be a string"),
], ids=["phase-letter", "bus-id"])
def test_bad_phase_or_bus_id_exit_1_without_traceback(tmp_path, edit, message):
    doc = json.loads((FIXTURES / "ieee13.json").read_text())
    edit(doc)
    feeder = tmp_path / "bad.json"
    feeder.write_text(json.dumps(doc))
    env = dict(os.environ, PYTHONPATH=str(FIXTURES.parent / "src"))
    proc = subprocess.run([sys.executable, "-m", "tapflow.cli", "opts", "--feeder",
                           str(feeder)], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert message in proc.stderr
    assert proc.stdout == ""


def _mask_timings(text):
    """Blank the wall-clock ``timings`` object of an opts JSON report."""
    masked, n = re.subn(r'"timings": \{[^}]*\}', '"timings": {}', text)
    assert n == 1
    return masked


def _mask_time_sec(text):
    """Blank the wall-clock ``time_sec`` cell of an opts CSV summary."""
    header, row, rest = text.split("\n", 2)
    cells = row.split(",")
    cells[header.split(",").index("time_sec")] = ""
    return "\n".join([header, ",".join(cells), rest])


@pytest.mark.parametrize("argv, mask", [
    (["powerflow", "--feeder", IEEE13, "--taps", "3,-6,6"], None),
    (["opts", "--feeder", IEEE13], _mask_timings),
    (["opts", "--feeder", IEEE13, "--format", "csv"], _mask_time_sec),
    (["lindiff", "--feeder", IEEE13], None),
    (["bruteforce", "--feeder", TINY3], None),
], ids=["powerflow", "opts-json", "opts-csv", "lindiff", "bruteforce-json"])
def test_outputs_deterministic(tmp_path, argv, mask):
    """Outputs repeat byte for byte; only opts' wall-clock fields are masked."""
    a, b = tmp_path / "a.out", tmp_path / "b.out"
    assert run(argv + ["--out", str(a)]) == 0
    assert run(argv + ["--out", str(b)]) == 0
    texts = [p.read_bytes().decode("utf-8") for p in (a, b)]
    if mask is not None:
        texts = [mask(t) for t in texts]
    assert texts[0] == texts[1]
