import argparse
import dataclasses
import json
import os
import re
import subprocess
import sys

import pytest

from tapflow import opts
from tapflow.cli import _build_parser, main
from tapflow.opts import OptsConfig

from conftest import FIXTURES

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


@pytest.mark.parametrize("command", ["opts", "bruteforce"])
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
                                              ("opts", "[base_powerflow]")])
def test_overflowing_power_flow_exit_2(tmp_path, capsys, command, message):
    """A solve whose iterate overflows is reported unconverged, not as bad input."""
    doc = json.loads((FIXTURES / "tiny3.json").read_text())
    doc["buses"][2]["load"]["values"] = [[0.65e307, 0.35e307]]
    feeder = tmp_path / "huge-load.json"
    feeder.write_text(json.dumps(doc))
    assert run([command, "--feeder", str(feeder)]) == 2
    assert message in capsys.readouterr().err


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
], ids=["string-band", "fractional-iter", "bool-tol", "typo", "removed-key", "nan-tol",
        "zero-tol", "nan-verify-band", "nan-tol-flag", "inverted-verify-band",
        "zero-verify-floor", "inverted-lp-band"])
def test_bad_feeder_config_exit_1(tmp_path, capsys, config, flags, key):
    doc = json.loads((FIXTURES / "tiny3.json").read_text())
    doc["config"].update(config)
    feeder = tmp_path / "bad-config.json"
    feeder.write_text(json.dumps(doc))
    assert run(["opts", "--feeder", str(feeder)] + flags) == 1
    assert repr(key) in capsys.readouterr().err


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
