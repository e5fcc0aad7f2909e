"""Compare the command-line outputs of two source trees on the fixtures.

    python tests/cli_diff.py BASE_SRC NEW_SRC

runs each command of ``runs()`` on ``fixtures/tiny3.json``,
``fixtures/ieee13.json`` and ``fixtures/gen30.json`` once with ``BASE_SRC`` and once with ``NEW_SRC`` as
the package path, and compares the two results: the exit codes, stdout and
stderr must have the same non-numeric bytes, the same integers, and every
other number within ``ABS_TOL``. Wall-clock fields (``timings``,
``time_sec``) are masked. It prints one line per run, with the largest
deviation and each changed output line, and exits 1 if any run differs
beyond the tolerance. Run it from the repository root.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys

ABS_TOL = 1e-10
FIXTURES = ("tiny3", "ieee13", "gen30")
# powerflow's tap settings per fixture: zero, the opts answer, and the
# upper tap limit; tiny3 has one single-phase regulator, IEEE-13 one
# three-phase regulator, gen30 a three-phase type-B regulator at the head and
# a three-phase type-A one mid-feeder, both on taps -1..1.
TAPS = {"tiny3": ("0", "2", "16"), "ieee13": ("0", "2,-6,6", "16,16,16"),
        "gen30": ("0", "-1,-1,-1;-1,-1,-1", "1,1,1;1,1,1")}
NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|\b(?:nan|inf)\b")


def runs():
    """(name, tapflow arguments) per command run, per fixture."""
    for fixture in FIXTURES:
        feeder = ["--feeder", f"fixtures/{fixture}.json"]
        zero, answer, top = TAPS[fixture]
        yield from ((f"{fixture} {name}", args + feeder) for name, args in (
            ("powerflow zero taps", ["powerflow", "--taps", zero]),
            ("powerflow opts taps", ["powerflow", "--taps", answer]),
            ("powerflow top taps tol 1e-12", ["powerflow", "--taps", top, "--tol", "1e-12"]),
            ("powerflow zero taps max-iter 3", ["powerflow", "--taps", zero, "--max-iter", "3"]),
            ("opts json", ["opts"]),
            ("opts csv", ["opts", "--format", "csv"]),
            ("opts balanced", ["opts", "--constants", "balanced"]),
            ("opts narrow band", ["opts", "--vmin", "0.99", "--vmax", "1.01"]),
            ("opts lower bound", ["opts", "--lower-bound", "0.6"]),
            ("lindiff balanced", ["lindiff", "--constants", "balanced"]),
            ("lindiff base", ["lindiff", "--constants", "base"]),
            ("bruteforce json", ["bruteforce", "--cap", "40000"]),
            ("bruteforce csv", ["bruteforce", "--cap", "40000", "--format", "csv"]),
            ("validate", ["validate"]),
        ))


def run(src: str, args: list) -> str:
    """The exit code, stdout and stderr of ``tapflow args`` on ``src``, with
    the wall-clock fields masked."""
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-m", "tapflow.cli", *args], env=env,
                         capture_output=True, text=True)
    return f"exit {out.returncode}\n{mask(out.stdout)}\nstderr:\n{out.stderr}"


def mask(text: str) -> str:
    """``text`` with JSON's ``timings`` object and ``time_sec`` values, and
    CSV's ``time_sec`` column, replaced by ``-``."""
    text = re.sub(r'("timings": )\{[^}]*\}', r"\1-", text)
    text = re.sub(r'("time_sec": )[^,\n}]*', r"\1-", text)
    lines, column = text.split("\n"), None
    for i, line in enumerate(lines):
        cells = line.split(",")
        if "time_sec" in cells:
            column = cells.index("time_sec")
        elif not line:
            column = None
        elif column is not None and column < len(cells):
            cells[column] = "-"
            lines[i] = ",".join(cells)
    return "\n".join(lines)


def deviation(base_line: str, new_line: str) -> float | None:
    """The largest absolute difference of the numbers of two lines, or None
    when their non-numeric bytes or their integers differ."""
    if NUMBER.sub("#", base_line) != NUMBER.sub("#", new_line):
        return None
    worst = 0.0
    for a, b in zip(NUMBER.findall(base_line), NUMBER.findall(new_line)):
        if re.fullmatch(r"[-+]?\d+", a) and re.fullmatch(r"[-+]?\d+", b):
            if a != b:
                return None
        elif a != b:
            d = abs(float(a) - float(b))
            if not d <= ABS_TOL:            # also a NaN or an infinity against a number
                return None
            worst = max(worst, d)
    return worst


def main(base_src: str, new_src: str) -> int:
    failed = 0
    for name, args in runs():
        base, new = run(base_src, args).split("\n"), run(new_src, args).split("\n")
        if len(base) != len(new):
            print(f"FAIL {name}: {len(base)} lines at the base, {len(new)} here")
            failed += 1
            continue
        worst, changed, bad = 0.0, [], []
        for a, b in zip(base, new):
            if a == b:
                continue
            d = deviation(a, b)
            if d is None:
                bad.append((a, b))
            else:
                worst = max(worst, d)
                changed.append((a, b, d))
        failed += bool(bad)
        print(f"{'FAIL' if bad else 'ok'} {name}: {len(changed)} line(s) changed within {ABS_TOL:g},"
              f" largest deviation {worst:.3g}")
        for a, b, d in changed:
            print(f"    {a.strip()} -> {b.strip()}  ({d:.3g})")
        for a, b in bad:
            print(f"    beyond tolerance: {a.strip()} -> {b.strip()}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
