"""Command-line front end.

Subcommands: powerflow, opts, lindiff, bruteforce, validate; each accepts
only the flags its handler reads. Exit codes are a stable contract: 0 ok,
1 input error (bad file, feeder config or usage), 2 numeric failure,
3 infeasible result. ``_run`` is the one place that maps an exception to an
exit code. Outputs are deterministic byte-for-byte, except the wall-clock
fields of ``opts``: ``time_sec`` in its CSV and ``timings`` in its JSON.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .errors import FeederFormatError, ModelValidationError, PipelineError
from .linflow import constants_balanced, constants_from_solution, lindiff, linear_powerflow
from .network import parse_feeder, taps_to_ratios, validate, zero_taps
from .opts import brute_force, config_from_model, run_opts
from .zbus import solution_csv, solve_zbus, voltage_envelope

EXIT_OK, EXIT_INPUT, EXIT_NUMERIC, EXIT_INFEASIBLE = 0, 1, 2, 3


def _load_model(path: str):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise FeederFormatError(f"cannot read feeder file {path}: {exc.strerror}") from None
    return parse_feeder(text)


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _parse_taps(spec: str, model) -> list:
    """Tap flag syntax: '0' broadcasts; per-SVR groups split by ';',
    per-phase values by ',' in phase order (a,b,c restricted to the SVR mask)."""
    spec = spec.strip()
    groups = spec.split(";")
    if len(groups) == 1 and "," not in spec:
        tap = int(spec)
        return [{p: tap for p in sv.phases} for sv in model.svrs]
    if len(groups) != len(model.svrs):
        raise ValueError(f"--taps has {len(groups)} group(s) but the model has "
                         f"{len(model.svrs)} SVR(s)")
    out = []
    for sv, group in zip(model.svrs, groups):
        vals = [int(v) for v in group.split(",")]
        if len(vals) != len(sv.phases):
            raise ValueError(f"--taps group {group!r} has {len(vals)} value(s) for "
                             f"{len(sv.phases)}-phase SVR {sv.from_bus}->{sv.to_bus}")
        out.append(dict(zip(sv.phases, vals)))
    return out


def _config_from_args(model, args):
    mode = None
    if getattr(args, "constants", None):
        mode = {"balanced": "balanced", "base": "from_zero_tap_solution"}[args.constants]
    return config_from_model(
        model,
        v_min=getattr(args, "vmin", None),
        v_max=getattr(args, "vmax", None),
        zbus_tol=getattr(args, "tol", None),
        zbus_max_iter=getattr(args, "max_iter", None),
        constants_mode=mode,
    )


def cmd_powerflow(args) -> int:
    model = _load_model(args.feeder)
    config = _config_from_args(model, args)
    taps = _parse_taps(args.taps, model)
    sol = solve_zbus(model, taps_to_ratios(model, taps),
                     tol=config.zbus_tol, max_iter=config.zbus_max_iter)
    if not sol.converged:
        print(f"power flow did not converge after {sol.iterations} iterations "
              f"(residual {sol.residual:.3e})", file=sys.stderr)
        return EXIT_NUMERIC
    _emit(solution_csv(sol, model), args.out)
    return EXIT_OK


def cmd_opts(args) -> int:
    model = _load_model(args.feeder)
    report = run_opts(model, _config_from_args(model, args), lower_bound=args.lower_bound)
    if args.format == "json":
        _emit(report.to_json(), args.out)
    else:
        _emit(report.summary_csv() + "\n" + report.taps_csv(), args.out)
    return EXIT_OK if report.feasible else EXIT_INFEASIBLE


def cmd_lindiff(args) -> int:
    model = _load_model(args.feeder)
    config = _config_from_args(model, args)
    ratios = taps_to_ratios(model, zero_taps(model))
    exact = solve_zbus(model, ratios, tol=config.zbus_tol, max_iter=config.zbus_max_iter)
    if not exact.converged:
        print("exact power flow did not converge", file=sys.stderr)
        return EXIT_NUMERIC
    voltage_envelope(exact, model)   # a feeder with no non-slack bus has nothing to compare
    # A flag or the feeder's config chooses the constants; lindiff's default is balanced.
    chosen = args.constants is not None or "constants_mode" in model.config
    constants = (constants_from_solution(model, exact)
                 if chosen and config.constants_mode == "from_zero_tap_solution"
                 else constants_balanced(model))
    # The model is valid here, so a value the linear answer cannot hold (a
    # v~ or flow that is not finite, a v~ with no real root) is the linear
    # model's numeric failure, not an input error.
    try:
        v_sq, _ = linear_powerflow(model, constants, ratios)
        _emit(lindiff(model, exact, v_sq).to_csv(), args.out)
    except ValueError as exc:
        raise PipelineError("lindiff", str(exc)) from None
    return EXIT_OK


def cmd_bruteforce(args) -> int:
    model = _load_model(args.feeder)
    result = brute_force(model, _config_from_args(model, args), cap=args.cap)
    doc = {
        "taps": [{"svr": f"{sv.from_bus}->{sv.to_bus}", "taps": t}
                 for sv, t in zip(model.svrs, result.taps)],
        "objective": result.objective,
        "feasible_count": result.feasible_count,
        "evaluated": result.evaluated,
    }
    if args.format == "json":
        _emit(json.dumps(doc, indent=2, sort_keys=True) + "\n", args.out)
    else:
        lines = ["svr,phases,taps,objective"]
        for sv, taps in zip(model.svrs, result.taps):
            joined = " ".join(str(taps[p]) for p in sv.phases)
            lines.append(f"{sv.from_bus}->{sv.to_bus},{''.join(sv.phases)},{joined},"
                         f"{result.objective:.12g}")
        _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def cmd_validate(args) -> int:
    try:
        model = _load_model(args.feeder)
    except ModelValidationError as exc:
        # The violations are this command's report; _run still sets the exit code.
        for v in exc.violations:
            print(str(v))
        raise
    config_from_model(model)     # the feeder's config, checked as every solver checks it
    print("ok")
    return EXIT_OK


# Each flag is defined once; a subcommand lists the flags its handler reads.
_FLAGS = {
    "--feeder": dict(required=True, help="feeder JSON file"),
    "--vmin": dict(type=float, help="LP lower voltage bound, p.u."),
    "--vmax": dict(type=float, help="LP upper voltage bound, p.u."),
    "--tol": dict(type=float, help="power-flow update tolerance"),
    "--max-iter": dict(type=int, help="power-flow iteration cap"),
    "--constants": dict(choices=["balanced", "base"],
                        help="linearization constants: balanced or from the zero-tap base case"),
    "--out": dict(help="output path (default: stdout)"),
    "--format": dict(choices=["json", "csv"], default="json"),
    "--lower-bound": dict(type=float, help="external lower bound for the optimality gap"),
    "--taps": dict(default="0", help="'0' broadcasts; 'a,b,c' per SVR, ';'-separated"),
    "--cap": dict(type=int, default=100_000, help="max tap combinations"),
}

_SUBCOMMANDS = (
    ("powerflow", cmd_powerflow, "exact power flow at fixed taps",
     ("--feeder", "--tol", "--max-iter", "--out", "--taps")),
    ("opts", cmd_opts, "solve tap selection and verify",
     ("--feeder", "--vmin", "--vmax", "--tol", "--max-iter", "--constants", "--out",
      "--format", "--lower-bound")),
    ("lindiff", cmd_lindiff, "linear-vs-exact voltage comparison at zero taps",
     ("--feeder", "--tol", "--max-iter", "--constants", "--out")),
    ("bruteforce", cmd_bruteforce, "exhaustive tap sweep with exact verification",
     ("--feeder", "--tol", "--max-iter", "--out", "--format", "--cap")),
    ("validate", cmd_validate, "parse a feeder file and report violations", ("--feeder",)),
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tapflow",
        description="Regulator tap selection and verification for unbalanced feeders",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, func, help_text, flags in _SUBCOMMANDS:
        p = sub.add_parser(name, help=help_text)
        for flag in flags:
            p.add_argument(flag, **_FLAGS[flag])
        p.set_defaults(func=func)
    return parser


def _run(args) -> int:
    try:
        return args.func(args)
    except (FeederFormatError, ModelValidationError, ValueError) as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_INPUT
    except PipelineError as exc:
        print(str(exc), file=sys.stderr)
        # Only the exhaustive sweep fails for want of a feasible answer.
        return EXIT_INFEASIBLE if exc.stage == "bruteforce" else EXIT_NUMERIC


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse has already printed the help (exit 0) or a usage error (exit 2).
        code = EXIT_OK if exc.code == 0 else EXIT_INPUT
    else:
        code = _run(args)
    if argv is None:
        sys.exit(code)
    return code


if __name__ == "__main__":
    main()
