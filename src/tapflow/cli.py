"""Command-line front end.

Subcommands: powerflow, opts, lindiff, bruteforce, validate.
Exit codes are a stable contract: 0 ok, 1 input error (bad file or usage),
2 numeric failure, 3 infeasible result. All outputs are deterministic
byte-for-byte.
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
from .zbus import solution_csv, solve_zbus

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
    config = _config_from_args(model, args)
    try:
        report = run_opts(model, config, lower_bound=args.lower_bound)
    except PipelineError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_NUMERIC
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
    constants = (constants_from_solution(model, exact) if args.constants == "base"
                 else constants_balanced(model))
    v_sq, _ = linear_powerflow(model, constants, ratios)
    _emit(lindiff(model, exact, v_sq).to_csv(), args.out)
    return EXIT_OK


def cmd_bruteforce(args) -> int:
    model = _load_model(args.feeder)
    config = _config_from_args(model, args)
    try:
        result = brute_force(model, config, cap=args.cap)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_INPUT
    except PipelineError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_INFEASIBLE
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
        text = Path(args.feeder).read_text(encoding="utf-8")
    except OSError as exc:
        print(f"cannot read {args.feeder}: {exc.strerror}", file=sys.stderr)
        return EXIT_INPUT
    try:
        parse_feeder(text)
    except ModelValidationError as exc:
        for v in exc.violations:
            print(str(v))
        return EXIT_INPUT
    except FeederFormatError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_INPUT
    print("ok")
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tapflow",
        description="Regulator tap selection and verification for unbalanced feeders",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, lower_bound=False):
        p.add_argument("--feeder", required=True, help="feeder JSON file")
        p.add_argument("--vmin", type=float, default=None, help="LP lower voltage bound, p.u.")
        p.add_argument("--vmax", type=float, default=None, help="LP upper voltage bound, p.u.")
        p.add_argument("--tol", type=float, default=None, help="power-flow update tolerance")
        p.add_argument("--max-iter", type=int, default=None, help="power-flow iteration cap")
        p.add_argument("--constants", choices=["balanced", "base"], default=None,
                       help="linearization constants: balanced or from the zero-tap base case")
        p.add_argument("--out", default=None, help="output path (default: stdout)")
        p.add_argument("--format", choices=["json", "csv"], default="json")
        if lower_bound:
            p.add_argument("--lower-bound", type=float, default=None,
                           help="external lower bound for the optimality gap")

    p = sub.add_parser("powerflow", help="exact power flow at fixed taps")
    common(p)
    p.add_argument("--taps", default="0", help="'0' broadcasts; 'a,b,c' per SVR, ';'-separated")
    p.set_defaults(func=cmd_powerflow)

    p = sub.add_parser("opts", help="solve tap selection and verify")
    common(p, lower_bound=True)
    p.set_defaults(func=cmd_opts)

    p = sub.add_parser("lindiff", help="linear-vs-exact voltage comparison at zero taps")
    common(p)
    p.set_defaults(func=cmd_lindiff)

    p = sub.add_parser("bruteforce", help="exhaustive tap sweep with exact verification")
    common(p)
    p.add_argument("--cap", type=int, default=100_000, help="max tap combinations")
    p.set_defaults(func=cmd_bruteforce)

    p = sub.add_parser("validate", help="parse a feeder file and report violations")
    p.add_argument("--feeder", required=True)
    p.set_defaults(func=cmd_validate)
    return parser


def _run(args) -> int:
    try:
        return args.func(args)
    except (FeederFormatError, ModelValidationError, ValueError) as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_INPUT
    except PipelineError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_NUMERIC


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
