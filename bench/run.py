#!/usr/bin/env python3
"""Benchmark for tapflow: tap selection, tap sweeps and large exact power flows."""

import time

_STARTED = time.perf_counter()

import os  # noqa: E402

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:          # one BLAS/OpenMP thread, set before numpy loads
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

from reference import timed_reference  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
SETUP_SAMPLES = 3                 # this process plus two fresh ones
MAX_ERRORS_KEPT = 20

DESCRIPTION = """\
Closed-loop benchmark of tapflow: one process, one client, one BLAS/OpenMP
thread. Each call gets a distinct seeded input; the next call starts when the
previous one and its answer check are done. Answers are re-verified with the
exact solver outside the timed region.

Call times are reported in refs. A fixed reference computation (a Python loop
plus a sparse LU solve, bench/reference.py; it does not use tapflow) runs after
every timed call, and a call's time in refs is its wall time divided by the
mean of the reference times just before and just after it. The speed of a
core on a shared host swings by 1.5x and more for seconds to minutes; in refs
those swings mostly cancel. Seconds as measured are printed too and kept in
the result file.

workloads:
  opts_mix      run_opts on alternating IEEE-13 (each load phase scaled by a
                seeded 0.85-1.15) and generated 15-45 bus feeders
  sweep_ieee13  brute_force on IEEE-13 with regulator taps -2..2 (125 exact
                solves per call), loads scaled by a seeded 0.7-1.0
  flow_large    solve_zbus + import_objective + voltage_envelope/feasibility
                on generated 200-800 bus feeders at seeded taps
Generated feeders carry no config, so the pipeline runs with its defaults.
"""

EPILOG = """\
untraced run (--trace 0), the end-to-end metrics:
  setup_s          s      median of 3 set-ups (this process and two fresh
                          ones): imports, fixture parse, generation of the
                          warm-up input and one untimed, checked warm-up call;
                          per-call inputs are generated outside the timed calls
  call_ref.p50     ref    median call time, in refs
  call_ref.p90     ref    90th percentile of the call times, in refs
  call_ref.mean    ref    mean call time in refs; the inverse of throughput
  import_pu.mean   p.u.   mean verified substation import
  peak_rss_mb      MB     peak resident memory of this process
  failed_frac and infeasible_frac (ratio), sample counts, and call_s.p50,
  call_s.p90, calls_per_s and the reference's own time in seconds are printed
  and written to the result file too; they are not part of the final JSON line.

traced run (--trace 1), the per-layer metrics:
  Every input runs twice, untraced and traced, in alternating order; around
  traced calls, span recorders replace functions in tapflow's module
  namespaces and the originals are restored after each call.
  Times are self times per call, counts are per call (ybus.n/.nnz and
  opts.lp.* are mean sizes per assembly or LP), <layer>.share is a layer's
  self time over call time, and trace.overhead_s is the traced minus the
  untraced call_s.p50. Spans go to bench/out/<workload>-seed<n>-spans.jsonl.

seed:
  --seed n makes every input of the run; the same seed gives the same inputs.

output:
  Metric lines, then a provenance line, then one JSON line
  {"correct", "attempted", "failed", "metrics"} as the last line. A result file
  with provenance (commit, versions, nproc, CPU, thread pinning, seed, call
  counts) goes to bench/out/<workload>-seed<n>-trace<t>.json. Exit status 1
  when an answer check fails, 2 when the checkout is incomplete.

examples:
  python3 bench/run.py --workload opts_mix --seed 1 --seconds 40 --trace 0
  python3 bench/run.py --workload flow_large --seed 2 --seconds 40 --trace 1
  python3 -m pytest -q bench/tests          # generator and tracer tests
"""


def parse_args(argv):
    ap = argparse.ArgumentParser(prog="bench/run.py", description=DESCRIPTION, epilog=EPILOG,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True,
                    choices=("opts_mix", "sweep_ieee13", "flow_large"))
    ap.add_argument("--seed", type=int, required=True, help="input seed")
    ap.add_argument("--seconds", type=float, default=40.0,
                    help="measured wall time per run (default 40)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="0: end-to-end metrics; 1: per-layer metrics")
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


class IncompleteCheckout(Exception):
    pass


def setup(name: str, seed: int):
    """Import tapflow from this checkout, build the workload, make one checked
    warm-up call. Returns (workload, warm-up outcome)."""
    for needed in (ROOT / "src" / "tapflow" / "__init__.py", ROOT / "fixtures" / "ieee13.json"):
        if not needed.is_file():
            raise IncompleteCheckout(f"missing {needed.relative_to(ROOT)}")
    sys.path.insert(0, str(ROOT / "src"))
    import tapflow
    if Path(tapflow.__file__).resolve().parent != ROOT / "src" / "tapflow":
        raise IncompleteCheckout(f"tapflow imported from {tapflow.__file__}, not this checkout")
    from workloads import WORKLOADS

    workload = WORKLOADS[name](ROOT, seed)
    inst = workload.warmup()
    outcome = workload.check(inst, workload.call(inst))
    return workload, outcome


def setup_sample(name: str, seed: int) -> float:
    """Set-up time of a fresh interpreter running this script's set-up."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(seed),
         "--setup-only"], capture_output=True, text=True, timeout=150, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up sample failed: {proc.stderr.strip()[-500:]}")
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


@dataclass
class Tally:
    """Counts and call times of one group of calls."""

    times: list = field(default_factory=list)     # call wall times, s
    ratios: list = field(default_factory=list)    # call times in refs
    refs: list = field(default_factory=list)      # reference times, s
    imports: list = field(default_factory=list)
    errors: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    mismatched: int = 0
    completed: int = 0
    infeasible: int = 0


def measure(workload, seconds: float, tracer=None) -> dict:
    """Closed loop over inputs 0, 1, 2, ... until ``seconds`` elapse.

    Untraced, the reference computation runs after every call, and each call's
    time is also taken in refs: divided by the mean of the reference times
    just before and just after it. With a tracer, every input is run twice,
    untraced and traced, in alternating order, so both groups see the same
    inputs; the span recorders are installed only around traced calls.
    """
    groups = ("untraced",) if tracer is None else ("untraced", "traced")
    runs = {group: Tally() for group in groups}
    ref_before = timed_reference() if tracer is None else None
    i = 0
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        for group in groups if i % 2 == 0 else groups[::-1]:
            ref_before = one_call(workload, i, runs[group], ref_before,
                                  tracer if group == "traced" else None)
        i += 1
    return runs


def one_call(workload, i: int, tally: Tally, ref_before, tracer=None):
    """Time, check and count one call; return the reference time after it
    (None when ``ref_before`` is None)."""
    inst = workload.instance(i)
    tally.attempted += 1
    error = None
    with tracer.installed() if tracer is not None else nullcontext():
        ctx = tracer.call(i) if tracer is not None else nullcontext()
        t0 = time.perf_counter()
        try:
            with ctx:
                result = workload.call(inst)
        except Exception as exc:  # a raising call is a failed call; keep measuring
            error = exc
        elapsed = time.perf_counter() - t0
    tally.times.append(elapsed)
    ref_after = None
    if ref_before is not None:
        ref_after = timed_reference()
        tally.refs.append(ref_after)
        tally.ratios.append(elapsed / (0.5 * (ref_before + ref_after)))
    if error is not None:
        tally.failed += 1
        tally.errors.append(f"input {i}: {type(error).__name__}: {error}")
        return ref_after
    outcome = workload.check(inst, result)
    if outcome.problems:
        tally.mismatched += 1
        tally.errors.extend(f"input {i}: {p}" for p in outcome.problems)
    if not outcome.completed or outcome.problems:
        tally.failed += 1
    else:
        tally.completed += 1
        tally.infeasible += not outcome.feasible
        if outcome.import_pu is not None:
            tally.imports.append(outcome.import_pu)
    return ref_after


def quantiles(times: list) -> tuple:
    """(median, p90) of ``times``."""
    if len(times) < 2:
        raise RuntimeError(f"only {len(times)} call(s) measured; raise --seconds")
    return statistics.median(times), statistics.quantiles(times, n=10)[8]


def provenance(args, runs: dict) -> dict:
    import numpy
    import scipy

    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                  capture_output=True, text=True, timeout=30, check=False)
        except OSError:
            proc = None
        if proc is not None and proc.returncode == 0:
            commit = proc.stdout.strip()
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "git_commit": commit,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "thread_pinning": {var: os.environ[var] for var in THREAD_VARS},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "calls": {key: run.attempted for key, run in runs.items()},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        workload, warm = setup(args.workload, args.seed)
    except IncompleteCheckout as exc:
        print(f"bench/run.py: incomplete checkout: {exc}", file=sys.stderr)
        return 2
    setup_s = time.perf_counter() - _STARTED
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    import tracing

    metrics: dict = {}
    info: dict = {}
    if args.trace == 0:
        samples = [setup_s] + [setup_sample(args.workload, args.seed)
                               for _ in range(SETUP_SAMPLES - 1)]
        runs = measure(workload, args.seconds)
        run = runs["untraced"]
        metrics["setup_s"] = (statistics.median(samples), "s")
        p50, p90 = quantiles(run.ratios)
        metrics["call_ref.p50"] = (p50, "ref")
        metrics["call_ref.p90"] = (p90, "ref")
        metrics["call_ref.mean"] = (statistics.fmean(run.ratios), "ref")
        metrics["import_pu.mean"] = (statistics.fmean(run.imports) if run.imports else 0.0,
                                     "p.u.")
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                                  "MB")
        info["setup_samples_s"] = samples
        p50_s, p90_s = quantiles(run.times)
        info["seconds_as_measured"] = {
            "call_s.p50": p50_s, "call_s.p90": p90_s,
            "calls_per_s": run.completed / sum(run.times),
            "ref_s.p50": statistics.median(run.refs),
            "ref_s.p10": statistics.quantiles(run.refs, n=10)[0],
            "ref_s.p90": statistics.quantiles(run.refs, n=10)[8]}
    else:
        tracer = tracing.Tracer()
        runs = measure(workload, args.seconds, tracer)
        metrics.update(tracing.layer_metrics(tracer.spans))
        overhead = quantiles(runs["traced"].times)[0] - quantiles(runs["untraced"].times)[0]
        metrics["trace.overhead_s"] = (overhead, "s")
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write_spans(OUT_DIR / f"{args.workload}-seed{args.seed}-spans.jsonl")

    attempted = sum(r.attempted for r in runs.values())
    failed = sum(r.failed for r in runs.values())
    completed = sum(r.completed for r in runs.values())
    wrappers_gone = tracing.no_wrappers_active()
    correct = (not warm.problems and wrappers_gone
               and all(r.mismatched == 0 for r in runs.values()))
    info.update({
        "failed_frac": failed / attempted,
        "infeasible_frac": (sum(r.infeasible for r in runs.values()) / completed
                            if completed else 0.0),
        "warmup_problems": warm.problems,
        "wrappers_restored": wrappers_gone,
        "errors": [e for r in runs.values() for e in r.errors][:MAX_ERRORS_KEPT],
    })

    print(f"# tapflow benchmark: workload {args.workload}, seed {args.seed}, "
          f"trace {args.trace}, {attempted} calls")
    for name, (value, unit) in metrics.items():
        print(f"{name:28s} {value:.6g} {unit}")
    for name, value in info.get("seconds_as_measured", {}).items():
        print(f"{name:28s} {value:.6g} {'1/s' if name == 'calls_per_s' else 's'}")
    print(f"{'failed_frac':28s} {info['failed_frac']:.6g} ratio")
    print(f"{'infeasible_frac':28s} {info['infeasible_frac']:.6g} ratio")
    for err in info["errors"]:
        print(f"# error: {err}")
    prov = provenance(args, runs)
    OUT_DIR.mkdir(exist_ok=True)
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    (OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"result": result, "info": info, "provenance": prov}, indent=2) + "\n",
        encoding="utf-8")
    print("# provenance: " + json.dumps(prov, sort_keys=True))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
