"""Command-line front end: run scenarios, sweep crash points, compare
protocol variants, and check stored traces.

Exit codes: 0 all properties pass, 1 property violation, 2 usage or
configuration error, 141 (128 + SIGPIPE) stdout closed by its reader.
The last line of every command's output is the machine-parseable
verdict summary that ``checker.summary_line`` writes.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import contextmanager
from itertools import islice

from . import codec
from .checker import (MetricsReport, Verdict, all_passed, check_trace, classify_anomalies,
                      combined, summary_line)
from .netsim import Simulation, resolve_crash_target, sweep_crash_points
# The replay oracle, the metrics and the verdicts on their own; not called
# here, but the benchmark's span wrappers look them up under these names.
from .checker import compute_metrics, run_all_checks  # noqa: F401
from .netsim import enumerate_crash_points  # noqa: F401
from .scenario import VARIANTS, Scenario, ScenarioError, load_scenario
from .trace import Trace, TraceFormatError, _is_int

EXIT_PASS = 0
EXIT_VIOLATION = 1
EXIT_CONFIG = 2
EXIT_BROKEN_PIPE = 141  # what a shell reports for a writer killed by SIGPIPE
MAX_JOBS = 64  # the most worker processes one --jobs value asks for
SHOWN_WITNESSES = 3  # the most witnesses run and check print per verdict


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on a usage error, 0 after -h
        return exc.code
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # point fd 1 at devnull, so the interpreter's flush at exit does not
        # hit the closed pipe again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE
    except (ScenarioError, TraceFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sdnsim",
        description="deterministic replicated-controller simulator and checker")
    sub = parser.add_subparsers(dest="command", required=True)
    scenario_args = argparse.ArgumentParser(add_help=False)
    scenario_args.add_argument("scenario")
    scenario_args.add_argument("--seed", type=_digits, help="override the scenario seed")
    sweep_args = argparse.ArgumentParser(add_help=False, parents=[scenario_args])
    sweep_args.add_argument("--jobs", type=_jobs, default=1)

    p_run = sub.add_parser("run", parents=[scenario_args],
                           help="run one scenario and check it")
    p_run.add_argument("--trace", help="write the trace file here")
    p_run.add_argument("--metrics", help="write message metrics (JSON) here")
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", parents=[sweep_args],
                             help="crash the target at every trace point")
    p_sweep.add_argument("--crash", default="leader",
                         help="leader or replica:<id> (default: leader)")
    p_sweep.set_defaults(func=cmd_sweep)

    sub.add_parser("compare", parents=[sweep_args],
                   help="run the workload under all three variants",
                   ).set_defaults(func=cmd_compare)

    p_check = sub.add_parser("check", help="check a stored trace file")
    p_check.add_argument("trace")
    p_check.set_defaults(func=cmd_check)
    return parser


def _digits(text: str) -> int:
    """An integer option's value: ASCII digits, the rule a trace's integers keep."""
    if not _is_int(text):
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    return int(text)


def _jobs(text: str) -> int:
    """A ``--jobs`` value: a count of worker processes, 1 to ``MAX_JOBS``."""
    jobs = _digits(text)
    if jobs < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {jobs}")
    if jobs > MAX_JOBS:
        raise argparse.ArgumentTypeError(f"must be at most {MAX_JOBS}, got {jobs}")
    return jobs


def _load(args) -> Scenario:
    scenario = load_scenario(args.scenario)
    return scenario if args.seed is None else scenario.with_seed(args.seed)


def _report(report: MetricsReport, verdicts: list[Verdict]) -> int:
    """The tail ``run`` and ``check`` print after their header line: the
    message metrics, each verdict with at most ``SHOWN_WITNESSES``
    witnesses, the anomalies and the summary. Returns the exit code."""
    for line in report.lines():
        print(line)
    for v in verdicts:
        note = f" ({v.note})" if v.note else ""
        print(f"{v.prop}: {'pass' if v.passed else 'FAIL'}{note}")
        for w in v.witnesses[:SHOWN_WITNESSES]:
            print(f"    steps {list(w.steps)}: {w.description}")
        if len(v.witnesses) > SHOWN_WITNESSES:
            print(f"    ... {len(v.witnesses) - SHOWN_WITNESSES} more")
    anomalies = classify_anomalies(verdicts)
    if anomalies:
        print("anomalies: " + ", ".join(anomalies))
    print(summary_line(verdicts))
    return EXIT_PASS if all_passed(verdicts) else EXIT_VIOLATION


def cmd_run(args) -> int:
    scenario = _load(args)
    trace = Simulation(scenario).run()
    if args.trace:
        trace.write(args.trace)
    verdicts, report, quiesced = check_trace(trace)
    if args.metrics:
        with open(args.metrics, "w", encoding="utf-8") as fh:
            json.dump(codec.encode(report), fh, indent=2, sort_keys=True)
            fh.write("\n")
    print(f"scenario {scenario.name} [{scenario.variant}]: "
          f"{len(trace.records)} trace records, quiesced={quiesced}")
    return _report(report, verdicts)


def _sweep_share(scenario: Scenario, target: int, worker: int, workers: int):
    """Run and check one worker's share of the sweep: the forks of every
    ``workers``-th group of crash points, from the ``worker``-th (counting
    from 0), one check each. Returns the fault-free trace, from worker 0
    only (None from the others), and one (point, verdicts) row per point,
    the rows of one fork sharing its verdicts."""
    base = Simulation(scenario)
    rows = []
    for points, fork in islice(sweep_crash_points(base, target), worker, None, workers):
        fork.run()
        verdicts = fork.verdicts()  # folds only what the fork ran past its fork point
        rows.extend((point, verdicts) for point in points)
    return (None if worker else base.run()), rows


def _sweep(scenario: Scenario, target: int, jobs: int, map_=map):
    """The fault-free trace and the (point, verdicts) rows of every crash
    point, in occurrence order. All points of one group share one fork
    and one check. ``map_`` runs ``jobs`` workers (``_sweep_share``),
    each of which repeats the fault-free run and the sweep's forking, and
    runs and checks only its own share of the forks."""
    shares = list(map_(_sweep_share, [scenario] * jobs, [target] * jobs,
                       range(jobs), [jobs] * jobs))
    rows = sorted((row for _, share in shares for row in share),
                  key=lambda row: row[0].occurrence)
    return shares[0][0], rows


@contextmanager
def _mapper(jobs: int):
    """The ``map`` a command's sweeps run their workers with: the built-in
    one for one job, else that of one pool of ``jobs`` spawned processes.
    The pool's modules are imported only then, so one job loads none."""
    if jobs == 1:
        yield map
    else:
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(jobs, multiprocessing.get_context("spawn")) as pool:
            yield pool.map


def cmd_sweep(args) -> int:
    scenario = _load(args)
    target = resolve_crash_target(scenario, args.crash)
    with _mapper(args.jobs) as map_:
        _, rows = _sweep(scenario, target, args.jobs, map_)
    print(f"sweep of {scenario.name} [{scenario.variant}]: crash c{target} at "
          f"each of {len(rows)} send/deliver points")
    print(f"{'point':>5} {'t':>4} {'at':<24} {'P1..P6':<13} anomalies")
    for point, verdicts in rows:
        flags = " ".join("+" if v.passed else "-" for v in verdicts)
        anomalies = ",".join(classify_anomalies(verdicts)) or "-"
        where = f"{point.record.kind} {point.record.msg['type']}"
        print(f"{point.occurrence:>5} {point.record.t:>4} {where:<24} {flags:<13} {anomalies}")
    verdicts = combined([vs for _, vs in rows])
    print(summary_line(verdicts))
    return EXIT_PASS if all_passed(verdicts) else EXIT_VIOLATION


def cmd_compare(args) -> int:
    """Side-by-side message counts and verdicts across the three variants.
    Passing means the two bundle-ack variants are violation-free (fault-free
    and across the full leader-crash sweep) and verdict-equivalent; the
    naive baseline's violations are reported but expected."""
    scenario = _load(args)
    variants = {}
    for variant in VARIANTS:
        try:
            variants[variant] = scenario.with_variant(variant)
        except ScenarioError as exc:
            raise ScenarioError(f"compare: as {variant}: {exc}") from None
    runs = {}  # variant -> (metrics, [fault-free verdicts, *sweep verdicts])
    with _mapper(args.jobs) as map_:
        for variant, swept in variants.items():
            trace, rows = _sweep(swept, 0, args.jobs, map_)
            verdicts, report, _ = check_trace(trace)
            runs[variant] = (report, [verdicts] + [vs for _, vs in rows])

    print(f"workload {scenario.name}: {len(scenario.workload)} events, "
          f"{scenario.n_controllers} controllers")
    print(f"{'variant':<9} {'deliveries':>10} {'per-event':>9} {'fault-free':<11} "
          f"{'sweep':>6} {'violating':>9} anomalies")
    for variant, (report, (verdicts, *sweep)) in runs.items():
        violating = sum(not all_passed(vs) for vs in sweep)
        labels = ",".join(classify_anomalies(combined(sweep))) or "-"
        ff = "pass" if all_passed(verdicts) else "FAIL"
        print(f"{variant:<9} {report.total:>10} {report.per_event:>9.1f} {ff:<11} "
              f"{len(sweep):>6} {violating:>9} {labels}")

    paper_a, paper_b = (runs[variant][1] for variant in ("PAPER_A", "PAPER_B"))
    equivalent = ([[v.passed for v in vs] for vs in paper_a]
                  == [[v.passed for v in vs] for vs in paper_b])
    print(f"variant equivalence (PAPER_A vs PAPER_B verdicts): "
          f"{'yes' if equivalent else 'NO'}")
    verdicts = combined(paper_a + paper_b)
    ok = all_passed(verdicts) and equivalent
    print(summary_line(verdicts, ok))
    return EXIT_PASS if ok else EXIT_VIOLATION


def cmd_check(args) -> int:
    trace = Trace.read(args.trace)
    verdicts, report, quiesced = check_trace(trace)
    print(f"trace {args.trace}: {len(trace.records)} records, "
          f"variant={trace.meta.get('variant')}, quiesced={quiesced}")
    return _report(report, verdicts)


if __name__ == "__main__":
    sys.exit(main())
