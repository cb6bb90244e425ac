"""Command-line front end: run scenarios, sweep crash points, compare
protocol variants, and check stored traces.

Exit codes: 0 all properties pass, 1 property violation, 2 usage or
configuration error. The last line of every command's output is the
machine-parseable verdict summary (``RESULT pass|fail P1=+ ... P6=+``).
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import sys
from concurrent.futures import ProcessPoolExecutor

from .checker import (PROPERTIES, CheckError, Verdict, all_passed,
                      classify_anomalies, run_all_checks, summary_line)
from .metrics import compute_metrics
from .netsim import Simulation, resolve_crash_target, sweep_crash_points
# The replay oracle; not called here, but the benchmark's span wrappers
# look it up under this name.
from .netsim import enumerate_crash_points  # noqa: F401
from .scenario import Scenario, ScenarioError, load_scenario
from .trace import Trace, TraceFormatError

EXIT_PASS = 0
EXIT_VIOLATION = 1
EXIT_CONFIG = 2

_VARIANT_ORDER = ("NAIVE", "PAPER_A", "PAPER_B")


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ScenarioError, TraceFormatError, CheckError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except json.JSONDecodeError as exc:
        print(f"error: line {exc.lineno}: {exc.msg}", file=sys.stderr)
        return EXIT_CONFIG


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sdnsim",
        description="deterministic replicated-controller simulator and checker")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one scenario and check it")
    p_run.add_argument("scenario")
    p_run.add_argument("--trace", help="write the trace file here")
    p_run.add_argument("--metrics", help="write message metrics (JSON) here")
    p_run.add_argument("--seed", type=int, help="override the scenario seed")
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="crash the target at every trace point")
    p_sweep.add_argument("scenario")
    p_sweep.add_argument("--crash", default="leader",
                         help="leader or replica:<id> (default: leader)")
    p_sweep.add_argument("--jobs", type=int, default=1)
    p_sweep.add_argument("--seed", type=int, help="override the scenario seed")
    p_sweep.set_defaults(func=cmd_sweep)

    p_cmp = sub.add_parser("compare",
                           help="run the workload under all three variants")
    p_cmp.add_argument("scenario")
    p_cmp.add_argument("--jobs", type=int, default=1)
    p_cmp.add_argument("--seed", type=int, help="override the scenario seed")
    p_cmp.set_defaults(func=cmd_compare)

    p_check = sub.add_parser("check", help="check a stored trace file")
    p_check.add_argument("trace")
    p_check.set_defaults(func=cmd_check)
    return parser


def _load(args) -> Scenario:
    scenario = load_scenario(args.scenario)
    if getattr(args, "seed", None) is not None:
        scenario = scenario.with_seed(args.seed)
    return scenario


def _print_verdicts(verdicts: list[Verdict], show_witnesses: int = 3) -> None:
    for v in verdicts:
        status = "pass" if v.passed else "FAIL"
        note = f" ({v.note})" if v.note else ""
        print(f"{v.prop}: {status}{note}")
        for w in v.witnesses[:show_witnesses]:
            print(f"    steps {list(w.steps)}: {w.description}")
        if len(v.witnesses) > show_witnesses:
            print(f"    ... {len(v.witnesses) - show_witnesses} more")
    anomalies = classify_anomalies(verdicts)
    if anomalies:
        print("anomalies: " + ", ".join(anomalies))


def cmd_run(args) -> int:
    scenario = _load(args)
    trace = Simulation(scenario).run()
    if args.trace:
        trace.write(args.trace)
    report = compute_metrics(trace)
    if args.metrics:
        with open(args.metrics, "w", encoding="utf-8") as fh:
            json.dump(report.to_obj(), fh, indent=2, sort_keys=True)
            fh.write("\n")
    verdicts = run_all_checks(trace)
    print(f"scenario {scenario.name} [{scenario.variant}]: "
          f"{len(trace.records)} trace records, quiesced={trace.meta['quiesced']}")
    for line in report.lines():
        print(line)
    _print_verdicts(verdicts)
    print(summary_line(verdicts))
    return EXIT_PASS if all_passed(verdicts) else EXIT_VIOLATION


def _sweep_share(scenario: Scenario, target: int, worker: int = 0, workers: int = 1):
    """Check one worker's share of the crash points as they are swept.
    Returns the fault-free trace and one (point, verdicts) row per point."""
    rows = []
    base = sweep_crash_points(
        scenario, target, lambda point, trace: rows.append((point, run_all_checks(trace))),
        worker, workers)
    return base, rows


def _sweep(scenario: Scenario, target: int, jobs: int):
    """The fault-free trace and the (point, verdicts) rows of every crash
    point, in occurrence order. With ``jobs`` > 1 each worker process
    repeats the fault-free run and forks only its own share of the points."""
    if jobs <= 1:
        return _sweep_share(scenario, target)
    with ProcessPoolExecutor(max_workers=jobs,
                             mp_context=multiprocessing.get_context("spawn")) as pool:
        shares = list(pool.map(_sweep_share, [scenario] * jobs, [target] * jobs,
                               range(jobs), [jobs] * jobs))
    rows = sorted((row for _, share in shares for row in share),
                  key=lambda row: row[0].occurrence)
    return shares[0][0], rows


def _combined(per_run_verdicts: list[list[Verdict]]) -> list[Verdict]:
    combined = []
    for i, prop in enumerate(PROPERTIES):
        passed = all(vs[i].passed for vs in per_run_verdicts) if per_run_verdicts else True
        combined.append(Verdict(prop, passed))
    return combined


def cmd_sweep(args) -> int:
    scenario = _load(args)
    target = resolve_crash_target(scenario, args.crash)
    _, rows = _sweep(scenario, target, args.jobs)
    print(f"sweep of {scenario.name} [{scenario.variant}]: crash c{target} at "
          f"each of {len(rows)} send/deliver points")
    print(f"{'point':>5} {'t':>4} {'at':<24} {'P1..P6':<13} anomalies")
    for point, verdicts in rows:
        flags = " ".join("+" if v.passed else "-" for v in verdicts)
        anomalies = ",".join(classify_anomalies(verdicts)) or "-"
        where = f"{point.kind} {point.msg_type}"
        print(f"{point.occurrence:>5} {point.t:>4} {where:<24} {flags:<13} {anomalies}")
    combined = _combined([vs for _, vs in rows])
    print(summary_line(combined))
    return EXIT_PASS if all_passed(combined) else EXIT_VIOLATION


def cmd_compare(args) -> int:
    """Side-by-side message counts and verdicts across the three variants.

    Passing means the two bundle-ack variants are violation-free (fault-free
    and across the full leader-crash sweep) and verdict-equivalent; the
    naive baseline's violations are reported but expected.
    """
    scenario = _load(args)
    rows = {}
    for variant in _VARIANT_ORDER:
        trace, sweep_rows = _sweep(scenario.with_variant(variant), 0, args.jobs)
        rows[variant] = (compute_metrics(trace), run_all_checks(trace),
                         [vs for _, vs in sweep_rows])

    print(f"workload {scenario.name}: {len(scenario.workload)} events, "
          f"{scenario.n_controllers} controllers")
    print(f"{'variant':<9} {'deliveries':>10} {'per-event':>9} {'fault-free':<11} "
          f"{'sweep':>6} {'violating':>9} anomalies")
    for variant in _VARIANT_ORDER:
        report, verdicts, sweep_verdicts = rows[variant]
        violating = [vs for vs in sweep_verdicts if not all_passed(vs)]
        labels = sorted({a for vs in violating for a in classify_anomalies(vs)})
        ff = "pass" if all_passed(verdicts) else "FAIL"
        print(f"{variant:<9} {report.total:>10} {report.per_event:>9.1f} {ff:<11} "
              f"{len(sweep_verdicts):>6} {len(violating):>9} {','.join(labels) or '-'}")

    def flags(variant):
        _, verdicts, sweep_verdicts = rows[variant]
        return [[v.passed for v in vs] for vs in [verdicts] + sweep_verdicts]

    equivalent = flags("PAPER_A") == flags("PAPER_B")
    print(f"variant equivalence (PAPER_A vs PAPER_B verdicts): "
          f"{'yes' if equivalent else 'NO'}")

    ack_variant_runs = []
    for variant in ("PAPER_A", "PAPER_B"):
        _, verdicts, sweep_verdicts = rows[variant]
        ack_variant_runs.append(verdicts)
        ack_variant_runs.extend(sweep_verdicts)
    combined = _combined(ack_variant_runs)
    ok = all_passed(combined) and equivalent
    prop_flags = " ".join(f"{v.prop}={'+' if v.passed else '-'}" for v in combined)
    print(f"RESULT {'pass' if ok else 'fail'} {prop_flags}")
    return EXIT_PASS if ok else EXIT_VIOLATION


def cmd_check(args) -> int:
    trace = Trace.read(args.trace)
    verdicts = run_all_checks(trace)
    report = compute_metrics(trace)
    print(f"trace {args.trace}: {len(trace.records)} records, "
          f"variant={trace.meta.get('variant')}, quiesced={trace.meta.get('quiesced')}")
    for line in report.lines():
        print(line)
    _print_verdicts(verdicts)
    print(summary_line(verdicts))
    return EXIT_PASS if all_passed(verdicts) else EXIT_VIOLATION


if __name__ == "__main__":
    sys.exit(main())
