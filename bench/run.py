"""sdnsim benchmark: drives the real ``sdnsim`` commands in-process.

    python3 bench/run.py --workload leader_sweep --seed 1 --seconds 35 --trace 0

Run from anywhere inside a checkout: the program is imported from the
checkout's own ``src/`` and nothing else. The workload is generated from
``--seed`` (see ``workloads.py``), written as a scenario file and handed to
``sdnsim.cli.main`` one command at a time with ``--jobs 1``; the benchmark
repeats the workload's commands until ``--seconds`` would be exceeded and
reports medians over those iterations. Every time is scaled to a reference
host speed by the probes in ``speed.py``. This is a batch tool, so it reports
work done per second at the workload's fixed size, not latency under load.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` alternates
untraced and traced iterations and prints the per-layer metrics: spans
around each module's entry points (``spans.py``), cyclic-GC pauses, and the
tracing overhead against the untraced iterations. The span table is also
written to ``bench/out/spans-<workload>-s<seed>.json``.

Every iteration's outputs are checked; a failed check counts as a failed
operation. The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``; the lines before it give
the sample counts, quartiles and the trace and verdict fingerprints.
Exits 1 without a result when the checkout has no sdnsim sources.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import spans
from speed import SpeedProbe
from workloads import WORKLOADS, write_workload

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
SETUP_CHILDREN = 7

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "run_s": "s",
    "check_s": "s",
    "points_per_s": "1/s",
    "records_per_s": "1/s",
    "peak_rss_mb": "MB",
    "msgs_per_event": "msg/event",
}

PER_LAYER = {
    "netsim.run_s": "s",
    "netsim.self_s": "s",
    "netsim.runs": "count",
    "netsim.records": "count",
    "netsim.enumerate_s": "s",
    "netsim.crash_points": "count",
    "netsim.replayed_records": "count",
    "netsim.replay_ratio": "ratio",
    "replica.busy_s": "s",
    "replica.calls": "count",
    "apps.step_s": "s",
    "apps.digest_s": "s",
    "apps.digest_calls": "count",
    "switchsim.busy_s": "s",
    "switchsim.calls": "count",
    "switchsim.hit_ratio": "ratio",
    "ofmodel.decode_ack_calls": "count",
    "trace.append_s": "s",
    "trace.msg_to_wire_s": "s",
    "trace.msg_to_wire_calls": "count",
    "trace.encode_s": "s",
    "trace.decode_s": "s",
    "trace.bytes": "bytes",
    "checker.P1_s": "s",
    "checker.P2_s": "s",
    "checker.P3_s": "s",
    "checker.P4_s": "s",
    "checker.P5_s": "s",
    "checker.P6_s": "s",
    "checker.total_s": "s",
    "checker.run_builds": "count",
    "metrics.compute_s": "s",
    "scenario.load_s": "s",
    "cli.self_s": "s",
    "gc.pause_s": "s",
    "gc.gen2_collections": "count",
    "tracer.overhead": "ratio",
}

EXPECTED_EXIT = 0  # every workload runs bundle-ack scenarios that must pass


def import_sdnsim():
    """Import sdnsim from this checkout's src/ only."""
    if not (SRC / "sdnsim" / "__init__.py").is_file():
        raise SystemExit(f"error: no sdnsim sources at {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import sdnsim
    import sdnsim.cli
    if Path(sdnsim.__file__).resolve().parent != (SRC / "sdnsim").resolve():
        raise SystemExit(f"error: imported sdnsim from {sdnsim.__file__}, not {SRC}")
    return sdnsim


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@dataclass
class Outcome:
    """One command's exit code (None if it raised), host time and output."""

    rc: int | None
    seconds: float
    out: str
    err: str
    scale: float  # reference seconds per host second (see speed.py)


@dataclass
class Iteration:
    outcomes: dict[str, Outcome]
    records: int  # trace records simulated during the iteration
    attempted: int = 0
    failed: int = 0
    points: int = 0  # crash points swept
    problems: list[str] = field(default_factory=list)
    fingerprints: dict[str, str] = field(default_factory=dict)
    msgs_per_event: float = 0.0
    trace_bytes: int = 0

    @property
    def wall(self) -> float:
        """Raw host seconds of the iteration's commands."""
        return sum(o.seconds for o in self.outcomes.values())

    @property
    def scaled_wall(self) -> float:
        return sum(o.seconds * o.scale for o in self.outcomes.values())

    @property
    def scale(self) -> float:
        return self.scaled_wall / self.wall


class Bench:
    def __init__(self, sdnsim, workload, seed: int, work: Path,
                 counter: spans.RunCounter):
        self.sdnsim = sdnsim
        self.workload = workload
        self.scenario_path = write_workload(workload, seed, work)
        self.trace_path = work / "run.trace"
        self.metrics_path = work / "run.metrics.json"
        sdnsim.load_scenario(str(self.scenario_path))  # fail early on a bad file
        scen = str(self.scenario_path)
        self.argv = {
            "run": ["run", scen, "--trace", str(self.trace_path),
                    "--metrics", str(self.metrics_path)],
            "check": ["check", str(self.trace_path)],
            "sweep": ["sweep", scen, "--crash", "leader", "--jobs", "1"],
            "compare": ["compare", scen, "--jobs", "1"],
        }
        self.counter = counter
        self.speed = SpeedProbe()
        self.reference: Iteration | None = None  # first fully verified iteration

    def execute(self) -> Iteration:
        """Run the workload's commands once, timing each under the speed probe."""
        outcomes = {}
        records_before = self.counter.records
        self.trace_path.unlink(missing_ok=True)
        self.metrics_path.unlink(missing_ok=True)
        for name in self.workload.commands:
            out, err = io.StringIO(), io.StringIO()

            def command(argv=self.argv[name]):
                try:
                    with redirect_stdout(out), redirect_stderr(err):
                        return self.sdnsim.cli.main(argv)
                except Exception:  # a simulator failure is a finding, not a crash
                    err.write(traceback.format_exc())
                    return None

            rc, seconds, scale = self.speed.run(command)
            outcomes[name] = Outcome(rc, seconds, out.getvalue(), err.getvalue(), scale)
        return Iteration(outcomes, self.counter.records - records_before)

    # ------------------------------------------------------------------
    # output checks

    def examine(self, it: Iteration) -> None:
        """Check one iteration's outputs; the first one checked becomes the
        reference that later iterations must reproduce."""
        failed_ops: set[str] = set()

        def fail(op: str, why: str) -> None:
            failed_ops.add(op)
            it.problems.append(f"{op}: {why}")

        for name, o in it.outcomes.items():
            if o.rc != EXPECTED_EXIT:
                fail(name, f"exit code {o.rc}, expected {EXPECTED_EXIT}: "
                           f"{o.err.strip()[-500:]}")

        run = it.outcomes["run"]
        if self.trace_path.is_file():
            it.fingerprints["trace"] = sha256_file(self.trace_path)
            it.trace_bytes = self.trace_path.stat().st_size
        if self.metrics_path.is_file():
            it.msgs_per_event = json.loads(self.metrics_path.read_text())["per_event"]
        main = next((c for c in ("sweep", "compare") if c in it.outcomes), None)
        verdict_text = run.out + (it.outcomes[main].out if main else "")
        it.fingerprints["verdicts"] = hashlib.sha256(verdict_text.encode()).hexdigest()

        ref = self.reference
        if ref is None:
            if run.rc == EXPECTED_EXIT and not self._round_trips():
                fail("run", "trace read back does not reproduce the written lines")
        elif (it.fingerprints, it.msgs_per_event) != (ref.fingerprints, ref.msgs_per_event):
            fail("run", "outputs differ from the first iteration's")

        check = it.outcomes["check"]
        if _last_line(check.out) != _last_line(run.out):
            fail("check", f"RESULT {_last_line(check.out)!r} differs from run's "
                          f"{_last_line(run.out)!r}")

        points = failed_points = 0
        if main == "sweep":
            points, failed_points = self._sweep_points(it, fail)
        elif main == "compare":
            points, failed_points = self._compare_points(it, fail)
        it.points = points
        it.attempted = len(it.outcomes) + points
        it.failed = len(failed_ops) + failed_points
        if ref is None:
            self.reference = it

    def _round_trips(self) -> bool:
        written = self.trace_path.read_text(encoding="utf-8")
        lines = self.sdnsim.Trace.read(str(self.trace_path)).to_lines()
        return "".join(line + "\n" for line in lines) == written

    def _sweep_points(self, it: Iteration, fail) -> tuple[int, int]:
        o = it.outcomes["sweep"]
        if o.rc is None:
            return self._replay_points((self.workload.variant,))
        rows = _table_rows(o.out, "point")
        bad = sum(1 for r in rows if r[4:10] != ["+"] * 6)
        header = o.out.splitlines()[0] if o.out else ""
        if f"each of {len(rows)} " not in header:
            fail("sweep", f"{len(rows)} verdict rows but header says {header!r}")
        return len(rows), bad

    def _compare_points(self, it: Iteration, fail) -> tuple[int, int]:
        o = it.outcomes["compare"]
        if o.rc is None:
            return self._replay_points(("PAPER_A", "PAPER_B"))
        rows = {r[0]: r for r in _table_rows(o.out, "variant")}
        if set(rows) != {"NAIVE", "PAPER_A", "PAPER_B"}:
            fail("compare", f"variant rows {sorted(rows)}")
            return 0, 0
        if "REPEATED_COMMAND" not in rows["NAIVE"][6].split(","):
            fail("compare", "NAIVE reports no REPEATED_COMMAND")
        if "variant equivalence (PAPER_A vs PAPER_B verdicts): yes" not in o.out:
            fail("compare", "PAPER_A and PAPER_B are not verdict-equivalent")
        points = bad = 0
        for variant in ("PAPER_A", "PAPER_B"):
            _, _, _, fault_free, swept, violating, _ = rows[variant]
            if fault_free != "pass":
                fail("compare", f"{variant} fault-free run fails")
            points += int(swept)
            bad += int(violating)
        return points, bad

    def _replay_points(self, variants) -> tuple[int, int]:
        """A sweep command raised: re-run its crash points one at a time
        through the library, so each point that raises or violates counts
        as one failed point."""
        sd = self.sdnsim
        scenario = sd.load_scenario(str(self.scenario_path))
        points = failed = 0
        for variant in variants:
            try:
                derived = sd.enumerate_crash_points(scenario.with_variant(variant), 0)
            except Exception:
                points, failed = points + 1, failed + 1
                continue
            for p in derived:
                points += 1
                try:
                    ok = sd.all_passed(sd.run_all_checks(sd.Simulation(p.scenario).run()))
                except Exception:
                    ok = False
                failed += not ok
        return points, failed


def _last_line(text: str) -> str:
    lines = text.strip().splitlines()
    return lines[-1] if lines else ""


def _table_rows(text: str, header_word: str) -> list[list[str]]:
    """Whitespace-split rows after the table header up to the RESULT line."""
    rows, inside = [], False
    for line in text.splitlines():
        if line.split()[:1] == [header_word]:
            inside = True
        elif inside and (line.startswith("RESULT") or line.startswith("variant equivalence")):
            break
        elif inside:
            rows.append(line.split())
    return rows


# ----------------------------------------------------------------------
# measurement

def measure_setup(workload_name: str, seed: int, work: Path) -> list[float]:
    """Scaled set-up times, one per fresh interpreter: import sdnsim,
    generate the workload and load it."""
    samples = []
    for i in range(SETUP_CHILDREN):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload_name,
             "--seed", str(seed), "--setup-child", str(work / f"setup{i}")],
            capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(proc.stdout))
    return samples


def setup_child(workload_name: str, seed: int, out_dir: Path) -> None:
    def setup():
        sdnsim = import_sdnsim()
        sdnsim.load_scenario(str(write_workload(WORKLOADS[workload_name], seed, out_dir)))

    _, seconds, scale = SpeedProbe().run(setup)
    print(repr(seconds * scale))


def timed_loop(seconds: float, unit) -> None:
    """Call ``unit()`` until another call would pass ``seconds``; at least once."""
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        unit()
        now = time.perf_counter()
        if now + (now - t0) > start + seconds:
            return


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def end_to_end(iterations: list[Iteration], setup: list[float]) -> dict:
    walls = [it.scaled_wall for it in iterations]
    scaled = {name: [it.outcomes[name].seconds * it.outcomes[name].scale for it in iterations]
              for name in ("run", "check")}
    return {
        "setup_s": setup,
        "wall_s": walls,
        "run_s": scaled["run"],
        "check_s": scaled["check"],
        # long_run sweeps nothing; its one fault-free run is its one point
        "points_per_s": [max(it.points, 1) / w for it, w in zip(iterations, walls)],
        "records_per_s": [it.records / w for it, w in zip(iterations, walls)],
        "peak_rss_mb": [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024],
        "msgs_per_event": [it.msgs_per_event for it in iterations],
    }


def per_layer(tracer: spans.Tracer, stats: dict, gcm: spans.GcMeter,
              traced: list[Iteration], untraced: list[Iteration]) -> dict:
    """Per-iteration means over the traced iterations; times are scaled by
    the traced iterations' median scale."""
    n = len(traced)
    scale = statistics.median(it.scale for it in traced)
    by = tracer.by_name()

    def total(name):
        return by.get(name, [0, 0.0, 0.0])[1] * scale

    def calls(name):
        return by.get(name, [0, 0.0, 0.0])[0]

    def layer_self(prefix):
        return sum(v[2] for k, v in by.items() if k.split(".")[0] == prefix) * scale

    def layer_calls(prefix):
        return sum(v[0] for k, v in by.items() if k.split(".")[0] == prefix)

    records = sum(it.records for it in traced)
    sums = {
        "netsim.run_s": total("netsim.run"),
        "netsim.self_s": layer_self("netsim"),
        "netsim.runs": calls("netsim.run"),
        "netsim.records": records,
        "netsim.enumerate_s": total("netsim.enumerate"),
        "netsim.crash_points": stats["crash_points"],
        "netsim.replayed_records": stats["replayed_records"],
        "replica.busy_s": layer_self("replica"),
        "replica.calls": layer_calls("replica"),
        "apps.step_s": total("apps.step"),
        "apps.digest_s": total("apps.digest"),
        "apps.digest_calls": calls("apps.digest"),
        "switchsim.busy_s": layer_self("switchsim"),
        "switchsim.calls": layer_calls("switchsim"),
        "ofmodel.decode_ack_calls": tracer.counts["ofmodel.decode_ack"],
        "trace.append_s": total("trace.append"),
        "trace.msg_to_wire_s": total("trace.msg_to_wire"),
        "trace.msg_to_wire_calls": calls("trace.msg_to_wire"),
        "trace.encode_s": total("trace.encode"),
        "trace.decode_s": total("trace.decode"),
        "trace.bytes": sum(it.trace_bytes for it in traced),
        **{f"checker.P{k}_s": total(f"checker.P{k}") for k in range(1, 7)},
        "checker.total_s": total("checker.total"),
        "checker.run_builds": calls("checker.run_build"),
        "metrics.compute_s": total("metrics.compute"),
        "scenario.load_s": total("scenario.load"),
        "cli.self_s": layer_self("cli"),
        "gc.pause_s": gcm.pause_s * scale,
        "gc.gen2_collections": gcm.gen2,
    }
    out = {k: v / n for k, v in sums.items()}
    out["netsim.replay_ratio"] = stats["replayed_records"] / records if records else 0.0
    out["switchsim.hit_ratio"] = (stats["table_hits"] / stats["packets"]
                                  if stats["packets"] else 0.0)
    traced_wall = statistics.median(it.scaled_wall for it in traced)
    untraced_wall = statistics.median(it.scaled_wall for it in untraced)
    out["tracer.overhead"] = traced_wall / untraced_wall - 1
    return out


def run_benchmark(workload_name: str, seed: int, seconds: float, trace: bool,
                  out_dir: Path) -> dict:
    """Measure one workload; returns the result object (see module doc)."""
    sdnsim = import_sdnsim()
    workload = WORKLOADS[workload_name]
    work = BENCH_DIR / ".work" / f"{workload_name}-s{seed}-t{int(trace)}-{os.getpid()}"
    work.mkdir(parents=True)
    counting = spans.Patches()
    try:
        setup = [] if trace else measure_setup(workload_name, seed, work)
        counter = spans.RunCounter()
        counter.install(sdnsim, counting)
        bench = Bench(sdnsim, workload, seed, work, counter)
        untraced: list[Iteration] = []
        traced: list[Iteration] = []
        tracer = spans.Tracer(bench.speed.clock)
        stats, gcm = defaultdict(int), spans.GcMeter()

        def plain():
            gc.collect()
            it = bench.execute()
            bench.examine(it)
            untraced.append(it)

        def instrumented():
            gc.collect()
            patches = spans.Patches()
            spans.install(tracer, sdnsim, patches, stats)
            try:
                with gcm:
                    it = bench.execute()
            finally:
                patches.restore()
            bench.examine(it)
            traced.append(it)

        if trace:
            def pair():  # alternate which side of the pair runs first
                first, second = (plain, instrumented) if len(traced) % 2 == 0 \
                    else (instrumented, plain)
                first()
                second()
            timed_loop(seconds, pair)
        else:
            timed_loop(seconds, plain)
    finally:
        counting.restore()
        shutil.rmtree(work, ignore_errors=True)

    iterations = untraced + traced
    problems = [p for it in iterations for p in it.problems]
    for it in traced:
        if it.fingerprints != untraced[0].fingerprints or it.records != untraced[0].records:
            problems.append("traced run: fingerprints or record count differ from untraced")
    result_metrics = {}
    lines = [f"workload {workload_name} seed {seed}: {len(untraced)} untraced and "
             f"{len(traced)} traced iterations of {' + '.join(workload.commands)}; "
             f"raw median wall {statistics.median(it.wall for it in untraced):.6g} s, "
             f"median scale {statistics.median(it.scale for it in iterations):.4f}"]
    if trace:
        values = per_layer(tracer, stats, gcm, traced, untraced)
        for name, unit in PER_LAYER.items():
            result_metrics[name] = {"value": values[name], "unit": unit}
        out_dir.mkdir(parents=True, exist_ok=True)
        span_file = out_dir / f"spans-{workload_name}-s{seed}.json"
        span_file.write_text(json.dumps({"workload": workload_name, "seed": seed,
                                         "traced_iterations": len(traced),
                                         "per_layer": values, **tracer.to_obj()},
                                        indent=1) + "\n")
        lines.append(f"  spans written to {span_file}")
    else:
        samples = end_to_end(untraced, setup)
        for name, unit in END_TO_END.items():
            q1, med, q3 = quartiles(samples[name])
            result_metrics[name] = {"value": med, "unit": unit}
            lines.append(f"  {name:<15} median {med:.6g} {unit}  q1 {q1:.6g}  q3 {q3:.6g}  "
                         f"max {max(samples[name]):.6g}  n={len(samples[name])}")
    lines.append("fingerprints " + json.dumps(untraced[0].fingerprints, sort_keys=True))
    lines.extend(f"problem: {p}" for p in problems)
    attempted = sum(it.attempted for it in iterations)
    failed = sum(it.failed for it in iterations)
    return {
        "lines": lines,
        "result": {"correct": not problems and failed == 0, "attempted": attempted,
                   "failed": failed, "metrics": result_metrics},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="sdnsim benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-child", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_child is not None:
        setup_child(args.workload, args.seed, args.setup_child)
        return 0
    report = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace),
                           BENCH_DIR / "out")
    for line in report["lines"]:
        print(line)
    print(json.dumps(report["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
