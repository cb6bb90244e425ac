"""Acceptance suite: one test per release criterion, each printing a
pass/fail line. Run with ``pytest tests/test_acceptance.py -v -s``."""

import json
import time
from functools import lru_cache

from builders import (apply_event, bundle_commit_exec, learning_scenario,
                      one_command_scenario, packet_in_send, synthetic_trace)
from sdnsim import (
    FaultSpec,
    Simulation,
    TracePointSpec,
    all_passed,
    classify_anomalies,
    compute_metrics,
    enumerate_crash_points,
    run_all_checks,
)
from sdnsim.checker import PROPERTIES, run_all_checks as _checks


def _report(criterion: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {criterion}: {status}{suffix}")
    assert ok, f"{criterion}: {detail}"


@lru_cache(maxsize=None)
def sweep_results(variant: str, suppress: bool = False):
    sc = learning_scenario(variant, suppress_slave_events=suppress)
    points = enumerate_crash_points(sc, 0)
    results = []
    for p in points:
        verdicts = run_all_checks(Simulation(p.scenario).run())
        results.append((p, verdicts))
    return results


def test_criterion_1_crash_sweep_safety(tmp_path):
    """Every leader crash point under both bundle-ack variants passes P1-P6."""
    from sdnsim.cli import main
    from sdnsim.scenario import scenario_to_obj

    start = time.monotonic()
    ok = True
    counts = {}
    for variant in ("PAPER_A", "PAPER_B"):
        results = sweep_results(variant)
        counts[variant] = len(results)
        ok = ok and len(results) >= 24  # dozens of points
        ok = ok and all(all_passed(vs) for _, vs in results)
        path = tmp_path / f"{variant}.json"
        path.write_text(json.dumps(scenario_to_obj(learning_scenario(variant))))
        ok = ok and main(["sweep", str(path), "--crash", "leader"]) == 0
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 60.0
    _report("1 crash-sweep safety", ok,
            f"PAPER_A={counts['PAPER_A']} points, PAPER_B={counts['PAPER_B']} "
            f"points, zero violations, {elapsed:.1f}s")


def test_criterion_2_baseline_anomalies():
    """The naive baseline shows REPEATED_COMMAND in the sweep and LOST_EVENT
    once slave event delivery is suppressed."""
    repeated = [p.occurrence for p, vs in sweep_results("NAIVE")
                if "REPEATED_COMMAND" in classify_anomalies(vs)]
    lost = [p.occurrence for p, vs in sweep_results("NAIVE", suppress=True)
            if "LOST_EVENT" in classify_anomalies(vs)]
    _report("2 baseline anomaly reproduction",
            bool(repeated) and bool(lost),
            f"REPEATED_COMMAND at {len(repeated)} points, "
            f"LOST_EVENT at {len(lost)} points")


def _bundle_commits(trace):
    counts = {}
    for r in trace.records:
        if r.kind == "EXEC" and r.detail.get("exec") == "BUNDLE_COMMIT":
            key = (r.actor, r.detail["bundle"])
            counts[key] = counts.get(key, 0) + 1
    return counts


def test_criterion_3_canonical_crash_timings():
    """Crashing the leader before the commit lands, after it lands but before
    the acks land, and after the acks land all leave exactly one commit."""
    timings = [
        ("before commit delivered", TracePointSpec("SEND", "BundleCommit", 1)),
        ("after commit, before acks", TracePointSpec("DELIVER", "BundleCtrlReply", 1)),
        ("after acks delivered", TracePointSpec("DELIVER", "PacketIn", 2)),
    ]
    ok = True
    details = []
    for label, spec in timings:
        sc = one_command_scenario().with_extra_fault(FaultSpec(0, at_point=spec))
        trace = Simulation(sc).run()
        commits = _bundle_commits(trace)
        case_ok = commits == {("s0", "1"): 1} and all_passed(run_all_checks(trace))
        crash_step = next(r.step for r in trace.records if r.kind == "CRASH")
        commit_steps = [r.step for r in trace.records
                        if r.kind == "EXEC" and r.detail.get("exec") == "BUNDLE_COMMIT"]
        if label == "before commit delivered":
            case_ok = case_ok and commit_steps[0] > crash_step
        else:
            case_ok = case_ok and commit_steps[0] < crash_step
        if label == "after commit, before acks":
            ack_delivers = [r.step for r in trace.records
                            if r.kind == "DELIVER" and r.actor in ("c1", "c2")
                            and (r.msg or {}).get("reason") == "ACTION"]
            case_ok = case_ok and min(ack_delivers) > crash_step
        ok = ok and case_ok
        details.append(f"{label}: {'1 commit' if case_ok else 'VIOLATION'}")
    _report("3 exactly-once under canonical timings", ok, "; ".join(details))


def test_criterion_4_determinism(tmp_path):
    """Equal seeds give byte-identical trace files."""
    ok = True
    for name, sc in [
        ("fault-free", learning_scenario()),
        ("faulted", learning_scenario().with_extra_fault(FaultSpec(0, at_time=9))),
    ]:
        paths = []
        for i in range(2):
            trace = Simulation(sc).run()
            path = tmp_path / f"{name}-{i}.trace"
            trace.write(str(path))
            paths.append(path)
        ok = ok and paths[0].read_bytes() == paths[1].read_bytes()
    _report("4 determinism", ok, "byte-identical trace files")


def test_criterion_5_message_overhead():
    """Deliveries match the hand formula N + 3(N-1) + (k+3) + 2 + N = 18 for
    one event and one command; the naive baseline is strictly cheaper."""
    n, k = 3, 1
    expected = n + 3 * (n - 1) + (k + 3) + 2 + n
    paper = compute_metrics(Simulation(one_command_scenario()).run())
    naive = compute_metrics(Simulation(one_command_scenario("NAIVE")).run())
    ok = expected == 18 and paper.total == expected and naive.total < paper.total
    _report("5 message-overhead accounting", ok,
            f"PAPER_A={paper.total} (formula {expected}), NAIVE={naive.total}")


def test_criterion_6_variant_equivalence():
    """Both ack-delivery mechanisms yield identical verdicts over the sweep."""
    flags_a = [[v.passed for v in vs] for _, vs in sweep_results("PAPER_A")]
    flags_b = [[v.passed for v in vs] for _, vs in sweep_results("PAPER_B")]
    ok = flags_a == flags_b and len(flags_a) > 0
    _report("6 variant equivalence", ok,
            f"{len(flags_a)} sweep verdict rows identical")


def test_criterion_7_safety_under_majority_loss():
    """Two of three controllers crash: survivors stall, safety holds."""
    sc = learning_scenario().with_extra_fault(
        FaultSpec(0, at_time=9)).with_extra_fault(FaultSpec(1, at_time=12))
    trace = Simulation(sc).run()
    stalls = [r for r in trace.records if r.kind == "STALL"]
    verdicts = {v.prop: v for v in run_all_checks(trace)}
    safety = ["P1", "P3", "P4", "P6"]
    ok = bool(stalls) and all(verdicts[p].passed for p in safety)
    _report("7 safety under majority loss", ok,
            f"{len(stalls)} STALL record(s); " +
            ", ".join(f"{p}=pass" for p in safety if verdicts[p].passed))


def test_criterion_8_synthetic_counterexamples():
    """Every property has a violating fixture it fails with witnesses citing
    real steps, and a passing fixture."""
    committed = [apply_event(f"c{c}", 4, "0:1", commands="1=1") for c in range(3)]
    failing = {
        "P1": synthetic_trace([apply_event("c0", 1, "0:1"),
                               apply_event("c0", 2, "0:2"),
                               apply_event("c1", 1, "0:2"),
                               apply_event("c1", 2, "0:1")]),
        "P2": synthetic_trace([packet_in_send("s0", "c0", "0:1"),
                               ("CRASH", "c0", None, None, None)]),
        "P3": synthetic_trace([apply_event("c0", 1, "0:1"),
                               apply_event("c0", 2, "0:1")]),
        "P4": synthetic_trace(committed + [bundle_commit_exec("s1", 4),
                                           bundle_commit_exec("s1", 4)]),
        "P5": synthetic_trace([apply_event("c0", 1, "0:1", digest="aa"),
                               apply_event("c1", 1, "0:1", digest="bb"),
                               apply_event("c2", 1, "0:1", digest="aa")]),
        "P6": synthetic_trace([("EXEC", "s0", None, None,
                                {"exec": "FLOWMOD", "bundle": "4",
                                 "from": "0"})]),
    }
    passing = {
        "P1": synthetic_trace([apply_event("c0", 1, "0:1"),
                               apply_event("c1", 1, "0:1")]),
        "P2": synthetic_trace([packet_in_send("s0", f"c{c}", "0:1") for c in range(3)]
                              + [apply_event(f"c{c}", 1, "0:1") for c in range(3)]),
        "P3": synthetic_trace([apply_event("c0", 1, "0:1")]),
        "P4": synthetic_trace(committed + [bundle_commit_exec("s1", 4)]),
        "P5": synthetic_trace([apply_event(f"c{c}", 1, "0:1", digest="aa")
                               for c in range(3)]),
        "P6": synthetic_trace(
            [("DELIVER", "s0", "c0", {"type": "BundleOpen", "bundle_id": 4}, None),
             ("DELIVER", "s0", "c0", {"type": "BundleAdd", "bundle_id": 4,
                                      "inner": {"type": "FlowMod"}}, None),
             bundle_commit_exec("s0", 4),
             ("EXEC", "s0", None, None,
              {"exec": "FLOWMOD", "bundle": "4", "from": "0"})]),
    }
    ok = True
    for i, prop in enumerate(PROPERTIES):
        fail_verdict = _checks(failing[prop])[i]
        pass_verdict = _checks(passing[prop])[i]
        steps = {r.step for r in failing[prop].records}
        fixture_ok = (not fail_verdict.passed
                      and all(w.steps and set(w.steps) <= steps
                              for w in fail_verdict.witnesses)
                      and pass_verdict.passed)
        ok = ok and fixture_ok
    _report("8 synthetic counterexample suite", ok,
            "violating and passing fixtures for P1..P6")
