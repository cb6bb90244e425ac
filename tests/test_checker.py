import time
from collections import Counter
from pathlib import Path

import pytest

from builders import (STALL, CountedRecords, apply_event, bundle_commit_exec,
                      learning_scenario, one_command_scenario, packet_in_send,
                      synthetic_trace)
from sdnsim import Simulation, checker, compute_metrics, load_scenario, sweep_crash_points
from sdnsim.checker import (
    PROPERTIES,
    Verdict,
    _Run,
    check_at_least_once,
    check_at_most_once,
    check_bundle_atomicity,
    check_exactly_once_commands,
    check_replica_convergence,
    check_total_order,
    check_trace,
    classify_anomalies,
    combined,
    run_all_checks,
    summary_line,
)
from sdnsim.ofmodel import ACK_MARKER, MAX_CONTROLLERS
from sdnsim.scenario import VARIANTS

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


def assert_valid_witnesses(verdict, trace):
    assert not verdict.passed
    assert verdict.witnesses, "failed verdicts must carry witnesses"
    steps = {r.step for r in trace.records}
    for w in verdict.witnesses:
        assert w.steps, "witness must cite at least one step"
        assert set(w.steps) <= steps, "witness cites a nonexistent step"


# ----------------------------------------------------------------------
# P1 total order

def test_p1_passes_on_agreeing_replicas():
    trace = synthetic_trace([
        apply_event("c0", 1, "0:1"), apply_event("c0", 2, "0:2"),
        apply_event("c1", 1, "0:1"), apply_event("c1", 2, "0:2"),
        apply_event("c2", 1, "0:1"),  # shorter prefix is fine
    ])
    assert check_total_order(_Run(trace)).passed


def test_p1_fails_on_swapped_order():
    trace = synthetic_trace([
        apply_event("c0", 1, "0:1"), apply_event("c0", 2, "0:2"),
        apply_event("c1", 1, "0:2"), apply_event("c1", 2, "0:1"),
    ])
    verdict = check_total_order(_Run(trace))
    assert_valid_witnesses(verdict, trace)
    assert classify_anomalies([verdict]) == ["ORDER_DIVERGENCE"]


def test_p1_cost_does_not_grow_with_the_controller_count_in_the_metadata():
    # n_controllers is read from the trace file; P1 pairs only the replicas
    # that applied an event, so the largest count a trace may claim costs nothing
    trace = Simulation(one_command_scenario()).run()
    trace.meta["n_controllers"] = MAX_CONTROLLERS
    run = _Run(trace)
    start = time.perf_counter()
    assert check_total_order(run).passed
    assert time.perf_counter() - start < 2.0


# ----------------------------------------------------------------------
# P2 at least once

def test_p2_passes_when_everyone_applied_everything():
    records = [packet_in_send("s0", f"c{c}", "0:1") for c in range(3)]
    records += [apply_event(f"c{c}", 1, "0:1") for c in range(3)]
    assert check_at_least_once(_Run(synthetic_trace(records))).passed


def test_p2_fails_when_delivery_was_suppressed():
    # the event reached only the (now crashed) master
    trace = synthetic_trace(
        [packet_in_send("s0", "c0", "0:1"),
         ("CRASH", "c0", None, None, None)])
    verdict = check_at_least_once(_Run(trace))
    assert_valid_witnesses(verdict, trace)
    assert classify_anomalies([verdict]) == ["LOST_EVENT"]


def test_p2_is_gated_by_quiescence_and_fault_bound():
    # within the fault bound, a stall is itself the failure, at the STALL step
    trace = synthetic_trace([packet_in_send("s0", "c0", "0:1"), STALL])
    verdict = check_at_least_once(_Run(trace))
    assert_valid_witnesses(verdict, trace)
    assert [w.steps for w in verdict.witnesses] == [(2,)]
    assert verdict.witnesses[0].description.startswith("no-progress: ")
    assert classify_anomalies([verdict]) == ["NO_PROGRESS"]
    majority_lost = [packet_in_send("s0", "c2", "0:1"),
                     ("CRASH", "c0", None, None, None),
                     ("CRASH", "c1", None, None, None)]
    for records in (majority_lost, majority_lost + [STALL]):
        verdict = check_at_least_once(_Run(synthetic_trace(records)))
        assert verdict.passed and "not checked" in verdict.note


def test_run_reads_the_stall_in_its_own_pass():
    trace = Simulation(one_command_scenario(quiesce_limit=5)).run()
    stall = trace.records[-1]
    assert (stall.kind, stall.actor) == ("STALL", "sim")
    trace.records = CountedRecords(trace.records)
    verdicts, _, quiesced = check_trace(trace)
    assert (trace.records.walks, quiesced) == (1, False)
    assert _Run(trace).stall_step == stall.step
    assert verdicts == run_all_checks(trace)
    assert [v.passed for v in verdicts] == [True, False, True, True, True, True]
    assert [w.steps for w in verdicts[1].witnesses] == [(stall.step,)]
    assert classify_anomalies(verdicts) == ["NO_PROGRESS"]


def test_p2_ignores_ack_packet_ins():
    from sdnsim.ofmodel import encode_ack
    records = [packet_in_send("s0", "c0", "0:9",
                              payload_hex=encode_ack(1, 0).hex())]
    assert check_at_least_once(_Run(synthetic_trace(records))).passed


def test_marker_prefixed_payload_of_wrong_length_is_an_event():
    # Replicas classify PacketIns with decode_ack, which rejects this payload,
    # so they log it as an event; P2 and the metrics must agree.
    payload_hex = (ACK_MARKER + b"\x00" * 3).hex()
    trace = synthetic_trace([packet_in_send("s0", "c0", "0:9", payload_hex)])
    verdict = check_at_least_once(_Run(trace))
    assert_valid_witnesses(verdict, trace)
    assert "lost-event: 0:9" in verdict.witnesses[0].description
    assert compute_metrics(trace).n_events == 1


# ----------------------------------------------------------------------
# P3 at most once

def test_p3_passes_on_empty_trace():
    assert check_at_most_once(_Run(synthetic_trace([]))).passed


def test_p3_fails_on_duplicate_apply():
    trace = synthetic_trace([
        apply_event("c0", 1, "0:1"), apply_event("c0", 2, "0:1"),
    ])
    verdict = check_at_most_once(_Run(trace))
    assert_valid_witnesses(verdict, trace)
    assert classify_anomalies([verdict]) == ["REPEATED_EVENT"]


# ----------------------------------------------------------------------
# P4 exactly-once commands

def committed_apply_records():
    return [apply_event(f"c{c}", 4, "0:1", commands="1=1") for c in range(3)]


def test_p4_passes_on_exactly_one_commit():
    trace = synthetic_trace(committed_apply_records() +
                            [bundle_commit_exec("s1", 4)])
    assert check_exactly_once_commands(_Run(trace)).passed


def test_p4_fails_on_double_commit():
    trace = synthetic_trace(committed_apply_records() +
                            [bundle_commit_exec("s1", 4),
                             bundle_commit_exec("s1", 4)])
    verdict = check_exactly_once_commands(_Run(trace))
    assert_valid_witnesses(verdict, trace)
    assert classify_anomalies([verdict]) == ["REPEATED_COMMAND"]


def test_p4_duplicates_flagged_even_without_quiescence():
    trace = synthetic_trace([bundle_commit_exec("s1", 4),
                             bundle_commit_exec("s1", 4), STALL])
    verdict = check_exactly_once_commands(_Run(trace))
    assert_valid_witnesses(verdict, trace)


def test_p4_fails_on_missing_execution_at_quiescence():
    trace = synthetic_trace(committed_apply_records())
    verdict = check_exactly_once_commands(_Run(trace))
    assert_valid_witnesses(verdict, trace)
    assert classify_anomalies([verdict]) == ["MISSING_COMMAND"]


def test_p4_missing_execution_not_flagged_under_majority_loss():
    records = [apply_event("c2", 4, "0:1", commands="1=1"),
               ("CRASH", "c0", None, None, None),
               ("CRASH", "c1", None, None, None)]
    trace = synthetic_trace(records)
    assert check_exactly_once_commands(_Run(trace)).passed


def test_p4_naive_accounting_counts_tagged_batches():
    exec_rec = ("EXEC", "s1", None, None,
                {"exec": "FLOWMOD", "from": "0",
                 "cmd_index": "4", "cmd_ord": "0"})
    trace = synthetic_trace(committed_apply_records() + [exec_rec],
                            variant="NAIVE")
    assert check_exactly_once_commands(_Run(trace)).passed
    trace = synthetic_trace(committed_apply_records() + [exec_rec, exec_rec],
                            variant="NAIVE")
    verdict = check_exactly_once_commands(_Run(trace))
    assert_valid_witnesses(verdict, trace)
    assert classify_anomalies([verdict]) == ["REPEATED_COMMAND"]


# ----------------------------------------------------------------------
# P5 convergence

def test_p5_passes_on_equal_finals():
    trace = synthetic_trace([
        apply_event("c0", 2, "0:2", digest="aa"),
        apply_event("c1", 2, "0:2", digest="aa"),
        apply_event("c2", 2, "0:2", digest="aa"),
    ])
    assert check_replica_convergence(_Run(trace)).passed


def test_p5_fails_on_divergent_digests():
    trace = synthetic_trace([
        apply_event("c0", 2, "0:2", digest="aa"),
        apply_event("c1", 2, "0:2", digest="bb"),
        apply_event("c2", 2, "0:2", digest="aa"),
    ])
    verdict = check_replica_convergence(_Run(trace))
    assert_valid_witnesses(verdict, trace)
    assert classify_anomalies([verdict]) == ["STATE_DIVERGENCE"]


def test_p5_ignores_crashed_replicas():
    trace = synthetic_trace([
        apply_event("c0", 1, "0:1", digest="zz"),
        apply_event("c1", 2, "0:2", digest="aa"),
        apply_event("c2", 2, "0:2", digest="aa"),
        ("CRASH", "c0", None, None, None),
    ])
    assert check_replica_convergence(_Run(trace)).passed


def test_p5_is_gated_by_quiescence():
    divergent = [
        apply_event("c0", 2, "0:2", digest="aa"),
        apply_event("c1", 2, "0:2", digest="bb"),
        apply_event("c2", 1, "0:1", digest="aa"),
    ]
    verdict = check_replica_convergence(_Run(synthetic_trace(divergent + [STALL])))
    assert verdict.passed and verdict.note == "not checked: requires quiescence"
    assert not check_replica_convergence(_Run(synthetic_trace(divergent))).passed


# ----------------------------------------------------------------------
# P6 bundle atomicity

def staged_bundle_records(n_adds=2, commit=True, effects=None):
    records = [
        ("DELIVER", "s0", "c0", {"type": "BundleOpen", "bundle_id": 4}, None),
    ]
    for _ in range(n_adds):
        records.append(("DELIVER", "s0", "c0",
                        {"type": "BundleAdd", "bundle_id": 4,
                         "inner": {"type": "FlowMod"}}, None))
    if commit:
        records.append(bundle_commit_exec("s0", 4))
    if effects is None:
        effects = n_adds if commit else 0
    for _ in range(effects):
        records.append(("EXEC", "s0", None, None,
                        {"exec": "FLOWMOD", "bundle": "4", "from": "0"}))
    return records


def test_p6_passes_on_committed_bundle_with_contiguous_effects():
    assert check_bundle_atomicity(_Run(synthetic_trace(staged_bundle_records()))).passed


def test_p6_passes_on_discarded_bundle_with_zero_effects():
    records = staged_bundle_records(commit=False)
    records.append(("CRASH", "c0", None, None, None))
    assert check_bundle_atomicity(_Run(synthetic_trace(records))).passed


def test_p6_fails_on_effect_without_commit():
    records = [("EXEC", "s0", None, None,
                {"exec": "FLOWMOD", "bundle": "4", "from": "0"})]
    trace = synthetic_trace(records)
    verdict = check_bundle_atomicity(_Run(trace))
    assert_valid_witnesses(verdict, trace)
    assert classify_anomalies([verdict]) == ["REPEATED_COMMAND"]


def test_p6_fails_on_partial_application():
    trace = synthetic_trace(staged_bundle_records(n_adds=2, effects=1))
    verdict = check_bundle_atomicity(_Run(trace))
    assert_valid_witnesses(verdict, trace)
    assert classify_anomalies([verdict]) == ["MISSING_COMMAND"]


def test_p6_passes_on_empty_trace():
    assert check_bundle_atomicity(_Run(synthetic_trace([]))).passed


def switch_exec(switch, kind, bundle=None):
    detail = {"exec": kind, "from": "0"}
    if bundle is not None:
        detail["bundle"] = str(bundle)
    return ("EXEC", switch, None, None, detail)


PARTIAL = ("partial-bundle: bundle 4 on s0 did not apply its 2 staged "
           "messages contiguously")


def outside_window(switch):
    return (f"spurious-effect: bundled effect on {switch} outside any commit "
            f"window (bundle 4)")


@pytest.mark.parametrize("records, expected", [
    pytest.param([bundle_commit_exec("s0", 4)],
                 [((1,), "spurious-effect: commit of bundle 4 on s0 with no "
                         "staged content")],
                 id="commit-with-nothing-staged"),
    pytest.param(staged_bundle_records(effects=0)
                 + [switch_exec("s0", "FLOWMOD", 4), switch_exec("s0", "PACKETOUT", 4),
                    switch_exec("s0", "FLOWMOD", 4)],
                 [((4,), PARTIAL)],
                 id="wrong-kind-in-window-covers-the-whole-bundle"),
    pytest.param(staged_bundle_records(effects=0)
                 + [switch_exec("s0", "FLOWMOD", 4), switch_exec("s0", "PACKET_FWD"),
                    switch_exec("s0", "FLOWMOD", 4)],
                 [((4,), PARTIAL), ((7,), outside_window("s0"))],
                 id="unbundled-exec-splits-the-window"),
    pytest.param(staged_bundle_records(n_adds=1, effects=2),
                 [((5,), outside_window("s0"))],
                 id="effect-past-the-window"),
    pytest.param([switch_exec("s1", "FLOWMOD", 4), switch_exec("s0", "FLOWMOD", 4)],
                 [((2,), outside_window("s0")), ((1,), outside_window("s1"))],
                 id="witnesses-in-switch-order"),
])
def test_p6_witness_shapes(records, expected):
    verdict = check_bundle_atomicity(_Run(synthetic_trace(records)))
    assert [(w.steps, w.description) for w in verdict.witnesses] == expected


# ----------------------------------------------------------------------
# framing

def test_run_all_checks_parses_each_trace_once(monkeypatch):
    parsed = []
    build = checker._Run.__init__

    def counting_build(run, trace):
        parsed.append(trace)
        build(run, trace)

    monkeypatch.setattr(checker._Run, "__init__", counting_build)
    trace = Simulation(one_command_scenario()).run()
    run_all_checks(trace)
    assert len(parsed) == 1 and parsed[0] is trace


# ----------------------------------------------------------------------
# the fold a run carries and its forks continue

@pytest.mark.parametrize("variant", VARIANTS)
def test_a_fold_forked_mid_run_and_fed_another_suffix_matches_a_fresh_fold(variant):
    """At every event boundary of the learning scenario, a fold of the run
    so far is forked. The fold is then fed the fault-free rest, and its
    fork the rest of a run that crashes a controller there: the leader
    where the sweep would (after a send or delivery of its own), follower
    c2 elsewhere, since a leader crash between two same-tick deliveries can
    trip ROADMAP item 1's gap. Each holds what a fresh fold of its whole
    trace holds, so neither sees the other's suffix: NAIVE's re-executed
    batches, later APPLYs and EXECs, and bundles open at the fork all go
    to containers that both held there."""
    base = Simulation(learning_scenario(variant))
    crashes = Counter()  # crashed controller -> boundaries
    while base.step():
        leader = any(rec.actor == "c0" and rec.kind in ("SEND", "DELIVER")
                     for rec in base.trace.records[base._step_start:])
        target = 0 if leader else 2
        fold = _Run(base.trace)
        forked = fold.fork()
        fault_free, crashed = base.fork(), base.fork()
        crashed.crash(target)
        crashes[target] += 1
        fold.update(fault_free.run())
        forked.update(crashed.run())
        for run, sim in ((fold, fault_free), (forked, crashed)):
            fresh = _Run(sim.trace)
            assert vars(run) == vars(fresh), f"event {base.processed}"
            assert repr(run.verdicts()) == repr(fresh.verdicts()), f"event {base.processed}"
    assert crashes[0] > 10 and crashes[2] > 10


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("path", sorted(SCENARIO_DIR.glob("*.json")), ids=lambda p: p.stem)
def test_sweep_verdicts_from_the_forked_fold_equal_a_full_check(path, variant):
    """Every sweep fork's ``verdicts()``, fed only what the fork ran past
    its fork point, and the base's after the sweep are ``run_all_checks``
    of the same trace, at every crash target."""
    scenario = load_scenario(str(path)).with_variant(variant)
    for target in range(scenario.n_controllers):
        base = Simulation(scenario)
        for points, fork in sweep_crash_points(base, target):
            fork.run()
            assert repr(fork.verdicts()) == repr(run_all_checks(fork.trace)), (
                f"target {target}, point {points[0].occurrence}")
        assert repr(base.verdicts()) == repr(run_all_checks(base.trace)), f"target {target}"


def test_summary_line_format():
    verdicts = run_all_checks(synthetic_trace([]))
    assert summary_line(verdicts) == "RESULT pass P1=+ P2=+ P3=+ P4=+ P5=+ P6=+"


def test_summary_line_status_can_be_given():
    verdicts = run_all_checks(synthetic_trace([]))
    assert summary_line(verdicts, False) == "RESULT fail P1=+ P2=+ P3=+ P4=+ P5=+ P6=+"


def test_combined_fails_a_property_exactly_when_some_run_fails_it():
    clean = run_all_checks(synthetic_trace([]))
    repeated = run_all_checks(synthetic_trace([apply_event("c0", 1, "0:1"),
                                               apply_event("c0", 2, "0:1")]))
    assert [v.passed for v in repeated] == [True, True, False, True, False, True]
    verdicts = combined([clean, repeated, clean])
    assert [v.prop for v in verdicts] == ["P1", "P2", "P3", "P4", "P5", "P6"]
    assert [v.passed for v in verdicts] == [v.passed for v in repeated]
    assert [v.witnesses for v in verdicts] == [v.witnesses for v in repeated]
    all_pass = [Verdict(prop, True) for prop in PROPERTIES]
    assert combined([clean, clean]) == combined([]) == all_pass


def test_classify_returns_empty_on_all_pass():
    assert classify_anomalies(run_all_checks(synthetic_trace([]))) == []
