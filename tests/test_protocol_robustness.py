"""End-to-end protocol properties asserted on live simulation state, plus
harder fault schedules than the acceptance sweep."""

import ast
import contextlib
import hashlib
import heapq
from pathlib import Path

import pytest
from builders import SCENARIO_DIR, learning_scenario, one_command_scenario, shipped, stalled
import sdnsim
from sdnsim import (FaultSpec, Scenario, Simulation, SwitchSpec, WorkloadItem, all_passed,
                    classify_anomalies, run_all_checks, sweep_crash_points)
from sdnsim.replica import EventEntry


def test_crash_free_run_leaves_identical_logs():
    sim = Simulation(learning_scenario())
    trace = sim.run()
    logs = [r.log for r in sim.replicas.values()]
    assert logs[0] == logs[1] == logs[2]
    # packets 4 and 5 hit flow entries learned from earlier events and never
    # reach the control plane, so the agreed log holds three events
    assert len(logs[0]) == 3
    events = [e.event for e in logs[0] if isinstance(e, EventEntry)]
    assert len(events) == len(set(events)) == 3
    forwarded = [r for r in trace.records
                 if r.kind == "EXEC" and r.detail.get("exec") == "PACKET_FWD"]
    assert len(forwarded) == 2


def test_committed_prefixes_identical_after_leader_crash():
    sc = learning_scenario().with_extra_fault(FaultSpec(0, at_time=9))
    sim = Simulation(sc)
    sim.run()
    a, b = (sim.replicas[i] for i in (1, 2))
    common = min(a.commit_index, b.commit_index)
    assert a.log[:common] == b.log[:common]
    assert {e.event for e in a.log if isinstance(e, EventEntry)} == \
        {e.event for e in b.log if isinstance(e, EventEntry)}


def test_cascading_leader_crashes_with_five_replicas():
    sc = learning_scenario(n_controllers=5).with_extra_fault(
        FaultSpec(0, at_time=9)).with_extra_fault(FaultSpec(1, at_time=16))
    trace = Simulation(sc).run()
    assert not stalled(trace)
    verdicts = run_all_checks(trace)
    assert all_passed(verdicts), [v for v in verdicts if not v.passed]
    commits = {}
    for r in trace.records:
        if r.kind == "EXEC" and r.detail.get("exec") == "BUNDLE_COMMIT":
            key = (r.actor, r.detail["bundle"])
            commits[key] = commits.get(key, 0) + 1
    assert commits and all(c == 1 for c in commits.values())


def test_second_crash_during_failover_still_exactly_once():
    # first leader dies mid-protocol, its successor dies right after fencing
    sc = learning_scenario(n_controllers=5).with_extra_fault(
        FaultSpec(0, at_time=9)).with_extra_fault(FaultSpec(1, at_time=12))
    trace = Simulation(sc).run()
    verdicts = run_all_checks(trace)
    assert all_passed(verdicts), [v for v in verdicts if not v.passed]


def test_naive_single_controller_commits_immediately():
    sc = one_command_scenario("NAIVE", n_controllers=1)
    trace = Simulation(sc).run()
    assert all_passed(run_all_checks(trace))
    flows = [r for r in trace.records
             if r.kind == "EXEC" and r.detail.get("exec") == "FLOWMOD"]
    assert len(flows) == 1


def test_randomized_workloads_hold_all_properties():
    import random

    rng = random.Random(0xC0FFEE)
    for case in range(10):
        n_switches = rng.randint(1, 3)
        switches = tuple(SwitchSpec(id=i, ports=tuple(range(1, rng.randint(3, 5))))
                         for i in range(n_switches))
        workload = []
        t = 5
        for _ in range(rng.randint(1, 8)):
            sw = rng.randrange(n_switches)
            workload.append(WorkloadItem(
                t=t, switch=sw,
                in_port=rng.choice(switches[sw].ports),
                payload=bytes([rng.randint(0, 15), rng.randint(0, 15)])))
            t += rng.randint(1, 4)
        sc = Scenario(name=f"random-{case}", variant="PAPER_A", n_controllers=3,
                      switches=switches, app="mac-learner",
                      workload=tuple(workload))
        faults = (sc,
                  sc.with_extra_fault(FaultSpec(0, at_time=rng.randint(6, t))))
        for scenario in faults:
            trace = Simulation(scenario).run()
            assert not stalled(trace)
            verdicts = run_all_checks(trace)
            assert all_passed(verdicts), (case, [v for v in verdicts if not v.passed])


def test_events_during_failover_window_are_recovered():
    # an event lands between the crash and the new master's fence; with
    # all-controller delivery the survivors still buffer and order it
    sc = learning_scenario(detector_delay=4).with_extra_fault(FaultSpec(0, at_time=11))
    trace = Simulation(sc).run()
    assert all_passed(run_all_checks(trace))

    crash_t = next(r.t for r in trace.records if r.kind == "CRASH")
    fence_t = next(r.t for r in trace.records
                   if r.kind == "DELIVER" and r.actor == "c1"
                   and (r.msg or {}).get("type") == "RoleReply"
                   and r.msg.get("role") == "MASTER")
    emitted = {}
    for r in trace.records:
        if (r.kind == "SEND" and r.actor.startswith("s")
                and (r.msg or {}).get("type") == "PacketIn"
                and r.msg["reason"] == "NO_MATCH"):
            emitted.setdefault(r.msg["event"], r.t)
    in_window = [e for e, t in emitted.items() if crash_t < t < fence_t]
    assert in_window, "schedule must produce an event inside the failover window"

    for survivor in ("c1", "c2"):
        applied = {r.detail["event"] for r in trace.records
                   if r.kind == "APPLY" and r.actor == survivor
                   and r.detail.get("entry") == "EVENT"}
        assert set(emitted) <= applied


# ----------------------------------------------------------------------
# ROADMAP item 1: safety that rests on timing. Each repro wraps the
# scheduler, so the simulator needs no option for it; each failing case is
# a strict xfail until the protocol fix (item 1, step 3) makes it pass.

ITEM_1 = pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="ROADMAP item 1: a new leader neither collects nor backfills logs")


@contextlib.contextmanager
def failing_with(expected):
    """Let through an AssertionError only if its text has ``expected`` (None:
    any), so a strict xfail cannot hold on some other failure."""
    try:
        yield
    except AssertionError as e:
        if expected is not None and expected not in str(e):
            pytest.fail(f"expected an AssertionError with {expected!r}, got {e}")
        raise


def conflicting_applies(trace):
    """(index, first, other) wherever two replicas, crashed ones included,
    applied different log entries at one index; each side is (actor, entry)."""
    first = {}
    conflicts = []
    for r in trace.records:
        if r.kind == "APPLY":
            d = r.detail
            entry = (d["entry"], d.get("event") or d["entry_view"])
            seen = first.setdefault(d["index"], (r.actor, entry))
            if seen[1] != entry:
                conflicts.append((d["index"], seen, (r.actor, entry)))
    return conflicts


# the assertion each xfailed case must fail on
SLOW_LINK_FAILURE = {9: "conflicting applies", 10: "conflict below commit index"}
TIE_ORDER_FAILURE = {2: "gap in replicated entries", 4: "gap in replicated entries"}


@pytest.mark.parametrize("crash_t", [
    *range(5, 9), pytest.param(9, marks=ITEM_1), pytest.param(10, marks=ITEM_1),
    *range(11, 16)])
def test_leader_crash_with_a_slow_link_keeps_applied_logs_agreeing(monkeypatch, crash_t):
    # at 10 a replica asserts "conflict below commit index"; at 9 every
    # property passes, yet c0 applies an EVENT and c1 and c2 a VIEW at index 1
    schedule = Simulation._schedule

    def slow_c0_to_c1(self, t, handler, *args):
        # every c0->c1 delivery takes 4 ticks, not 1, so the link stays FIFO
        if handler is Simulation._deliver and args[:2] == ("c0", "c1"):
            t += 3
        schedule(self, t, handler, *args)

    monkeypatch.setattr(Simulation, "_schedule", slow_c0_to_c1)
    scenario = one_command_scenario(faults=(FaultSpec(0, at_time=crash_t),))
    with failing_with(SLOW_LINK_FAILURE.get(crash_t)):
        trace = Simulation(scenario).run()
        verdicts = run_all_checks(trace)
        assert all_passed(verdicts), [v for v in verdicts if not v.passed]
        conflicts = conflicting_applies(trace)
        assert not conflicts, f"conflicting applies {conflicts}"


def test_no_simulator_invariant_is_a_bare_assert():
    # `python -O` strips assert statements, and with them the invariant that
    # fails the crash at t=10 above: c1 would truncate a committed entry and
    # run on. Each invariant raises AssertionError itself
    for path in sorted(Path(sdnsim.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        assert [n.lineno for n in ast.walk(tree) if isinstance(n, ast.Assert)] == [], path.name


def repeated_event_scenario():
    """One switch, the same packet at t=5 and t=6."""
    return Scenario(name="repeated-event", variant="PAPER_A", n_controllers=3,
                    switches=(SwitchSpec(id=0, ports=(1, 2, 3)),), app="mac-learner",
                    workload=tuple(WorkloadItem(t, 0, 1, bytes.fromhex("0101"))
                                   for t in (5, 6)))


def seeded_ties(tie_seed):
    """A ``Simulation._schedule`` under which same-time deliveries on
    different channels run in an order keyed by a sha256 of
    ``tie_seed:src:dst``; seq keeps each channel FIFO."""
    def schedule(self, t, handler, *args):
        key = 0
        if handler is Simulation._deliver:
            digest = hashlib.sha256(f"{tie_seed}:{args[0]}:{args[1]}".encode()).digest()
            key = int.from_bytes(digest[:8], "big")
        heapq.heappush(self._heap, (t, (key, self._seq), handler, args))
        self._seq += 1
    return schedule


def assert_clean_leader_sweep(scenario):
    """Every fork of the c0 sweep passes P1-P6 with no conflicting applies."""
    forks = 0
    for _, fork in sweep_crash_points(Simulation(scenario), 0):
        trace = fork.run()
        verdicts = run_all_checks(trace)
        assert all_passed(verdicts), [v for v in verdicts if not v.passed]
        assert conflicting_applies(trace) == []
        forks += 1
    assert forks > 1


@pytest.mark.parametrize("tie_seed", [
    None, 0, 1, pytest.param(2, marks=ITEM_1), 3, pytest.param(4, marks=ITEM_1), 5])
def test_leader_sweep_under_seeded_tie_order(monkeypatch, tie_seed):
    # at tie seeds 2 and 4 a replica asserts "gap in replicated entries";
    # None keeps the simulator's own tie order (scheduling order)
    if tie_seed is not None:
        monkeypatch.setattr(Simulation, "_schedule", seeded_ties(tie_seed))
    with failing_with(TIE_ORDER_FAILURE.get(tie_seed)):
        assert_clean_leader_sweep(repeated_event_scenario())


# the tie seeds from 0 to 29 at which both shipped sweeps abort
SHIPPED_TIE_ORDER_GAPS = (4, 10, 14, 23)


@pytest.mark.parametrize(("name", "tie_seed"), [
    pytest.param(name, seed, marks=ITEM_1) if seed in SHIPPED_TIE_ORDER_GAPS else (name, seed)
    for name in ("paper_a", "paper_b") for seed in (0, 1, *SHIPPED_TIE_ORDER_GAPS)])
def test_shipped_leader_sweep_under_seeded_tie_order(monkeypatch, name, tie_seed):
    # at tie seeds 4, 10, 14 and 23 a replica asserts "gap in replicated
    # entries"; seeds 0 and 1 are the passing controls
    scenario = shipped(name)
    monkeypatch.setattr(Simulation, "_schedule", seeded_ties(tie_seed))
    with failing_with("gap in replicated entries" if tie_seed in SHIPPED_TIE_ORDER_GAPS
                      else None):
        assert_clean_leader_sweep(scenario)


# ROADMAP items 1 and 21: the every-boundary census. For each shipped
# scenario and controller, fork a fault-free run after each of its steps
# and crash that controller there, under the simulator's own timing and tie
# order. No scheduler patch is needed to reach item 1's gap: crashing c0 at
# these boundaries asserts "gap in replicated entries". A sweep never
# crashes c0 there, since its crash points are only the target's own sends
# and deliveries.
CENSUS_ABORTS = {"majority_loss": (21,), "naive": (21, 33, 45),
                 "naive_suppressed": (15, 25, 35), "one_command": (13,),
                 "paper_a": (21, 36, 56), "paper_b": (21, 36, 56)}
# the anomalies each scenario and target's forks show: only NAIVE's c0 forks fail
CENSUS_ANOMALIES = {("naive", 0): {"REPEATED_COMMAND"},
                    ("naive_suppressed", 0): {"LOST_EVENT", "REPEATED_COMMAND"}}
# the boundaries whose fork discards a staged bundle (a connection_drop
# DROP), all of them c0 forks that pass; the sweep reaches none of them
STAGED_DROPS = (*range(30, 33), *range(50, 53), *range(67, 70))
CENSUS_DROPS = {("one_command", 0): (18, 19), ("paper_a", 0): STAGED_DROPS,
                ("paper_b", 0): STAGED_DROPS}


@pytest.mark.parametrize(("name", "target"), [
    (path.stem, target) for path in sorted(SCENARIO_DIR.glob("*.json"))
    for target in range(shipped(path.stem).n_controllers)])
def test_crash_at_every_event_boundary(name, target):
    # every fork but the aborting ones runs to its end with no conflicting
    # applies; outside NAIVE each passes P1-P6
    base = Simulation(shipped(name))
    anomalies, drops = set(), []
    while base.step():
        if target == 0 and base.processed in CENSUS_ABORTS.get(name, ()):
            continue
        fork = base.fork()
        fork.crash(target)
        trace = fork.run()
        anomalies.update(classify_anomalies(run_all_checks(trace)))
        assert conflicting_applies(trace) == [], base.processed
        if any(r.kind == "DROP" and r.detail["reason"] == "connection_drop"
               for r in trace.records):
            drops.append(base.processed)
    assert anomalies == CENSUS_ANOMALIES.get((name, target), set())
    assert tuple(drops) == CENSUS_DROPS.get((name, target), ())


# the scenarios whose first aborting boundary has passing c0 forks on
# either side; the census runs them too, but here each is checked not to
# be a split
SPLIT_CONTROLS = ("one_command", "paper_a", "paper_b")


@pytest.mark.parametrize(("name", "boundary", "target"), [
    *(pytest.param(name, b, 0, marks=ITEM_1) for name, bs in CENSUS_ABORTS.items() for b in bs),
    *((name, CENSUS_ABORTS[name][0] + d, 0) for name in SPLIT_CONTROLS for d in (-1, 1)),
    *((name, b, target) for name in SPLIT_CONTROLS for b in CENSUS_ABORTS[name]
      for target in (1, 2))])
def test_crash_between_same_tick_append_deliveries(name, boundary, target):
    # the cause, from the base's own records: at a split, step k is c1's
    # delivery of c0's Append and its AppendAck, and step k+1 c2's delivery
    # of the same Append at the same tick; crashing c0 there asserts the
    # gap. c0 next to the first split and c1 or c2 at every split are the
    # passing controls
    base = Simulation(shipped(name))
    while base.processed < boundary:
        assert base.step()
    split = boundary in CENSUS_ABORTS[name]
    with failing_with("gap in replicated entries" if split and target == 0 else None):
        fork = base.fork()
        fork.crash(target)
        cause = base.trace.records[base._step_start:]
        assert base.step()
        cause += base.trace.records[base._step_start:][:1]
        assert ([(r.kind, r.actor, r.peer, (r.msg or {}).get("type")) for r in cause] == [
            ("DELIVER", "c1", "c0", "Append"), ("SEND", "c1", "c0", "AppendAck"),
            ("DELIVER", "c2", "c0", "Append")]
            and cause[2].t == cause[0].t and cause[2].msg is cause[0].msg) == split
        trace = fork.run()
        verdicts = run_all_checks(trace)
        assert all_passed(verdicts), [v for v in verdicts if not v.passed]
        assert conflicting_applies(trace) == []
