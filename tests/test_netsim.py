import json
from dataclasses import replace
from pathlib import Path

import pytest

from builders import (learning_scenario, one_command_scenario, point_lines, stalled,
                      unsound_merges)
from sdnsim import (
    FaultSpec,
    ScenarioError,
    Simulation,
    TracePointSpec,
    all_passed,
    enumerate_crash_points,
    load_scenario,
    resolve_crash_target,
    run_all_checks,
    scenario_from_obj,
    scenario_to_obj,
    sweep_crash_points,
)
from sdnsim import netsim, replica
from sdnsim.apps import ROUTE_PRIORITY, StepMemo, state_digest
from sdnsim.netsim import _is_crash_point
from sdnsim.ofmodel import CONTROLLER_PORT
from sdnsim.scenario import VARIANTS, InitialFlow, SwitchSpec, WorkloadItem

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


def run_trace(scenario):
    return Simulation(scenario).run()


def channel_history(trace, src, dst):
    """Pair each SEND on src->dst with its resolution (DELIVER or DROP)."""
    sends = [r for r in trace.records
             if r.kind == "SEND" and r.actor == src and r.peer == dst]
    resolutions = [r for r in trace.records
                   if r.actor == dst and r.peer == src
                   and (r.kind == "DELIVER"
                        or (r.kind == "DROP" and r.detail.get("reason") == "crash"))]
    return sends, resolutions


def endpoints(trace):
    eps = set()
    for r in trace.records:
        if r.kind == "SEND":
            eps.add((r.actor, r.peer))
    return eps


def assert_fifo(trace):
    """Per channel: resolutions pair with sends in order, message for message,
    and once a message is dropped everything after it on that channel drops."""
    for src, dst in endpoints(trace):
        sends, resolutions = channel_history(trace, src, dst)
        assert len(resolutions) <= len(sends)
        if not stalled(trace):
            assert len(resolutions) == len(sends)
        dropped = False
        for s, r in zip(sends, resolutions):
            assert s.msg == r.msg, f"reordered channel {src}->{dst}"
            assert r.step > s.step
            if r.kind == "DROP":
                dropped = True
            else:
                assert not dropped, f"delivery after drop on {src}->{dst}"


# ----------------------------------------------------------------------

def test_identical_seed_runs_are_byte_identical():
    a = run_trace(one_command_scenario())
    b = run_trace(one_command_scenario())
    assert a.to_lines() == b.to_lines()


def test_fault_runs_are_also_deterministic():
    sc = learning_scenario().with_extra_fault(FaultSpec(target=0, at_time=9))
    assert run_trace(sc).to_lines() == run_trace(sc).to_lines()


def test_zero_workload_run_has_only_setup_traffic():
    sc = one_command_scenario(workload=())
    trace = run_trace(sc)
    assert not stalled(trace)
    kinds = {r.kind for r in trace.records}
    assert kinds <= {"SEND", "DELIVER"}
    assert all(r.detail.get("phase") == "setup"
               for r in trace.records if r.kind in ("SEND", "DELIVER"))
    assert all_passed(run_all_checks(trace))


def test_channels_are_fifo():
    assert_fifo(run_trace(learning_scenario()))
    faulted = learning_scenario().with_extra_fault(FaultSpec(target=0, at_time=9))
    assert_fifo(run_trace(faulted))


def test_crash_kills_inflight_messages():
    sc = one_command_scenario().with_extra_fault(
        FaultSpec(target=0, at_point=TracePointSpec("SEND", "BundleCommit", 1)))
    trace = run_trace(sc)
    drops = [r for r in trace.records
             if r.kind == "DROP" and r.detail.get("reason") == "crash"]
    assert drops, "in-flight messages must drop when their endpoint crashes"
    commits = [r for r in trace.records
               if r.kind == "EXEC" and r.detail.get("exec") == "BUNDLE_COMMIT"]
    assert len(commits) == 1  # the original never landed; the resend did
    assert all_passed(run_all_checks(trace))


def test_crash_of_follower_changes_no_views():
    sc = one_command_scenario().with_extra_fault(FaultSpec(target=2, at_time=3))
    trace = run_trace(sc)
    assert all_passed(run_all_checks(trace))
    applies = [r for r in trace.records if r.kind == "APPLY"]
    assert applies and all(r.detail["entry"] == "EVENT" for r in applies)


def test_detector_notifies_every_survivor_after_delay():
    sc = one_command_scenario(detector_delay=3).with_extra_fault(
        FaultSpec(target=0, at_time=7))
    trace = run_trace(sc)
    crash = next(r for r in trace.records if r.kind == "CRASH")
    detects = [r for r in trace.records if r.kind == "DETECT"]
    assert {r.actor for r in detects} == {"c1", "c2"}
    assert all(r.t == crash.t + 3 for r in detects)


def test_majority_loss_stalls_but_stays_safe():
    sc = one_command_scenario().with_extra_fault(
        FaultSpec(target=0, at_time=9)).with_extra_fault(
        FaultSpec(target=1, at_time=10))
    trace = run_trace(sc)
    stalls = [r for r in trace.records if r.kind == "STALL" and r.actor == "c2"]
    assert len(stalls) == 1
    verdicts = {v.prop: v for v in run_all_checks(trace)}
    for prop in ("P1", "P3", "P4", "P6"):
        assert verdicts[prop].passed, prop


def test_quiesce_limit_overflow_is_reported_not_raised():
    trace = run_trace(one_command_scenario(quiesce_limit=5))
    assert stalled(trace)
    last = trace.records[-1]
    assert last.kind == "STALL" and last.detail["reason"] == "quiesce_limit"


# ----------------------------------------------------------------------
# crash-point enumeration

def test_enumeration_yields_one_scenario_per_point():
    sc = one_command_scenario()
    base = run_trace(sc)
    expected = sum(1 for r in base.records
                   if r.kind in ("SEND", "DELIVER") and r.actor == "c0")
    points = enumerate_crash_points(sc, 0)
    assert len(points) == expected
    assert [p.occurrence for p in points] == list(range(1, expected + 1))


def test_enumeration_rejects_point_faulted_bases():
    sc = one_command_scenario().with_extra_fault(
        FaultSpec(target=0, at_point=TracePointSpec("ANY", None, 1)))
    with pytest.raises(ScenarioError):
        enumerate_crash_points(sc, 0)


def test_sweep_rejects_point_faulted_bases_before_the_first_fork():
    sc = one_command_scenario().with_extra_fault(
        FaultSpec(target=0, at_point=TracePointSpec("ANY", None, 1)))
    base = Simulation(sc)
    with pytest.raises(ScenarioError, match="may not contain trace-point faults"):
        next(sweep_crash_points(base, 0))
    assert base.processed == 0


def test_sweep_rejects_a_stepped_base_before_stepping_it():
    base = Simulation(learning_scenario())
    assert base.step()
    records = list(base.trace.records)
    with pytest.raises(ValueError, match="already stepped 1 event"):
        next(sweep_crash_points(base, 0))
    assert base.processed == 1
    assert base.trace.records == records


def test_derived_runs_replay_the_base_prefix():
    sc = one_command_scenario()
    base = run_trace(sc)
    point = enumerate_crash_points(sc, 0)[10]
    derived = run_trace(point.scenario)
    assert [r.to_obj() for r in derived.records[:point.step]] == \
        [r.to_obj() for r in base.records[:point.step]]
    # the crash lands at the first event boundary after the matched record
    crash = next(r for r in derived.records if r.kind == "CRASH")
    assert crash.step > point.step
    assert crash.t == point.t
    between = derived.records[point.step:crash.step - 1]
    assert all(r.t == point.t for r in between)


# the trace-point forms the demos and acceptance tests crash at, and the
# sweep's form
POINT_FORMS = [TracePointSpec("SEND", "BundleCommit", 1),
               TracePointSpec("DELIVER", "BundleCtrlReply", 1),
               TracePointSpec("DELIVER", "PacketIn", 2),
               TracePointSpec("ANY", None, 7)]


def matching_records(trace, actor, spec):
    """The records a trace-point spec counts, written out independently of
    the simulator's predicate."""
    kinds = ("SEND", "DELIVER") if spec.direction == "ANY" else (spec.direction,)
    return [r for r in trace.records
            if r.kind in kinds and r.actor == actor
            and (spec.msg_type is None or r.msg["type"] == spec.msg_type)]


@pytest.mark.parametrize("spec", POINT_FORMS,
                         ids=lambda s: f"{s.direction}-{s.msg_type}-{s.occurrence}")
def test_point_fault_crashes_at_the_selected_record(spec):
    sc = one_command_scenario()
    base = run_trace(sc)
    selected = [r for r in base.records if _is_crash_point(r, "c0", spec)]
    assert selected == matching_records(base, "c0", spec)
    rec = selected[spec.occurrence - 1]

    trace = run_trace(sc.with_extra_fault(FaultSpec(target=0, at_point=spec)))
    crashes = [r for r in trace.records if r.kind == "CRASH"]
    assert len(crashes) == 1
    crash = crashes[0]
    # the crash lands at the event boundary right after the selected record
    assert crash.step > rec.step and crash.t == rec.t
    assert [r.to_obj() for r in trace.records[:crash.step - 1]] == \
        [r.to_obj() for r in base.records[:crash.step - 1]]


@pytest.mark.parametrize("spec", POINT_FORMS,
                         ids=lambda s: f"{s.direction}-{s.msg_type}")
def test_point_fault_past_the_last_match_never_fires(spec):
    sc = one_command_scenario()
    base = run_trace(sc)
    past = replace(spec, occurrence=len(matching_records(base, "c0", spec)) + 1)
    trace = run_trace(sc.with_extra_fault(FaultSpec(target=0, at_point=past)))
    assert not any(r.kind == "CRASH" for r in trace.records)
    lines, base_lines = trace.to_lines(), base.to_lines()
    assert lines[1:] == base_lines[1:]
    # the meta lines state the two scenarios, which differ only in the fault
    meta, base_meta = (json.loads(line)["meta"] for line in (lines[0], base_lines[0]))
    assert meta != base_meta
    assert {**meta, "faults": base_meta["faults"]} == base_meta


def forked_sweep(scenario, target):
    """(point, trace lines) for every point of the forked sweep, each fork
    run as it is yielded, and the fault-free trace of its base."""
    base = Simulation(scenario)
    out = [line for points, fork in sweep_crash_points(base, target)
           for line in point_lines(points, fork.run())]
    return out, base.run()


@pytest.mark.parametrize("target", [0, 1, 2])
def test_sweep_yields_forks_that_crashed_and_have_not_run(target):
    """A yielded fork has crashed at its group's first boundary and may lag
    the base: each base step since then is one merged delivery to the
    target, at the fork's tick, except the step that ended the group."""
    base = Simulation(learning_scenario())
    steps = [None]  # steps[n]: the records of the base's n-th event
    step = base.step

    def logged_step():
        went = step()
        if went:
            steps.append(base.trace.records[base._step_start:])
        return went

    base.step = logged_step
    forks = lagging = 0
    for points, fork in sweep_crash_points(base, target):
        shared = next(i for i, r in enumerate(fork.trace.records) if r.kind == "CRASH")
        assert fork.processed <= base.processed
        assert target in fork.crashed and target not in base.crashed
        assert fork.trace.records[:shared] == base.trace.records[:shared]
        crash = fork.trace.records[shared]
        assert (crash.kind, crash.actor) == ("CRASH", f"c{target}")
        merged = [p for p in points if p.step > shared]
        lag = base.processed - fork.processed
        assert lag - len(merged) in (0, 1)
        for p, records in zip(merged, steps[fork.processed + 1:]):
            assert [(r.step, r.t, r.kind, r.actor) for r in records] == [
                (p.step, fork.now, "DELIVER", f"c{target}")]
        forks += 1
        lagging += bool(merged)
    assert forks > 1 and lagging


@pytest.mark.parametrize("path", sorted(SCENARIO_DIR.glob("*.json")), ids=lambda p: p.stem)
def test_forks_held_until_the_base_ends_run_as_forks_run_at_once(path):
    """A yielded fork does not change as the base steps on: forks run in
    reverse order after the base has ended give the sweep's lines."""
    scenario = load_scenario(str(path))
    for target in range(scenario.n_controllers):
        base = Simulation(scenario)
        held = list(sweep_crash_points(base, target))
        traces = [fork.run() for _, fork in reversed(held)][::-1]
        deferred = [line for (points, _), trace in zip(held, traces)
                    for line in point_lines(points, trace)]
        at_once, fault_free = forked_sweep(scenario, target)
        assert deferred == at_once, f"target {target}"
        assert base.run().to_lines() == fault_free.to_lines()


def assert_sweep_matches_replay(scenario, target):
    forked, base = forked_sweep(scenario, target)
    replayed = enumerate_crash_points(scenario, target)
    assert [p for p, _ in forked] == replayed
    for (p, lines), ref in zip(forked, replayed):
        assert lines == run_trace(ref.scenario).to_lines(), f"point {p.occurrence}"
    assert base.to_lines() == run_trace(scenario).to_lines()
    return forked


@pytest.mark.parametrize("path", sorted(SCENARIO_DIR.glob("*.json")), ids=lambda p: p.stem)
def test_forked_sweep_matches_replay_on_every_shipped_scenario(path):
    scenario = load_scenario(str(path))
    for target in range(scenario.n_controllers):
        assert_sweep_matches_replay(scenario, target)


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("path", sorted(SCENARIO_DIR.glob("*.json")), ids=lambda p: p.stem)
def test_merged_points_replay_as_their_group_with_the_deliveries_swapped(path, variant):
    """Every point the sweep merges into a group after its fork's boundary
    replays to the group's verdicts, and to the fork's records with the
    merged deliveries moved before the CRASH. ``paper_a`` also runs with
    links slower than one tick, where a merge across ticks is unsound."""
    scenario = load_scenario(str(path)).with_variant(variant)
    timings = [scenario] + ([replace(scenario, latency=2)] if path.stem == "paper_a" else [])
    for sc in timings:
        for target in range(sc.n_controllers):
            merged, unsound = unsound_merges(sc, target)
            assert unsound == [], f"latency {sc.latency}, target {target}"
            if target == 0:
                assert merged, f"latency {sc.latency}"


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("path", sorted(SCENARIO_DIR.glob("*.json")), ids=lambda p: p.stem)
def test_a_step_schedules_only_with_a_send_or_crash_record(path, variant):
    """The premise of the sweep's merge rule: a step whose one record is a
    DELIVER scheduled nothing, so crashing before it leaves the same heap,
    ``seq`` included, as crashing after it."""
    sim = Simulation(load_scenario(str(path)).with_variant(variant))
    seq = sim._seq
    while sim.step():
        kinds = {r.kind for r in sim.trace.records[sim._step_start:]}
        if sim._seq != seq:
            assert kinds & {"SEND", "CRASH"}, f"event {sim.processed}"
        seq = sim._seq


def replay(trace):
    """The lines of a new run of the scenario that ``trace``'s metadata states."""
    return Simulation(scenario_from_obj(trace.meta)).run().to_lines()


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("path", sorted(SCENARIO_DIR.glob("*.json")), ids=lambda p: p.stem)
def test_every_run_and_fork_replays_from_its_first_line(path, variant):
    """A fault-free run's trace and every sweep fork's, meta line
    included, are what a run of their metadata's scenario writes."""
    scenario = load_scenario(str(path)).with_variant(variant)
    for target in range(scenario.n_controllers):
        base = Simulation(scenario)
        for points, fork in sweep_crash_points(base, target):
            assert fork.trace.meta == scenario_to_obj(points[0].scenario)
            assert replay(fork.run()) == fork.trace.to_lines(), f"point {points[0].occurrence}"
        assert base.run().meta == scenario_to_obj(scenario)
        assert replay(base.trace) == base.trace.to_lines()


def paper_a_with_initial_flow():
    """``paper_a`` with an s0 flow that sends prefix-02 packets to the
    controller and out port 3; no shipped scenario has initial flows."""
    obj = json.loads((SCENARIO_DIR / "paper_a.json").read_text())
    obj["switches"][0]["flows"].append(
        {"payload_prefix": "02", "priority": 7, "out_ports": [CONTROLLER_PORT, 3]})
    return scenario_from_obj(obj)


@pytest.mark.parametrize("variant", ["NAIVE", "PAPER_A", "PAPER_B"])
def test_initial_flow_to_the_controller_raises_an_applied_event(variant):
    trace = run_trace(paper_a_with_initial_flow().with_variant(variant))
    forwards = [r.detail["info"] for r in trace.records
                if r.kind == "EXEC" and r.detail["exec"] == "PACKET_FWD"]
    assert forwards.count("in=1 out=ctl,3") == 1
    # the table hit sends the workload packet up as a reason-ACTION PacketIn
    (event,) = {r.msg["event"] for r in trace.records
                if r.kind == "SEND" and r.actor == "s0" and r.msg["type"] == "PacketIn"
                and r.msg["reason"] == "ACTION" and r.msg["payload"] == "0201"}
    appliers = {r.actor for r in trace.records
                if r.kind == "APPLY" and r.detail.get("event") == event}
    assert appliers == {"c0", "c1", "c2"}
    assert all_passed(run_all_checks(trace))


def test_initial_flow_sweep_matches_replay():
    assert_sweep_matches_replay(paper_a_with_initial_flow(), 0)


def test_runtime_flow_mod_wins_a_priority_tie_with_an_initial_flow():
    # the initial in_port=1 flow and the route the first packet installs
    # both have priority 20, and the second packet matches both
    sc = one_command_scenario(
        switches=(SwitchSpec(id=0, ports=(1, 2, 3),
                             flows=(InitialFlow(in_port=1, priority=ROUTE_PRIORITY,
                                                out_ports=(3,)),)),),
        workload=(WorkloadItem(t=5, switch=0, in_port=2, payload=bytes.fromhex("02aa")),
                  WorkloadItem(t=40, switch=0, in_port=1, payload=bytes.fromhex("02bb"))))
    trace = run_trace(sc)
    forwards = [r.detail["info"] for r in trace.records
                if r.kind == "EXEC" and r.detail["exec"] == "PACKET_FWD"]
    assert forwards == ["in=1 out=2"]
    assert all_passed(run_all_checks(trace))


def test_startup_points_crash_after_the_first_dispatched_event():
    sc = learning_scenario()
    sim = Simulation(sc)
    n_startup = len(sim.trace.records)
    forked, _ = forked_sweep(sc, 0)
    startup = [(p, lines) for p, lines in forked if p.step <= n_startup]
    assert [p.occurrence for p, _ in startup] == [1, 2]  # c0's two RoleRequests
    for p, lines in startup:
        trace = run_trace(p.scenario)
        assert lines == trace.to_lines()
        crash = next(r for r in trace.records if r.kind == "CRASH")
        first_event = trace.records[n_startup]
        assert crash.step > first_event.step and crash.t == first_event.t
        assert all(r.t == first_event.t for r in trace.records[n_startup:crash.step])


@pytest.mark.parametrize("limit", [1, 5, 20])
def test_forks_stall_at_the_same_step_as_replays(limit):
    sc = learning_scenario(quiesce_limit=limit)
    for p, lines in assert_sweep_matches_replay(sc, 0):
        assert '"kind":"STALL"' in lines[-1], f"point {p.occurrence}"


def stepped(scenario, n):
    sim = Simulation(scenario)
    for _ in range(n):
        assert sim.step()
    return sim


def test_fork_is_independent_of_its_parent():
    sc = learning_scenario()
    # stop while a bundle is half staged, so that the forks and the parent
    # all go on to stage more commands into it
    sim = stepped(sc, 0)
    while not any(conn.open_bundles for sw in sim.switches.values()
                  for conn in sw.conns.values()):
        assert sim.step()
    n = sim.processed
    plain, crashed = sim.fork(), sim.fork()
    crashed.crash(1)  # a follower: the leader's bundle stays open
    assert plain.run().to_lines() == run_trace(sc).to_lines()
    crashed_lines = crashed.run().to_lines()
    assert sim.run().to_lines() == run_trace(sc).to_lines()

    unforked = stepped(sc, n)
    unforked.crash(1)
    assert unforked.run().to_lines() == crashed_lines


@pytest.mark.parametrize("variant", ["PAPER_A", "PAPER_B"])
def test_dead_masters_staged_bundle_never_commits(variant):
    # No sweep point falls between a switch's deliveries of one bundle, so
    # step to a switch holding c0's bundle open with a command staged in it
    # and crash c0 there.
    sim = stepped(one_command_scenario(variant), 0)
    while not any(staged for sw in sim.switches.values() for conn in sw.conns.values()
                  for staged in conn.open_bundles.values()):
        assert sim.step()
    sim.crash(0)
    trace = sim.run()
    (drop,) = [r for r in trace.records
               if r.kind == "DROP" and r.detail.get("reason") == "connection_drop"]
    assert (drop.actor, drop.peer, drop.detail, drop.msg["type"]) == (
        "s0", "c0", {"reason": "connection_drop", "bundle": "1"}, "FlowMod")
    commits = [r.detail.get("from") for r in trace.records
               if r.kind == "EXEC" and r.detail["exec"] == "BUNDLE_COMMIT"
               and r.detail.get("bundle") == "1"]
    assert commits == ["1"]
    assert all_passed(run_all_checks(trace))


def test_resolve_crash_target():
    sc = one_command_scenario()
    assert resolve_crash_target(sc, "leader") == 0
    assert resolve_crash_target(sc, "replica:2") == 2
    with pytest.raises(ScenarioError):
        resolve_crash_target(sc, "replica:9")
    for selector in ("banana", "replica:x", "replica:"):
        with pytest.raises(ScenarioError):
            resolve_crash_target(sc, selector)


def test_follower_crash_sweep_is_clean():
    for point in enumerate_crash_points(one_command_scenario(), 2):
        verdicts = run_all_checks(run_trace(point.scenario))
        assert all_passed(verdicts), f"point {point.occurrence}"


# ----------------------------------------------------------------------
# the failover fence, observed at trace level

def test_acks_arrive_before_role_reply_on_every_channel():
    # crash the leader right after the switch commits: the ack to the new
    # leader is in flight exactly when the fence round-trip starts
    sc = one_command_scenario().with_extra_fault(
        FaultSpec(target=0, at_point=TracePointSpec("DELIVER", "BundleCtrlReply", 1)))
    trace = run_trace(sc)
    assert all_passed(run_all_checks(trace))

    for src, dst in endpoints(trace):
        if not (src.startswith("s") and dst.startswith("c")):
            continue
        sends, resolutions = channel_history(trace, src, dst)
        deliver_step = {}
        for s, r in zip(sends, resolutions):
            if r.kind == "DELIVER":
                deliver_step[s.step] = r.step
        role_reply_sends = [s for s in sends if s.msg["type"] == "RoleReply"]
        ack_sends = [s for s in sends if s.msg["type"] == "PacketIn"
                     and s.msg["reason"] == "ACTION"]
        for rr in role_reply_sends:
            if rr.step not in deliver_step:
                continue
            for ack in ack_sends:
                if ack.step < rr.step and ack.step in deliver_step:
                    assert deliver_step[ack.step] < deliver_step[rr.step], \
                        f"ack overtook RoleReply on {src}->{dst}"

    resends = [r for r in trace.records
               if r.kind == "SEND" and r.actor == "c1"
               and (r.msg or {}).get("type") == "BundleCommit"]
    assert resends == []  # fence saw the ack; nothing to resend


def test_replicas_share_app_states_and_digest_each_once(monkeypatch):
    digested = []  # keeps every digested state alive, so ids stay unique

    def counting_digest(state):
        digested.append(state)
        return state_digest(state)

    monkeypatch.setattr(replica, "state_digest", counting_digest)
    sim = Simulation(load_scenario(str(SCENARIO_DIR / "paper_a.json")))
    trace = sim.run()
    survivors = [r for rid, r in sim.replicas.items() if rid not in sim.crashed]
    assert len(survivors) == sim.sc.n_controllers
    assert all(r.app_state is survivors[0].app_state for r in survivors)
    assert len({r.app_digest for r in survivors}) == 1
    assert len({id(state) for state in digested}) == len(digested)
    event_applies = [r for r in trace.records if r.kind == "APPLY" and r.actor == "c0"
                     and r.detail["entry"] == "EVENT"]
    assert len(digested) == 1 + len(event_applies)  # each learner step makes a new state


def always_miss_steps(app):
    return StepMemo(app, state_digest, size=0)


@pytest.mark.parametrize("name", ["paper_a", "naive"])
def test_forced_step_misses_change_no_trace(monkeypatch, name):
    scenario = load_scenario(str(SCENARIO_DIR / f"{name}.json"))
    shared = [forked_sweep(scenario, t) for t in range(scenario.n_controllers)]
    monkeypatch.setattr(netsim, "shared_steps", always_miss_steps)
    missed = [forked_sweep(scenario, t) for t in range(scenario.n_controllers)]
    for (points, base), (missed_points, missed_base) in zip(shared, missed):
        assert base.to_lines() == missed_base.to_lines()
        assert points == missed_points


def test_step_memo_stays_within_its_bound():
    events = [WorkloadItem(t=5 + 3 * i, switch=i % 2, in_port=1 + i % 2,
                           payload=bytes([i % 7, 7 + i % 5]))
              for i in range(500)]
    sim = Simulation(learning_scenario(workload=tuple(events), quiesce_limit=100000))
    steps = sim.replicas[0].steps
    sizes = []
    while sim.step():
        sizes.append(len(steps))
    assert not stalled(sim.trace)
    assert max(sizes) == steps.size


@pytest.mark.parametrize("path", sorted(SCENARIO_DIR.glob("*.json")), ids=lambda p: p.stem)
def test_stepping_a_run_to_its_end_matches_run(path):
    sc = load_scenario(str(path))
    sim = Simulation(sc)
    while sim.step():
        pass
    ran = Simulation(sc).run()
    assert sim.trace.to_lines() == ran.to_lines()
    assert repr(run_all_checks(sim.trace)) == repr(run_all_checks(ran))


@pytest.mark.parametrize("path", sorted(SCENARIO_DIR.glob("*.json")), ids=lambda p: p.stem)
def test_a_forks_crash_shows_in_its_metadata_and_not_its_parents(path):
    sim = Simulation(load_scenario(str(path)))
    fork = sim.fork()
    fork.crash(0)
    assert [r.actor for r in fork.trace.records if r.kind == "CRASH"] == ["c0"]
    assert not [r for r in sim.trace.records if r.kind == "CRASH"]
    # a crash called by hand is stated by its CRASH record alone: the
    # metadata stays the scenario that was built
    assert fork.trace.meta == sim.trace.meta == scenario_to_obj(sim.sc)
