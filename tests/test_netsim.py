from pathlib import Path

import pytest

from builders import learning_scenario, one_command_scenario
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
    sweep_crash_points,
)

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
        if trace.meta["quiesced"]:
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
    assert trace.meta["quiesced"]
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
    assert not trace.meta["quiesced"]
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


def forked_sweep(scenario, target):
    """(point, trace lines) for every point of the forked sweep, and the
    fault-free trace it returns."""
    out = []
    base = sweep_crash_points(scenario, target,
                              lambda p, trace: out.append((p, trace.to_lines())))
    return out, base


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


def test_startup_points_crash_after_the_first_dispatched_event():
    sc = learning_scenario()
    sim = Simulation(sc)
    sim.start()
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


def test_parallel_shares_partition_the_points():
    sc = learning_scenario()
    whole, _ = forked_sweep(sc, 0)
    shares = []
    for worker in range(3):
        sweep_crash_points(sc, 0, lambda p, trace: shares.append((p, trace.to_lines())),
                           worker, 3)
    assert sorted(shares, key=lambda s: s[0].occurrence) == whole


def stepped(scenario, n):
    sim = Simulation(scenario)
    sim.start()
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
    crashed.crash_at_boundary(1)  # a follower: the leader's bundle stays open
    assert plain.run().to_lines() == run_trace(sc).to_lines()
    crashed_lines = crashed.run().to_lines()
    assert sim.run().to_lines() == run_trace(sc).to_lines()

    unforked = stepped(sc, n)
    unforked.crash_at_boundary(1)
    assert unforked.run().to_lines() == crashed_lines


def test_resolve_crash_target():
    sc = one_command_scenario()
    assert resolve_crash_target(sc, "leader") == 0
    assert resolve_crash_target(sc, "replica:2") == 2
    with pytest.raises(ScenarioError):
        resolve_crash_target(sc, "replica:9")
    with pytest.raises(ScenarioError):
        resolve_crash_target(sc, "banana")


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
