"""End-to-end protocol properties asserted on live simulation state, plus
harder fault schedules than the acceptance sweep."""

from builders import learning_scenario, one_command_scenario
from sdnsim import FaultSpec, Simulation, all_passed, run_all_checks
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
    assert trace.quiesced
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

    from sdnsim import Scenario, SwitchSpec, WorkloadItem

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
            assert trace.quiesced
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
