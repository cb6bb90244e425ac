"""Shared scenario and trace builders for the test suite."""

from __future__ import annotations

from sdnsim import (AppConfig, Route, Scenario, Simulation, SwitchSpec, Trace, WorkloadItem,
                    run_all_checks, scenario_to_obj, sweep_crash_points)


def one_command_scenario(variant: str = "PAPER_A", **overrides) -> Scenario:
    """One switch, one event, exactly one resulting command (a route install)."""
    kw = dict(
        name="one-command",
        variant=variant,
        n_controllers=3,
        switches=(SwitchSpec(id=0, ports=(1, 2)),),
        app="static-router",
        app_config=AppConfig(routes=(Route(prefix=b"\x02", port=2),)),
        workload=(WorkloadItem(t=5, switch=0, in_port=1,
                               payload=bytes.fromhex("02aa")),),
    )
    kw.update(overrides)
    return Scenario(**kw)


def learning_scenario(variant: str = "PAPER_A", **overrides) -> Scenario:
    """Two switches, five events, mac-learner; the sweep workhorse."""
    events = [
        (5, 0, 1, 0x02, 0x01),
        (8, 0, 2, 0x01, 0x02),
        (11, 1, 1, 0x09, 0x08),
        (14, 0, 3, 0x02, 0x03),
        (17, 1, 2, 0x08, 0x09),
    ]
    kw = dict(
        name="learning",
        variant=variant,
        n_controllers=3,
        switches=(SwitchSpec(id=0, ports=(1, 2, 3)),
                  SwitchSpec(id=1, ports=(1, 2))),
        app="mac-learner",
        workload=tuple(WorkloadItem(t=t, switch=s, in_port=p,
                                    payload=bytes([dst, src]))
                       for t, s, p, dst, src in events),
    )
    kw.update(overrides)
    return Scenario(**kw)


def sweep_crash(point, trace: Trace) -> int:
    """The index in a sweep fork's ``trace`` of the CRASH the sweep placed
    for ``point``: the first of its target's, as a timed crash of a target
    that is already down logs nothing."""
    actor = f"c{point.scenario.faults[-1].target}"
    return next(i for i, rec in enumerate(trace.records)
                if rec.kind == "CRASH" and rec.actor == actor)


def merged_deliveries(point, trace: Trace) -> int:
    """How many deliveries the sweep merged into ``point``'s group up to
    ``point``'s own, given the trace of the group's fork: 0 for a point of
    the group's first boundary. The base logged each merged step's one
    record right after that boundary's records, so the fork's CRASH takes
    the step of the first."""
    return max(0, point.step - sweep_crash(point, trace))


def point_lines(points, trace: Trace) -> list[tuple]:
    """Expand one crash-sweep group's fork into (point, trace lines) per
    crash point, as a replay of that point's derived scenario writes them:
    its scenario as the meta line, then the fork's records with the k
    deliveries merged up to the point swapped back. The fork logs each of
    them as a ``reason: crash`` DROP after the CRASH and the switches'
    connection drops; the replay, as a DELIVER just before the CRASH."""
    records = trace.records
    crash = sweep_crash(points[0], trace)
    dropped = crash + 1  # past the CRASH and the switches' connection drops
    while (dropped < len(records)
           and records[dropped].detail.get("reason") == "connection_drop"):
        dropped += 1
    out = []
    for p in points:
        k = merged_deliveries(p, trace)
        delivered = [rec._replace(kind="DELIVER",
                                  detail={key: v for key, v in rec.detail.items()
                                          if key != "reason"})
                     for rec in records[dropped:dropped + k]]
        replay = Trace(scenario_to_obj(p.scenario))
        for rec in [*records[:crash], *delivered, *records[crash:dropped],
                    *records[dropped + k:]]:
            replay.append(rec.t, rec.kind, rec.actor, rec.peer, rec.msg, rec.detail)
        out.append((p, replay.to_lines()))
    return out


def unsound_merges(scenario: Scenario, target: int) -> tuple[int, list[int]]:
    """Sweep ``scenario`` crashing ``target`` and replay each point merged
    into its group after the fork's boundary. Returns how many points were
    merged, and the occurrences of those whose replay checks to another
    verdict repr than the group's fork or whose lines are not the fork's
    with the merged deliveries swapped back (``point_lines``)."""
    merged, unsound = 0, []
    for points, fork in sweep_crash_points(Simulation(scenario), target):
        trace = fork.run()
        points = [p for p in points if merged_deliveries(p, trace)]
        if not points:
            continue
        merged += len(points)
        verdicts = repr(run_all_checks(trace))
        for point, lines in point_lines(points, trace):
            replay = Simulation(point.scenario).run()
            if replay.to_lines() != lines or repr(run_all_checks(replay)) != verdicts:
                unsound.append(point.occurrence)
    return merged, unsound


BASE_META = {
    "scenario": "synthetic",
    "variant": "PAPER_A",
    "n_controllers": 3,
    "switches": [0],
    "app": "mac-learner",
    "seed": 0,
    "detector_delay": 2,
    "latency": 1,
    "first_workload_t": 1,
}

# the record the simulator logs when a run hits its quiesce limit
STALL = ("STALL", "sim", None, None, {"reason": "quiesce_limit"})


class CountedRecords(list):
    """A trace's record list that counts the walks over it."""
    walks = 0

    def __iter__(self):
        self.walks += 1
        return super().__iter__()


def stalled(trace: Trace) -> bool:
    """Whether the run hit its quiesce limit: it logged a ``sim`` STALL."""
    return any(rec.kind == "STALL" and rec.actor == "sim" for rec in trace.records)


def synthetic_trace(records: list[tuple], **meta_overrides) -> Trace:
    """Hand-built trace for checker fixtures.

    Each record tuple is (kind, actor, peer, msg, detail); peer/msg/detail
    may be None. Crashes and a stall are stated as CRASH and STALL records.
    """
    meta = dict(BASE_META)
    meta.update(meta_overrides)
    trace = Trace(meta)
    for t, (kind, actor, peer, msg, detail) in enumerate(records, start=1):
        trace.append(t, kind, actor, peer=peer, msg=msg, detail=detail)
    return trace


def apply_event(actor: str, index: int, event: str, commands: str = "",
                digest: str = "d0") -> tuple:
    return ("APPLY", actor, None, None,
            {"index": str(index), "entry": "EVENT", "event": event,
             "commands": commands, "digest": digest})


def packet_in_send(switch: str, ctrl: str, event: str,
                   payload_hex: str = "02aa") -> tuple:
    return ("SEND", switch, ctrl,
            {"type": "PacketIn", "event": event, "reason": "NO_MATCH",
             "in_port": 1, "payload": payload_hex}, None)


def bundle_commit_exec(switch: str, bundle: int, sender: int = 0) -> tuple:
    return ("EXEC", switch, None, None,
            {"exec": "BUNDLE_COMMIT", "bundle": str(bundle),
             "from": str(sender), "info": ""})
