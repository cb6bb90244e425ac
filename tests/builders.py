"""Shared scenario and trace builders for the test suite."""

from __future__ import annotations

from sdnsim import (AppConfig, Route, Scenario, SwitchSpec, Trace, WorkloadItem,
                    scenario_to_obj)
from sdnsim.trace import canonical_json


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


def point_lines(points, trace: Trace) -> list[tuple]:
    """Expand one crash-sweep fork into (point, trace lines) per crash
    point: that point's derived scenario as the meta line, then the fork's
    record lines, as a replay of that scenario writes them."""
    records = trace.to_lines()[1:]
    return [(p, [canonical_json({"meta": scenario_to_obj(p.scenario)}), *records])
            for p in points]


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
