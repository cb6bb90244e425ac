"""Deterministic discrete-event harness.

Virtual time is an integer step counter; every message takes a fixed
per-hop latency. The event heap breaks time ties by scheduling order,
which makes each channel reliable FIFO and the whole run a pure function
of the scenario. Controller crashes kill the controller's channels:
queued and future messages on them are dropped (recorded as DROP), the
switch end discards staged bundles, and surviving replicas get failure
notices after the detector delay.

A run can be stepped one dispatched event at a time and forked between
events. The crash sweep steps one fault-free base run and, at each event
boundary, forks it once per crash point the last event produced, crashes
the target in the fork and runs only the suffix; each fork's trace equals
the trace of the derived scenario that ``enumerate_crash_points`` replays
from the start.
"""

from __future__ import annotations

import copy
import heapq
from dataclasses import dataclass, replace
from typing import Callable, Optional

from .apps import make_app
from .ofmodel import Match, Output
from .replica import Note, Replica, SendToReplica, SendToSwitch
from .scenario import FaultSpec, Scenario, ScenarioError, SwitchSpec, TracePointSpec
from .switchsim import ExecKind, FlowEntry, SwitchState
from .trace import Trace, TraceRecord, msg_to_wire


def _initial_flow_entries(spec: SwitchSpec) -> list[FlowEntry]:
    entries = []
    for i, fl in enumerate(spec.flows):
        actions = tuple(Output(p) for p in fl.out_ports)
        entries.append(FlowEntry(Match(fl.in_port, fl.payload_prefix),
                                 fl.priority, actions, installed_seq=-(len(spec.flows) - i)))
    return entries


class _PointFault:
    def __init__(self, fault: FaultSpec):
        assert fault.at_point is not None
        self.fault = fault
        self.spec = fault.at_point
        self.count = 0
        self.fired = False

    def matches(self, kind: str, actor: str, msg_type: Optional[str]) -> bool:
        if self.fired or kind not in ("SEND", "DELIVER"):
            return False
        if self.spec.direction != "ANY" and kind != self.spec.direction:
            return False
        if actor != f"c{self.fault.target}":
            return False
        if self.spec.msg_type is not None and msg_type != self.spec.msg_type:
            return False
        return True


class Simulation:
    """One deterministic run of a scenario."""

    def __init__(self, scenario: Scenario):
        scenario.validate()
        self.sc = scenario
        self.now = 0
        self._heap: list = []
        self._seq = 0
        self._started = False
        self.processed = 0  # events dispatched so far
        self.quiesced = True
        self.crashed: set[int] = set()
        self._pending_crashes: list[int] = []
        self._point_faults = [_PointFault(f) for f in scenario.faults
                              if f.at_point is not None]

        switch_ports = {s.id: list(s.ports) for s in scenario.switches}
        controllers = list(range(scenario.n_controllers))
        self.switches: dict[int, SwitchState] = {}
        for spec in scenario.switches:
            sw = SwitchState(spec.id, list(spec.ports), controllers,
                             clone_acks_to_all=(scenario.variant == "PAPER_B"))
            sw.flow_table.extend(_initial_flow_entries(spec))
            self.switches[spec.id] = sw

        use_bundles = scenario.variant != "NAIVE"
        register_async = not (scenario.variant == "NAIVE"
                              and scenario.suppress_slave_events)
        switch_ids = sorted(self.switches)
        self.replicas: dict[int, Replica] = {
            c: Replica(c, scenario.n_controllers, switch_ids,
                       make_app(scenario.app, scenario.app_config, switch_ports),
                       use_bundles=use_bundles, register_async=register_async)
            for c in controllers
        }

        workload_times = [w.t for w in scenario.workload]
        self._first_workload_t = min(workload_times) if workload_times else None
        self.trace = Trace({
            "scenario": scenario.name,
            "variant": scenario.variant,
            "n_controllers": scenario.n_controllers,
            "switches": switch_ids,
            "app": scenario.app,
            "seed": scenario.seed,
            "detector_delay": scenario.detector_delay,
            "latency": scenario.latency,
            "first_workload_t": self._first_workload_t,
            "quiesced": True,
            "crashed": [],
        })

    # ------------------------------------------------------------------

    def run(self) -> Trace:
        """Run to quiescence or the quiesce limit, continuing from wherever
        earlier ``step`` calls left off, and return the finished trace."""
        self.start()
        while self.step():
            pass
        self.trace.meta["quiesced"] = self.quiesced
        self.trace.meta["crashed"] = sorted(self.crashed)
        return self.trace

    def start(self) -> None:
        """Queue the workload and timed faults and run replica start-up;
        does nothing the second time."""
        if self._started:
            return
        self._started = True
        for w in self.sc.workload:
            self._schedule(w.t, ("workload", w.switch, w.in_port, w.payload))
        for f in self.sc.faults:
            if f.at_time is not None:
                self._schedule(f.at_time, ("crash", f.target))
        for rid in sorted(self.replicas):
            self._run_effects(rid, self.replicas[rid].startup())

    def step(self) -> bool:
        """Dispatch the next event and fire the crashes it triggered.
        Returns False, dispatching nothing, once the heap is empty or the
        quiesce limit is hit (which records one STALL)."""
        if not self._heap or not self.quiesced:
            return False
        if self.processed >= self.sc.quiesce_limit:
            self.quiesced = False
            self._record(self.now, "STALL", "sim", detail={"reason": "quiesce_limit"})
            return False
        t, _, item = heapq.heappop(self._heap)
        self.now = t
        self._dispatch(item)
        self.processed += 1
        if self._pending_crashes:
            self._fire_pending_crashes()
        return True

    def fork(self) -> "Simulation":
        """An independent copy of this run, to be continued separately.

        Only the mutable containers are copied; records, messages, wire
        dicts, log entries and app states are immutable and stay shared."""
        new = copy.copy(self)
        new._heap = list(self._heap)
        new.crashed = set(self.crashed)
        new._pending_crashes = list(self._pending_crashes)
        new._point_faults = [copy.copy(pf) for pf in self._point_faults]
        new.switches = {i: sw.fork() for i, sw in self.switches.items()}
        new.replicas = {i: r.fork() for i, r in self.replicas.items()}
        new.trace = self.trace.fork()
        return new

    def crash_at_boundary(self, target: int) -> None:
        """Crash ``target`` as a trace-point fault matched by the last
        dispatched event does: now, or, before the first dispatch (a match
        during start-up), right after the first event."""
        self._pending_crashes.append(target)
        if self.processed:
            self._fire_pending_crashes()

    def _fire_pending_crashes(self) -> None:
        while self._pending_crashes:
            self._crash(self._pending_crashes.pop(0))

    # ------------------------------------------------------------------
    # event dispatch

    def _dispatch(self, item: tuple) -> None:
        kind = item[0]
        if kind == "deliver":
            _, src, dst, msg, wire, detail = item
            self._deliver(src, dst, msg, wire, detail)
        elif kind == "workload":
            _, sw_id, in_port, payload = item
            sw = self.switches[sw_id]
            before = len(sw.exec_log)
            outbound = sw.inject_data_packet(in_port, payload)
            self._flush_exec(sw, before, {})
            for ctrl, m in outbound:
                self._send(f"s{sw_id}", f"c{ctrl}", m, {})
        elif kind == "crash":
            self._crash(item[1])
        elif kind == "detect":
            _, survivor, target = item
            if survivor in self.crashed:
                return
            self._record(self.now, "DETECT", f"c{survivor}",
                         detail={"crashed": str(target)})
            self._run_effects(survivor, self.replicas[survivor].on_failure_notice(target))
        else:
            raise AssertionError(f"unknown event {kind}")

    def _deliver(self, src: str, dst: str, msg, wire: dict,
                 detail: dict[str, str]) -> None:
        if self._endpoint_dead(src) or self._endpoint_dead(dst):
            drop_detail = dict(detail)
            drop_detail["reason"] = "crash"
            self._record(self.now, "DROP", dst, peer=src, msg=wire, detail=drop_detail)
            return
        self._record(self.now, "DELIVER", dst, peer=src, msg=wire, detail=detail)
        if dst.startswith("s"):
            sw = self.switches[int(dst[1:])]
            before = len(sw.exec_log)
            outbound = sw.handle_message(int(src[1:]), msg)
            self._flush_exec(sw, before, detail)
            for ctrl, m in outbound:
                self._send(dst, f"c{ctrl}", m, {})
        else:
            rid = int(dst[1:])
            replica = self.replicas[rid]
            if src.startswith("s"):
                effects = replica.on_switch_message(int(src[1:]), msg)
            else:
                effects = replica.on_replica_message(int(src[1:]), msg)
            self._run_effects(rid, effects)

    def _run_effects(self, rid: int, effects) -> None:
        me = f"c{rid}"
        for e in effects:
            if isinstance(e, SendToSwitch):
                self._send(me, f"s{e.switch}", e.msg, dict(e.tags))
            elif isinstance(e, SendToReplica):
                self._send(me, f"c{e.dst}", e.msg, {})
            elif isinstance(e, Note):
                self._record(self.now, e.kind, me, detail=dict(e.detail))
            else:
                raise AssertionError(f"unknown effect {e!r}")

    # ------------------------------------------------------------------
    # sends, execs, crashes

    def _send(self, src: str, dst: str, msg, tags: dict[str, str]) -> None:
        detail = dict(tags)
        if self._first_workload_t is None or self.now < self._first_workload_t:
            detail["phase"] = "setup"
        wire = msg_to_wire(msg)
        self._record(self.now, "SEND", src, peer=dst, msg=wire, detail=detail)
        self._schedule(self.now + self.sc.latency,
                       ("deliver", src, dst, msg, wire, detail))

    def _flush_exec(self, sw: SwitchState, before: int,
                    deliver_detail: dict[str, str]) -> None:
        for er in sw.exec_log[before:]:
            detail = {"exec": er.kind.value, "info": er.detail}
            if er.bundle_id is not None:
                detail["bundle"] = str(er.bundle_id)
            if er.sender is not None:
                detail["from"] = str(er.sender)
            if er.bundle_id is None and er.kind in (ExecKind.FLOWMOD, ExecKind.PACKETOUT):
                for k, v in deliver_detail.items():
                    if k.startswith("cmd_"):
                        detail[k] = v
            self._record(self.now, "EXEC", f"s{sw.id}", detail=detail)

    def _crash(self, target: int) -> None:
        if target in self.crashed:
            return
        self.crashed.add(target)
        self._record(self.now, "CRASH", f"c{target}")
        for sw_id in sorted(self.switches):
            sw = self.switches[sw_id]
            if not sw.conns[target].alive:
                continue
            for bundle_id, staged in sw.on_connection_drop(target):
                self._record(self.now, "DROP", f"s{sw_id}", peer=f"c{target}",
                             msg=msg_to_wire(staged),
                             detail={"reason": "connection_drop",
                                     "bundle": str(bundle_id)})
        for ctrl in sorted(self.replicas):
            if ctrl != target and ctrl not in self.crashed:
                self._schedule(self.now + self.sc.detector_delay,
                               ("detect", ctrl, target))

    def _endpoint_dead(self, ep: str) -> bool:
        return ep.startswith("c") and int(ep[1:]) in self.crashed

    def _schedule(self, t: int, item: tuple) -> None:
        heapq.heappush(self._heap, (t, self._seq, item))
        self._seq += 1

    def _record(self, t: int, kind: str, actor: str, peer: Optional[str] = None,
                msg: Optional[dict] = None, detail: Optional[dict[str, str]] = None):
        rec = self.trace.append(t, kind, actor, peer=peer, msg=msg, detail=detail)
        msg_type = (msg or {}).get("type")
        for pf in self._point_faults:
            if pf.matches(kind, actor, msg_type):
                pf.count += 1
                if pf.count == pf.spec.occurrence:
                    pf.fired = True
                    self._pending_crashes.append(pf.fault.target)
        return rec


def run(scenario: Scenario) -> Trace:
    return Simulation(scenario).run()


@dataclass(frozen=True)
class SweepPoint:
    """One enumerated crash point: where in the fault-free run it sits and
    the derived scenario that crashes the target there."""

    occurrence: int
    step: int
    t: int
    kind: str
    msg_type: str
    scenario: Scenario


def resolve_crash_target(scenario: Scenario, selector: str) -> int:
    if selector == "leader":
        return 0  # leader of the initial view
    if selector.startswith("replica:"):
        target = int(selector.split(":", 1)[1])
        if not (0 <= target < scenario.n_controllers):
            raise ScenarioError(f"crash target {target} out of range")
        return target
    raise ScenarioError(f"unknown crash selector {selector!r}")


def enumerate_crash_points(scenario: Scenario, target: int) -> list[SweepPoint]:
    """Run the scenario fault-free once and derive one scenario per trace
    point where the target controller sends or delivers a message.

    Each derived scenario replays the whole run with its crash; this is
    the reference that ``sweep_crash_points`` must reproduce."""
    _check_sweep_base(scenario)
    base = Simulation(scenario).run()
    actor = f"c{target}"
    points = [rec for rec in base.records if _is_crash_point(rec, actor)]
    return [_sweep_point(scenario, target, occurrence, rec)
            for occurrence, rec in enumerate(points, 1)]


def sweep_crash_points(scenario: Scenario, target: int,
                       on_point: Callable[[SweepPoint, Trace], None],
                       worker: int = 0, workers: int = 1) -> Trace:
    """Crash the target at every point ``enumerate_crash_points`` derives,
    sharing the fault-free prefix instead of replaying it.

    The fault-free base run is stepped one event at a time. At each event
    boundary, every target send/deliver since the previous boundary is a
    crash point: the base is forked, the crash is queued there and the fork
    is run to the end. ``on_point(point, trace)`` gets each point with its
    finished trace, in occurrence order, and nothing keeps the trace after
    it returns. Worker ``worker`` of ``workers`` forks only the points with
    ``(occurrence - 1) % workers == worker``. Returns the fault-free trace."""
    _check_sweep_base(scenario)
    base = Simulation(scenario)
    base.start()
    actor = f"c{target}"
    occurrence = seen = 0
    while True:
        records = base.trace.records
        for rec in records[seen:]:
            if not _is_crash_point(rec, actor):
                continue
            occurrence += 1
            if (occurrence - 1) % workers != worker:
                continue
            point = _sweep_point(scenario, target, occurrence, rec)
            fork = base.fork()
            fork.trace.meta["scenario"] = point.scenario.name
            fork.crash_at_boundary(target)
            on_point(point, fork.run())
        seen = len(records)
        if not base.step():
            return base.run()


def _check_sweep_base(scenario: Scenario) -> None:
    if any(f.at_point is not None for f in scenario.faults):
        raise ScenarioError("sweep base scenario may not contain trace-point faults")


def _is_crash_point(rec: TraceRecord, actor: str) -> bool:
    return rec.kind in ("SEND", "DELIVER") and rec.actor == actor


def _sweep_point(scenario: Scenario, target: int, occurrence: int,
                 rec: TraceRecord) -> SweepPoint:
    fault = FaultSpec(target=target, at_point=TracePointSpec("ANY", None, occurrence))
    derived = replace(scenario.with_extra_fault(fault),
                      name=f"{scenario.name}+crash-c{target}-p{occurrence}")
    return SweepPoint(occurrence, rec.step, rec.t, rec.kind,
                      (rec.msg or {}).get("type", ""), derived)
