"""Deterministic discrete-event harness.

Virtual time is an integer step counter; every message takes a fixed
per-hop latency. Each event is a heap entry ``(t, seq, handler, args)``
whose handler is a plain ``Simulation`` function (deliver, inject, crash,
detect) run as ``handler(sim, *args)``. The heap breaks time ties by
scheduling order, which makes each channel reliable FIFO and the whole run
a pure function of the scenario. Controller crashes kill the controller's
channels: queued and future messages on them are dropped (recorded as
DROP), the switch end discards staged bundles, and surviving replicas get
failure notices after the detector delay.

A run can be stepped one dispatched event at a time and forked between
events. It ends when the heap is empty: the quiesce limit logs one STALL
record and empties it. Its trace's metadata is its scenario in the file
form, so ``Simulation(scenario_from_obj(trace.meta)).run()`` replays it
byte for byte, unless a script called ``crash`` by hand: the CRASH record
states that crash.

Trace-point faults, ``enumerate_crash_points`` and ``sweep_crash_points``
pick crash points with one predicate, ``_is_crash_point``, and crash at
the event boundary after the matching record, start-up's records
counting as the first event's. ``sweep_crash_points`` states how the
sweep groups boundaries into forks and what each fork stands for.
"""

from __future__ import annotations

import copy
import heapq
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable, Iterator

from .apps import make_app
from .checker import Verdict, _Run
from .ofmodel import FlowMod, Match, Output
from .replica import Note, Replica, SendToReplica, SendToSwitch, shared_steps
from .scenario import FaultSpec, Scenario, ScenarioError, TracePointSpec, scenario_to_obj
from .switchsim import SwitchState
from .trace import Trace, TraceRecord, msg_to_wire


class Simulation:
    """One deterministic run of a scenario, which is valid as built: it checks nothing.
    Building it queues the workload and timed faults and runs replica start-up;
    its trace states each crash and the quiesce limit by a CRASH or STALL record."""

    def __init__(self, scenario: Scenario):
        self.sc = scenario
        self.now = 0
        self._heap: list = []
        self._seq = 0
        self.processed = 0  # events dispatched so far
        self.crashed: set[int] = set()
        self._point_faults = tuple(f for f in scenario.faults if f.at_point is not None)
        # matches each point fault still needs; it fires when its count hits 0
        self._matches_left = [f.at_point.occurrence for f in self._point_faults]
        self._step_start = 0  # where the last dispatched event's records begin
        # the last message _send encoded and its wire dict, which a fan-out's
        # later sends of the same message share
        self._last_wire: tuple = (None, None)
        self._fold = None  # the checker's view of the trace, from the first fork or verdicts

        switch_ports = {s.id: list(s.ports) for s in scenario.switches}
        steps = shared_steps(make_app(scenario.app, scenario.app_config.routes, switch_ports))
        controllers = list(range(scenario.n_controllers))
        self.switches: dict[int, SwitchState] = {}
        for spec in scenario.switches:
            sw = SwitchState(spec.id, controllers,
                             clone_acks_to_all=(scenario.variant == "PAPER_B"))
            for fl in spec.flows:
                sw.install(FlowMod(Match(fl.in_port, fl.payload_prefix), fl.priority,
                                   tuple(Output(p) for p in fl.out_ports)))
            self.switches[spec.id] = sw

        use_bundles = scenario.variant != "NAIVE"
        register_async = not scenario.suppress_slave_events
        switch_ids = sorted(self.switches)
        self.replicas: dict[int, Replica] = {
            c: Replica(c, scenario.n_controllers, switch_ids, steps,
                       use_bundles=use_bundles, register_async=register_async)
            for c in controllers
        }

        workload_times = [w.t for w in scenario.workload]
        self._first_workload_t = min(workload_times) if workload_times else None
        self.trace = Trace(scenario_to_obj(scenario))
        for w in scenario.workload:
            self._schedule(w.t, Simulation._inject, w.switch, w.in_port, w.payload)
        for f in scenario.faults:
            if f.at_time is not None:
                self._schedule(f.at_time, Simulation.crash, f.target)
        for rid in sorted(self.replicas):
            self._run_effects(rid, self.replicas[rid].startup())

    # ------------------------------------------------------------------

    def run(self) -> Trace:
        """Run to quiescence or the quiesce limit, continuing from wherever
        earlier ``step`` calls left off, and return the finished trace."""
        while self.step():
            pass
        return self.trace

    def step(self) -> bool:
        """Dispatch the next event, note in ``_step_start`` where its records
        begin (at 0 for the first, which owns start-up's), and count them
        toward the point faults, crashing each target whose count reaches 0
        in match order. Returns False, dispatching nothing, once the heap is
        empty; the quiesce limit records one STALL and empties it."""
        if not self._heap:
            return False
        if self.processed >= self.sc.quiesce_limit:
            self.trace.append(self.now, "STALL", "sim", detail={"reason": "quiesce_limit"})
            self._heap.clear()
            return False
        if self.processed:  # past the last step's point-fault CRASH and DROPs too
            self._step_start = len(self.trace.records)
        t, _, handler, args = heapq.heappop(self._heap)
        self.now = t
        handler(self, *args)
        self.processed += 1
        if self._point_faults:
            for rec in self.trace.records[self._step_start:]:
                for i, fault in enumerate(self._point_faults):
                    if _is_crash_point(rec, f"c{fault.target}", fault.at_point):
                        self._matches_left[i] -= 1
                        if self._matches_left[i] == 0:
                            self.crash(fault.target)
        return True

    def verdicts(self) -> list[Verdict]:
        """What ``run_all_checks(self.trace)`` returns, from this run's fold of
        its trace (a fork's starts as its parent's), fed the records since."""
        return self._folded().verdicts()

    def _folded(self) -> _Run:
        if self._fold is None:
            self._fold = _Run(self.trace)
        else:
            self._fold.update(self.trace)
        return self._fold

    def fork(self) -> "Simulation":
        """An independent copy of this run, to be continued separately.

        Only the mutable containers are copied; records, messages, wire
        dicts, log entries and app states are immutable and stay shared."""
        new = copy.copy(self)
        new._heap = list(self._heap)
        new.crashed = set(self.crashed)
        new._matches_left = list(self._matches_left)
        new.switches = {i: sw.fork() for i, sw in self.switches.items()}
        new.replicas = {i: r.fork() for i, r in self.replicas.items()}
        new.trace = self.trace.fork()
        new._fold = self._folded().fork()
        return new

    # ------------------------------------------------------------------
    # event handlers: each heap entry is (t, seq, handler, args) and runs as
    # handler(sim, *args), so a fork's copy of the heap runs in the fork

    def _inject(self, sw_id: int, in_port: int, payload: bytes) -> None:
        sw = self.switches[sw_id]
        self._switch_call(sw, {}, sw.inject_data_packet, in_port, payload)

    def _detect(self, survivor: int, target: int) -> None:
        if survivor in self.crashed:
            return
        self.trace.append(self.now, "DETECT", f"c{survivor}", detail={"crashed": str(target)})
        self._run_effects(survivor, self.replicas[survivor].on_failure_notice(target))

    def _deliver(self, src: str, dst: str, msg, wire: dict,
                 detail: dict[str, str]) -> None:
        if self._endpoint_dead(src) or self._endpoint_dead(dst):
            self.trace.append(self.now, "DROP", dst, peer=src, msg=wire,
                              detail={**detail, "reason": "crash"})
            return
        self.trace.append(self.now, "DELIVER", dst, peer=src, msg=wire, detail=detail)
        if dst.startswith("s"):
            sw = self.switches[int(dst[1:])]
            self._switch_call(sw, detail, sw.handle_message, int(src[1:]), msg)
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
                self._send(me, f"s{e.switch}", e.msg, e.tags)
            elif isinstance(e, SendToReplica):
                self._send(me, f"c{e.dst}", e.msg, {})
            elif isinstance(e, Note):
                self.trace.append(self.now, e.kind, me, detail=e.detail)
            else:
                raise AssertionError(f"unknown effect {e!r}")

    # ------------------------------------------------------------------
    # sends, execs, crashes

    def _send(self, src: str, dst: str, msg, detail: dict[str, str]) -> None:
        """Record and schedule one message; ``detail``, the caller's fresh dict, is
        its SEND and DELIVER detail, copied only to tag ``phase: setup``."""
        if self._first_workload_t is None or self.now < self._first_workload_t:
            detail = {**detail, "phase": "setup"}
        last, wire = self._last_wire
        if msg is not last:
            wire = msg_to_wire(msg)
            self._last_wire = (msg, wire)
        self.trace.append(self.now, "SEND", src, peer=dst, msg=wire, detail=detail)
        self._schedule(self.now + self.sc.latency,
                       Simulation._deliver, src, dst, msg, wire, detail)

    def _switch_call(self, sw: SwitchState, deliver_detail: dict[str, str],
                     method: Callable, *args) -> None:
        """Call one of ``sw``'s input methods, append each execution it
        logs to the trace as one EXEC record, its message in wire form,
        leaving ``sw.exec_log`` empty, and send the messages it returns.
        Executions outside a bundle also carry the ``cmd_`` tags of the
        delivery that brought them (a table hit, brought by no delivery,
        carries none)."""
        me = f"s{sw.id}"
        outbound = method(*args)
        execs, sw.exec_log = sw.exec_log, []
        for detail, msg in execs:
            if "bundle" not in detail:
                for k, v in deliver_detail.items():
                    if k.startswith("cmd_"):
                        detail[k] = v
            self.trace.append(self.now, "EXEC", me,
                              msg=None if msg is None else msg_to_wire(msg), detail=detail)
        for ctrl, m in outbound:
            self._send(me, f"c{ctrl}", m, {})

    def crash(self, target: int) -> None:
        """Crash controller ``target`` now, between events: kill its
        channels, discard the bundles it staged and schedule the survivors'
        failure notices. Timed faults run it as a heap handler."""
        if target in self.crashed:
            return
        self.crashed.add(target)
        self.trace.append(self.now, "CRASH", f"c{target}")
        for sw_id in sorted(self.switches):
            for bundle_id, staged in self.switches[sw_id].on_connection_drop(target):
                self.trace.append(self.now, "DROP", f"s{sw_id}", peer=f"c{target}",
                                  msg=msg_to_wire(staged),
                                  detail={"reason": "connection_drop",
                                          "bundle": str(bundle_id)})
        for ctrl in sorted(self.replicas):
            if ctrl != target and ctrl not in self.crashed:
                self._schedule(self.now + self.sc.detector_delay,
                               Simulation._detect, ctrl, target)

    def _endpoint_dead(self, ep: str) -> bool:
        return ep.startswith("c") and int(ep[1:]) in self.crashed

    def _schedule(self, t: int, handler: Callable, *args) -> None:
        heapq.heappush(self._heap, (t, self._seq, handler, args))
        self._seq += 1


@dataclass(frozen=True)
class SweepPoint:
    """One enumerated crash point: the ``target``'s ``occurrence``-th send
    or delivery in a run of ``swept``, the fault-free run's own ``record``
    of it, after which the target crashes, and ``scenario``, the derived
    scenario that crashes it there, built when first read."""

    occurrence: int
    record: TraceRecord
    swept: Scenario
    target: int

    @cached_property
    def scenario(self) -> Scenario:
        fault = FaultSpec(target=self.target,
                          at_point=replace(_ANY_POINT, occurrence=self.occurrence))
        return replace(self.swept, faults=self.swept.faults + (fault,),
                       name=f"{self.swept.name}+crash-c{self.target}-p{self.occurrence}")


def resolve_crash_target(scenario: Scenario, selector: str) -> int:
    if selector == "leader":
        return 0  # leader of the initial view
    if selector.startswith("replica:"):
        try:
            target = int(selector[len("replica:"):])
        except ValueError:
            raise ScenarioError(f"crash selector {selector!r}: "
                                f"replica id must be an integer") from None
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
    points = [rec for rec in base.records if _is_crash_point(rec, actor, _ANY_POINT)]
    return [SweepPoint(occurrence, rec, scenario, target)
            for occurrence, rec in enumerate(points, 1)]


def sweep_crash_points(base: Simulation,
                       target: int) -> Iterator[tuple[list[SweepPoint], Simulation]]:
    """Crash the target at every point ``enumerate_crash_points`` derives,
    sharing the fault-free prefix instead of replaying it.

    ``base`` is the caller's fault-free run. It must not have stepped, as
    start-up's records count at the first boundary; the sweep steps it to
    its end. A boundary's crash points are the target sends and deliveries
    in the records of the step just taken, from its ``_step_start``, and
    all of them crash there. At the first boundary of a group the sweep
    forks the base and crashes the target in the fork; each following step
    that ``_commutes_with_crash`` adds its one point to the group and forks
    nothing. At the next step that does not, or when the base ends, the
    sweep yields the group's points, in occurrence order, with its fork,
    which has not run and whose meta is the first point's derived scenario.
    Run to its end, the fork is that point's replay. A merged point's
    replay differs from it only in the k deliveries merged up to that
    point: DELIVERs before the CRASH in the replay, ``reason: crash`` DROPs
    after it in the fork. Later base steps leave a fork unchanged. A
    caller that wants a share of the groups slices this generator. At the
    first ``next()``, before the base steps, a base that has stepped raises
    ``ValueError`` and one with trace-point faults raises
    ``ScenarioError``."""
    if base.processed:
        raise ValueError(f"sweep base has already stepped {base.processed} event(s)")
    _check_sweep_base(base.sc)
    actor = f"c{target}"
    occurrence = 0
    held: list[SweepPoint] = []  # the points of the group whose fork is held
    fork = last = None  # its fork, and the events the base had run at its last boundary
    while base.step():
        records = base.trace.records[base._step_start:]
        hits = [rec for rec in records if _is_crash_point(rec, actor, _ANY_POINT)]
        points = [SweepPoint(n, rec, base.sc, target)
                  for n, rec in enumerate(hits, occurrence + 1)]
        occurrence += len(hits)
        if held and _commutes_with_crash(records, actor, base.processed - last,
                                         base.now - fork.now):
            held += points
            last = base.processed
            continue
        if held:
            yield held, fork
            held = []
        if points:
            fork = base.fork()
            fork.trace.meta = scenario_to_obj(points[0].scenario)
            fork.crash(target)
            held, last = points, base.processed
    if held:
        yield held, fork


def _check_sweep_base(scenario: Scenario) -> None:
    if any(f.at_point is not None for f in scenario.faults):
        raise ScenarioError("sweep base scenario may not contain trace-point faults")


# The sweep crashes the target at every send and delivery it makes.
_ANY_POINT = TracePointSpec()


def _is_crash_point(rec: TraceRecord, actor: str, spec: TracePointSpec) -> bool:
    """Whether ``rec`` is a send or delivery by ``actor`` of the direction
    and message type ``spec`` selects; ``spec.occurrence`` is the caller's."""
    return (rec.kind in ("SEND", "DELIVER") and rec.actor == actor
            and spec.direction in ("ANY", rec.kind)
            and spec.msg_type in (None, (rec.msg or {}).get("type")))


def _commutes_with_crash(records: list[TraceRecord], actor: str,
                         steps: int, ticks: int) -> bool:
    """Whether crashing ``actor`` at an event boundary commutes with the
    step that logged ``records`` ``steps`` events and ``ticks`` ticks after
    it: that step is the next event, at the same tick, and its only record
    is a DELIVER to ``actor``.

    Such a step ran only the target's handler, which sent nothing. Every
    ``_schedule`` in a handler comes with a SEND record, or in ``crash``
    with a CRASH record, so it scheduled nothing either. The target's
    state change dies with the target, and the checker reads no
    controller-side DELIVER. At the same tick, the crash logs its CRASH
    and schedules the failure notices for the same times before the step
    as after it. So both orders leave the same heap, ``seq`` included, and
    the same state, and their records differ only in the delivery: a
    ``reason: crash`` DROP after the CRASH when the crash comes first, a
    DELIVER before it when it comes second."""
    return (steps == 1 and ticks == 0 and len(records) == 1
            and records[0].kind == "DELIVER" and records[0].actor == actor)
