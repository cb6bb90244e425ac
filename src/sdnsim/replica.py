"""One controller replica.

Replicas totally order switch events through a single-leader replicated
log (leader of view v is replica v mod n; views advance only on failure
notices, so the whole protocol is deterministic). Every replica applies
committed entries to the application; only the leader, once it holds the
MASTER role on a switch, talks to that switch.

Command delivery is made exactly-once by three interlocking rules:

* commands for log index i go out as one atomic bundle with id i, carrying
  a PacketOut that acknowledges (view, i, switch) back to every replica;
* a new leader resends a committed index only if no ack for it has been
  seen, and only after the switch answered its RoleRequest -- per-connection
  FIFO then guarantees every ack the switch emitted before the mastership
  change has already been processed;
* the switch discards staged bundles when a connection drops, so a dead
  leader's half-sent bundle can never commit behind the new leader's back.

With bundles disabled (the naive baseline) the same failover logic has no
acks to consult and blindly resends every committed batch.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Union

from .apps import state_digest
from .ofmodel import (
    CONTROLLER_PORT,
    BundleAdd,
    BundleCommit,
    BundleCtrlReply,
    BundleOpen,
    ControlMessage,
    ControllerId,
    ErrorMsg,
    EventId,
    Hello,
    Output,
    PacketIn,
    PacketOut,
    PortId,
    Role,
    RoleReply,
    RoleRequest,
    SetAsyncConfig,
    SwitchId,
    decode_ack,
    encode_ack,
)


@dataclass(frozen=True)
class EventEntry:
    index: int
    event: EventId
    payload: bytes
    in_port: PortId


@dataclass(frozen=True)
class ViewEntry:
    index: int
    view: int
    leader: ControllerId


LogEntry = Union[EventEntry, ViewEntry]


@dataclass(frozen=True)
class Append:
    view: int
    entries: tuple[LogEntry, ...]
    commit_index: int


@dataclass(frozen=True)
class AppendAck:
    view: int
    index: int


@dataclass(frozen=True)
class CommitAdvance:
    view: int
    commit_index: int


ReplMessage = Union[Append, AppendAck, CommitAdvance]


@dataclass(frozen=True)
class SendToSwitch:
    switch: SwitchId
    msg: ControlMessage
    tags: tuple[tuple[str, str], ...] = ()


@dataclass(frozen=True)
class SendToReplica:
    dst: ControllerId
    msg: ReplMessage


@dataclass(frozen=True)
class Note:
    kind: str  # APPLY or STALL
    detail: tuple[tuple[str, str], ...]


Effect = Union[SendToSwitch, SendToReplica, Note]


def build_bundle(view: int, index: int, sw: SwitchId,
                 cmds: list[ControlMessage]) -> list[ControlMessage]:
    """Bundle message sequence for one log index: open, stage the commands
    plus the acknowledgement PacketOut, commit. Pure function of its inputs,
    so any replica rebuilds an identical sequence."""
    if not cmds:
        raise ValueError("bundle requires at least one command")
    msgs: list[ControlMessage] = [BundleOpen(index)]
    msgs.extend(BundleAdd(index, c) for c in cmds)
    ack = PacketOut((Output(CONTROLLER_PORT),), encode_ack(view, index, sw))
    msgs.append(BundleAdd(index, ack))
    msgs.append(BundleCommit(index))
    return msgs


class Replica:
    def __init__(self, rid: ControllerId, n_replicas: int,
                 switch_ids: list[SwitchId], app, use_bundles: bool,
                 register_async: bool):
        self.id = rid
        self.n = n_replicas
        self.view = 0
        self.log: list[LogEntry] = []
        self.commit_index = 0
        self.applied_index = 0
        self.event_buffer: dict[EventId, tuple[bytes, PortId]] = {}
        self.ack_table: dict[SwitchId, set[int]] = {s: set() for s in switch_ids}
        self.app = app
        self.app_state = app.initial_state()
        self.use_bundles = use_bundles
        self.register_async = register_async
        self.switch_ids = sorted(switch_ids)

        self.logged_events: set[EventId] = set()
        self.commands_by_index: dict[int, dict[SwitchId, list[ControlMessage]]] = {}
        self.acked_through: dict[ControllerId, int] = {}
        self.fence_done: dict[SwitchId, bool] = {s: False for s in switch_ids}
        self.crashed: set[ControllerId] = set()
        self.stalled = False

    def fork(self) -> "Replica":
        """An independent copy; log entries, commands and app states are
        immutable and stay shared."""
        new = copy.copy(self)
        new.log = list(self.log)
        new.event_buffer = dict(self.event_buffer)
        new.ack_table = {sw: set(acks) for sw, acks in self.ack_table.items()}
        new.logged_events = set(self.logged_events)
        new.commands_by_index = dict(self.commands_by_index)
        new.acked_through = dict(self.acked_through)
        new.fence_done = dict(self.fence_done)
        new.crashed = set(self.crashed)
        return new

    # ------------------------------------------------------------------

    @property
    def majority(self) -> int:
        return self.n // 2 + 1

    def leader_of(self, view: int) -> ControllerId:
        return view % self.n

    @property
    def is_leader(self) -> bool:
        return not self.stalled and self.leader_of(self.view) == self.id

    def startup(self) -> list[Effect]:
        """Initial connection setup: take roles, register for async messages."""
        effects: list[Effect] = []
        if self.is_leader:
            for sw in self.switch_ids:
                effects.append(SendToSwitch(sw, RoleRequest(Role.MASTER, self.view)))
        else:
            for sw in self.switch_ids:
                effects.append(SendToSwitch(sw, RoleRequest(Role.SLAVE, self.view)))
                if self.register_async:
                    effects.append(SendToSwitch(sw, SetAsyncConfig(True)))
        return effects

    # ------------------------------------------------------------------
    # inbound from switches

    def on_switch_message(self, sw: SwitchId, msg: ControlMessage) -> list[Effect]:
        if self.stalled:
            return []
        if isinstance(msg, PacketIn):
            return self._on_packet_in(msg)
        if isinstance(msg, RoleReply):
            if (msg.role is Role.MASTER and msg.generation_id == self.view
                    and self.is_leader):
                self.fence_done[sw] = True
                return self._flush_owed(sw)
            return []
        if isinstance(msg, (BundleCtrlReply, ErrorMsg, Hello)):
            return []
        raise AssertionError(f"replica cannot handle {type(msg).__name__}")

    def _on_packet_in(self, pkt: PacketIn) -> list[Effect]:
        ack = decode_ack(pkt.payload)
        if ack is not None:
            self.ack_table.setdefault(ack.target_switch, set()).add(ack.log_index)
            return []
        if pkt.event not in self.event_buffer:
            self.event_buffer[pkt.event] = (pkt.payload, pkt.in_port)
        if self.is_leader and pkt.event not in self.logged_events:
            entry = EventEntry(len(self.log) + 1, pkt.event, pkt.payload, pkt.in_port)
            self._append_local(entry)
            effects = self._broadcast(Append(self.view, (entry,), self.commit_index))
            effects.extend(self._leader_commit_scan())
            return effects
        return []

    # ------------------------------------------------------------------
    # inbound from peer replicas

    def on_replica_message(self, src: ControllerId, msg: ReplMessage) -> list[Effect]:
        if self.stalled:
            return []
        if isinstance(msg, Append):
            return self._on_append(src, msg)
        if isinstance(msg, AppendAck):
            if msg.view != self.view or not self.is_leader:
                return []
            self.acked_through[src] = max(self.acked_through.get(src, 0), msg.index)
            return self._leader_commit_scan()
        if isinstance(msg, CommitAdvance):
            if msg.view < self.view:
                return []
            self.view = max(self.view, msg.view)
            return self._advance_commit(min(msg.commit_index, len(self.log)))
        raise AssertionError(f"unknown replication message {type(msg).__name__}")

    def _on_append(self, src: ControllerId, msg: Append) -> list[Effect]:
        if msg.view < self.view:
            return []
        self.view = max(self.view, msg.view)
        for entry in msg.entries:
            idx = entry.index
            if idx <= len(self.log):
                if self.log[idx - 1] != entry:
                    # conflicting suffix left behind by an older view
                    assert idx > self.commit_index, "conflict below commit index"
                    del self.log[idx - 1:]
                    self.logged_events = {
                        e.event for e in self.log if isinstance(e, EventEntry)
                    }
                    self._append_local(entry)
            elif idx == len(self.log) + 1:
                self._append_local(entry)
            else:
                raise AssertionError("gap in replicated entries")
        effects: list[Effect] = [SendToReplica(src, AppendAck(self.view, len(self.log)))]
        effects.extend(self._advance_commit(min(msg.commit_index, len(self.log))))
        return effects

    # ------------------------------------------------------------------
    # failure handling

    def on_failure_notice(self, crashed: ControllerId) -> list[Effect]:
        if self.stalled or crashed in self.crashed:
            return []
        self.crashed.add(crashed)
        alive = self.n - len(self.crashed)
        if alive < self.majority:
            self.stalled = True
            return [Note("STALL", (("reason", "majority_lost"),
                                   ("alive", str(alive)),
                                   ("view", str(self.view))))]
        if crashed != self.leader_of(self.view):
            return []
        view = self.view + 1
        while self.leader_of(view) in self.crashed:
            view += 1
        self.view = view
        if self.leader_of(view) != self.id:
            return []

        # New leader: pin the view change and any buffered events into the
        # log, then fence every switch; resends happen per switch once its
        # RoleReply arrives.
        self.acked_through = {}
        self.fence_done = {s: False for s in self.switch_ids}
        new_entries: list[LogEntry] = [ViewEntry(len(self.log) + 1, view, self.id)]
        self._append_local(new_entries[0])
        for ev in sorted(self.event_buffer):
            if ev not in self.logged_events:
                payload, in_port = self.event_buffer[ev]
                entry = EventEntry(len(self.log) + 1, ev, payload, in_port)
                self._append_local(entry)
                new_entries.append(entry)
        effects = self._broadcast(Append(self.view, tuple(new_entries),
                                         self.commit_index))
        for sw in self.switch_ids:
            effects.append(SendToSwitch(sw, RoleRequest(Role.MASTER, view)))
        return effects

    def _flush_owed(self, sw: SwitchId) -> list[Effect]:
        """Send every committed, applied command batch for this switch that
        no replica has seen acknowledged. Runs once, right after the fence."""
        effects: list[Effect] = []
        for i in range(1, self.applied_index + 1):
            cmds = self.commands_by_index.get(i, {}).get(sw)
            if cmds and i not in self.ack_table[sw]:
                effects.extend(self._dispatch(i, sw))
        return effects

    # ------------------------------------------------------------------
    # log machinery

    def _append_local(self, entry: LogEntry) -> None:
        assert entry.index == len(self.log) + 1
        self.log.append(entry)
        if isinstance(entry, EventEntry):
            self.logged_events.add(entry.event)

    def _broadcast(self, msg: ReplMessage) -> list[Effect]:
        return [SendToReplica(r, msg) for r in range(self.n)
                if r != self.id and r not in self.crashed]

    def _leader_commit_scan(self) -> list[Effect]:
        best = self.commit_index
        for i in range(self.commit_index + 1, len(self.log) + 1):
            votes = 1 + sum(1 for a in self.acked_through.values() if a >= i)
            if votes >= self.majority:
                best = i
            else:
                break
        if best == self.commit_index:
            return []
        effects = self._advance_commit(best)
        effects.extend(self._broadcast(CommitAdvance(self.view, best)))
        return effects

    def _advance_commit(self, new_commit: int) -> list[Effect]:
        if new_commit <= self.commit_index:
            return []
        self.commit_index = new_commit
        effects: list[Effect] = []
        while self.applied_index < self.commit_index:
            effects.extend(self._apply_entry(self.log[self.applied_index]))
        return effects

    def _apply_entry(self, entry: LogEntry) -> list[Effect]:
        assert entry.index == self.applied_index + 1
        assert entry.index <= self.commit_index
        self.applied_index = entry.index
        if isinstance(entry, ViewEntry):
            return [Note("APPLY", (("index", str(entry.index)),
                                   ("entry", "VIEW"),
                                   ("entry_view", str(entry.view)),
                                   ("leader", str(entry.leader)),
                                   ("digest", state_digest(self.app_state))))]

        self.event_buffer.pop(entry.event, None)
        self.app_state, cmds = self.app.step(self.app_state, entry.event.switch,
                                             entry.in_port, entry.payload)
        self.commands_by_index[entry.index] = cmds
        summary = ",".join(f"{sw}={len(cmds[sw])}" for sw in sorted(cmds) if cmds[sw])
        effects: list[Effect] = [Note("APPLY", (("index", str(entry.index)),
                                                ("entry", "EVENT"),
                                                ("event", str(entry.event)),
                                                ("commands", summary),
                                                ("digest", state_digest(self.app_state))))]
        for sw in sorted(cmds):
            if (cmds[sw] and self.is_leader and self.fence_done.get(sw)
                    and entry.index not in self.ack_table[sw]):
                effects.extend(self._dispatch(entry.index, sw))
        return effects

    def _dispatch(self, index: int, sw: SwitchId) -> list[Effect]:
        cmds = self.commands_by_index[index][sw]
        if self.use_bundles:
            return [SendToSwitch(sw, m) for m in build_bundle(self.view, index, sw, cmds)]
        return [SendToSwitch(sw, c, tags=(("cmd_index", str(index)),
                                          ("cmd_switch", str(sw)),
                                          ("cmd_ord", str(j))))
                for j, c in enumerate(cmds)]
