"""Switch-side state machine: per-connection roles and async configs,
atomic bundles, the flow table, and PacketIn fan-out.

Models a stock OpenFlow 1.4 switch. Two rules here carry the whole
failover story and must not be weakened:

* a dropped connection discards its staged (uncommitted) bundles, and
* the commit reply goes only to the connection that sent the commit;
  other controllers learn of commits solely through ack PacketIns.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Optional

from .ofmodel import (
    CONTROLLER_PORT,
    Action,
    BundleAdd,
    BundleCommit,
    BundleCtrlReply,
    BundleOpen,
    BundleReplyKind,
    ControlMessage,
    ControllerId,
    Drop,
    ErrorCode,
    ErrorMsg,
    EventId,
    FlowMod,
    Hello,
    Match,
    Output,
    PacketIn,
    PacketInReason,
    PacketOut,
    PortId,
    Role,
    RoleReply,
    RoleRequest,
    SetAsyncConfig,
    SwitchId,
    is_ack_payload,
)

Outbound = list[tuple[ControllerId, ControlMessage]]

# Message kinds a slave connection may not use to change switch state.
_SLAVE_REJECTED = (FlowMod, PacketOut, BundleOpen, BundleAdd, BundleCommit)


class ExecKind(Enum):
    BUNDLE_COMMIT = "BUNDLE_COMMIT"
    FLOWMOD = "FLOWMOD"
    PACKETOUT = "PACKETOUT"
    PACKET_FWD = "PACKET_FWD"


@dataclass(frozen=True)
class ExecRecord:
    """One entry of the switch's append-only execution log."""

    kind: ExecKind
    bundle_id: Optional[int] = None
    sender: Optional[ControllerId] = None
    detail: str = ""


@dataclass
class ConnState:
    """State the switch keeps per controller connection."""

    controller: ControllerId
    role: Role = Role.EQUAL
    # None = role-based default (masters and equals receive PacketIns,
    # slaves do not); SetAsyncConfig installs an explicit override.
    packet_in_override: Optional[bool] = None
    open_bundles: dict[int, list[ControlMessage]] = field(default_factory=dict)
    alive: bool = True

    @property
    def packet_in_enabled(self) -> bool:
        if self.packet_in_override is not None:
            return self.packet_in_override
        return self.role is not Role.SLAVE


@dataclass
class FlowEntry:
    match: Match
    priority: int
    actions: tuple[Action, ...]
    installed_seq: int


class SwitchState:
    """One simulated switch; processes one message to completion at a time."""

    def __init__(self, switch_id: SwitchId, ports: list[PortId],
                 controllers: list[ControllerId], clone_acks_to_all: bool = False):
        self.id = switch_id
        self.ports = list(ports)
        self.flow_table: list[FlowEntry] = []
        self.conns: dict[ControllerId, ConnState] = {
            c: ConnState(controller=c) for c in controllers
        }
        self.seq_counter = 0
        self.generation_id_seen: Optional[int] = None
        self.clone_acks_to_all = clone_acks_to_all
        self.exec_log: list[ExecRecord] = []
        self._install_seq = 0

    def fork(self) -> "SwitchState":
        """An independent copy; flow entries, messages and exec records are
        never mutated in place and stay shared."""
        new = copy.copy(self)
        new.flow_table = list(self.flow_table)
        new.conns = {c: replace(conn, open_bundles={b: list(staged) for b, staged
                                                    in conn.open_bundles.items()})
                     for c, conn in self.conns.items()}
        new.exec_log = list(self.exec_log)
        return new

    # ------------------------------------------------------------------
    # message handling

    def handle_message(self, sender: ControllerId, msg: ControlMessage) -> Outbound:
        conn = self.conns[sender]
        if not conn.alive:
            raise AssertionError(f"message delivered on dead connection {sender}")

        if isinstance(msg, Hello):
            return [(sender, Hello())]
        if isinstance(msg, RoleRequest):
            return self._handle_role_request(conn, msg)
        if isinstance(msg, SetAsyncConfig):
            conn.packet_in_override = msg.packet_in_enabled
            return []

        if isinstance(msg, _SLAVE_REJECTED) and conn.role is Role.SLAVE:
            return [(sender, ErrorMsg(ErrorCode.IS_SLAVE))]

        if isinstance(msg, FlowMod):
            self._apply_flow_mod(msg, sender, bundle_id=None)
            return []
        if isinstance(msg, PacketOut):
            return self._exec_packet_out(msg, sender, bundle_id=None)
        if isinstance(msg, BundleOpen):
            if msg.bundle_id in conn.open_bundles:
                return [(sender, ErrorMsg(ErrorCode.BAD_BUNDLE))]
            conn.open_bundles[msg.bundle_id] = []
            return [(sender, BundleCtrlReply(msg.bundle_id, BundleReplyKind.OPEN_OK))]
        if isinstance(msg, BundleAdd):
            if msg.bundle_id not in conn.open_bundles:
                return [(sender, ErrorMsg(ErrorCode.BAD_BUNDLE))]
            conn.open_bundles[msg.bundle_id].append(msg.inner)
            return []
        if isinstance(msg, BundleCommit):
            return self._commit_bundle(conn, msg.bundle_id)

        raise AssertionError(f"switch cannot handle {type(msg).__name__}")

    def _handle_role_request(self, conn: ConnState, msg: RoleRequest) -> Outbound:
        if msg.role is Role.MASTER:
            if self.generation_id_seen is not None and msg.generation_id <= self.generation_id_seen:
                return [(conn.controller, ErrorMsg(ErrorCode.STALE_GENERATION))]
            for other in self.conns.values():
                if other is not conn and other.role is Role.MASTER:
                    other.role = Role.SLAVE
            conn.role = Role.MASTER
            self.generation_id_seen = msg.generation_id
        else:
            conn.role = msg.role
        return [(conn.controller, RoleReply(conn.role, msg.generation_id))]

    def _commit_bundle(self, conn: ConnState, bundle_id: int) -> Outbound:
        if bundle_id not in conn.open_bundles:
            return [(conn.controller, ErrorMsg(ErrorCode.BAD_BUNDLE))]
        staged = conn.open_bundles.pop(bundle_id)
        self._exec(ExecKind.BUNDLE_COMMIT, bundle_id, conn.controller,
                   f"messages={len(staged)}")
        out: Outbound = []
        for inner in staged:
            if isinstance(inner, FlowMod):
                self._apply_flow_mod(inner, conn.controller, bundle_id)
            else:
                out.extend(self._exec_packet_out(inner, conn.controller, bundle_id))
        out.append((conn.controller, BundleCtrlReply(bundle_id, BundleReplyKind.COMMIT_OK)))
        return out

    # ------------------------------------------------------------------
    # flow table and packet execution

    def _apply_flow_mod(self, msg: FlowMod, sender: ControllerId,
                        bundle_id: Optional[int]) -> None:
        self._install_seq += 1
        entry = FlowEntry(msg.match, msg.priority, msg.actions, self._install_seq)
        for i, existing in enumerate(self.flow_table):
            if existing.match == msg.match and existing.priority == msg.priority:
                self.flow_table[i] = entry
                break
        else:
            self.flow_table.append(entry)
        self._exec(ExecKind.FLOWMOD, bundle_id, sender,
                   f"prio={msg.priority} match={_fmt_match(msg.match)}")

    def _exec_packet_out(self, msg: PacketOut, sender: ControllerId,
                         bundle_id: Optional[int]) -> Outbound:
        self._exec(ExecKind.PACKETOUT, bundle_id, sender,
                   f"out={_fmt_actions(msg.actions)}")
        out: Outbound = []
        for action in msg.actions:
            if isinstance(action, Output) and action.port == CONTROLLER_PORT:
                pkt = self._fresh_packet_in(PacketInReason.ACTION,
                                            CONTROLLER_PORT, msg.payload)
                out.extend(self.deliver_packet_in(pkt))
        return out

    def inject_data_packet(self, in_port: PortId, payload: bytes) -> Outbound:
        """Data-plane packet arrival: forward on a table hit, report a miss."""
        assert not is_ack_payload(payload), "workload payload collides with ack marker"
        entry = self._lookup(in_port, payload)
        if entry is None:
            pkt = self._fresh_packet_in(PacketInReason.NO_MATCH, in_port, payload)
            return self.deliver_packet_in(pkt)
        self._exec(ExecKind.PACKET_FWD, None, None,
                   f"in={in_port} out={_fmt_actions(entry.actions)}")
        out: Outbound = []
        for action in entry.actions:
            if isinstance(action, Output) and action.port == CONTROLLER_PORT:
                pkt = self._fresh_packet_in(PacketInReason.ACTION, in_port, payload)
                out.extend(self.deliver_packet_in(pkt))
        return out

    def _lookup(self, in_port: PortId, payload: bytes) -> Optional[FlowEntry]:
        best: Optional[FlowEntry] = None
        for entry in self.flow_table:
            if not entry.match.matches(in_port, payload):
                continue
            if best is None or (entry.priority, entry.installed_seq) > (best.priority, best.installed_seq):
                best = entry
        return best

    def _fresh_packet_in(self, reason: PacketInReason, in_port: PortId,
                         payload: bytes) -> PacketIn:
        self.seq_counter += 1
        return PacketIn(EventId(self.id, self.seq_counter), reason, in_port, payload)

    def deliver_packet_in(self, pkt: PacketIn) -> Outbound:
        """Fan one async event out to every eligible connection.

        Every copy carries the same EventId. Ack-marked payloads bypass the
        async-config gate when the clone-to-all switch option is set.
        """
        clone = self.clone_acks_to_all and is_ack_payload(pkt.payload)
        out: Outbound = []
        for c in sorted(self.conns):
            conn = self.conns[c]
            if not conn.alive:
                continue
            if clone or conn.packet_in_enabled:
                out.append((c, pkt))
        return out

    # ------------------------------------------------------------------
    # connection lifecycle

    def on_connection_drop(self, controller: ControllerId) -> list[tuple[int, ControlMessage]]:
        """Tear down one connection; staged bundles are discarded unexecuted.

        Returns the discarded staged messages for trace recording.
        """
        conn = self.conns[controller]
        assert conn.alive
        conn.alive = False
        discarded = [(bid, m) for bid, staged in sorted(conn.open_bundles.items())
                     for m in staged]
        conn.open_bundles.clear()
        return discarded

    def _exec(self, kind: ExecKind, bundle_id: Optional[int],
              sender: Optional[ControllerId], detail: str) -> None:
        self.exec_log.append(ExecRecord(kind, bundle_id, sender, detail))


def _fmt_actions(actions: tuple[Action, ...]) -> str:
    parts = []
    for a in actions:
        if isinstance(a, Output):
            parts.append("ctl" if a.port == CONTROLLER_PORT else str(a.port))
        elif isinstance(a, Drop):
            parts.append("drop")
    return ",".join(parts)


def _fmt_match(match: Match) -> str:
    parts = []
    if match.in_port is not None:
        parts.append(f"in_port={match.in_port}")
    if match.payload_prefix is not None:
        parts.append(f"prefix={match.payload_prefix.hex()}")
    return "+".join(parts) if parts else "any"
