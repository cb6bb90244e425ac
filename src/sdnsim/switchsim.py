"""Switch-side state machine: per-connection roles and async configs,
atomic bundles, the flow table, and PacketIn fan-out.

This module alone knows a switch's internals. A flow entry is the FlowMod
that installed it, numbered by ``install`` in install order, scenario
flows and controller FlowMods alike, so on equal priority the later
install wins. The table holds one entry per (match, priority), as an
OpenFlow ADD replaces the entry with the same match and priority. It is
indexed by match, and a lookup does one hash probe per match shape
present (whether ``in_port`` is set, and the prefix length or None),
keeping the best entry by (priority, install number) -- tuple space
search, as in Open vSwitch's classifier. ``Match.matches`` remains the
specification the index must agree with.

Each execution appends a ``(detail, msg)`` pair to ``exec_log``. The
detail is the EXEC record's: ``exec`` (BUNDLE_COMMIT, FLOWMOD, PACKETOUT
or PACKET_FWD), with ``from`` (the sending controller) and, in a bundle,
``bundle`` (``_log_exec`` builds these); a table hit has ``in_port``
instead. ``msg`` is the FlowMod or PacketOut executed (``_execute`` runs
both, alone or in a bundle), for a table hit the hit entry's own FlowMod,
and None for a commit. A PacketOut and a table hit raise their
controller-port PacketIns through ``_action_packet_ins``. ``conns`` holds the open connections only; a
dropped connection is removed.

Models a stock OpenFlow 1.4 switch. Two rules here carry the whole
failover story and must not be weakened:

* a dropped connection discards its staged (uncommitted) bundles, and
* the commit reply goes only to the connection that sent the commit;
  other controllers learn of commits solely through ack PacketIns.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field, replace
from typing import Optional

from .ofmodel import (
    CONTROLLER_PORT,
    BundleAdd,
    BundleCommit,
    BundleCtrlReply,
    BundleOpen,
    BundleReplyKind,
    ControlMessage,
    ControllerId,
    ErrorCode,
    ErrorMsg,
    EventId,
    FlowMod,
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
    decode_ack,
)

Outbound = list[tuple[ControllerId, ControlMessage]]

# Message kinds a slave connection may not use to change switch state.
_SLAVE_REJECTED = (FlowMod, PacketOut, BundleOpen, BundleAdd, BundleCommit)


@dataclass
class ConnState:
    """State the switch keeps per controller connection."""

    controller: ControllerId
    role: Role = Role.EQUAL
    # None = role-based default (masters and equals receive PacketIns,
    # slaves do not); SetAsyncConfig installs an explicit override.
    packet_in_override: Optional[bool] = None
    open_bundles: dict[int, list[ControlMessage]] = field(default_factory=dict)

    @property
    def packet_in_enabled(self) -> bool:
        if self.packet_in_override is not None:
            return self.packet_in_override
        return self.role is not Role.SLAVE


class SwitchState:
    """One simulated switch; processes one message to completion at a time."""

    def __init__(self, switch_id: SwitchId, controllers: list[ControllerId],
                 clone_acks_to_all: bool = False):
        self.id = switch_id
        # match -> {priority: (install number, FlowMod)}; inner dicts are
        # replaced, never mutated
        self._flows: dict[Match, dict[int, tuple[int, FlowMod]]] = {}
        # (in_port set, prefix length or None) of each match in the table
        self._shapes: tuple[tuple[bool, Optional[int]], ...] = ()
        self.conns: dict[ControllerId, ConnState] = {
            c: ConnState(controller=c) for c in controllers
        }
        self.seq_counter = 0
        self.generation_id_seen: Optional[int] = None
        self.clone_acks_to_all = clone_acks_to_all
        # (EXEC detail, executed message) pairs not yet taken by the
        # simulator, which takes them after each input it gives the switch
        self.exec_log: list[tuple[dict[str, str], Optional[ControlMessage]]] = []
        self._install_seq = 0

    def fork(self) -> "SwitchState":
        """An independent copy; flow entries, their per-match dicts and
        messages are never mutated in place and stay shared."""
        new = copy.copy(self)
        new._flows = dict(self._flows)
        new.conns = {c: replace(conn, open_bundles={b: list(staged) for b, staged
                                                    in conn.open_bundles.items()})
                     for c, conn in self.conns.items()}
        new.exec_log = list(self.exec_log)
        return new

    # ------------------------------------------------------------------
    # message handling

    def handle_message(self, sender: ControllerId, msg: ControlMessage) -> Outbound:
        conn = self.conns[sender]
        if isinstance(msg, RoleRequest):
            return self._handle_role_request(conn, msg)
        if isinstance(msg, SetAsyncConfig):
            conn.packet_in_override = msg.packet_in_enabled
            return []

        if isinstance(msg, _SLAVE_REJECTED) and conn.role is Role.SLAVE:
            return [(sender, ErrorMsg(ErrorCode.IS_SLAVE))]

        if isinstance(msg, (FlowMod, PacketOut)):
            return self._execute(msg, sender, bundle_id=None)
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
        self._log_exec("BUNDLE_COMMIT", None, conn.controller, bundle_id)
        out: Outbound = []
        for inner in staged:
            out.extend(self._execute(inner, conn.controller, bundle_id))
        out.append((conn.controller, BundleCtrlReply(bundle_id, BundleReplyKind.COMMIT_OK)))
        return out

    # ------------------------------------------------------------------
    # flow table and packet execution

    def _execute(self, msg: FlowMod | PacketOut, sender: ControllerId,
                 bundle_id: Optional[int]) -> Outbound:
        """Log and run one FlowMod or PacketOut, sent alone or committed in
        bundle ``bundle_id``."""
        if isinstance(msg, FlowMod):
            self._log_exec("FLOWMOD", msg, sender, bundle_id)
            self.install(msg)
            return []
        self._log_exec("PACKETOUT", msg, sender, bundle_id)
        return self._action_packet_ins(msg.actions, CONTROLLER_PORT, msg.payload)

    def _log_exec(self, kind: str, msg: Optional[ControlMessage], sender: ControllerId,
                  bundle_id: Optional[int]) -> None:
        """Log one controller-sent execution: a commit, FlowMod or PacketOut."""
        detail = {"exec": kind, "from": str(sender)}
        if bundle_id is not None:
            detail["bundle"] = str(bundle_id)
        self.exec_log.append((detail, msg))

    def install(self, flow: FlowMod) -> None:
        """Add ``flow`` as an entry numbered after every earlier one,
        replacing the entry with the same match and priority."""
        self._install_seq += 1
        match = flow.match
        by_priority = self._flows.get(match)
        if by_priority is None:
            by_priority = {}
            shape = (match.in_port is not None,
                     None if match.payload_prefix is None else len(match.payload_prefix))
            if shape not in self._shapes:
                self._shapes += (shape,)
        self._flows[match] = {**by_priority, flow.priority: (self._install_seq, flow)}

    @property
    def flow_table(self) -> list[tuple[int, FlowMod]]:
        """The installed entries as (install number, FlowMod) pairs, in a new list."""
        return [e for by_priority in self._flows.values() for e in by_priority.values()]

    def inject_data_packet(self, in_port: PortId, payload: bytes) -> Outbound:
        """Data-plane packet arrival: forward on a table hit, report a miss."""
        flow = self._lookup(in_port, payload)
        if flow is None:
            pkt = self._fresh_packet_in(PacketInReason.NO_MATCH, in_port, payload)
            return self.deliver_packet_in(pkt)
        self.exec_log.append(({"exec": "PACKET_FWD", "in_port": str(in_port)}, flow))
        return self._action_packet_ins(flow.actions, in_port, payload)

    def _lookup(self, in_port: PortId, payload: bytes) -> Optional[FlowMod]:
        flows = self._flows
        best: Optional[FlowMod] = None
        best_key: tuple = ()  # sorts before every (priority, install number)
        for has_port, length in self._shapes:
            if length is not None and len(payload) < length:
                continue  # as startswith: too short for any prefix this long
            by_priority = flows.get(Match(in_port if has_port else None,
                                          None if length is None else payload[:length]))
            if by_priority is None:
                continue
            priority = max(by_priority)
            seq, flow = by_priority[priority]
            if (priority, seq) > best_key:
                best, best_key = flow, (priority, seq)
        return best

    def _action_packet_ins(self, actions: tuple[Output, ...], in_port: PortId,
                           payload: bytes) -> Outbound:
        """One ACTION PacketIn, fanned out, per controller-port output."""
        out: Outbound = []
        for action in actions:
            if action.port == CONTROLLER_PORT:
                pkt = self._fresh_packet_in(PacketInReason.ACTION, in_port, payload)
                out.extend(self.deliver_packet_in(pkt))
        return out

    def _fresh_packet_in(self, reason: PacketInReason, in_port: PortId,
                         payload: bytes) -> PacketIn:
        self.seq_counter += 1
        return PacketIn(EventId(self.id, self.seq_counter), reason, in_port, payload)

    def deliver_packet_in(self, pkt: PacketIn) -> Outbound:
        """Fan one async event out to every eligible connection.

        Every copy carries the same EventId. Ack-marked payloads bypass the
        async-config gate when the clone-to-all switch option is set.
        """
        clone = self.clone_acks_to_all and decode_ack(pkt.payload) is not None
        out: Outbound = []
        for c in sorted(self.conns):
            if clone or self.conns[c].packet_in_enabled:
                out.append((c, pkt))
        return out

    # ------------------------------------------------------------------
    # connection lifecycle

    def on_connection_drop(self, controller: ControllerId) -> list[tuple[int, ControlMessage]]:
        """Tear down one connection; staged bundles are discarded unexecuted.

        Returns the discarded staged messages for trace recording.
        """
        conn = self.conns.pop(controller)
        return [(bid, m) for bid, staged in sorted(conn.open_bundles.items())
                for m in staged]
