"""OpenFlow 1.4 message subset shared by switches and controllers.

Pure immutable data: identifiers, the control-message union, the minimal
match/action forwarding model, and the binary acknowledgement payload that
rides inside bundle PacketOuts.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Union

ControllerId = int
# The most controllers a scenario may run or a trace may claim.
MAX_CONTROLLERS = 255
SwitchId = int
# The largest switch id: an ack payload carries it in 32 bits.
MAX_SWITCH_ID = 0xFFFFFFFF
PortId = int

# Reserved logical port: outputting here hands the packet back to the
# control plane as a PacketIn. Never a physical port.
CONTROLLER_PORT: PortId = 0xFFFFFFFD


class Role(Enum):
    MASTER = "MASTER"
    SLAVE = "SLAVE"
    EQUAL = "EQUAL"


class PacketInReason(Enum):
    NO_MATCH = "NO_MATCH"
    ACTION = "ACTION"


class BundleReplyKind(Enum):
    OPEN_OK = "OPEN_OK"
    COMMIT_OK = "COMMIT_OK"


class ErrorCode(Enum):
    IS_SLAVE = "IS_SLAVE"
    BAD_BUNDLE = "BAD_BUNDLE"
    STALE_GENERATION = "STALE_GENERATION"


@dataclass(frozen=True, order=True)
class EventId:
    """Identity of one asynchronous switch event: (switch, per-switch seq)."""

    switch: SwitchId
    seq: int

    def __post_init__(self) -> None:
        if self.seq <= 0:
            raise ValueError(f"event seq must be positive, got {self.seq}")

    def __str__(self) -> str:
        return f"{self.switch}:{self.seq}"


@dataclass(frozen=True)
class Output:
    port: PortId


@dataclass(frozen=True)
class Match:
    """Exact match on optional fields; a Match with no fields matches everything."""

    in_port: Optional[PortId] = None
    payload_prefix: Optional[bytes] = None

    def matches(self, in_port: PortId, payload: bytes) -> bool:
        if self.in_port is not None and self.in_port != in_port:
            return False
        if self.payload_prefix is not None and not payload.startswith(self.payload_prefix):
            return False
        return True


@dataclass(frozen=True)
class RoleRequest:
    role: Role
    generation_id: int


@dataclass(frozen=True)
class RoleReply:
    role: Role
    generation_id: int


@dataclass(frozen=True)
class SetAsyncConfig:
    packet_in_enabled: bool


@dataclass(frozen=True)
class PacketIn:
    event: EventId
    reason: PacketInReason
    in_port: PortId
    payload: bytes


@dataclass(frozen=True)
class PacketOut:
    actions: tuple[Output, ...]
    payload: bytes


@dataclass(frozen=True)
class FlowMod:
    match: Match
    priority: int
    actions: tuple[Output, ...]


@dataclass(frozen=True)
class BundleOpen:
    bundle_id: int


@dataclass(frozen=True)
class BundleAdd:
    bundle_id: int
    inner: Union[FlowMod, PacketOut]

    def __post_init__(self) -> None:
        if not isinstance(self.inner, (FlowMod, PacketOut)):
            raise ValueError("bundles may stage only FlowMod or PacketOut")


@dataclass(frozen=True)
class BundleCommit:
    bundle_id: int


@dataclass(frozen=True)
class BundleCtrlReply:
    bundle_id: int
    kind: BundleReplyKind


@dataclass(frozen=True)
class ErrorMsg:
    code: ErrorCode


ControlMessage = Union[
    RoleRequest,
    RoleReply,
    SetAsyncConfig,
    PacketIn,
    PacketOut,
    FlowMod,
    BundleOpen,
    BundleAdd,
    BundleCommit,
    BundleCtrlReply,
    ErrorMsg,
]

# Fixed 4-byte tag distinguishing acknowledgement payloads from workload
# traffic. Scenario validation rejects workload payloads starting with it.
ACK_MARKER = b"\xd7\xac\x6b\x1e"

_ACK_BODY = struct.Struct(">QI")


@dataclass(frozen=True)
class AckPayload:
    log_index: int
    target_switch: SwitchId


def encode_ack(index: int, switch: SwitchId) -> bytes:
    """Pack a commit acknowledgement into a marker-prefixed byte string."""
    return ACK_MARKER + _ACK_BODY.pack(index, switch)


def decode_ack(payload: bytes) -> Optional[AckPayload]:
    """Inverse of encode_ack; None when the payload is not an ack."""
    if not payload.startswith(ACK_MARKER):
        return None
    body = payload[len(ACK_MARKER):]
    if len(body) != _ACK_BODY.size:
        return None
    index, switch = _ACK_BODY.unpack(body)
    return AckPayload(log_index=index, target_switch=switch)
