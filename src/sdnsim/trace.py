"""Totally ordered run record: the simulator's only output and the
checker's only input.

Every record serializes to one canonical (key-sorted, compact) JSON line,
so byte equality of trace files is meaningful. The first line of a trace
file holds run metadata the checker needs (variant, controller count,
quiescence, crash set).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Optional

from . import ofmodel as of
from . import replica as rp

RECORD_KINDS = ("SEND", "DELIVER", "DROP", "CRASH", "DETECT", "APPLY", "EXEC", "STALL")


@dataclass(frozen=True)
class TraceRecord:
    step: int
    t: int
    kind: str
    actor: str
    peer: Optional[str] = None
    msg: Optional[dict] = None
    detail: dict[str, str] = field(default_factory=dict)

    def to_obj(self) -> dict:
        obj: dict[str, Any] = {"step": self.step, "t": self.t, "kind": self.kind,
                               "actor": self.actor}
        if self.peer is not None:
            obj["peer"] = self.peer
        if self.msg is not None:
            obj["msg"] = self.msg
        if self.detail:
            obj["detail"] = self.detail
        return obj


class Trace:
    def __init__(self, meta: dict):
        self.meta = dict(meta)
        self.records: list[TraceRecord] = []

    def append(self, t: int, kind: str, actor: str, peer: Optional[str] = None,
               msg: Optional[dict] = None, detail: Optional[dict[str, str]] = None) -> TraceRecord:
        assert kind in RECORD_KINDS, kind
        rec = TraceRecord(step=len(self.records) + 1, t=t, kind=kind, actor=actor,
                          peer=peer, msg=msg, detail=detail or {})
        self.records.append(rec)
        return rec

    def fork(self) -> "Trace":
        """A copy that can be appended to independently; records are shared."""
        new = Trace(self.meta)
        new.records = list(self.records)
        return new

    def to_lines(self) -> list[str]:
        lines = [canonical_json({"meta": self.meta})]
        lines.extend(canonical_json(r.to_obj()) for r in self.records)
        return lines

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for line in self.to_lines():
                fh.write(line + "\n")

    @classmethod
    def read(cls, path: str) -> "Trace":
        with open(path, "r", encoding="utf-8") as fh:
            lines = [ln for ln in fh.read().splitlines() if ln.strip()]
        return cls.from_lines(lines)

    @classmethod
    def from_lines(cls, lines: list[str]) -> "Trace":
        if not lines:
            raise TraceFormatError("empty trace")
        head = _json_object(lines[0], 1)
        if not isinstance(head.get("meta"), dict):
            raise TraceFormatError("first trace line must carry run metadata")
        trace = cls(head["meta"])
        prev_step = 0
        for lineno, ln in enumerate(lines[1:], 2):
            obj = _json_object(ln, lineno)
            try:
                rec = TraceRecord(step=obj["step"], t=obj["t"], kind=obj["kind"],
                                  actor=obj["actor"], peer=obj.get("peer"),
                                  msg=obj.get("msg"), detail=obj.get("detail", {}))
            except KeyError as exc:
                raise TraceFormatError(f"record missing field {exc}") from exc
            if not (isinstance(rec.actor, str) and isinstance(rec.detail, dict)
                    and isinstance(rec.peer, (str, type(None)))
                    and isinstance(rec.msg, (dict, type(None)))):
                raise TraceFormatError(f"line {lineno}: actor and peer must be "
                                       f"strings, msg and detail objects")
            if rec.kind not in RECORD_KINDS:
                raise TraceFormatError(f"unknown record kind {rec.kind!r}")
            if rec.step != prev_step + 1:
                raise TraceFormatError(f"non-consecutive step {rec.step}")
            prev_step = rec.step
            trace.records.append(rec)
        return trace


class TraceFormatError(Exception):
    pass


def _json_object(line: str, lineno: int) -> dict:
    obj = json.loads(line)
    if not isinstance(obj, dict):
        raise TraceFormatError(f"line {lineno}: expected a JSON object")
    return obj


def canonical_json(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


# ----------------------------------------------------------------------
# message serialization

def _action_to_wire(a: of.Output) -> dict:
    return {"type": "Output", "port": a.port}


def _match_to_wire(m: of.Match) -> dict:
    obj: dict[str, Any] = {}
    if m.in_port is not None:
        obj["in_port"] = m.in_port
    if m.payload_prefix is not None:
        obj["payload_prefix"] = m.payload_prefix.hex()
    return obj


def _entry_to_wire(e: rp.LogEntry) -> dict:
    if isinstance(e, rp.EventEntry):
        return {"type": "EventEntry", "index": e.index, "event": str(e.event),
                "payload": e.payload.hex(), "in_port": e.in_port}
    return {"type": "ViewEntry", "index": e.index, "view": e.view,
            "leader": e.leader}


def msg_to_wire(msg: Any) -> dict:
    if isinstance(msg, of.RoleRequest):
        return {"type": "RoleRequest", "role": msg.role.value,
                "generation_id": msg.generation_id}
    if isinstance(msg, of.RoleReply):
        return {"type": "RoleReply", "role": msg.role.value,
                "generation_id": msg.generation_id}
    if isinstance(msg, of.SetAsyncConfig):
        return {"type": "SetAsyncConfig", "packet_in_enabled": msg.packet_in_enabled}
    if isinstance(msg, of.PacketIn):
        return {"type": "PacketIn", "event": str(msg.event),
                "reason": msg.reason.value, "in_port": msg.in_port,
                "payload": msg.payload.hex()}
    if isinstance(msg, of.PacketOut):
        return {"type": "PacketOut",
                "actions": [_action_to_wire(a) for a in msg.actions],
                "payload": msg.payload.hex()}
    if isinstance(msg, of.FlowMod):
        return {"type": "FlowMod", "match": _match_to_wire(msg.match),
                "priority": msg.priority,
                "actions": [_action_to_wire(a) for a in msg.actions]}
    if isinstance(msg, of.BundleOpen):
        return {"type": "BundleOpen", "bundle_id": msg.bundle_id}
    if isinstance(msg, of.BundleAdd):
        return {"type": "BundleAdd", "bundle_id": msg.bundle_id,
                "inner": msg_to_wire(msg.inner)}
    if isinstance(msg, of.BundleCommit):
        return {"type": "BundleCommit", "bundle_id": msg.bundle_id}
    if isinstance(msg, of.BundleCtrlReply):
        return {"type": "BundleCtrlReply", "bundle_id": msg.bundle_id,
                "kind": msg.kind.value}
    if isinstance(msg, of.ErrorMsg):
        return {"type": "ErrorMsg", "code": msg.code.value,
                "context": msg.context.hex()}
    if isinstance(msg, rp.Append):
        return {"type": "Append", "view": msg.view,
                "entries": [_entry_to_wire(e) for e in msg.entries],
                "commit_index": msg.commit_index}
    if isinstance(msg, rp.AppendAck):
        return {"type": "AppendAck", "view": msg.view, "index": msg.index}
    if isinstance(msg, rp.CommitAdvance):
        return {"type": "CommitAdvance", "view": msg.view,
                "commit_index": msg.commit_index}
    raise AssertionError(f"unserializable message {type(msg).__name__}")
