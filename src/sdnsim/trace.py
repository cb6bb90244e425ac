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

from .codec import encode

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
            return cls.from_lines(fh.read().splitlines())

    @classmethod
    def from_lines(cls, lines: list[str]) -> "Trace":
        """Parse a trace file's lines. Blank lines are skipped but counted,
        so every error names its line in the file."""
        numbered = ((lineno, ln) for lineno, ln in enumerate(lines, 1) if ln.strip())
        first = next(numbered, None)
        if first is None:
            raise TraceFormatError("empty trace")
        head = _json_object(*first)
        if not isinstance(head.get("meta"), dict):
            raise TraceFormatError("first trace line must carry run metadata")
        trace = cls(head["meta"])
        prev_step = 0
        for lineno, ln in numbered:
            obj = _json_object(lineno, ln)
            try:
                rec = TraceRecord(step=obj["step"], t=obj["t"], kind=obj["kind"],
                                  actor=obj["actor"], peer=obj.get("peer"),
                                  msg=obj.get("msg"), detail=obj.get("detail", {}))
            except KeyError as exc:
                raise TraceFormatError(f"line {lineno}: record missing field {exc}") from exc
            if not (isinstance(rec.actor, str) and isinstance(rec.detail, dict)
                    and isinstance(rec.peer, (str, type(None)))
                    and isinstance(rec.msg, (dict, type(None)))):
                raise TraceFormatError(f"line {lineno}: actor and peer must be "
                                       f"strings, msg and detail objects")
            if rec.msg is not None and not isinstance(rec.msg.get("type"), str):
                raise TraceFormatError(f"line {lineno}: msg.type must be a string")
            if not all(isinstance(v, str) for v in rec.detail.values()):
                raise TraceFormatError(f"line {lineno}: detail values must be strings")
            if rec.kind not in RECORD_KINDS:
                raise TraceFormatError(f"line {lineno}: unknown record kind {rec.kind!r}")
            if rec.step != prev_step + 1:
                raise TraceFormatError(f"line {lineno}: non-consecutive step {rec.step}")
            prev_step = rec.step
            trace.records.append(rec)
        return trace


class TraceFormatError(Exception):
    pass


def _json_object(lineno: int, line: str) -> dict:
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise TraceFormatError(f"line {lineno}: {exc.msg}") from None
    if not isinstance(obj, dict):
        raise TraceFormatError(f"line {lineno}: expected a JSON object")
    return obj


_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def canonical_json(obj: Any) -> str:
    return _CANONICAL.encode(obj)


def msg_to_wire(msg: Any) -> dict:
    """A message's form in trace records: its fields, tagged with its
    class name."""
    return encode(msg, tagged=True)
