"""Totally ordered run record: the simulator's only output and the
checker's only input.

Every record serializes to one canonical (key-sorted, compact, ASCII) JSON
line, so byte equality of trace files is meaningful. The first line of a
trace file holds metadata that says what was run (the simulator writes
the run's scenario in its file form); what happened, crashes and a
stall included, is stated by the records alone.

A record is an immutable tuple, so forked traces share record objects.
A record's line is built field by field in key order, with ``msg`` and
``detail`` written by one prebuilt C encoder. Lines are read by the C
scanner, and files are split only on ``"\\n"``. A line the scanner cannot
read whole as one object is parsed again by ``json.loads``, so every
error names its file line and the decoder's own message. Record fields
are checked strictly: ``step`` and ``t`` are integers (not bools),
``actor`` is a string, ``peer`` a string or absent, ``msg`` an object
with a string ``type``, ``detail`` an object of strings, and steps count
up from 1.
"""

from __future__ import annotations

import json
from json.encoder import c_make_encoder, encode_basestring_ascii
from typing import Any, Iterator, NamedTuple, Optional

from .codec import encode, read_text

RECORD_KINDS = ("SEND", "DELIVER", "DROP", "CRASH", "DETECT", "APPLY", "EXEC", "STALL")


class TraceRecord(NamedTuple):
    step: int
    t: int
    kind: str
    actor: str
    peer: Optional[str]
    msg: Optional[dict]
    detail: dict[str, str]

    def to_obj(self) -> dict:
        step, t, kind, actor, peer, msg, detail = self
        obj: dict[str, Any] = {"step": step, "t": t, "kind": kind, "actor": actor}
        if peer is not None:
            obj["peer"] = peer
        if msg is not None:
            obj["msg"] = msg
        if detail:
            obj["detail"] = detail
        return obj


class Trace:
    def __init__(self, meta: dict):
        self.meta = dict(meta)
        self.records: list[TraceRecord] = []

    def append(self, t: int, kind: str, actor: str, peer: Optional[str] = None,
               msg: Optional[dict] = None, detail: Optional[dict[str, str]] = None) -> TraceRecord:
        assert kind in RECORD_KINDS, kind
        rec = TraceRecord(len(self.records) + 1, t, kind, actor, peer, msg, detail or {})
        self.records.append(rec)
        return rec

    @property
    def quiesced(self) -> bool:
        """False exactly when the simulator logged a STALL: the run hit its
        quiesce limit before the event queue drained."""
        return not any(rec.actor == "sim" for rec in self.records if rec.kind == "STALL")

    def fork(self) -> "Trace":
        """A copy that can be appended to independently; records are shared."""
        new = Trace(self.meta)
        new.records = list(self.records)
        return new

    def to_lines(self) -> list[str]:
        lines = [canonical_json({"meta": self.meta})]
        lines.extend(_record_lines(self.records))
        return lines

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(self.to_lines()) + "\n")

    @classmethod
    def read(cls, path: str) -> "Trace":
        return cls.from_lines(read_text(path, TraceFormatError).split("\n"))

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
        records = trace.records
        for lineno, ln in numbered:
            obj = _json_object(lineno, ln)
            try:
                step, t, kind, actor = obj["step"], obj["t"], obj["kind"], obj["actor"]
            except KeyError as exc:
                raise TraceFormatError(f"line {lineno}: record missing field {exc}") from exc
            peer, msg, detail = obj.get("peer"), obj.get("msg"), obj.get("detail", {})
            if not (type(actor) is str and type(detail) is dict
                    and (peer is None or type(peer) is str)
                    and (msg is None or type(msg) is dict)):
                raise TraceFormatError(f"line {lineno}: actor and peer must be "
                                       f"strings, msg and detail objects")
            if msg is not None and type(msg.get("type")) is not str:
                raise TraceFormatError(f"line {lineno}: msg.type must be a string")
            for value in detail.values():
                if type(value) is not str:
                    raise TraceFormatError(f"line {lineno}: detail values must be strings")
            if kind not in RECORD_KINDS:
                raise TraceFormatError(f"line {lineno}: unknown record kind {kind!r}")
            if type(step) is not int or type(t) is not int:
                raise TraceFormatError(f"line {lineno}: step and t must be integers")
            if step != len(records) + 1:
                raise TraceFormatError(f"line {lineno}: non-consecutive step {step}")
            records.append(TraceRecord(step, t, kind, actor, peer, msg, detail))
        return trace


class TraceFormatError(Exception):
    pass


_SCAN = json.JSONDecoder().scan_once


def _json_object(lineno: int, line: str) -> dict:
    """The object on one line: read by the C scanner when the line is
    exactly one object, else by ``json.loads``, whose error names the
    fault."""
    try:
        obj, end = _SCAN(line, 0)
    except (StopIteration, ValueError):
        end = -1
    if end == len(line) and type(obj) is dict:
        return obj
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise TraceFormatError(f"line {lineno}: {exc.msg}") from None
    if not isinstance(obj, dict):
        raise TraceFormatError(f"line {lineno}: expected a JSON object")
    return obj


# What ``JSONEncoder(sort_keys=True, separators=(",", ":")).encode`` builds
# on every call, built once. No cycle check: decoded JSON and encoded
# messages hold no cycles.
_ENCODER = c_make_encoder(None, json.JSONEncoder().default, encode_basestring_ascii,
                          None, ":", ",", True, False, True)


def canonical_json(obj: Any) -> str:
    return "".join(_ENCODER(obj, 0))


def _record_lines(records: list[TraceRecord]) -> Iterator[str]:
    """Each record's ``canonical_json(rec.to_obj())``, built field by field
    in key order without the dict. A wire dict that records share (a SEND,
    its fan-out copies and its DELIVER or DROP) is encoded once: the records
    keep every dict alive during the walk, so no id is reused."""
    texts: dict[int, str] = {}
    for step, t, kind, actor, peer, msg, detail in records:
        if msg is None:
            text = None
        elif (text := texts.get(id(msg))) is None:
            text = texts[id(msg)] = canonical_json(msg)
        yield "".join((
            '{"actor":', encode_basestring_ascii(actor),
            ',"detail":' + canonical_json(detail) if detail else "",
            ',"kind":', encode_basestring_ascii(kind),
            ',"msg":' + text if text is not None else "",
            ',"peer":' + encode_basestring_ascii(peer) if peer is not None else "",
            f',"step":{step},"t":{t}}}'))


def msg_to_wire(msg: Any) -> dict:
    """A message's form in trace records: its fields, tagged with its
    class name."""
    return encode(msg, tagged=True)
