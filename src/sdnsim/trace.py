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
read whole as one object is parsed again by ``codec.parse_json``, so
every error names its file line and the decoder's own message.

``Trace.from_lines`` is the one gate for trace input. ``_Rules`` holds
every rule of a trace file past its JSON syntax (README, "Trace files",
lists them), and a broken rule is a ``TraceFormatError`` that names the
file line and the field. The checker trusts a trace the gate accepted as
it trusts one the simulator wrote.
"""

from __future__ import annotations

import json
from json.encoder import c_make_encoder, encode_basestring_ascii
from typing import Any, Iterator, NamedTuple, Optional

from .codec import encode, parse_json, read_text
from .ofmodel import MAX_CONTROLLERS

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
        """Parse a trace file's lines under ``_Rules``. Blank lines are
        skipped but counted, so every error names its line in the file."""
        numbered = ((lineno, ln) for lineno, ln in enumerate(lines, 1)
                    if ln and not ln.isspace())
        first = next(numbered, None)
        if first is None:
            raise TraceFormatError("empty trace")
        head = _json_object(*first)
        if not isinstance(head.get("meta"), dict):
            raise TraceFormatError(f"line {first[0]}: first trace line must carry run metadata")
        trace = cls(head["meta"])
        rules = _Rules(first[0], trace.meta)
        records = trace.records
        for lineno, ln in numbered:
            obj = _json_object(lineno, ln)
            try:
                rec = TraceRecord(obj["step"], obj["t"], obj["kind"], obj["actor"],
                                  obj.get("peer"), obj.get("msg"), obj.get("detail", {}))
            except KeyError as exc:
                raise TraceFormatError(f"line {lineno}: record missing field {exc}") from exc
            error = rules.error(rec, len(records) + 1)
            if error is not None:
                raise TraceFormatError(f"line {lineno}: {error}")
            records.append(rec)
        return trace


class TraceFormatError(Exception):
    pass


class _Rules:
    """Every rule of a trace file past its JSON syntax, for one trace: the
    metadata's, checked when this is built, and each record's (``error``),
    which are the record envelope's and those of every field the checker
    reads. A switch name is parsed once, when first accepted."""

    def __init__(self, lineno: int, meta: dict):
        n = meta.get("n_controllers")
        if not (type(n) is int and 1 <= n <= MAX_CONTROLLERS):
            raise TraceFormatError(f"line {lineno}: meta.n_controllers must be an integer "
                                   f"in 1..{MAX_CONTROLLERS}, got {n!r}")
        if type(meta.get("variant")) is not str:
            raise TraceFormatError(f"line {lineno}: meta.variant must be a string")
        self.n = n
        # endpoint name -> "c" (a controller) or "s" (a switch)
        self.roles = {f"c{i}": "c" for i in range(n)}

    def error(self, rec: TraceRecord, step: int) -> Optional[str]:
        """What is wrong with ``rec``, the trace's ``step``-th record, or None."""
        rec_step, t, kind, actor, peer, msg, detail = rec
        if not (type(actor) is str and type(detail) is dict
                and (peer is None or type(peer) is str)
                and (msg is None or type(msg) is dict)):
            return "actor and peer must be strings, msg and detail objects"
        if msg is not None and type(msg.get("type")) is not str:
            return "msg.type must be a string"
        for value in detail.values():
            if type(value) is not str:
                return "detail values must be strings"
        if kind not in RECORD_KINDS:
            return f"unknown record kind {kind!r}"
        if type(rec_step) is not int or type(t) is not int:
            return "step and t must be integers"
        if rec_step != step:
            return f"non-consecutive step {rec_step}"

        if kind == "SEND":
            if msg is None or msg["type"] != "PacketIn" or not actor.startswith("s"):
                return None
            try:
                bytes.fromhex(msg.get("payload"))
            except (TypeError, ValueError):
                return "msg.payload missing or not hex"
            return None if type(msg.get("event")) is str else "msg.event missing or not a string"
        if kind == "DELIVER":
            if msg is None or msg["type"] not in ("BundleOpen", "BundleAdd"):
                return None
            if type(msg.get("bundle_id")) is not int:
                return "msg.bundle_id missing or not an integer"
            inner = msg.get("inner")
            if msg["type"] == "BundleAdd" and not (type(inner) is dict
                                                   and type(inner.get("type")) is str):
                return "msg.inner.type missing or not a string"
            return self._endpoint_error("actor", actor, "s") or self._endpoint_error(
                "peer", peer, "c")
        if kind == "APPLY":
            if "entry" not in detail:
                return "detail.entry missing"
            if detail["entry"] == "EVENT" and detail.get("commands"):
                for pair in detail["commands"].split(","):
                    switch, _, count = pair.partition("=")
                    if not (_is_int(switch) and _is_int(count)):
                        return "detail.commands must be switch=count pairs joined by commas"
            return self._endpoint_error("actor", actor, "c") or _int_error(detail, "index")
        if kind == "EXEC":
            if detail.get("exec") == "BUNDLE_COMMIT":
                sender = detail.get("from")
                if self.roles.get(f"c{sender}") != "c":
                    return (f"detail.from {sender!r} is not one of the trace's "
                            f"{self.n} controllers")
                return self._endpoint_error("actor", actor, "s") or _int_error(detail, "bundle")
            return self._endpoint_error("actor", actor, "s") or (
                _int_error(detail, "cmd_index") if detail.get("cmd_ord") == "0" else None)
        if kind == "CRASH":
            return self._endpoint_error("actor", actor, "c")
        return None

    def _endpoint_error(self, field: str, name: Optional[str], role: str) -> Optional[str]:
        """Why ``name``, the record's ``field``, is not a controller of the
        trace (``role`` "c") or a switch (``role`` "s"), or None if it is."""
        if self.roles.get(name) == role:
            return None
        if role == "s" and name is not None and name.startswith("s") and _is_int(name[1:]):
            self.roles[name] = "s"
            return None
        what = "a switch" if role == "s" else f"one of the trace's {self.n} controllers"
        return f"{field} {name!r} is not {what}"


def _is_int(text: Any) -> bool:
    """Whether ``text`` is ASCII digits that ``int`` parses: not past the
    interpreter's limit on digits, where it has one."""
    try:
        int(text)
    except (TypeError, ValueError):
        return False
    return text.isascii() and text.isdigit()


def _int_error(detail: dict[str, str], key: str) -> Optional[str]:
    return None if _is_int(detail.get(key)) else f"detail.{key} missing or not an integer"


_SCAN = json.JSONDecoder().scan_once


def _json_object(lineno: int, line: str) -> dict:
    """The object on one line: read by the C scanner when the line is
    exactly one object, else by ``parse_json``, whose error names the
    fault."""
    try:
        obj, end = _SCAN(line, 0)
    except (StopIteration, ValueError):
        end = -1
    if end == len(line) and type(obj) is dict:
        return obj
    obj = parse_json(line, TraceFormatError, lineno)
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
