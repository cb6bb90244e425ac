"""The one JSON codec for the package's frozen dataclasses: the messages in
trace records and the scenario files.

Both directions follow each class's fields and resolved type hints, worked
out once per class. ``encode`` writes a dataclass as an object of its
non-None fields, ``bytes`` as hex, tuples as lists, an enum as its value
and an ``EventId`` as its ``"switch:seq"`` string. A value in a position
typed as a union of dataclasses (a whole message, ``BundleAdd.inner``,
``Append.entries[i]``) carries its class name as ``"type"``; no other
object does, so a type tag appears only where classes must be told apart.

``decode`` is strict: it rejects unknown keys, missing required keys and
values of the wrong JSON type, naming the JSON path, and coerces nothing
(an ``int`` is never a ``bool``). It reads what scenario files hold:
``int``, ``str``, ``bool``, ``bytes`` as hex, ``Optional[X]``,
``tuple[X, ...]`` and nested dataclasses.

``read_text`` and ``parse_json`` read the files the codec's JSON comes
in, and each error names the line of the file at fault.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import operator
import re
import typing
from enum import Enum
from json.scanner import NUMBER_RE
from typing import Any, Callable, Optional

from .ofmodel import EventId


class DecodeError(ValueError):
    """A JSON value that does not fit its declared type; the message
    starts with the value's path."""


# ----------------------------------------------------------------------
# encoding

def encode(value: Any, tagged: bool = False) -> dict:
    """The JSON object for a dataclass instance; ``tagged`` adds its class
    name as ``"type"``."""
    obj: dict[str, Any] = {"type": type(value).__name__} if tagged else {}
    for name, enc in _field_encoders(type(value)):
        v = getattr(value, name)
        if v is not None:
            obj[name] = v if enc is None else enc(v)
    return obj


@functools.cache
def _field_encoders(cls: type) -> tuple[tuple[str, Optional[Callable]], ...]:
    hints = typing.get_type_hints(cls)
    return tuple((f.name, _encoder(hints[f.name])) for f in dataclasses.fields(cls))


def _encoder(tp: Any) -> Optional[Callable]:
    """How to encode a non-None value of type ``tp``; None when the value
    is JSON already (``int``, ``str``, ``bool``)."""
    args = [a for a in typing.get_args(tp) if a is not type(None)]
    if typing.get_origin(tp) is typing.Union:
        if len(args) == 1:  # Optional[X]
            return _encoder(args[0])
        return functools.partial(encode, tagged=True)
    if typing.get_origin(tp) is tuple:
        item = _encoder(args[0])
        return list if item is None else (lambda v: [item(x) for x in v])
    if tp is bytes:
        return bytes.hex
    if tp is EventId:
        return str
    if isinstance(tp, type) and issubclass(tp, Enum):
        return operator.attrgetter("value")
    if dataclasses.is_dataclass(tp):
        return encode
    return None


# ----------------------------------------------------------------------
# decoding

def decode(tp: Any, value: Any, path: str = "") -> Any:
    """``value``, parsed JSON, read as type ``tp``. ``path`` names where
    ``value`` sits in its document ("" for the top level)."""
    return _decoder(tp)(value, path)


_JSON_NAMES = {int: "an integer", str: "a string", bool: "a boolean"}


@functools.cache
def _decoder(tp: Any) -> Callable[[Any, str], Any]:
    if typing.get_origin(tp) is typing.Union:  # Optional[X]
        (inner,) = [a for a in typing.get_args(tp) if a is not type(None)]
        dec = _decoder(inner)
        return lambda v, path: None if v is None else dec(v, path)
    if typing.get_origin(tp) is tuple:
        item = _decoder(typing.get_args(tp)[0])

        def decode_tuple(v, path):
            if not isinstance(v, list):
                raise DecodeError(f"{_where(path)}: expected a list")
            return tuple(item(x, f"{path}[{i}]") for i, x in enumerate(v))
        return decode_tuple
    if dataclasses.is_dataclass(tp):
        return _dataclass_decoder(tp)
    if tp is bytes:
        return _decode_hex
    name = _JSON_NAMES[tp]

    def decode_scalar(v, path):
        if not isinstance(v, tp) or (tp is int and isinstance(v, bool)):
            raise DecodeError(f"{_where(path)}: expected {name}")
        return v
    return decode_scalar


def _dataclass_decoder(cls: type) -> Callable[[Any, str], Any]:
    hints = typing.get_type_hints(cls)
    fields = dataclasses.fields(cls)
    decoders = {f.name: _decoder(hints[f.name]) for f in fields}
    required = [f.name for f in fields if f.default is dataclasses.MISSING
                and f.default_factory is dataclasses.MISSING]

    def decode_dataclass(v, path):
        if not isinstance(v, dict):
            raise DecodeError(f"{_where(path)}: expected an object")
        unknown = v.keys() - decoders.keys()
        if unknown:
            raise DecodeError(f"{_where(path)}: unknown key(s) {sorted(unknown)}")
        for key in required:
            if key not in v:
                raise DecodeError(f"{_where(path)}: missing required key {key!r}")
        return cls(**{key: decoders[key](x, f"{path}.{key}" if path else key)
                      for key, x in v.items()})
    return decode_dataclass


def _decode_hex(v: Any, path: str) -> bytes:
    if not isinstance(v, str):
        raise DecodeError(f"{_where(path)}: expected a hex string")
    try:
        return bytes.fromhex(v)
    except ValueError:
        raise DecodeError(f"{_where(path)}: invalid hex string") from None


def _where(path: str) -> str:
    return path or "top level"


# ----------------------------------------------------------------------
# files

def read_text(path: str, error: type[Exception]) -> str:
    """The file's text, decoded as UTF-8 with universal newlines. Bytes
    that are not UTF-8 raise ``error`` naming the line they start on."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise error(f"line {line}: not valid UTF-8") from None
    return text.replace("\r\n", "\n").replace("\r", "\n") if "\r" in text else text


def parse_json(text: str, error: type[Exception], lineno: int = 1) -> Any:
    """``json.loads(text)``, for text that starts on line ``lineno`` of its
    file. Invalid JSON, or an integer literal past the interpreter's limit
    on digits, raises ``error`` naming the line of the file."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise error(f"line {lineno + exc.lineno - 1}: {exc.msg}") from None
    except ValueError as exc:
        raise error(f"line {lineno + _unparsed_int_line(text) - 1}: {exc}") from None


_JSON_STRING = re.compile(r'"(?:[^"\\]|\\.)*"')


def _unparsed_int_line(text: str) -> int:
    """The line of the first integer literal in ``text`` that ``int``
    cannot parse. The decoder read every token before it, and a JSON
    string never spans lines, so with each line's strings dropped, the
    decoder's own number pattern finds the literals."""
    for lineno, line in enumerate(text.split("\n"), 1):
        for digits, frac, exp in NUMBER_RE.findall(_JSON_STRING.sub("", line)):
            if not (frac or exp):
                try:
                    int(digits)
                except ValueError:
                    return lineno
    raise AssertionError("no integer literal past the digit limit")
