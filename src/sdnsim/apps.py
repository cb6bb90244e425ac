"""Deterministic controller applications.

An app is a pure step function over its state, an immutable ``Table``:
``step(state, switch, in_port, payload) -> (state', commands)``. No clocks,
no randomness, no hidden inputs; replicas applying the same log must arrive
at byte-identical states, which is what the convergence check asserts.
A step that changes the state sets one key of a new table, which encodes
that one entry, however large the table has grown; the state's digest
hashes the entry texts the table keeps without encoding them again.

Because steps are pure, ``step_once`` keeps each step's result (new state,
commands and the new state's digest) on the state it stepped from: every
replica, and every fork of the run, that applies the same input to the
same state object gets that one result instead of stepping and digesting
it again.

Workload payload convention: byte 0 is the destination address, byte 1 the
source address.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_left
from collections.abc import Mapping
from json.encoder import encode_basestring_ascii
from typing import Any, Callable

from .ofmodel import (
    ControlMessage,
    FlowMod,
    Match,
    Output,
    PacketOut,
    PortId,
    SwitchId,
)
from .trace import canonical_json

Commands = dict[SwitchId, list[ControlMessage]]

LEARNED_PRIORITY = 10
ROUTE_PRIORITY = 20


class Table(Mapping):
    """An app state: an immutable mapping of str keys to JSON values, equal
    to the dict of its entries. It keeps the keys sorted and, in that order,
    each entry's ``"key":value`` text as ``canonical_json`` writes it in a
    dict, so ``json()`` is ``canonical_json`` of that dict. ``set`` returns
    a new table and encodes only the entry it sets. ``_steps`` keeps the
    results ``step_once`` computed from this table, by input."""

    __slots__ = ("_values", "_keys", "_texts", "_steps")

    def __init__(self) -> None:
        self._values, self._keys, self._texts, self._steps = {}, [], [], {}

    def set(self, key: str, value: Any) -> Table:
        new = Table()
        new._values = {**self._values, key: value}
        new._keys = keys = self._keys[:]
        new._texts = texts = self._texts[:]
        i = bisect_left(keys, key)
        if i == len(keys) or keys[i] != key:
            keys.insert(i, key)
            texts.insert(i, "")
        texts[i] = encode_basestring_ascii(key) + ":" + canonical_json(value)
        return new

    def json(self) -> str:
        return "{" + ",".join(self._texts) + "}"

    def __getitem__(self, key: str) -> Any:
        return self._values[key]

    def __iter__(self):
        return iter(self._keys)

    def __len__(self) -> int:
        return len(self._keys)


def state_digest(state: Table) -> str:
    """The first 16 hex digits of the sha256 of ``state``'s canonical JSON."""
    return hashlib.sha256(state.json().encode("utf-8")).hexdigest()[:16]


def step_once(app, state: Table, sw: SwitchId, in_port: PortId, payload: bytes,
              digest: Callable[[Table], str]) -> tuple[Table, Commands, str]:
    """``(new_state, commands, digest(new_state))`` for ``app`` stepping
    ``state``, computed once per state object and input: the result is kept
    on ``state``, so it lives as long as ``state`` does, and so does every
    state stepped from it. Nothing that lives for a whole run may hold an
    app state. Since apps are pure, a kept result is what a fresh step
    would return."""
    key = (sw, in_port, payload)
    result = state._steps.get(key)
    if result is None:
        new_state, cmds = app.step(state, sw, in_port, payload)
        result = state._steps[key] = (new_state, cmds, digest(new_state))
    return result


class MacLearner:
    """Learning switch: remember source ports, forward or flood by destination."""

    name = "mac-learner"

    def __init__(self, switch_ports: dict[SwitchId, list[PortId]]):
        self.switch_ports = {sw: sorted(ports) for sw, ports in switch_ports.items()}

    def initial_state(self) -> Table:
        return Table()

    def step(self, state: Table, sw: SwitchId, in_port: PortId,
             payload: bytes) -> tuple[Table, Commands]:
        if len(payload) < 2:
            return state, {}
        dst, src = payload[0], payload[1]
        new_state = state.set(f"{sw}:{src}", in_port)

        cmds: list[ControlMessage] = [
            FlowMod(Match(payload_prefix=bytes([src])), LEARNED_PRIORITY,
                    (Output(in_port),)),
        ]
        out_port = new_state.get(f"{sw}:{dst}")
        if out_port is not None:
            cmds.append(PacketOut((Output(out_port),), payload))
        else:
            flood = tuple(Output(p) for p in self.switch_ports.get(sw, [])
                          if p != in_port)
            cmds.append(PacketOut(flood, payload))
        return new_state, {sw: cmds}


class StaticRouter:
    """Installs a configured payload-prefix route when matching traffic misses."""

    name = "static-router"

    def __init__(self, routes: tuple):  # of scenario.Route
        self.routes = tuple(routes)

    def initial_state(self) -> Table:
        return Table().set("routes", [[r.prefix.hex(), r.port] for r in self.routes])

    def step(self, state: Table, sw: SwitchId, in_port: PortId,
             payload: bytes) -> tuple[Table, Commands]:
        for r in self.routes:
            if payload.startswith(r.prefix):
                cmd = FlowMod(Match(payload_prefix=r.prefix), ROUTE_PRIORITY,
                              (Output(r.port),))
                return state, {sw: [cmd]}
        return state, {}


def make_app(name: str, routes: tuple,
             switch_ports: dict[SwitchId, list[PortId]]):
    if name == MacLearner.name:
        return MacLearner(switch_ports)
    if name == StaticRouter.name:
        return StaticRouter(routes)
    raise ValueError(f"unknown app {name!r}")
