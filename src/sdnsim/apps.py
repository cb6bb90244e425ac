"""Deterministic controller applications.

An app is a pure step function over a JSON-serializable state value:
``step(state, switch, in_port, payload) -> (state', commands)``. No clocks,
no randomness, no hidden inputs; replicas applying the same log must arrive
at byte-identical states, which is what the convergence check asserts.

Workload payload convention: byte 0 is the destination address, byte 1 the
source address.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any

from .ofmodel import (
    ControlMessage,
    FlowMod,
    Match,
    Output,
    PacketOut,
    PortId,
    SwitchId,
)
from .scenario import Route

AppState = Any  # JSON-serializable value; compared across replicas
Commands = dict[SwitchId, list[ControlMessage]]

LEARNED_PRIORITY = 10
ROUTE_PRIORITY = 20


def state_digest(state: AppState) -> str:
    canon = json.dumps(state, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:16]


class MacLearner:
    """Learning switch: remember source ports, forward or flood by destination."""

    name = "mac-learner"

    def __init__(self, switch_ports: dict[SwitchId, list[PortId]]):
        self.switch_ports = {sw: sorted(ports) for sw, ports in switch_ports.items()}

    def initial_state(self) -> AppState:
        return {}

    def step(self, state: AppState, sw: SwitchId, in_port: PortId,
             payload: bytes) -> tuple[AppState, Commands]:
        if len(payload) < 2:
            return state, {}
        dst, src = payload[0], payload[1]
        new_state = dict(state)
        new_state[f"{sw}:{src}"] = in_port

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

    def __init__(self, routes: tuple[Route, ...]):
        self.routes = tuple(routes)

    def initial_state(self) -> AppState:
        return {"routes": [[r.prefix.hex(), r.port] for r in self.routes]}

    def step(self, state: AppState, sw: SwitchId, in_port: PortId,
             payload: bytes) -> tuple[AppState, Commands]:
        for r in self.routes:
            if payload.startswith(r.prefix):
                cmd = FlowMod(Match(payload_prefix=r.prefix), ROUTE_PRIORITY,
                              (Output(r.port),))
                return state, {sw: [cmd]}
        return state, {}


def make_app(name: str, routes: tuple[Route, ...],
             switch_ports: dict[SwitchId, list[PortId]]):
    if name == MacLearner.name:
        return MacLearner(switch_ports)
    if name == StaticRouter.name:
        return StaticRouter(routes)
    raise ValueError(f"unknown app {name!r}")
