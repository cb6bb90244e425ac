"""Declarative run descriptions and their on-disk JSON form.

A scenario pins everything a run depends on: topology, application,
workload, protocol variant, fault schedule, and seed. Building a
``Scenario`` in any way runs ``Scenario.validate``, which holds every rule,
so no invalid one exists. Its JSON form is the codec's encoding, and
loading is strict -- unknown keys, missing keys, values of the wrong JSON
type and invalid values are rejected with the offending path.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Optional, get_args

from .apps import MacLearner, StaticRouter
from .codec import DecodeError, decode, encode, parse_json, read_text
from .ofmodel import (ACK_MARKER, CONTROLLER_PORT, MAX_CONTROLLERS, MAX_SWITCH_ID,
                      ControlMessage)
from .replica import ReplMessage

VARIANTS = ("NAIVE", "PAPER_A", "PAPER_B")
APPS = (MacLearner.name, StaticRouter.name)
DIRECTIONS = ("SEND", "DELIVER", "ANY")
MSG_TYPES = frozenset(t.__name__ for t in get_args(ControlMessage) + get_args(ReplMessage))


class ScenarioError(Exception):
    """Invalid scenario file or value; message carries the config path."""


@dataclass(frozen=True)
class InitialFlow:
    in_port: Optional[int] = None
    payload_prefix: Optional[bytes] = None
    priority: int = 0
    out_ports: tuple[int, ...] = ()  # empty means drop


@dataclass(frozen=True)
class SwitchSpec:
    id: int
    ports: tuple[int, ...]
    flows: tuple[InitialFlow, ...] = ()


@dataclass(frozen=True)
class WorkloadItem:
    t: int
    switch: int
    in_port: int
    payload: bytes


@dataclass(frozen=True)
class TracePointSpec:
    """Crash trigger: the occurrence-th trace record where the target controller
    sends/delivers a message (optionally of the class ``msg_type`` names)."""

    direction: str = "ANY"
    msg_type: Optional[str] = None
    occurrence: int = 1


@dataclass(frozen=True)
class FaultSpec:
    target: int
    at_time: Optional[int] = None
    at_point: Optional[TracePointSpec] = None


@dataclass(frozen=True)
class Route:
    """One ``static-router`` entry of ``app_config.routes``."""

    prefix: bytes
    port: int


@dataclass(frozen=True)
class AppConfig:
    """The app's settings; only ``static-router`` takes any (its routes)."""

    routes: tuple[Route, ...] = ()


@dataclass(frozen=True)
class Scenario:
    """A run description; building one in any way runs every rule in ``validate``."""

    name: str
    variant: str
    n_controllers: int
    switches: tuple[SwitchSpec, ...]
    app: str
    workload: tuple[WorkloadItem, ...]
    app_config: AppConfig = AppConfig()
    faults: tuple[FaultSpec, ...] = ()
    detector_delay: int = 2
    seed: int = 0
    quiesce_limit: int = 10000
    latency: int = 1
    suppress_slave_events: bool = False

    def __post_init__(self) -> None:
        self.validate()

    def with_variant(self, variant: str) -> "Scenario":
        return replace(self, variant=variant,
                       suppress_slave_events=self.suppress_slave_events and variant == "NAIVE")

    def with_extra_fault(self, fault: FaultSpec) -> "Scenario":
        return replace(self, faults=self.faults + (fault,))

    def with_seed(self, seed: int) -> "Scenario":
        return replace(self, seed=seed)

    def validate(self) -> None:
        if self.variant not in VARIANTS:
            raise ScenarioError(f"variant: unknown variant {self.variant!r}")
        if self.n_controllers < 1:
            raise ScenarioError("n_controllers: must be at least 1")
        if self.n_controllers > MAX_CONTROLLERS:
            raise ScenarioError(f"n_controllers: must be at most {MAX_CONTROLLERS}")
        if self.variant != "NAIVE":
            if self.n_controllers < 3 or self.n_controllers % 2 == 0:
                raise ScenarioError(
                    "n_controllers: replicated variants need an odd count >= 3")
            if self.suppress_slave_events:
                raise ScenarioError(
                    "suppress_slave_events: only meaningful for the NAIVE variant")
        if self.app not in APPS:
            raise ScenarioError(f"app: unknown app {self.app!r}")
        if self.detector_delay < 1:
            raise ScenarioError("detector_delay: must be at least 1")
        if self.latency < 1:
            raise ScenarioError("latency: must be at least 1")
        if self.quiesce_limit < 1:
            raise ScenarioError("quiesce_limit: must be at least 1")
        if self.seed < 0:
            raise ScenarioError("seed: must be non-negative")

        by_id: dict[int, SwitchSpec] = {}
        for i, sw in enumerate(self.switches):
            path = f"switches[{i}]"
            if sw.id < 0:
                raise ScenarioError(f"{path}.id: must be non-negative")
            if sw.id > MAX_SWITCH_ID:
                raise ScenarioError(f"{path}.id: must be at most {MAX_SWITCH_ID}")
            if sw.id in by_id:
                raise ScenarioError(f"{path}.id: duplicate switch id {sw.id}")
            by_id[sw.id] = sw
            seen_ports: set[int] = set()
            for p in sw.ports:
                if p <= 0 or p == CONTROLLER_PORT:
                    raise ScenarioError(f"{path}.ports: invalid port {p}")
                if p in seen_ports:
                    raise ScenarioError(f"{path}.ports: duplicate port {p}")
                seen_ports.add(p)
            # a switch holds one entry per (match, priority)
            first_flow: dict[tuple, int] = {}
            for j, fl in enumerate(sw.flows):
                for p in fl.out_ports:
                    if p != CONTROLLER_PORT and p not in sw.ports:
                        raise ScenarioError(
                            f"{path}.flows[{j}]: output port {p} not on switch")
                k = first_flow.setdefault((fl.in_port, fl.payload_prefix, fl.priority), j)
                if k != j:
                    raise ScenarioError(
                        f"{path}.flows[{j}]: same match and priority as flows[{k}]")

        for i, w in enumerate(self.workload):
            path = f"workload[{i}]"
            if w.t < 1:
                raise ScenarioError(f"{path}.t: must be at least 1")
            if w.switch not in by_id:
                raise ScenarioError(f"{path}.switch: unknown switch {w.switch}")
            if w.in_port not in by_id[w.switch].ports:
                raise ScenarioError(f"{path}.in_port: port {w.in_port} not on switch")
            if w.payload.startswith(ACK_MARKER):
                raise ScenarioError(
                    f"{path}.payload: workload payload may not start with the ack marker")

        for i, f in enumerate(self.faults):
            path = f"faults[{i}]"
            if not (0 <= f.target < self.n_controllers):
                raise ScenarioError(f"{path}.target: unknown controller {f.target}")
            if (f.at_time is None) == (f.at_point is None):
                raise ScenarioError(
                    f"{path}: exactly one of at_time/at_point is required")
            if f.at_time is not None and f.at_time < 1:
                raise ScenarioError(f"{path}.at_time: must be at least 1")
            if f.at_point is not None:
                if f.at_point.direction not in DIRECTIONS:
                    raise ScenarioError(
                        f"{path}.at_point.direction: must be one of {DIRECTIONS}")
                if f.at_point.occurrence < 1:
                    raise ScenarioError(f"{path}.at_point.occurrence: must be >= 1")
                msg_type = f.at_point.msg_type
                if msg_type is not None and msg_type not in MSG_TYPES:
                    raise ScenarioError(f"{path}.at_point.msg_type: unknown message "
                                        f"type {msg_type!r}")

        if self.app_config.routes and self.app != StaticRouter.name:
            raise ScenarioError(f"app_config.routes: app {self.app!r} takes no routes")
        for i, r in enumerate(self.app_config.routes):
            if r.port <= 0 or r.port == CONTROLLER_PORT:
                raise ScenarioError(
                    f"app_config.routes[{i}].port: routes must target physical ports")


# ----------------------------------------------------------------------
# JSON form

def scenario_from_obj(obj: Any) -> Scenario:
    """The valid ``Scenario`` a parsed JSON document describes, else ``ScenarioError``."""
    try:
        return decode(Scenario, obj)
    except DecodeError as exc:
        raise ScenarioError(str(exc)) from None


def scenario_to_obj(sc: Scenario) -> dict:
    return encode(sc)


def load_scenario(path: str) -> Scenario:
    try:
        text = read_text(path, ScenarioError)
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario file: {exc}") from exc
    return scenario_from_obj(parse_json(text, ScenarioError))
