import json
import typing
from dataclasses import replace
from pathlib import Path

import pytest

from sdnsim.ofmodel import (
    CONTROLLER_PORT,
    BundleAdd,
    BundleCommit,
    BundleCtrlReply,
    BundleOpen,
    BundleReplyKind,
    ControlMessage,
    ErrorCode,
    ErrorMsg,
    EventId,
    FlowMod,
    Match,
    Output,
    PacketIn,
    PacketInReason,
    PacketOut,
    Role,
    RoleReply,
    RoleRequest,
    SetAsyncConfig,
)
from sdnsim.replica import (Append, AppendAck, CommitAdvance, EventEntry, ReplMessage,
                            ViewEntry)
from sdnsim.scenario import (InitialFlow, SwitchSpec, load_scenario, scenario_from_obj,
                             scenario_to_obj)
from sdnsim.trace import msg_to_wire

from builders import one_command_scenario

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"

FLOW = FlowMod(Match(in_port=3, payload_prefix=b"\x02"), 20,
               (Output(2), Output(CONTROLLER_PORT)))
FLOW_WIRE = {"type": "FlowMod", "match": {"in_port": 3, "payload_prefix": "02"},
             "priority": 20, "actions": [{"port": 2}, {"port": 4294967293}]}
OUT = PacketOut((Output(1),), b"\x02\xaa")
OUT_WIRE = {"type": "PacketOut", "actions": [{"port": 1}], "payload": "02aa"}

# One instance of every message class, with its trace form.
GOLDEN = [
    (RoleRequest(Role.MASTER, 2),
     {"type": "RoleRequest", "role": "MASTER", "generation_id": 2}),
    (RoleReply(Role.SLAVE, 0),
     {"type": "RoleReply", "role": "SLAVE", "generation_id": 0}),
    (SetAsyncConfig(True), {"type": "SetAsyncConfig", "packet_in_enabled": True}),
    (PacketIn(EventId(1, 4), PacketInReason.NO_MATCH, 2, b"\x02\xaa"),
     {"type": "PacketIn", "event": "1:4", "reason": "NO_MATCH", "in_port": 2,
      "payload": "02aa"}),
    (OUT, OUT_WIRE),
    (FLOW, FLOW_WIRE),
    (FlowMod(Match(), 0, ()),
     {"type": "FlowMod", "match": {}, "priority": 0, "actions": []}),
    (BundleOpen(5), {"type": "BundleOpen", "bundle_id": 5}),
    (BundleAdd(5, FLOW), {"type": "BundleAdd", "bundle_id": 5, "inner": FLOW_WIRE}),
    (BundleAdd(5, OUT), {"type": "BundleAdd", "bundle_id": 5, "inner": OUT_WIRE}),
    (BundleCommit(5), {"type": "BundleCommit", "bundle_id": 5}),
    (BundleCtrlReply(5, BundleReplyKind.COMMIT_OK),
     {"type": "BundleCtrlReply", "bundle_id": 5, "kind": "COMMIT_OK"}),
    (ErrorMsg(ErrorCode.BAD_BUNDLE), {"type": "ErrorMsg", "code": "BAD_BUNDLE"}),
    (ErrorMsg(ErrorCode.IS_SLAVE), {"type": "ErrorMsg", "code": "IS_SLAVE"}),
    (Append(3, (ViewEntry(4, 3, 0), EventEntry(5, EventId(0, 1), b"\x02\xaa", 1)), 4),
     {"type": "Append", "view": 3, "commit_index": 4, "entries": [
         {"type": "ViewEntry", "index": 4, "view": 3, "leader": 0},
         {"type": "EventEntry", "index": 5, "event": "0:1", "payload": "02aa",
          "in_port": 1}]}),
    (AppendAck(3, 5), {"type": "AppendAck", "view": 3, "index": 5}),
    (CommitAdvance(3, 5), {"type": "CommitAdvance", "view": 3, "commit_index": 5}),
]


def test_golden_covers_every_message_class():
    classes = set(typing.get_args(ControlMessage)) | set(typing.get_args(ReplMessage))
    assert {type(msg) for msg, _ in GOLDEN} == classes


@pytest.mark.parametrize("msg, wire", GOLDEN, ids=[type(m).__name__ for m, _ in GOLDEN])
def test_msg_to_wire_golden(msg, wire):
    assert msg_to_wire(msg) == wire


def _with_flows():
    sc = one_command_scenario()
    switch = SwitchSpec(0, (1, 2), (InitialFlow(payload_prefix=b"\x07", out_ports=(2,)),
                                    InitialFlow(in_port=1, priority=3)))
    return replace(sc, switches=(switch,))


SCENARIO_FILES = sorted(SCENARIO_DIR.glob("*.json"))


@pytest.mark.parametrize(
    "scenario", [load_scenario(str(p)) for p in SCENARIO_FILES] + [_with_flows()],
    ids=[p.stem for p in SCENARIO_FILES] + ["initial-flows"])
def test_scenario_round_trips_through_json(scenario):
    obj = json.loads(json.dumps(scenario_to_obj(scenario)))
    assert scenario_from_obj(obj) == scenario
