import concurrent.futures
import json
import multiprocessing
import os
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import replace
from pathlib import Path

import pytest

from builders import (CountedRecords, apply_event, learning_scenario, one_command_scenario,
                      packet_in_send, stalled, synthetic_trace)
from sdnsim import (Simulation, Trace, all_passed, cli, enumerate_crash_points,
                    load_scenario, run_all_checks, sweep_crash_points)
from sdnsim.cli import main
from sdnsim.ofmodel import MAX_CONTROLLERS, MAX_SWITCH_ID
from sdnsim.scenario import ScenarioError, scenario_from_obj, scenario_to_obj


SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"
SRC_DIR = Path(__file__).resolve().parent.parent / "src"

# An integer literal of 5000 digits: past the int-string limit of an
# interpreter that has one, and otherwise a controller count out of range.
LONG_LITERAL = "9" * 5000
LONG_LITERAL_PARSES = not 0 < getattr(sys, "get_int_max_str_digits", lambda: 0)() < 5000


def write_scenario(tmp_path, scenario, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(scenario_to_obj(scenario), indent=2))
    return str(path)


def find_violating_point(scenario):
    for point in enumerate_crash_points(scenario, 0):
        if not all_passed(run_all_checks(Simulation(point.scenario).run())):
            return point
    raise AssertionError("expected a violating crash point")


def test_run_passing_scenario_exits_zero(tmp_path, capsys):
    path = write_scenario(tmp_path, one_command_scenario())
    assert main(["run", path]) == 0
    out = capsys.readouterr().out
    assert out.strip().splitlines()[-1] == "RESULT pass P1=+ P2=+ P3=+ P4=+ P5=+ P6=+"


def test_run_writes_trace_and_metrics_files(tmp_path):
    path = write_scenario(tmp_path, one_command_scenario())
    trace_out = tmp_path / "out.trace"
    metrics_out = tmp_path / "metrics.json"
    assert main(["run", path, "--trace", str(trace_out),
                 "--metrics", str(metrics_out)]) == 0
    assert not stalled(Trace.read(str(trace_out)))
    metrics = json.loads(metrics_out.read_text())
    assert metrics["total"] == 18


def test_run_violating_fault_schedule_exits_one(tmp_path, capsys):
    point = find_violating_point(learning_scenario("NAIVE"))
    path = write_scenario(tmp_path, point.scenario)
    assert main(["run", path]) == 1
    out = capsys.readouterr().out
    assert "RESULT fail" in out
    assert "REPEATED_COMMAND" in out


def test_run_malformed_json_exits_two(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"name": "x",')
    assert main(["run", str(path)]) == 2
    assert "line" in capsys.readouterr().err


def test_run_integer_literal_too_long_exits_two(tmp_path, capsys):
    # the same digits in a string before it are not a literal
    obj = scenario_to_obj(one_command_scenario(name=LONG_LITERAL))
    lines = json.dumps(obj, indent=2).split("\n")
    line = lines.index('  "n_controllers": 3,') + 1
    lines[line - 1] = f'  "n_controllers": {LONG_LITERAL},'
    path = tmp_path / "bad.json"
    path.write_text("\n".join(lines))
    assert main(["run", str(path)]) == 2
    assert (f"n_controllers: must be at most {MAX_CONTROLLERS}" if LONG_LITERAL_PARSES
            else f"line {line}: Exceeds the limit") in capsys.readouterr().err


def test_run_unknown_key_exits_two(tmp_path, capsys):
    obj = scenario_to_obj(one_command_scenario())
    obj["wristwatch"] = 1
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    assert main(["run", str(path)]) == 2
    assert "wristwatch" in capsys.readouterr().err


def _route(obj):
    return obj["app_config"]["routes"][0]


def _switch(obj):
    return obj["switches"][0]


def _event(obj):
    return obj["workload"][0]


# id -> (damage to scenarios/one_command.json, expected error text)
MALFORMED_SCENARIOS = {
    "switches-not-a-list": (
        lambda obj: obj.update(switches={"id": 0}), "switches: expected a list"),
    "switch-not-an-object": (
        lambda obj: obj.update(switches=[0]), "switches[0]: expected an object"),
    "ports-not-a-list": (
        lambda obj: obj["switches"][0].update(ports=2), "switches[0].ports: expected a list"),
    "flow-in_port-a-string": (
        lambda obj: obj["switches"][0]["flows"].append({"in_port": "1", "out_ports": [2]}),
        "switches[0].flows[0].in_port: expected an integer"),
    "workload-an-object": (
        lambda obj: obj.update(workload={"t": 5}), "workload: expected a list"),
    "workload-item-not-an-object": (
        lambda obj: obj.update(workload=["02aa"]), "workload[0]: expected an object"),
    "faults-not-a-list": (
        lambda obj: obj.update(faults=0), "faults: expected a list"),
    "fault-not-an-object": (
        lambda obj: obj.update(faults=[0]), "faults[0]: expected an object"),
    "at_point-not-an-object": (
        lambda obj: obj.update(faults=[{"target": 0, "at_point": 3}]),
        "faults[0].at_point: expected an object"),
    "msg_type-not-a-string": (
        lambda obj: obj.update(faults=[{"target": 0, "at_point": {"msg_type": 7}}]),
        "faults[0].at_point.msg_type: expected a string"),
    "app_config-a-list": (
        lambda obj: obj.update(app_config=[]), "app_config: expected an object"),
    "app_config-unknown-key": (
        lambda obj: obj["app_config"].update(route=obj["app_config"].pop("routes")),
        "app_config: unknown key(s) ['route']"),
    "name-not-a-string": (
        lambda obj: obj.update(name=7), "name: expected a string"),
    "suppress_slave_events-not-a-bool": (
        lambda obj: obj.update(variant="NAIVE", suppress_slave_events="no"),
        "suppress_slave_events: expected a boolean"),
    "latency-a-bool": (
        lambda obj: obj.update(latency=True), "latency: expected an integer"),
    "route-prefix-not-hex": (
        lambda obj: _route(obj).update(prefix="zz"),
        "app_config.routes[0].prefix: invalid hex string"),
    "route-without-port": (
        lambda obj: _route(obj).pop("port"),
        "app_config.routes[0]: missing required key 'port'"),
    # one case per value rule of Scenario.validate, in its order
    "variant-unknown": (
        lambda obj: obj.update(variant="PAXOS"), "variant: unknown variant 'PAXOS'"),
    "n_controllers-zero": (
        lambda obj: obj.update(variant="NAIVE", n_controllers=0),
        "n_controllers: must be at least 1"),
    **{f"n_controllers-{n}": (
        lambda obj, n=n: obj.update(variant="NAIVE", n_controllers=n),
        f"n_controllers: must be at most {MAX_CONTROLLERS}")
       for n in (MAX_CONTROLLERS + 1, 2 ** 70)},
    "n_controllers-even": (
        lambda obj: obj.update(n_controllers=4),
        "n_controllers: replicated variants need an odd count >= 3"),
    "suppress_slave_events-on-PAPER_A": (
        lambda obj: obj.update(suppress_slave_events=True),
        "suppress_slave_events: only meaningful for the NAIVE variant"),
    "app-unknown": (
        lambda obj: obj.update(app="firewall"), "app: unknown app 'firewall'"),
    "detector_delay-zero": (
        lambda obj: obj.update(detector_delay=0), "detector_delay: must be at least 1"),
    "latency-zero": (
        lambda obj: obj.update(latency=0), "latency: must be at least 1"),
    "quiesce_limit-zero": (
        lambda obj: obj.update(quiesce_limit=0), "quiesce_limit: must be at least 1"),
    "seed-negative": (
        lambda obj: obj.update(seed=-1), "seed: must be non-negative"),
    "switch-id-negative": (
        lambda obj: _switch(obj).update(id=-1), "switches[0].id: must be non-negative"),
    "switch-id-past-the-ack-field": (
        lambda obj: (_switch(obj).update(id=MAX_SWITCH_ID + 1),
                     _event(obj).update(switch=MAX_SWITCH_ID + 1)),
        f"switches[0].id: must be at most {MAX_SWITCH_ID}"),
    "switch-id-duplicate": (
        lambda obj: obj["switches"].append(dict(_switch(obj))),
        "switches[1].id: duplicate switch id 0"),
    "port-zero": (
        lambda obj: _switch(obj).update(ports=[0, 2]), "switches[0].ports: invalid port 0"),
    "port-duplicate": (
        lambda obj: _switch(obj).update(ports=[1, 2, 2]),
        "switches[0].ports: duplicate port 2"),
    "flow-output-not-on-switch": (
        lambda obj: _switch(obj)["flows"].append({"out_ports": [3]}),
        "switches[0].flows[0]: output port 3 not on switch"),
    "flow-same-match-and-priority": (
        lambda obj: _switch(obj)["flows"].extend([
            {"payload_prefix": "02", "priority": 3, "out_ports": [1]},
            {"payload_prefix": "02", "priority": 4},
            {"payload_prefix": "02", "priority": 3, "out_ports": [2]}]),
        "switches[0].flows[2]: same match and priority as flows[0]"),
    "workload-t-zero": (
        lambda obj: _event(obj).update(t=0), "workload[0].t: must be at least 1"),
    "workload-unknown-switch": (
        lambda obj: _event(obj).update(switch=5), "workload[0].switch: unknown switch 5"),
    "workload-port-not-on-switch": (
        lambda obj: _event(obj).update(in_port=3),
        "workload[0].in_port: port 3 not on switch"),
    "workload-payload-a-number": (
        lambda obj: _event(obj).update(payload=7), "workload[0].payload: expected a hex string"),
    "workload-payload-ack-marker": (
        lambda obj: _event(obj).update(payload="d7ac6b1e00"),
        "workload[0].payload: workload payload may not start with the ack marker"),
    "fault-target-unknown": (
        lambda obj: obj.update(faults=[{"target": 3, "at_time": 5}]),
        "faults[0].target: unknown controller 3"),
    "fault-without-trigger": (
        lambda obj: obj.update(faults=[{"target": 0}]),
        "faults[0]: exactly one of at_time/at_point is required"),
    "fault-at_time-zero": (
        lambda obj: obj.update(faults=[{"target": 0, "at_time": 0}]),
        "faults[0].at_time: must be at least 1"),
    "at_point-direction-unknown": (
        lambda obj: obj.update(faults=[{"target": 0, "at_point": {"direction": "UP"}}]),
        "faults[0].at_point.direction: must be one of"),
    "at_point-occurrence-zero": (
        lambda obj: obj.update(faults=[{"target": 0, "at_point": {"occurrence": 0}}]),
        "faults[0].at_point.occurrence: must be >= 1"),
    "at_point-msg_type-unknown": (
        lambda obj: obj.update(
            faults=[{"target": 0, "at_point": {"msg_type": "BundelCommit"}}]),
        "faults[0].at_point.msg_type: unknown message type 'BundelCommit'"),
    "routes-on-mac-learner": (
        lambda obj: obj.update(app="mac-learner"),
        "app_config.routes: app 'mac-learner' takes no routes"),
    "route-port-zero": (
        lambda obj: _route(obj).update(port=0),
        "app_config.routes[0].port: routes must target physical ports"),
}


@pytest.mark.parametrize("damage, message", MALFORMED_SCENARIOS.values(),
                         ids=MALFORMED_SCENARIOS)
def test_run_malformed_scenario_exits_two(tmp_path, capsys, damage, message):
    obj = json.loads((SCENARIO_DIR / "one_command.json").read_text())
    damage(obj)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    assert main(["run", str(path)]) == 2
    assert message in capsys.readouterr().err
    with pytest.raises(ScenarioError) as exc:
        scenario_from_obj(obj)
    assert message in str(exc.value)


def test_the_largest_switch_id_an_ack_carries_runs_and_passes(tmp_path, capsys):
    obj = json.loads((SCENARIO_DIR / "one_command.json").read_text())
    _switch(obj).update(id=MAX_SWITCH_ID)
    _event(obj).update(switch=MAX_SWITCH_ID)
    path, trace_out = str(tmp_path / "big_id.json"), str(tmp_path / "big_id.trace")
    Path(path).write_text(json.dumps(obj))
    for argv in (["run", path, "--trace", trace_out], ["sweep", path]):
        assert main(argv) == 0, argv
        out = capsys.readouterr().out
        assert out.splitlines()[-1] == "RESULT pass P1=+ P2=+ P3=+ P4=+ P5=+ P6=+"
    # the switch committed the bundle whose ack carries its id
    assert any(r.kind == "EXEC" and r.actor == f"s{MAX_SWITCH_ID}"
               and r.detail.get("exec") == "BUNDLE_COMMIT"
               for r in Trace.read(trace_out).records)


def test_an_invalid_scenario_cannot_be_built():
    with pytest.raises(ScenarioError, match="latency: must be at least 1"):
        replace(one_command_scenario(), latency=0)
    with pytest.raises(ScenarioError, match="seed: must be non-negative"):
        one_command_scenario().with_seed(-1)
    with pytest.raises(ScenarioError, match="n_controllers: replicated variants"):
        one_command_scenario("NAIVE", n_controllers=2).with_variant("PAPER_A")


@pytest.mark.parametrize("data, message", [
    (b"\xff{}", "line 1: not valid UTF-8"),
    # a bad byte on line 3, after a valid two-byte character
    (b'{\n  "name": "\xc3\xa9",\n  "app": "\xff"\n}', "line 3: not valid UTF-8"),
], ids=["first-byte", "line-3"])
def test_run_non_utf8_scenario_exits_two(tmp_path, capsys, data, message):
    path = tmp_path / "bad.json"
    path.write_bytes(data)
    assert main(["run", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_run_missing_file_exits_two(tmp_path):
    assert main(["run", str(tmp_path / "nope.json")]) == 2


def test_run_seed_override_is_recorded(tmp_path):
    path = write_scenario(tmp_path, one_command_scenario())
    trace_out = tmp_path / "out.trace"
    assert main(["run", path, "--trace", str(trace_out), "--seed", "99"]) == 0
    assert Trace.read(str(trace_out)).meta["seed"] == 99


def test_run_trace_file_replays_from_its_first_line(tmp_path):
    path = write_scenario(tmp_path, one_command_scenario())
    trace_out = tmp_path / "out.trace"
    assert main(["run", path, "--trace", str(trace_out), "--seed", "7"]) == 0
    meta = Trace.read(str(trace_out)).meta
    assert meta == scenario_to_obj(one_command_scenario().with_seed(7))
    replayed = Simulation(scenario_from_obj(meta)).run()
    assert replayed.to_lines() == trace_out.read_text().splitlines()


def test_check_accepts_a_passing_stored_trace(tmp_path, capsys):
    trace = Simulation(one_command_scenario()).run()
    path = tmp_path / "run.trace"
    trace.write(str(path))
    assert main(["check", str(path)]) == 0
    assert "RESULT pass" in capsys.readouterr().out


def test_run_and_check_walk_the_records_once(tmp_path, capsys, monkeypatch):
    """The header's quiesce flag, the metrics and the verdicts are read in
    one pass over the records."""
    traces = []
    run = Simulation.run

    def counted_run(sim):
        trace = run(sim)
        trace.records = CountedRecords(trace.records)
        traces.append(trace)
        return trace

    monkeypatch.setattr(Simulation, "run", counted_run)
    assert main(["run", write_scenario(tmp_path, one_command_scenario())]) == 0
    (trace,) = traces
    assert trace.records.walks == 1
    run_out = capsys.readouterr().out.splitlines()

    trace.records = CountedRecords(trace.records)
    monkeypatch.setattr(Trace, "read", lambda path: trace)
    assert main(["check", "run.trace"]) == 0
    assert trace.records.walks == 1
    check_out = capsys.readouterr().out.splitlines()
    assert check_out[0].endswith(", quiesced=True")
    assert check_out[1:] == run_out[1:]


def test_check_metrics_skip_setup_and_count_a_msg_less_delivery_as_unknown(tmp_path, capsys):
    path = tmp_path / "hand.trace"
    synthetic_trace([
        ("DELIVER", "c1", "c0", {"type": "Append"}, {"phase": "setup"}),
        packet_in_send("s0", "c0", "0:1"),
        ("DELIVER", "c0", "s0", None, None),
        ("DELIVER", "c0", "s0", {"type": "PacketIn"}, None),
    ]).write(str(path))
    assert main(["check", str(path)]) == 1  # no replica applied the event
    assert capsys.readouterr().out.splitlines()[:6] == [
        f"trace {path}: 4 records, variant=PAPER_A, quiesced=True",
        "control-message deliveries (PAPER_A, setup excluded):",
        "  ?                1",
        "  PacketIn         1",
        "  total            2",
        "  events=1 per-event=2.0",
    ]


def test_check_flags_a_violating_stored_trace(tmp_path, capsys):
    point = find_violating_point(learning_scenario("NAIVE"))
    trace = Simulation(point.scenario).run()
    path = tmp_path / "run.trace"
    trace.write(str(path))
    assert main(["check", str(path)]) == 1


def test_check_truncated_trace_exits_two(tmp_path):
    trace = Simulation(one_command_scenario()).run()
    path = tmp_path / "run.trace"
    lines = trace.to_lines()
    path.write_text("\n".join(lines[:1] + lines[3:]))  # drop a record line
    assert main(["check", str(path)]) == 2


def _record(objs, kind, msg_type=None, actor="s"):
    """The first record of ``kind`` by an actor named ``actor...``, and with
    that message type when one is given."""
    return next(o for o in objs[1:]
                if o["kind"] == kind and o["actor"].startswith(actor)
                and (msg_type is None or o.get("msg", {}).get("type") == msg_type))


def _drop_exec_field(exec_kind, field):
    def damage(objs):
        damaged = [o for o in objs[1:]
                   if o["kind"] == "EXEC" and o["detail"]["exec"] == exec_kind]
        assert damaged
        for o in damaged:
            del o["detail"][field]
    return damage


def _packet_in(objs):
    return _record(objs, "SEND", "PacketIn")


def _event_apply(objs):
    return next(o for o in objs[1:]
                if o["kind"] == "APPLY" and o["detail"]["entry"] == "EVENT")


# id -> (variant, damage to the parsed trace lines, expected error text)
MALFORMED_TRACES = {
    "PAPER_A-BUNDLE_COMMIT-bundle": (
        "PAPER_A", _drop_exec_field("BUNDLE_COMMIT", "bundle"),
        "line 44: detail.bundle missing or not an integer"),
    "NAIVE-FLOWMOD-cmd_index": (
        "NAIVE", _drop_exec_field("FLOWMOD", "cmd_index"),
        "line 37: detail.cmd_index missing or not an integer"),
    "payload-missing": (
        "PAPER_A", lambda objs: _packet_in(objs)["msg"].pop("payload"),
        "line 18: msg.payload missing or not hex"),
    "payload-not-hex": (
        "PAPER_A", lambda objs: _packet_in(objs)["msg"].update(payload="zz"),
        "line 18: msg.payload missing or not hex"),
    "event-missing": (
        "PAPER_A", lambda objs: _packet_in(objs)["msg"].pop("event"),
        "line 18: msg.event missing or not a string"),
    "bundle-id-missing": (
        "PAPER_A",
        lambda objs: _record(objs, "DELIVER", "BundleOpen")["msg"].pop("bundle_id"),
        "line 39: msg.bundle_id missing or not an integer"),
    "bundle-id-a-bool": (
        "PAPER_A",
        lambda objs: _record(objs, "DELIVER", "BundleOpen")["msg"].update(bundle_id=True),
        "line 39: msg.bundle_id missing or not an integer"),
    "inner-type-missing": (
        "PAPER_A",
        lambda objs: _record(objs, "DELIVER", "BundleAdd")["msg"]["inner"].pop("type"),
        "line 41: msg.inner.type missing or not a string"),
    "switch-id-not-numeric": (
        "PAPER_A", lambda objs: _record(objs, "EXEC").update(actor="sX"),
        "line 44: actor 'sX' is not a switch"),
    "controller-actor-not-numeric": (
        "PAPER_A", lambda objs: _record(objs, "APPLY", actor="c").update(actor="cX"),
        "line 31: actor 'cX' is not one of the trace's 3 controllers"),
    # "²".isdigit() holds, but int("²") fails
    "controller-actor-superscript": (
        "PAPER_A", lambda objs: _record(objs, "APPLY", actor="c").update(actor="c²"),
        "line 31: actor 'c²' is not one of the trace's 3 controllers"),
    "controller-peer-not-numeric": (
        "PAPER_A", lambda objs: _record(objs, "DELIVER", "BundleOpen").update(peer="cX"),
        "line 39: peer 'cX' is not one of the trace's 3 controllers"),
    "meta-not-an-object": (
        "PAPER_A", lambda objs: objs[0].update(meta="x"),
        "line 1: first trace line must carry run metadata"),
    "line-not-an-object": (
        "PAPER_A", lambda objs: objs.__setitem__(1, [1]),
        "line 2: expected a JSON object"),
    "actor-not-a-string": (
        "PAPER_A", lambda objs: _packet_in(objs).update(actor=0),
        "actor and peer must be strings"),
    "msg-not-an-object": (
        "PAPER_A", lambda objs: _packet_in(objs).update(msg="PacketIn"),
        "msg and detail objects"),
    "detail-not-an-object": (
        "PAPER_A", lambda objs: _record(objs, "EXEC").update(detail="x"),
        "msg and detail objects"),
    "detail-value-not-a-string": (
        "PAPER_A",
        lambda objs: _record(objs, "APPLY", actor="c")["detail"].update(event=[0, 1]),
        "detail values must be strings"),
    **{f"msg-type-{name}": (
        "PAPER_A",
        lambda objs, value=value: _record(objs, "DELIVER", "Append", actor="c")
        ["msg"].update(type=value),
        "msg.type must be a string")
       for name, value in (("null", None), ("number", 7), ("list", ["Append"]),
                           ("object", {"name": "Append"}))},
    "msg-type-missing": (
        "PAPER_A", lambda objs: _packet_in(objs)["msg"].pop("type"),
        "msg.type must be a string"),
    "commands-without-count": (
        "PAPER_A", lambda objs: _event_apply(objs)["detail"].update(commands="0"),
        "line 31: detail.commands must be switch=count pairs joined by commas"),
    "commands-count-not-a-number": (
        "PAPER_A", lambda objs: _event_apply(objs)["detail"].update(commands="0=x"),
        "line 31: detail.commands must be switch=count pairs joined by commas"),
    # a string stands for a raw, unparsed line and bytes for its raw bytes
    "line-2-not-utf8": (
        "PAPER_A", lambda objs: objs.__setitem__(1, b"\xff"), "line 2: not valid UTF-8"),
    "invalid-json-line-1": (
        "PAPER_A", lambda objs: objs.__setitem__(0, '{"meta": '),
        "line 1: Expecting value"),
    "invalid-json-line-2": (
        "PAPER_A", lambda objs: objs.__setitem__(1, '{"step": 1,'),
        "line 2: Expecting property name"),
    "invalid-json-line-9": (
        "PAPER_A", lambda objs: objs.__setitem__(8, "step 8"),
        "line 9: Expecting value"),
    "record-missing-kind": (
        "PAPER_A", lambda objs: _packet_in(objs).pop("kind"),
        "record missing field 'kind'"),
    "record-kind-unknown": (
        "PAPER_A", lambda objs: _packet_in(objs).update(kind="PING"),
        "unknown record kind 'PING'"),
    "record-kind-a-list": (
        "PAPER_A", lambda objs: _packet_in(objs).update(kind=["SEND"]),
        "unknown record kind ['SEND']"),
    "step-a-bool": (
        "PAPER_A", lambda objs: objs[1].update(step=True), "step and t must be integers"),
    "step-a-float": (
        "PAPER_A", lambda objs: objs[1].update(step=1.0), "step and t must be integers"),
    "t-a-string": (
        "PAPER_A", lambda objs: _packet_in(objs).update(t="x"),
        "step and t must be integers"),
    "t-null": (
        "PAPER_A", lambda objs: _packet_in(objs).update(t=None),
        "step and t must be integers"),
    "n_controllers-a-bool": (
        "PAPER_A", lambda objs: objs[0]["meta"].update(n_controllers=True),
        f"line 1: meta.n_controllers must be an integer in 1..{MAX_CONTROLLERS}, got True"),
    "variant-a-number": (
        "PAPER_A", lambda objs: objs[0]["meta"].update(variant=3),
        "line 1: meta.variant must be a string"),
    # checked before any work that grows with the claimed count
    **{f"n_controllers-{n}": (
        "PAPER_A", lambda objs, n=n: objs[0]["meta"].update(n_controllers=n),
        f"line 1: meta.n_controllers must be an integer in 1..{MAX_CONTROLLERS}, got {n}")
       for n in (0, -1, MAX_CONTROLLERS + 1, 2 ** 70)},
    "integer-literal-too-long": (
        "PAPER_A",
        lambda objs: objs.__setitem__(0, json.dumps(objs[0]).replace(
            '"n_controllers": 3', f'"n_controllers": {LONG_LITERAL}')),
        f"line 1: meta.n_controllers must be an integer in 1..{MAX_CONTROLLERS}, got 999"
        if LONG_LITERAL_PARSES else "line 1: Exceeds the limit"),
    "n_controllers-below-an-applier": (
        "PAPER_A", lambda objs: objs[0]["meta"].update(n_controllers=2),
        "line 54: actor 'c2' is not one of the trace's 2 controllers"),
    "apply-actor-out-of-range": (
        "PAPER_A", lambda objs: objs.extend([
            {"step": len(objs) + i, "t": 99, "kind": "APPLY", "actor": "c3",
             "detail": {"index": str(i + 1), "entry": "EVENT", "event": event}}
            for i, event in enumerate(["0:2", "0:1", "0:1"])]),
        "line 60: actor 'c3' is not one of the trace's 3 controllers"),
    "crash-actor-out-of-range": (
        "PAPER_A",
        lambda objs: objs.append({"step": len(objs), "t": 99, "kind": "CRASH", "actor": "c3"}),
        "line 60: actor 'c3' is not one of the trace's 3 controllers"),
    "bundle-peer-out-of-range": (
        "PAPER_A", lambda objs: _record(objs, "DELIVER", "BundleOpen").update(peer="c3"),
        "line 39: peer 'c3' is not one of the trace's 3 controllers"),
    "exec-from-out-of-range": (
        "PAPER_A", lambda objs: _record(objs, "EXEC")["detail"].update({"from": "3"}),
        "line 44: detail.from '3' is not one of the trace's 3 controllers"),
}


@pytest.mark.parametrize("variant, damage, message", MALFORMED_TRACES.values(),
                         ids=MALFORMED_TRACES)
def test_check_malformed_trace_exits_two(tmp_path, capsys, variant, damage, message):
    scenario = load_scenario(str(SCENARIO_DIR / "one_command.json"))
    lines = Simulation(scenario.with_variant(variant)).run().to_lines()
    objs = [json.loads(ln) for ln in lines]
    damage(objs)
    path = tmp_path / "run.trace"
    path.write_bytes(b"".join(
        (o if isinstance(o, bytes) else (o if isinstance(o, str) else json.dumps(o)).encode())
        + b"\n" for o in objs))
    assert main(["check", str(path)]) == 2
    assert message in capsys.readouterr().err


# run facts that trace metadata once stated; the records alone state them now
HEADER_CLAIMS = {
    "quiesced-false": {"quiesced": False},
    "crashed-0-1": {"crashed": [0, 1]},
    "crashed-empty": {"crashed": []},
    "crashed-not-a-list": {"crashed": 0},
    "quiesced-a-string": {"quiesced": "no"},
    "crashed-not-integers": {"crashed": ["x"]},
    "crashed-out-of-range": {"crashed": [7]},
}


def leader_sweep_fork(name: str, occurrence: int) -> Trace:
    """The trace of the fork that crashes c0 at crash point ``occurrence``
    of the leader sweep of ``scenarios/<name>.json``."""
    base = Simulation(load_scenario(str(SCENARIO_DIR / f"{name}.json")))
    return next(fork.run() for points, fork in sweep_crash_points(base, 0)
                if occurrence in (p.occurrence for p in points))


@pytest.mark.parametrize("claims", HEADER_CLAIMS.values(), ids=HEADER_CLAIMS)
def test_check_ignores_run_facts_in_the_metadata(tmp_path, capsys, claims):
    """A stored trace's verdict comes from its records: a header claiming
    another crash set or quiescence, well-formed or not, changes nothing."""
    path = tmp_path / "run.trace"
    for trace, code, result in (
            (leader_sweep_fork("naive_suppressed", 5), 1, "RESULT fail P1=+ P2=-"),
            (leader_sweep_fork("paper_a", 1), 0, "RESULT pass")):
        lines = trace.to_lines()
        path.write_text("\n".join(lines) + "\n")
        assert main(["check", str(path)]) == code
        untouched = capsys.readouterr().out
        assert result in untouched
        head = json.loads(lines[0])
        head["meta"].update(claims)
        path.write_text("\n".join([json.dumps(head), *lines[1:]]) + "\n")
        assert main(["check", str(path)]) == code
        assert capsys.readouterr().out == untouched


def nine_key_meta(scenario) -> dict:
    """The metadata the simulator wrote before its meta line became the
    run's scenario."""
    times = [w.t for w in scenario.workload]
    return {"scenario": scenario.name, "variant": scenario.variant,
            "n_controllers": scenario.n_controllers,
            "switches": sorted(s.id for s in scenario.switches), "app": scenario.app,
            "seed": scenario.seed, "detector_delay": scenario.detector_delay,
            "latency": scenario.latency, "first_workload_t": min(times) if times else None}


def test_check_reads_traces_with_the_older_nine_key_metadata(tmp_path, capsys):
    """A trace file whose meta line has the older nine-key form gets the
    same verdicts, exit code and output as the same records under its
    scenario."""
    path = tmp_path / "run.trace"
    for trace, code in (
            (leader_sweep_fork("naive_suppressed", 5), 1),
            (leader_sweep_fork("paper_a", 1), 0),
            (Simulation(load_scenario(str(SCENARIO_DIR / "majority_loss.json"))).run(), 0)):
        lines = trace.to_lines()
        older = [json.dumps({"meta": nine_key_meta(scenario_from_obj(trace.meta))}),
                 *lines[1:]]
        assert repr(run_all_checks(Trace.from_lines(older))) == repr(run_all_checks(trace))
        outs = []
        for text in (lines, older):
            path.write_text("\n".join(text) + "\n")
            assert main(["check", str(path)]) == code
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]


def test_check_shows_three_witnesses_then_how_many_more(tmp_path, capsys):
    trace = synthetic_trace([apply_event("c0", i, "0:1") for i in range(1, 6)])
    path = tmp_path / "run.trace"
    trace.write(str(path))
    assert main(["check", str(path)]) == 1
    lines = capsys.readouterr().out.splitlines()
    p3 = lines.index("P3: FAIL")
    assert lines[p3 + 1:p3 + 5] == [
        "    steps [1, 2]: repeated-event: c0 applied 0:1 twice",
        "    steps [1, 3]: repeated-event: c0 applied 0:1 twice",
        "    steps [1, 4]: repeated-event: c0 applied 0:1 twice",
        "    ... 1 more",
    ]


def test_check_names_the_file_line_across_blank_lines(tmp_path, capsys):
    lines = Simulation(one_command_scenario()).run().to_lines()
    path = tmp_path / "run.trace"
    path.write_text("\n".join(lines[:2] + ["", "{"] + lines[3:]) + "\n")
    assert main(["check", str(path)]) == 2
    assert "error: line 4: " in capsys.readouterr().err


def test_check_splits_lines_only_on_newline(tmp_path, capsys):
    # U+2028, U+0085 and U+001E are line breaks to str.splitlines(), but
    # JSON allows them raw inside a string
    objs = [json.loads(ln) for ln in Simulation(one_command_scenario()).run().to_lines()]
    _record(objs, "EXEC")["detail"]["note"] = "a\u2028b\x85c\x1ed"
    lines = [json.dumps(o, ensure_ascii=False) for o in objs]
    path = tmp_path / "run.trace"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert main(["check", str(path)]) == 0
    capsys.readouterr()
    path.write_text("\n".join(lines[:3] + ["{"] + lines[4:]) + "\n", encoding="utf-8")
    assert main(["check", str(path)]) == 2
    assert "error: line 4: " in capsys.readouterr().err


def test_python_m_sdnsim_checks_a_trace_file(tmp_path):
    lines = Simulation(one_command_scenario()).run().to_lines()
    good, truncated = tmp_path / "good.trace", tmp_path / "truncated.trace"
    good.write_text("\n".join(lines) + "\n")
    truncated.write_text("\n".join(lines[:1] + lines[3:]) + "\n")
    env = dict(os.environ, PYTHONPATH=str(SRC_DIR))
    for path, code in ((good, 0), (truncated, 2)):
        proc = subprocess.run([sys.executable, "-m", "sdnsim", "check", str(path)],
                              env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == code, proc.stderr
    assert "non-consecutive step 3" in proc.stderr


@pytest.mark.parametrize("module", ["sdnsim", "sdnsim.cli"])
def test_python_m_runs_a_shipped_scenario(module):
    env = dict(os.environ, PYTHONPATH=str(SRC_DIR))
    proc = subprocess.run([sys.executable, "-m", module, "run",
                           str(SCENARIO_DIR / "one_command.json")],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1].startswith("RESULT pass ")


@pytest.mark.parametrize("command", ["run", "sweep", "compare"])
def test_a_closed_stdout_exits_as_sigpipe_would(command):
    env = dict(os.environ, PYTHONPATH=str(SRC_DIR))
    proc = subprocess.Popen([sys.executable, "-m", "sdnsim", command,
                             str(SCENARIO_DIR / "paper_a.json")],
                            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    proc.stdout.close()  # before the interpreter has started, let alone written
    _, err = proc.communicate(timeout=120)
    assert (proc.returncode, err) == (141, b"")


def test_check_missing_file_exits_two(tmp_path, capsys):
    assert main(["check", str(tmp_path / "nope.trace")]) == 2
    assert "error: " in capsys.readouterr().err


def test_check_empty_file_exits_two(tmp_path):
    path = tmp_path / "empty.trace"
    path.write_text("")
    assert main(["check", str(path)]) == 2


def test_sweep_paper_variant_exits_zero(tmp_path, capsys):
    path = write_scenario(tmp_path, one_command_scenario())
    assert main(["sweep", path, "--crash", "leader"]) == 0
    out = capsys.readouterr().out
    assert "RESULT pass" in out


def test_sweep_naive_variant_exits_one_with_anomaly_rows(tmp_path, capsys):
    path = write_scenario(tmp_path, learning_scenario("NAIVE"))
    assert main(["sweep", path]) == 1
    out = capsys.readouterr().out
    assert "REPEATED_COMMAND" in out
    assert out.strip().splitlines()[-1].startswith("RESULT fail")


def test_sweep_rejects_point_faulted_scenario(tmp_path, capsys):
    point = find_violating_point(learning_scenario("NAIVE"))
    path = write_scenario(tmp_path, point.scenario)
    for command in ("sweep", "compare"):
        assert main([command, path]) == 2, command
        out, err = capsys.readouterr()
        assert out == "", command
        assert err == "error: sweep base scenario may not contain trace-point faults\n"


def test_sweep_rejects_bad_crash_selector(tmp_path, capsys):
    path = write_scenario(tmp_path, one_command_scenario())
    for selector in ("nonsense", "replica:x", "replica:", "replica:9"):
        assert main(["sweep", path, "--crash", selector]) == 2, selector
        assert capsys.readouterr().err.startswith("error: "), selector


# --jobs value -> argparse's complaint about it
BAD_JOBS = {
    "0": "must be at least 1, got 0",
    "-1": "must be at least 1, got -1",
    "x": "invalid int value: 'x'",
    "2.5": "invalid int value: '2.5'",
}
# Run only through the tests below, which stub out the sweep: a real run
# would ask for that many worker processes.
JOBS_ABOVE_THE_BOUND = {
    str(cli.MAX_JOBS + 1): f"must be at most {cli.MAX_JOBS}, got {cli.MAX_JOBS + 1}",
    "9" * 30: f"must be at most {cli.MAX_JOBS}, got {'9' * 30}",
}


def assert_jobs_rejected_before_any_run(tmp_path, capsys, monkeypatch, command, jobs,
                                        error):
    def no_sweep(*args):
        raise AssertionError("a sweep started")
    monkeypatch.setattr(cli, "_sweep", no_sweep)
    path = write_scenario(tmp_path, one_command_scenario())
    assert main([command, path, "--jobs", jobs]) == 2
    assert f"argument --jobs: {error}" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["sweep", "compare"])
@pytest.mark.parametrize("jobs", BAD_JOBS)
def test_jobs_below_one_exits_two_before_any_run(tmp_path, capsys, monkeypatch,
                                                 command, jobs):
    assert_jobs_rejected_before_any_run(tmp_path, capsys, monkeypatch, command, jobs,
                                        BAD_JOBS[jobs])


@pytest.mark.parametrize("command", ["sweep", "compare"])
@pytest.mark.parametrize("jobs", JOBS_ABOVE_THE_BOUND)
def test_jobs_above_the_bound_exits_two_before_any_run(tmp_path, capsys, monkeypatch,
                                                       command, jobs):
    assert_jobs_rejected_before_any_run(tmp_path, capsys, monkeypatch, command, jobs,
                                        JOBS_ABOVE_THE_BOUND[jobs])


def test_compare_rejects_a_bad_variant_before_any_sweep(tmp_path, capsys, monkeypatch):
    def no_sweep(*args):
        raise AssertionError("a sweep started")
    monkeypatch.setattr(cli, "_sweep", no_sweep)
    path = write_scenario(tmp_path, one_command_scenario("NAIVE", n_controllers=4))
    assert main(["compare", path]) == 2
    assert ("error: compare: as PAPER_A: n_controllers: replicated variants need an "
            "odd count >= 3") in capsys.readouterr().err


def test_one_fork_per_group(monkeypatch):
    scenario = load_scenario(str(SCENARIO_DIR / "paper_a.json"))
    forked_at = []  # events the base run had dispatched at each fork
    fork = Simulation.fork

    def counted_fork(sim):
        forked_at.append(sim.processed)
        return fork(sim)

    groups = []  # the occurrences each fork stands for
    sweep = cli.sweep_crash_points

    def grouped(*args):
        for points, fork in sweep(*args):
            groups.append([p.occurrence for p in points])
            yield points, fork

    monkeypatch.setattr(Simulation, "fork", counted_fork)
    monkeypatch.setattr(cli, "sweep_crash_points", grouped)
    _, rows = cli._sweep(scenario, 0, 1)
    # 49 points at 21 boundaries; the sweep merges 7 of them, each a lone
    # same-tick delivery to c0, into the group before
    assert len(forked_at) == len(groups) == 14
    assert len(set(forked_at)) == 14  # each at its own boundary
    assert all(groups)
    assert [n for g in groups for n in g] == list(range(1, 50))  # consecutive, in order
    assert [p.occurrence for p, _ in rows] == list(range(1, 50))
    monkeypatch.undo()
    for point, verdicts in rows:
        replayed = run_all_checks(Simulation(point.scenario).run())
        assert verdicts == replayed, f"point {point.occurrence}"


@pytest.mark.parametrize("path", sorted(SCENARIO_DIR.glob("*.json")), ids=lambda p: p.stem)
def test_sweep_shares_split_the_boundaries_and_merge_to_one_jobs_rows(path, monkeypatch):
    scenario = load_scenario(str(path))
    checked = []  # the trace of each fork a share runs and checks
    verdicts = Simulation.verdicts

    def counted_check(sim):
        checked.append(sim.trace)
        return verdicts(sim)

    monkeypatch.setattr(Simulation, "verdicts", counted_check)
    for target in range(scenario.n_controllers):
        groups = [[p.occurrence for p in points]
                  for points, _ in sweep_crash_points(Simulation(scenario), target)]
        fault_free, rows = cli._sweep(scenario, target, 1, map)
        for jobs in range(1, 5):
            trace, merged = cli._sweep(scenario, target, jobs, map)
            assert (trace.to_lines(), merged) == (fault_free.to_lines(), rows), jobs
            for worker in range(jobs):
                checked.clear()
                trace, share = cli._sweep_share(scenario, target, worker, jobs)
                # only worker 0 sends back the fault-free trace
                assert (trace is None) == (worker > 0), (jobs, worker)
                mine = groups[worker::jobs]  # every jobs-th group, not point
                assert len(checked) == len(mine), (jobs, worker)
                assert [p.occurrence for p, _ in share] == [n for g in mine for n in g]


def test_parallel_sweep_and_compare_print_what_one_job_prints(monkeypatch, capsys):
    path = str(SCENARIO_DIR / "paper_a.json")
    serial = {}
    for command in ("sweep", "compare"):
        code = main([command, path])
        serial[command] = (code, capsys.readouterr().out)
    opened = []
    with ProcessPoolExecutor(max_workers=2,
                             mp_context=multiprocessing.get_context("spawn")) as pool:
        def shared_pool(max_workers, mp_context):
            assert (max_workers, mp_context.get_start_method()) == (2, "spawn")
            opened.append(max_workers)
            return nullcontext(pool)  # one pool of two workers serves every sweep

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", shared_pool)
        for command in ("sweep", "compare"):
            code = main([command, path, "--jobs", "2"])
            assert (code, capsys.readouterr().out) == serial[command], command
    assert len(opened) == 2  # one per command: compare's three variants share one


def test_one_job_loads_no_process_pool():
    env = dict(os.environ, PYTHONPATH=str(SRC_DIR))
    script = ("import sys; from sdnsim.cli import main; "
              f"code = main(['sweep', {str(SCENARIO_DIR / 'paper_a.json')!r}, '--jobs', '1']); "
              "print(code, sorted(m for m in sys.modules "
              "if m.split('.')[0] in ('multiprocessing', 'concurrent')))")
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 []"


@pytest.mark.parametrize("extra, code, text", [
    (["--frobnicate"], 2, "unrecognized arguments: --frobnicate"),
    (["--seed", "x"], 2, "argument --seed: invalid int value: 'x'"),
    (["-h"], 0, "usage: sdnsim run"),
], ids=["unknown-option", "seed-not-an-int", "help"])
def test_argument_errors_and_help_return_their_exit_code(tmp_path, capsys, extra, code,
                                                         text):
    path = write_scenario(tmp_path, one_command_scenario())
    assert main(["run", path, *extra]) == code
    out, err = capsys.readouterr()
    assert text in (err if code else out)


def test_compare_fails_when_the_ack_variants_verdicts_differ(tmp_path, capsys, monkeypatch):
    sweep = cli._sweep

    def one_more_paper_b_row(scenario, target, jobs, map_):
        trace, rows = sweep(scenario, target, jobs, map_)
        return trace, rows + rows[-1:] if scenario.variant == "PAPER_B" else rows

    monkeypatch.setattr(cli, "_sweep", one_more_paper_b_row)
    path = write_scenario(tmp_path, one_command_scenario())
    assert main(["compare", path]) == 1
    assert capsys.readouterr().out.splitlines()[-2:] == [
        "variant equivalence (PAPER_A vs PAPER_B verdicts): NO",
        "RESULT fail P1=+ P2=+ P3=+ P4=+ P5=+ P6=+",
    ]


def test_compare_reports_counts_and_equivalence(tmp_path, capsys):
    path = write_scenario(tmp_path, one_command_scenario())
    assert main(["compare", path]) == 0
    out = capsys.readouterr().out
    assert "NAIVE" in out and "PAPER_A" in out and "PAPER_B" in out
    naive_row = next(l for l in out.splitlines() if l.startswith("NAIVE"))
    paper_row = next(l for l in out.splitlines() if l.startswith("PAPER_A"))
    assert int(naive_row.split()[1]) < int(paper_row.split()[1])
    assert "variant equivalence (PAPER_A vs PAPER_B verdicts): yes" in out
    assert "RESULT pass" in out
