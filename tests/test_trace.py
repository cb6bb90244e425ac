import json
from pathlib import Path

import pytest

from builders import learning_scenario, one_command_scenario, synthetic_trace
from sdnsim import (FaultSpec, Simulation, Trace, TraceRecord, compute_metrics,
                    load_scenario, run_all_checks, sweep_crash_points)
from sdnsim.ofmodel import CONTROLLER_PORT
from sdnsim.trace import TraceFormatError, canonical_json

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


@pytest.fixture(scope="module")
def trace():
    return Simulation(learning_scenario()).run()


@pytest.fixture
def loads_calls(monkeypatch):
    """Count the calls to ``json.loads``, the decoder's fallback."""
    calls = []
    real = json.loads

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(json, "loads", counting)
    return calls


def test_canonical_trace_never_takes_the_fallback(trace, loads_calls):
    back = Trace.from_lines(trace.to_lines())
    assert back.records == trace.records
    assert loads_calls == []


def test_padded_lines_are_still_accepted(trace, loads_calls):
    lines = trace.to_lines()
    padded = [" \t" + ln + "\t " for ln in lines]
    back = Trace.from_lines(padded)
    assert back.meta == trace.meta
    assert back.records == trace.records
    assert len(loads_calls) == len(lines)


def test_partly_scanned_line_reports_the_decoder_error():
    # the scanner reads the object and stops; the fallback names the fault
    lines = Trace({"variant": "PAPER_A", "n_controllers": 3}).to_lines() + ['{"step": 1} x']
    with pytest.raises(TraceFormatError, match="^line 2: Extra data$"):
        Trace.from_lines(lines)


def test_malformed_apply_record_is_a_format_error():
    lines = synthetic_trace([("APPLY", "c0", None, None, {"entry": "EVENT"})]).to_lines()
    with pytest.raises(TraceFormatError,
                       match="^line 2: detail.index missing or not an integer$"):
        Trace.from_lines(lines)


def test_missing_metadata_is_a_format_error():
    trace = synthetic_trace([])
    del trace.meta["n_controllers"]
    # the metadata is checked before any record is read
    with pytest.raises(TraceFormatError,
                       match="^line 1: meta.n_controllers must be an integer in 1..255, "
                             "got None$"):
        Trace.from_lines(trace.to_lines() + ["not a record"])


MISSING = object()


def test_the_checker_reads_every_trace_the_gate_accepts():
    """Each field of one record of every shape (kind, actor type, message
    type, detail keys) in a simulator trace, damaged in turn: the gate
    rejects the trace, or the checker and the metrics read it."""
    lines = Simulation(one_command_scenario()).run().to_lines()
    shapes, accepted = set(), 0
    for i in range(1, len(lines)):
        obj = json.loads(lines[i])
        detail = obj.get("detail", {})
        shape = (obj["kind"], obj["actor"][0], obj.get("msg", {}).get("type"),
                 tuple(sorted(detail)), detail.get("exec"), detail.get("entry"))
        if shape in shapes:
            continue
        shapes.add(shape)
        for where in [obj] + [obj[k] for k in ("msg", "detail") if k in obj]:
            for key in list(where):
                old = where[key]
                for value in (MISSING, "", "c²", "s9", "9" * 5000, True, None):
                    if value is MISSING:
                        del where[key]
                    else:
                        where[key] = value
                    damaged = json.dumps(obj)
                    where[key] = old
                    try:
                        back = Trace.from_lines(lines[:i] + [damaged] + lines[i + 1:])
                    except TraceFormatError:
                        continue
                    run_all_checks(back)
                    compute_metrics(back)
                    accepted += 1
    assert len(shapes) > 20 and accepted > 500


def test_records_are_immutable(trace):
    rec = trace.records[0]
    for name in TraceRecord._fields:
        with pytest.raises(AttributeError):
            setattr(rec, name, None)


def test_fork_shares_record_objects(trace):
    fork = trace.fork()
    fork.append(999, "STALL", "sim")
    assert len(fork.records) == len(trace.records) + 1
    assert all(a is b for a, b in zip(fork.records, trace.records))


def test_appended_records_get_their_own_detail(trace):
    fresh = Trace({})
    a, b = fresh.append(1, "STALL", "sim"), fresh.append(2, "STALL", "sim")
    assert a.detail == {} and a.detail is not b.detail


def test_canonical_json_matches_the_stdlib_encoder(trace):
    reference = json.JSONEncoder(sort_keys=True, separators=(",", ":"))
    objs = [{"meta": trace.meta}, {"s": " é\"\\", "f": 0.1, "n": None, "l": [True]}]
    objs += [r.to_obj() for r in trace.records]
    for obj in objs:
        assert canonical_json(obj) == reference.encode(obj)


def test_canonical_json_rejects_unserializable_values():
    with pytest.raises(TypeError, match="not JSON serializable"):
        canonical_json({"a": b"x"})
    assert canonical_json({"b": 1}) == '{"b":1}'  # the shared encoder still works


def hand_built_trace():
    """Records without peer, msg or detail, non-ASCII text, a DROP whose
    message no SEND carried, and a wire dict sent twice."""
    trace = Trace({"scenario": "hand-built"})
    sent_twice = {"type": "BundleOpen", "bundle_id": 3}
    trace.append(1, "STALL", "sim")
    trace.append(1, "CRASH", "c0", peer="s\u00e9")
    trace.append(2, "APPLY", "c1", detail={"event": "0:1", "note": "\u2603 \"q\""})
    trace.append(2, "DROP", "s0", peer="c0", msg={"type": "FlowMod", "priority": 1},
                 detail={"reason": "connection_drop", "bundle": "3"})
    trace.append(3, "SEND", "c1", peer="s0", msg=sent_twice)
    trace.append(3, "SEND", "c1", peer="s0", msg=sent_twice)
    trace.append(4, "DELIVER", "s0", peer="c1", msg=sent_twice)
    trace.append(4, "DELIVER", "s0", peer="c1", msg=sent_twice)
    trace.append(5, "SEND", "c1", peer="s0", msg={"type": "BundleCommit", "bundle_id": 3})
    return trace


def test_record_lines_match_the_stdlib_encoder(trace):
    crashed = Simulation(learning_scenario(faults=(FaultSpec(target=0, at_time=9),))).run()
    shared = [r for r in crashed.records if r.kind in ("DELIVER", "DROP")]
    assert {r.kind for r in shared} == {"DELIVER", "DROP"}
    sent = {id(r.msg) for r in crashed.records if r.kind == "SEND"}
    assert all(id(r.msg) in sent for r in shared)  # simulated records share wire dicts
    read_back = Trace.from_lines(crashed.to_lines())
    for t in (trace, crashed, read_back, hand_built_trace()):
        assert t.to_lines()[1:] == [json.dumps(r.to_obj(), sort_keys=True,
                                               separators=(",", ":")) for r in t.records]


def test_write_puts_one_line_per_record(tmp_path, trace):
    path = tmp_path / "run.trace"
    trace.write(str(path))
    assert path.read_text(encoding="utf-8") == "".join(ln + "\n" for ln in trace.to_lines())


def _ports(actions: list) -> str:
    return ",".join("ctl" if a["port"] == CONTROLLER_PORT else str(a["port"]) for a in actions)


def _match(match: dict) -> str:
    parts = [f"in_port={match['in_port']}"] if "in_port" in match else []
    parts += [f"prefix={match['payload_prefix']}"] if "payload_prefix" in match else []
    return "+".join(parts) or "any"


def in_older_form(lines: list[str]) -> list[str]:
    """A trace's lines as sdnsim wrote them before an EXEC record carried
    its message: an EXEC states its command as an ``info`` text instead of
    ``msg`` (and a table hit its in-port there, not as ``in_port``), and
    each NAIVE command tag set also names its switch as ``cmd_switch``."""
    objs = [json.loads(line) for line in lines[1:]]
    for i, obj in enumerate(objs):
        detail = obj.get("detail", {})
        if "cmd_index" in detail:
            switch = obj["peer"] if obj["kind"] == "SEND" else obj["actor"]
            detail["cmd_switch"] = switch[1:]
        if obj["kind"] != "EXEC":
            continue
        msg, kind = obj.pop("msg", None), detail["exec"]
        if kind == "BUNDLE_COMMIT":
            window = 0
            while (i + window + 1 < len(objs) and objs[i + window + 1]["kind"] == "EXEC"
                   and objs[i + window + 1]["detail"].get("bundle") == detail["bundle"]):
                window += 1
            detail["info"] = f"messages={window}"
        elif kind == "FLOWMOD":
            detail["info"] = f"prio={msg['priority']} match={_match(msg['match'])}"
        elif kind == "PACKETOUT":
            detail["info"] = f"out={_ports(msg['actions'])}"
        else:
            detail["info"] = f"in={detail.pop('in_port')} out={_ports(msg['actions'])}"
    return lines[:1] + [canonical_json(obj) for obj in objs]


def test_traces_stored_in_the_older_exec_form_still_check():
    one_command = Simulation(load_scenario(str(SCENARIO_DIR / "one_command.json"))).run()
    naive = load_scenario(str(SCENARIO_DIR / "naive_suppressed.json"))
    assert naive.variant == "NAIVE"
    # a leader-sweep fork whose P4 reads the command tags of repeated executions
    repeats = next(trace for trace in (fork.run() for _, fork
                                       in sweep_crash_points(Simulation(naive), 0))
                   if not run_all_checks(trace)[3].passed)
    for trace in (one_command, repeats):
        older = in_older_form(trace.to_lines())
        assert sum('"info":' in line for line in older) == sum(
            rec.kind == "EXEC" for rec in trace.records)
        assert not any('"exec":' in line and '"msg":' in line for line in older)
        assert repr(run_all_checks(Trace.from_lines(older))) == repr(run_all_checks(trace))
