import json

import pytest

from builders import learning_scenario, one_command_scenario, synthetic_trace
from sdnsim import (FaultSpec, Simulation, Trace, TraceRecord, compute_metrics,
                    run_all_checks)
from sdnsim.trace import TraceFormatError, canonical_json


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
