import hashlib
import random

from sdnsim import Scenario, Simulation, SwitchSpec, WorkloadItem, apps
from sdnsim.apps import MacLearner, StaticRouter, Table, make_app, state_digest, step_once
from sdnsim.ofmodel import FlowMod, Match, Output, PacketOut
from sdnsim.replica import start_app
from sdnsim.scenario import Route
from sdnsim.trace import canonical_json


def learner():
    return MacLearner({0: [1, 2, 3], 1: [1, 2]})


def test_unknown_destination_floods_and_learns_source():
    app = learner()
    state, cmds = app.step(app.initial_state(), 0, 1, bytes([0x05, 0x01]))
    assert state == {"0:1": 1}
    assert set(cmds) == {0}
    flow, pkt = cmds[0]
    assert isinstance(flow, FlowMod)
    assert flow.match == Match(payload_prefix=b"\x01")
    assert flow.actions == (Output(1),)
    assert isinstance(pkt, PacketOut)
    assert pkt.actions == (Output(2), Output(3))  # flood skips the in port


def test_known_destination_forwards_directly():
    app = learner()
    state, _ = app.step(app.initial_state(), 0, 1, bytes([0x05, 0x01]))
    state, cmds = app.step(state, 0, 2, bytes([0x01, 0x05]))
    assert state == {"0:1": 1, "0:5": 2}
    _, pkt = cmds[0]
    assert pkt.actions == (Output(1),)


def test_learning_is_per_switch():
    app = learner()
    state, _ = app.step(app.initial_state(), 0, 1, bytes([0x05, 0x01]))
    _, cmds = app.step(state, 1, 2, bytes([0x01, 0x09]))
    _, pkt = cmds[1]
    assert pkt.actions == (Output(1),)  # flood on switch 1, not a hit


def test_step_is_pure():
    app = learner()
    state = app.initial_state()
    first = app.step(state, 0, 1, bytes([0x05, 0x01]))
    second = app.step(state, 0, 1, bytes([0x05, 0x01]))
    assert first == second
    assert state == {}


def test_short_payload_is_a_no_op():
    app = learner()
    state, cmds = app.step(app.initial_state(), 0, 1, b"\x05")
    assert state == {} and cmds == {}


def test_static_router_with_no_routes_is_identity():
    app = StaticRouter(())
    state = app.initial_state()
    new_state, cmds = app.step(state, 0, 1, b"\x02\xaa")
    assert new_state == state
    assert cmds == {}


def test_static_router_installs_matching_route():
    app = StaticRouter((Route(b"\x02", 2),))
    _, cmds = app.step(app.initial_state(), 0, 1, b"\x02\xaa")
    assert cmds == {0: [FlowMod(Match(payload_prefix=b"\x02"), 20, (Output(2),))]}
    _, cmds = app.step(app.initial_state(), 0, 1, b"\x03\xaa")
    assert cmds == {}


def test_state_digest_is_canonical():
    # tables set in different orders give equal digests
    assert state_digest(Table().set("a", 1).set("b", 2)) == \
        state_digest(Table().set("b", 2).set("a", 1))
    assert state_digest(Table().set("a", 1)) != state_digest(Table().set("a", 2))


def test_make_app_selects_by_name():
    assert isinstance(make_app("mac-learner", (), {0: [1]}), MacLearner)
    router = make_app("static-router", (Route(b"\x02", 2),), {})
    assert router.routes == (Route(b"\x02", 2),)


class CountingLearner(MacLearner):
    def __init__(self):
        super().__init__({0: [1, 2, 3], 1: [1, 2]})
        self.steps = 0

    def step(self, state, sw, in_port, payload):
        self.steps += 1
        return super().step(state, sw, in_port, payload)


def test_step_once_returns_one_result_per_parent_object_and_input():
    app = CountingLearner()
    started, state, digest = start_app(app)
    assert started is app and state == {} and digest == state_digest(Table())
    first = step_once(app, state, 0, 1, b"\x05\x01", state_digest)
    assert step_once(app, state, 0, 1, b"\x05\x01", state_digest) is first
    assert app.steps == 1
    new_state, cmds, digest = first
    assert (new_state, cmds) == learner().step(Table(), 0, 1, b"\x05\x01")
    assert digest == state_digest(new_state)
    for other_input in ((1, 1, b"\x05\x01"), (0, 2, b"\x05\x01"), (0, 1, b"\x05\x02")):
        step_once(app, state, *other_input, state_digest)
    assert app.steps == 4


def test_step_once_keys_on_identity_not_equality():
    app = CountingLearner()
    state = Table().set("0:1", 1)
    step_once(app, state, 0, 2, b"\x05\x02", state_digest)
    equal = Table().set("0:1", 1)
    assert equal == state and equal is not state
    result = step_once(app, equal, 0, 2, b"\x05\x02", state_digest)
    assert app.steps == 2
    assert step_once(app, equal, 0, 2, b"\x05\x02", state_digest) is result
    assert app.steps == 2


def test_a_kept_step_outlasts_any_number_of_later_steps_from_its_state():
    app = CountingLearner()
    state = Table()
    first = step_once(app, state, 0, 1, b"\x09\x00", state_digest)
    for src in range(1, 256):
        step_once(app, state, 0, 1, bytes([9, src]), state_digest)
    assert app.steps == 256
    assert step_once(app, state, 0, 1, b"\x09\x00", state_digest) is first
    assert app.steps == 256


# ----------------------------------------------------------------------
# A Table's text is canonical_json of the dict of its entries, so a state's
# digest is the sha256 of that dict's canonical JSON.

def reference_digest(state: dict) -> str:
    return hashlib.sha256(canonical_json(state).encode("utf-8")).hexdigest()[:16]


KEY_CHARS = 'ab0:"\\\x00\x1f\x7f é€\U0001f600'


def random_value(rng):
    kind = rng.randrange(3)
    if kind == 0:
        return rng.randint(-10**6, 10**6)
    if kind == 1:
        return "".join(rng.choices(KEY_CHARS, k=rng.randint(0, 4)))
    return [rng.randint(0, 9), [random_value(rng)], "x\n"]


def test_table_text_is_canonical_json_of_its_dict():
    rng = random.Random(30)
    for _ in range(40):
        table, reference = Table(), {}
        keys = ["".join(rng.choices(KEY_CHARS, k=rng.randint(0, 3))) for _ in range(12)]
        for _ in range(rng.randint(1, 30)):
            key, value = rng.choice(keys), random_value(rng)  # keys repeat: overwrites
            before, old_reference = table, dict(reference)
            table = table.set(key, value)
            reference[key] = value
            assert before == old_reference  # set made a new table
            assert table == reference and len(table) == len(reference)
            assert table.json() == canonical_json(reference)
            assert state_digest(table) == reference_digest(reference)
    assert Table().json() == canonical_json({})


def test_table_set_leaves_the_old_table_as_it_was():
    old = Table().set("b", 1)
    new = old.set("a", 2).set("b", 3)
    assert old == {"b": 1} and old.json() == '{"b":1}'
    assert new == {"a": 2, "b": 3} and list(new) == ["a", "b"]


def test_table_orders_raw_keys_not_their_escaped_text():
    # '"' sorts before "0", but its escaped text '\\"' sorts after it
    table = Table().set("0", 1).set('"', 2)
    assert table.json() == canonical_json({"0": 1, '"': 2}) == '{"\\"":2,"0":1}'


def large_learning_scenario(n_events=400):
    """The benchmark's ``long_run`` shape at 400 events: two switches of four
    ports, every address drawn from 1..250, so packets both learn new
    addresses, re-learn known ones and hit installed flows."""
    rng = random.Random("apps/large-table")
    ports = (1, 2, 3, 4)
    return Scenario(
        name="large-table", variant="PAPER_A", n_controllers=3,
        switches=tuple(SwitchSpec(id=s, ports=ports) for s in (0, 1)), app="mac-learner",
        workload=tuple(WorkloadItem(t=5 + 3 * k, switch=rng.randrange(2),
                                    in_port=rng.choice(ports),
                                    payload=bytes([rng.randint(1, 250), rng.randint(1, 250)]))
                       for k in range(n_events)),
        quiesce_limit=100 * n_events)


def test_apply_digests_of_a_large_table_match_a_dict_reference():
    trace = Simulation(large_learning_scenario()).run()
    packet_ins = {r.msg["event"]: (int(r.actor[1:]), r.msg["in_port"],
                                   bytes.fromhex(r.msg["payload"]))
                  for r in trace.records
                  if r.kind == "SEND" and (r.msg or {}).get("type") == "PacketIn"}
    states: dict[str, dict] = {}
    learned = set()
    overwrites = 0
    for r in trace.records:
        if r.kind != "APPLY":
            continue
        state = states.setdefault(r.actor, {})
        if r.detail["entry"] == "EVENT":
            sw, in_port, payload = packet_ins[r.detail["event"]]
            key = f"{sw}:{payload[1]}"
            overwrites += key in state
            state[key] = in_port
            learned.add(key)
        assert r.detail["digest"] == reference_digest(state), r
    hits = sum(1 for r in trace.records
               if r.kind == "EXEC" and r.detail["exec"] == "PACKET_FWD")
    assert sorted(states) == ["c0", "c1", "c2"]
    assert len(learned) >= 200 and overwrites and hits


def test_a_step_encodes_one_entry(monkeypatch):
    encoded = []

    def counting(encode):
        def wrapper(value):
            text = encode(value)
            encoded.append(len(text))
            return text
        return wrapper

    # apps encodes keys with encode_basestring_ascii and values with canonical_json
    for name in ("canonical_json", "encode_basestring_ascii"):
        monkeypatch.setattr(apps, name, counting(getattr(apps, name)))
    app = learner()
    rng = random.Random("apps/one-entry")
    state = app.initial_state()
    per_step = []
    for _ in range(800):
        encoded.clear()
        state = step_once(app, state, rng.randrange(2), rng.randint(1, 2),
                          bytes([rng.randint(1, 250), rng.randint(1, 250)]),
                          apps.state_digest)[0]
        per_step.append(sum(encoded))
    final = dict(state)
    assert len(canonical_json(final)) > 3000
    longest_entry = max(len(canonical_json({k: v})) - 2 for k, v in final.items())
    assert max(per_step) <= longest_entry
