from sdnsim.apps import MacLearner, StaticRouter, StepMemo, make_app, state_digest
from sdnsim.ofmodel import FlowMod, Match, Output, PacketOut
from sdnsim.scenario import Route


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
    assert state_digest({"a": 1, "b": 2}) == state_digest({"b": 2, "a": 1})
    assert state_digest({"a": 1}) != state_digest({"a": 2})


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


def test_step_memo_returns_one_result_per_parent_object_and_input():
    app = CountingLearner()
    memo = StepMemo(app, state_digest)
    assert memo.initial_state == {}
    assert memo.initial_digest == state_digest({})
    first = memo.step(memo.initial_state, 0, 1, b"\x05\x01")
    assert memo.step(memo.initial_state, 0, 1, b"\x05\x01") is first
    assert app.steps == 1
    new_state, cmds, digest = first
    assert (new_state, cmds) == learner().step({}, 0, 1, b"\x05\x01")
    assert digest == state_digest(new_state)
    for other_input in ((1, 1, b"\x05\x01"), (0, 2, b"\x05\x01"), (0, 1, b"\x05\x02")):
        memo.step(memo.initial_state, *other_input)
    assert app.steps == 4


def test_step_memo_keys_on_identity_not_equality():
    app = CountingLearner()
    memo = StepMemo(app, state_digest)
    state = {"0:1": 1}
    memo.step(state, 0, 2, b"\x05\x02")
    equal = dict(state)
    result = memo.step(equal, 0, 2, b"\x05\x02")
    assert app.steps == 2
    assert memo.step(equal, 0, 2, b"\x05\x02") is result
    assert app.steps == 2


def test_step_memo_evicts_the_least_recently_used_step():
    app = CountingLearner()
    memo = StepMemo(app, state_digest)
    memo.size = 2
    state = {}
    for src in (1, 2):
        memo.step(state, 0, 1, bytes([9, src]))
    memo.step(state, 0, 1, bytes([9, 1]))  # refresh src 1, so src 2 goes next
    memo.step(state, 0, 1, bytes([9, 3]))
    assert len(memo) == 2 and app.steps == 3
    memo.step(state, 0, 1, bytes([9, 1]))
    assert app.steps == 3
    memo.step(state, 0, 1, bytes([9, 2]))
    assert app.steps == 4
