import random

import pytest

from sdnsim.ofmodel import (
    CONTROLLER_PORT,
    BundleAdd,
    BundleCommit,
    BundleCtrlReply,
    BundleOpen,
    BundleReplyKind,
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
    encode_ack,
)
from sdnsim.switchsim import SwitchState


def make_switch(clone=False):
    return SwitchState(7, controllers=[0, 1, 2], clone_acks_to_all=clone)


def registered_switch(clone=False):
    """Master on conn 0, registered slaves on conns 1 and 2."""
    sw = make_switch(clone)
    sw.handle_message(0, RoleRequest(Role.MASTER, 0))
    for c in (1, 2):
        sw.handle_message(c, RoleRequest(Role.SLAVE, 0))
        sw.handle_message(c, SetAsyncConfig(True))
    return sw


# ----------------------------------------------------------------------
# roles and async config

def test_slave_role_request_is_bookkeeping_only():
    sw = make_switch()
    out = sw.handle_message(2, RoleRequest(Role.SLAVE, 1))
    assert out == [(2, RoleReply(Role.SLAVE, 1))]
    assert sw.conns[2].role is Role.SLAVE
    assert sw.flow_table == []


def test_master_request_demotes_previous_master():
    sw = make_switch()
    sw.handle_message(0, RoleRequest(Role.MASTER, 0))
    out = sw.handle_message(1, RoleRequest(Role.MASTER, 1))
    assert out == [(1, RoleReply(Role.MASTER, 1))]
    assert sw.conns[0].role is Role.SLAVE
    assert sw.conns[1].role is Role.MASTER
    masters = [c for c in sw.conns.values() if c.role is Role.MASTER]
    assert len(masters) == 1


def test_stale_generation_master_request_rejected():
    sw = make_switch()
    sw.handle_message(0, RoleRequest(Role.MASTER, 5))
    out = sw.handle_message(1, RoleRequest(Role.MASTER, 5))
    assert out == [(1, ErrorMsg(ErrorCode.STALE_GENERATION))]
    assert sw.conns[0].role is Role.MASTER
    assert sw.conns[1].role is Role.EQUAL
    assert sw.generation_id_seen == 5


def test_async_config_gates_slave_packet_ins():
    sw = make_switch()
    sw.handle_message(1, RoleRequest(Role.SLAVE, 0))
    assert not sw.conns[1].packet_in_enabled
    sw.handle_message(1, SetAsyncConfig(True))
    assert sw.conns[1].packet_in_enabled


def test_async_override_survives_role_change():
    sw = registered_switch()
    sw.handle_message(1, RoleRequest(Role.MASTER, 1))
    assert sw.conns[1].packet_in_enabled
    # the demoted master never set an override; slave default applies
    assert not sw.conns[0].packet_in_enabled


# ----------------------------------------------------------------------
# bundle lifecycle (hand-executed reference walkthrough)

def test_bundle_walkthrough():
    sw = registered_switch()
    flow = FlowMod(Match(payload_prefix=b"\x02"), 5, (Output(2),))
    ack_out = PacketOut((Output(CONTROLLER_PORT),), encode_ack(7, 7))

    assert sw.handle_message(0, BundleOpen(7)) == \
        [(0, BundleCtrlReply(7, BundleReplyKind.OPEN_OK))]
    assert sw.handle_message(0, BundleAdd(7, flow)) == []
    assert sw.handle_message(0, BundleAdd(7, ack_out)) == []
    assert sw.flow_table == []
    assert sw.exec_log == []

    out = sw.handle_message(0, BundleCommit(7))

    ack_pkt = PacketIn(EventId(7, 1), PacketInReason.ACTION,
                       CONTROLLER_PORT, encode_ack(7, 7))
    assert out == [(0, ack_pkt), (1, ack_pkt), (2, ack_pkt),
                   (0, BundleCtrlReply(7, BundleReplyKind.COMMIT_OK))]
    assert [f for _, f in sw.flow_table] == [flow]
    assert [(d["exec"], d["bundle"], d["from"], m) for d, m in sw.exec_log] == [
        ("BUNDLE_COMMIT", "7", "0", None),
        ("FLOWMOD", "7", "0", flow),
        ("PACKETOUT", "7", "0", ack_out),
    ]
    assert sw.conns[0].open_bundles == {}


def test_unknown_bundle_commit_is_an_error():
    sw = registered_switch()
    out = sw.handle_message(0, BundleCommit(99))
    assert out == [(0, ErrorMsg(ErrorCode.BAD_BUNDLE))]
    assert sw.exec_log == []


def test_duplicate_bundle_open_rejected():
    sw = registered_switch()
    sw.handle_message(0, BundleOpen(3))
    out = sw.handle_message(0, BundleOpen(3))
    assert out == [(0, ErrorMsg(ErrorCode.BAD_BUNDLE))]


def test_bundle_add_to_unknown_bundle_rejected():
    sw = registered_switch()
    out = sw.handle_message(0, BundleAdd(3, FlowMod(Match(), 0, ())))
    assert out == [(0, ErrorMsg(ErrorCode.BAD_BUNDLE))]


@pytest.mark.parametrize("msg", [
    FlowMod(Match(), 1, (Output(2),)),
    PacketOut((Output(2),), b"\x01"),
    BundleOpen(1),
    BundleAdd(1, FlowMod(Match(), 0, ())),
    BundleCommit(1),
])
def test_slave_writes_rejected(msg):
    sw = registered_switch()
    out = sw.handle_message(1, msg)
    assert out == [(1, ErrorMsg(ErrorCode.IS_SLAVE))]
    assert sw.flow_table == []
    assert sw.exec_log == []


# ----------------------------------------------------------------------
# PacketIn fan-out

def ack_packet(sw_id=7):
    return PacketIn(EventId(sw_id, 50), PacketInReason.ACTION,
                    CONTROLLER_PORT, encode_ack(3, sw_id))


def test_fan_out_to_all_enabled_connections():
    sw = registered_switch()
    pkt = PacketIn(EventId(7, 1), PacketInReason.NO_MATCH, 1, b"\x02\xaa")
    out = sw.deliver_packet_in(pkt)
    assert out == [(0, pkt), (1, pkt), (2, pkt)]
    assert len({p.event for _, p in out}) == 1


def test_unregistered_slave_receives_nothing():
    sw = registered_switch()
    sw.handle_message(2, SetAsyncConfig(False))
    pkt = PacketIn(EventId(7, 1), PacketInReason.NO_MATCH, 1, b"\x02\xaa")
    assert [c for c, _ in sw.deliver_packet_in(pkt)] == [0, 1]


def test_clone_variant_delivers_acks_past_async_gate():
    sw = registered_switch(clone=True)
    sw.handle_message(2, SetAsyncConfig(False))
    assert [c for c, _ in sw.deliver_packet_in(ack_packet())] == [0, 1, 2]
    # non-ack payloads still honor the gate
    pkt = PacketIn(EventId(7, 2), PacketInReason.NO_MATCH, 1, b"\x02\xaa")
    assert [c for c, _ in sw.deliver_packet_in(pkt)] == [0, 1]


def test_without_clone_flag_acks_honor_the_gate():
    sw = registered_switch(clone=False)
    sw.handle_message(2, SetAsyncConfig(False))
    assert [c for c, _ in sw.deliver_packet_in(ack_packet())] == [0, 1]


def test_dead_connections_receive_nothing():
    sw = registered_switch()
    sw.on_connection_drop(1)
    pkt = PacketIn(EventId(7, 1), PacketInReason.NO_MATCH, 1, b"\x02\xaa")
    assert [c for c, _ in sw.deliver_packet_in(pkt)] == [0, 2]


# ----------------------------------------------------------------------
# data plane

def test_table_hit_forwards_without_packet_in():
    sw = registered_switch()
    sw.handle_message(0, FlowMod(Match(payload_prefix=b"\x02"), 5, (Output(2),)))
    out = sw.inject_data_packet(1, b"\x02\xaa")
    assert out == []
    assert sw.exec_log[-1] == ({"exec": "PACKET_FWD", "in_port": "1"},
                               FlowMod(Match(payload_prefix=b"\x02"), 5, (Output(2),)))
    assert sw.seq_counter == 0


def test_table_hit_logs_the_installing_flow_mod_itself():
    sw = registered_switch()
    flow = FlowMod(Match(payload_prefix=b"\x02"), 5, (Output(2),))
    sw.handle_message(0, flow)
    sw.inject_data_packet(1, b"\x02\xaa")
    detail, msg = sw.exec_log[-1]
    assert detail["exec"] == "PACKET_FWD"
    assert msg is flow


def test_table_hit_to_controller_raises_action_packet_ins():
    sw = registered_switch()
    sw.handle_message(0, FlowMod(Match(in_port=1), 5, (Output(2), Output(CONTROLLER_PORT))))
    out = sw.inject_data_packet(1, b"\x02\xaa")
    pkt = PacketIn(EventId(7, 1), PacketInReason.ACTION, 1, b"\x02\xaa")
    assert out == [(0, pkt), (1, pkt), (2, pkt)]


def test_table_miss_emits_packet_in_with_fresh_seq():
    sw = registered_switch()
    out = sw.inject_data_packet(1, b"\x02\xaa")
    assert [c for c, _ in out] == [0, 1, 2]
    assert out[0][1].event == EventId(7, 1)
    assert out[0][1].reason is PacketInReason.NO_MATCH


def test_consecutive_misses_increment_seq():
    sw = registered_switch()
    first = sw.inject_data_packet(1, b"\x02\xaa")
    second = sw.inject_data_packet(2, b"\x03\xbb")
    assert first[0][1].event.seq == 1
    assert second[0][1].event.seq == 2
    assert sw.seq_counter == 2


def test_higher_priority_entry_wins():
    sw = registered_switch()
    sw.handle_message(0, FlowMod(Match(), 1, (Output(1),)))
    sw.handle_message(0, FlowMod(Match(payload_prefix=b"\x02"), 5, (Output(2),)))
    sw.inject_data_packet(1, b"\x02\xaa")
    assert sw.exec_log[-1][1].actions == (Output(2),)


def test_flow_mod_replaces_same_match_and_priority():
    sw = registered_switch()
    sw.handle_message(0, FlowMod(Match(payload_prefix=b"\x02"), 5, (Output(1),)))
    sw.handle_message(0, FlowMod(Match(payload_prefix=b"\x02"), 5, (Output(2),)))
    assert [(seq, f.actions) for seq, f in sw.flow_table] == [(2, (Output(2),))]


# ----------------------------------------------------------------------
# flow-table index against a linear scan

def scan_lookup(entries, in_port, payload):
    """The specification: of the (install number, FlowMod) entries whose
    match accepts the packet, the FlowMod with the highest (priority,
    install number)."""
    hits = [(f.priority, seq, f) for seq, f in entries if f.match.matches(in_port, payload)]
    return max(hits, key=lambda h: h[:2], default=(None, None, None))[2]


def random_match(rng, alphabet=b"\x01\x02"):
    length = rng.choice([None, 0, 1, 2, 3])
    prefix = None if length is None else bytes(rng.choices(alphabet, k=length))
    return Match(rng.choice([None, 1, 2]), prefix)


def random_packet(rng, alphabet=b"\x01\x02"):
    return rng.choice([1, 2, 3]), bytes(rng.choices(alphabet, k=rng.randrange(5)))


def table_values(entries):
    return sorted(entries, key=lambda e: e[0])


def test_lookup_agrees_with_a_linear_scan():
    rng = random.Random(8)
    lookups = 0
    for _ in range(40):
        sw = registered_switch()
        model = []  # the table as a list, replacing on equal (match, priority)

        def installed(seq, flow):
            model[:] = [(s, f) for s, f in model
                        if (f.match, f.priority) != (flow.match, flow.priority)]
            model.append((seq, flow))

        n_initial = rng.randrange(4)
        for seq in range(1, n_initial + 1):
            flow = FlowMod(random_match(rng), rng.randrange(3), (Output(1),))
            sw.install(flow)
            installed(seq, flow)
        for seq in range(n_initial + 1, n_initial + rng.randrange(1, 40)):
            mod = FlowMod(random_match(rng), rng.randrange(3), (Output(rng.choice([1, 2])),))
            sw.handle_message(0, mod)
            installed(seq, mod)
            assert table_values(sw.flow_table) == table_values(model)
            for _ in range(5):
                in_port, payload = random_packet(rng)
                assert sw._lookup(in_port, payload) is scan_lookup(sw.flow_table,
                                                                   in_port, payload)
                lookups += 1
    assert lookups > 3000


def test_lookup_on_a_large_table_never_scans(monkeypatch):
    rng = random.Random(9)
    sw = registered_switch()
    alphabet = bytes(range(1, 17))
    for _ in range(3000):
        sw.handle_message(0, FlowMod(random_match(rng, alphabet), rng.randrange(3),
                                     (Output(2),)))
    assert len(sw.flow_table) >= 1000
    packets = [random_packet(rng, alphabet) for _ in range(300)]
    expected = [scan_lookup(sw.flow_table, *p) for p in packets]
    assert sum(e is not None for e in expected) > 150

    def no_scan(*args):
        raise AssertionError("lookup called Match.matches")

    monkeypatch.setattr(Match, "matches", no_scan)
    assert all(sw._lookup(*p) is e for p, e in zip(packets, expected))


def test_fork_flow_mods_stay_in_their_copy():
    sw = registered_switch()
    prefix = Match(payload_prefix=b"\x02")
    sw.handle_message(0, FlowMod(prefix, 5, (Output(1),)))
    fork = sw.fork()
    parent_before, fork_before = table_values(sw.flow_table), table_values(fork.flow_table)

    # the fork replaces the shared (match, priority) and adds a match
    fork.handle_message(0, FlowMod(prefix, 5, (Output(2),)))
    fork.handle_message(0, FlowMod(Match(in_port=3), 9, (Output(2),)))
    assert table_values(sw.flow_table) == parent_before
    assert sw._lookup(1, b"\x02").actions == (Output(1),)
    assert sw._lookup(3, b"\x01") is None
    assert fork._lookup(1, b"\x02").actions == (Output(2),)
    assert fork._lookup(3, b"\x01").priority == 9

    # the parent adds a priority under the shared match, then replaces it
    fork_after = table_values(fork.flow_table)
    sw.handle_message(0, FlowMod(prefix, 7, (Output(2),)))
    sw.handle_message(0, FlowMod(prefix, 5, (Output(3),)))
    assert table_values(fork.flow_table) == fork_after != fork_before
    assert fork._lookup(1, b"\x02").actions == (Output(2),)
    assert sw._lookup(1, b"\x02").actions == (Output(2),)
    assert [(f.priority, f.actions) for _, f in sw.flow_table] == [(5, (Output(3),)),
                                                                 (7, (Output(2),))]


# ----------------------------------------------------------------------
# connection drop semantics

def test_drop_discards_staged_bundle_without_execution():
    sw = registered_switch()
    sw.handle_message(0, BundleOpen(4))
    sw.handle_message(0, BundleAdd(4, FlowMod(Match(), 1, (Output(2),))))
    discarded = sw.on_connection_drop(0)
    assert [(bid, type(m).__name__) for bid, m in discarded] == [(4, "FlowMod")]
    assert sw.flow_table == []
    assert sw.exec_log == []
    assert 0 not in sw.conns


def test_drop_of_master_does_not_promote_anyone():
    sw = registered_switch()
    sw.on_connection_drop(0)
    assert all(c.role is not Role.MASTER for c in sw.conns.values())
    assert sw.conns[1].role is Role.SLAVE
    assert sw.conns[2].role is Role.SLAVE


def test_effects_of_committed_bundle_survive_drop():
    sw = registered_switch()
    sw.handle_message(0, BundleOpen(4))
    sw.handle_message(0, BundleAdd(4, FlowMod(Match(), 1, (Output(2),))))
    sw.handle_message(0, BundleCommit(4))
    exec_before = list(sw.exec_log)
    sw.on_connection_drop(0)
    assert sw.exec_log == exec_before
    assert len(sw.flow_table) == 1


def test_bundle_atomicity_error_paths_leave_no_partial_effects():
    sw = registered_switch()
    sw.handle_message(0, BundleOpen(4))
    sw.handle_message(0, BundleAdd(4, FlowMod(Match(), 1, (Output(2),))))
    sw.handle_message(0, BundleCommit(9))  # wrong id
    assert sw.exec_log == []
    commits = [d for d, _ in sw.exec_log if d["exec"] == "BUNDLE_COMMIT"]
    assert commits == []
