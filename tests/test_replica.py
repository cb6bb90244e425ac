import pytest

from sdnsim.apps import StaticRouter
from sdnsim.ofmodel import (
    CONTROLLER_PORT,
    BundleAdd,
    BundleCommit,
    BundleOpen,
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
    encode_ack,
)
from sdnsim.replica import (
    Append,
    AppendAck,
    CommitAdvance,
    EventEntry,
    Note,
    Replica,
    SendToReplica,
    SendToSwitch,
    ViewEntry,
    build_bundle,
    start_app,
)
from sdnsim.scenario import Route


def route_app():
    return StaticRouter((Route(b"\x02", 2),))


def make_replica(rid=0, n=3, switches=(0,), app=None, use_bundles=True):
    return Replica(rid, n, list(switches), start_app(app or route_app()),
                   use_bundles=use_bundles, register_async=True)


def event_pkt(seq=1, payload=b"\x02\xaa", sw=0):
    return PacketIn(EventId(sw, seq), PacketInReason.NO_MATCH, 1, payload)


def fenced_leader(**kw):
    r = make_replica(rid=0, **kw)
    r.startup()
    for sw in r.switch_ids:
        r.on_switch_message(sw, RoleReply(Role.MASTER, 0))
    return r


def sends_to_switch(effects):
    return [e for e in effects if isinstance(e, SendToSwitch)]


def sends_to_replicas(effects):
    return [e for e in effects if isinstance(e, SendToReplica)]


# ----------------------------------------------------------------------
# event intake

def test_slave_buffers_events_without_sending():
    r = make_replica(rid=1)
    effects = r.on_switch_message(0, event_pkt(5))
    assert effects == []
    assert r.event_buffer == {EventId(0, 5): (b"\x02\xaa", 1)}
    assert r.log == []


def test_any_replica_records_acks():
    r = make_replica(rid=1)
    ack = PacketIn(EventId(0, 9), PacketInReason.ACTION, CONTROLLER_PORT,
                   encode_ack(3, 0))
    assert r.on_switch_message(0, ack) == []
    assert 3 in r.ack_table[0]
    assert r.event_buffer == {}


def test_leader_appends_and_broadcasts_event():
    r = fenced_leader()
    effects = r.on_switch_message(0, event_pkt(1))
    assert r.log == [EventEntry(1, EventId(0, 1), b"\x02\xaa", 1)]
    appends = sends_to_replicas(effects)
    assert {e.dst for e in appends} == {1, 2}
    assert all(isinstance(e.msg, Append) and e.msg.entries == tuple(r.log)
               for e in appends)


def test_leader_dedupes_repeated_event_deliveries():
    r = fenced_leader()
    r.on_switch_message(0, event_pkt(1))
    r.on_switch_message(0, event_pkt(1))
    events = [e.event for e in r.log if isinstance(e, EventEntry)]
    assert len(events) == len(set(events)) == 1


# ----------------------------------------------------------------------
# replication

def test_majority_arithmetic_commits_on_first_ack():
    r = fenced_leader()
    for seq in range(1, 5):
        r.on_switch_message(0, event_pkt(seq, payload=bytes([3, seq])))
    assert r.commit_index == 0
    effects = r.on_replica_message(1, AppendAck(0, 4))
    assert r.commit_index == 4  # leader plus one follower is 2 of 3
    applied = [e.detail["index"] for e in effects if isinstance(e, Note)]
    assert applied == ["1", "2", "3", "4"]
    advances = [e.msg for e in sends_to_replicas(effects)
                if isinstance(e.msg, CommitAdvance)]
    assert advances and all(m.commit_index == 4 for m in advances)


def test_stale_view_messages_are_ignored():
    r = make_replica(rid=1)
    r.view = 2
    entry = EventEntry(1, EventId(0, 1), b"\x02\xaa", 1)
    assert r.on_replica_message(0, Append(0, (entry,), 0)) == []
    assert r.log == []

    def ignored(r, src, msg):
        before = (list(r.log), r.commit_index, dict(r.acked_through))
        return (r.on_replica_message(src, msg) == []
                and (r.log, r.commit_index, r.acked_through) == before)

    # a stalled replica ignores every replica message
    stalled = make_replica(rid=1)
    stalled.stalled = True
    assert ignored(stalled, 0, Append(0, (entry,), 0))
    # an ack from another view, or to a replica that is not the leader
    leader = fenced_leader()
    leader.on_switch_message(0, event_pkt(1))
    assert ignored(leader, 1, AppendAck(1, 1))
    follower = make_replica(rid=1)
    follower.on_replica_message(0, Append(0, (entry,), 0))
    assert ignored(follower, 2, AppendAck(0, 1))
    # a commit advance from an older view
    follower.view = 2
    assert ignored(follower, 0, CommitAdvance(0, 1))


def test_follower_appends_and_acks():
    r = make_replica(rid=1)
    entry = EventEntry(1, EventId(0, 1), b"\x02\xaa", 1)
    effects = r.on_replica_message(0, Append(0, (entry,), 0))
    assert r.log == [entry]
    (ack,) = sends_to_replicas(effects)
    assert ack.dst == 0 and ack.msg == AppendAck(0, 1)


def test_follower_applies_on_commit_advance_without_sending():
    r = make_replica(rid=1)
    entry = EventEntry(1, EventId(0, 1), b"\x02\xaa", 1)
    r.on_replica_message(0, Append(0, (entry,), 0))
    effects = r.on_replica_message(0, CommitAdvance(0, 1))
    assert r.commit_index == 1
    assert sends_to_switch(effects) == []
    notes = [e for e in effects if isinstance(e, Note)]
    assert len(notes) == 1 and notes[0].kind == "APPLY"


def test_conflicting_suffix_from_older_view_is_truncated():
    r = make_replica(rid=2)
    stale = EventEntry(1, EventId(0, 1), b"\x02\xaa", 1)
    r.on_replica_message(0, Append(0, (stale,), 0))
    replacement = ViewEntry(1, 1, 1)
    r.on_replica_message(1, Append(1, (replacement,), 0))
    assert r.log == [replacement]
    assert EventId(0, 1) not in r.logged_events


# ----------------------------------------------------------------------
# bundles

def test_build_bundle_structure_and_arithmetic():
    flow = FlowMod(Match(payload_prefix=b"\x02"), 20, (Output(2),))
    msgs = build_bundle(7, 1, [flow])
    assert msgs == [
        BundleOpen(7),
        BundleAdd(7, flow),
        BundleAdd(7, PacketOut((Output(CONTROLLER_PORT),), encode_ack(7, 1))),
        BundleCommit(7),
    ]
    for k in (1, 2, 5):
        cmds = [FlowMod(Match(), i, ()) for i in range(k)]
        assert len(build_bundle(1, 0, cmds)) == k + 3


def test_build_bundle_rejects_empty_commands():
    with pytest.raises(ValueError):
        build_bundle(1, 0, [])


def test_build_bundle_is_deterministic_across_replicas():
    flow = FlowMod(Match(payload_prefix=b"\x02"), 20, (Output(2),))
    assert build_bundle(9, 1, [flow]) == build_bundle(9, 1, [flow])


def test_leader_apply_emits_the_bundle_sequence():
    r = fenced_leader()
    r.on_switch_message(0, event_pkt(1))
    effects = r.on_replica_message(1, AppendAck(0, 1))
    msgs = [e.msg for e in sends_to_switch(effects)]
    flow = FlowMod(Match(payload_prefix=b"\x02"), 20, (Output(2),))
    assert msgs == [
        BundleOpen(1),
        BundleAdd(1, flow),
        BundleAdd(1, PacketOut((Output(CONTROLLER_PORT),), encode_ack(1, 0))),
        BundleCommit(1),
    ]


def test_apply_without_commands_completes_vacuously():
    r = fenced_leader()
    r.on_switch_message(0, event_pkt(1, payload=b"\x03\xaa"))  # no route match
    effects = r.on_replica_message(1, AppendAck(0, 1))
    assert sends_to_switch(effects) == []
    assert r.commit_index == 1
    assert [e.kind for e in effects if isinstance(e, Note)] == ["APPLY"]


def test_leader_withholds_dispatch_until_fenced():
    r = make_replica(rid=0)
    r.startup()
    r.on_switch_message(0, event_pkt(1))
    effects = r.on_replica_message(1, AppendAck(0, 1))
    assert sends_to_switch(effects) == []  # applied but unfenced
    assert r.commit_index == 1
    effects = r.on_switch_message(0, RoleReply(Role.MASTER, 0))
    msgs = [e.msg for e in sends_to_switch(effects)]
    assert isinstance(msgs[0], BundleOpen) and isinstance(msgs[-1], BundleCommit)


def test_acked_index_is_not_redispatched_at_fence():
    r = make_replica(rid=0)
    r.startup()
    r.on_switch_message(0, event_pkt(1))
    r.on_replica_message(1, AppendAck(0, 1))
    ack = PacketIn(EventId(0, 2), PacketInReason.ACTION, CONTROLLER_PORT,
                   encode_ack(1, 0))
    r.on_switch_message(0, ack)
    effects = r.on_switch_message(0, RoleReply(Role.MASTER, 0))
    assert sends_to_switch(effects) == []


def test_naive_dispatch_sends_bare_tagged_commands():
    r = fenced_leader(use_bundles=False)
    r.on_switch_message(0, event_pkt(1))
    effects = r.on_replica_message(1, AppendAck(0, 1))
    sends = sends_to_switch(effects)
    assert [type(e.msg).__name__ for e in sends] == ["FlowMod"]
    assert sends[0].tags == {"cmd_index": "1", "cmd_ord": "0"}


# ----------------------------------------------------------------------
# failover

def crash_leader(r):
    return r.on_failure_notice(0)


def test_non_leader_crash_changes_nothing():
    r = make_replica(rid=0)
    effects = r.on_failure_notice(2)
    assert effects == []
    assert r.view == 0


def test_new_leader_runs_the_failover_protocol():
    r = make_replica(rid=1)
    r.startup()
    r.event_buffer[EventId(0, 3)] = (b"\x02\xbb", 1)
    effects = crash_leader(r)
    assert r.view == 1
    # one view entry plus the buffered event entered the log
    assert [type(e).__name__ for e in r.log] == ["ViewEntry", "EventEntry"]
    appends = [e for e in sends_to_replicas(effects) if isinstance(e.msg, Append)]
    assert {e.dst for e in appends} == {2}
    roles = [e.msg for e in sends_to_switch(effects)]
    assert roles == [RoleRequest(Role.MASTER, 1)]
    assert r.fenced == set()


def test_surviving_follower_adopts_the_new_view():
    r = make_replica(rid=2)
    effects = crash_leader(r)
    assert effects == []
    assert r.view == 1
    assert not r.is_leader


def test_buffered_event_already_in_log_is_not_reproposed():
    r = make_replica(rid=1)
    entry = EventEntry(1, EventId(0, 3), b"\x02\xbb", 1)
    r.on_replica_message(0, Append(0, (entry,), 0))
    r.event_buffer[EventId(0, 3)] = (b"\x02\xbb", 1)
    crash_leader(r)
    events = [e.event for e in r.log if isinstance(e, EventEntry)]
    assert events.count(EventId(0, 3)) == 1


def test_view_skips_crashed_successors():
    r = make_replica(rid=2, n=5)
    r.on_failure_notice(1)  # not leader, no view change
    assert r.view == 0
    effects = r.on_failure_notice(0)
    assert r.view == 2  # view 1's leader already crashed
    assert r.is_leader
    assert effects


def test_minority_survivors_stall():
    r = make_replica(rid=2)
    r.on_failure_notice(0)
    effects = r.on_failure_notice(1)
    assert r.stalled
    (note,) = [e for e in effects if isinstance(e, Note)]
    assert note.kind == "STALL"
    assert note.detail["reason"] == "majority_lost"
    # stalled replicas go inert
    assert r.on_switch_message(0, event_pkt(9)) == []


def test_duplicate_failure_notices_are_idempotent():
    r = make_replica(rid=1)
    first = crash_leader(r)
    assert first
    assert crash_leader(r) == []
    assert r.view == 1
