import random

import pytest

from sdnsim.ofmodel import (
    ACK_MARKER,
    AckPayload,
    BundleAdd,
    BundleOpen,
    EventId,
    FlowMod,
    Match,
    Output,
    PacketIn,
    PacketInReason,
    decode_ack,
    encode_ack,
)


def test_encode_ack_zero_case():
    assert encode_ack(0, 0) == ACK_MARKER + b"\x00" * 12


def test_ack_round_trip_random_triples():
    rng = random.Random(20260808)
    for _ in range(100):
        index = rng.randrange(0, 2**64)
        switch = rng.randrange(0, 2**32)
        payload = encode_ack(index, switch)
        assert payload.startswith(ACK_MARKER)
        assert decode_ack(payload) == AckPayload(index, switch)


def test_decode_specific_round_trip():
    assert decode_ack(encode_ack(7, 1)) == AckPayload(7, 1)


def test_decode_rejects_non_ack_payloads():
    assert decode_ack(b"") is None
    assert decode_ack(b"\x02\xaa") is None
    assert decode_ack(ACK_MARKER + b"\x00" * 3) is None  # truncated body
    assert decode_ack(ACK_MARKER + b"\x00" * 21) is None  # oversized body


def test_event_id_requires_positive_seq():
    with pytest.raises(ValueError):
        EventId(0, 0)


def test_event_ids_sort_by_switch_then_seq():
    ids = [EventId(1, 2), EventId(0, 9), EventId(1, 1)]
    assert sorted(ids) == [EventId(0, 9), EventId(1, 1), EventId(1, 2)]


def test_control_message_equality_is_structural():
    a = PacketIn(EventId(0, 1), PacketInReason.NO_MATCH, 1, b"\x02\xaa")
    b = PacketIn(EventId(0, 1), PacketInReason.NO_MATCH, 1, b"\x02\xaa")
    assert a == b
    assert FlowMod(Match(), 1, (Output(2),)) == FlowMod(Match(), 1, (Output(2),))
    assert BundleOpen(1) != BundleOpen(2)


def test_bundle_add_restricts_inner_messages():
    BundleAdd(1, FlowMod(Match(), 0, ()))
    with pytest.raises(ValueError):
        BundleAdd(1, BundleOpen(2))


def test_empty_match_matches_everything():
    m = Match()
    assert m.matches(1, b"")
    assert m.matches(99, b"\xff" * 10)


def test_match_fields_are_conjunctive():
    m = Match(in_port=1, payload_prefix=b"\x02")
    assert m.matches(1, b"\x02\xaa")
    assert not m.matches(2, b"\x02\xaa")
    assert not m.matches(1, b"\x03\xaa")
