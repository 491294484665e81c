"""Redundancy elimination: encoder/decoder round-trip and the RE element."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.apps.fingerprint import RabinFingerprinter
from repro.apps.redundancy import REDecoder, REElement, REEncoder
from repro.mem.access import AccessContext
from repro.net.packet import Packet
from tests.conftest import make_env


def make_pair(store=4096, entries=512, window=16):
    enc = REEncoder(store, entries, RabinFingerprinter(window=window))
    dec = REDecoder(store)
    return enc, dec


def test_first_packet_is_all_literal():
    enc, dec = make_pair()
    payload = bytes(range(64))
    tokens, touched = enc.encode(payload)
    assert all(t[0] == "lit" for t in tokens)
    assert dec.decode(tokens) == payload
    assert len(touched) == 4  # 64 bytes / 16-byte windows


def test_repeated_payload_is_referenced():
    enc, dec = make_pair()
    payload = bytes(range(64))
    t1, _ = enc.encode(payload)
    dec.decode(t1)
    t2, _ = enc.encode(payload)
    assert any(t[0] == "ref" for t in t2)
    assert dec.decode(t2) == payload
    assert enc.chunks_matched > 0


def test_savings_positive_for_redundant_traffic():
    enc, _ = make_pair()
    payload = bytes(range(16)) * 8
    enc.encode(payload)
    tokens, _ = enc.encode(payload)
    assert enc.savings(payload, tokens) >= 0.4


def test_encoded_length_accounting():
    assert REEncoder.encoded_length([("lit", b"abc"), ("ref", 0, 16)]) == \
        (1 + 3) + 8


def test_decoder_detects_evicted_reference():
    enc, dec = make_pair(store=64)
    payload = bytes(range(32))
    t1, _ = enc.encode(payload)
    dec.decode(t1)
    # Overflow the decoder's store so the earlier content is gone.
    dec.store.append(bytes(64))
    with pytest.raises(LookupError):
        dec.decode([("ref", 0, 16)])


def test_decoder_rejects_unknown_token():
    _, dec = make_pair()
    with pytest.raises(ValueError):
        dec.decode([("zip", b"")])


@given(st.lists(
    st.sampled_from([b"A" * 48, b"B" * 48, bytes(range(48)), b"C" * 48]),
    min_size=1, max_size=40,
))
@settings(max_examples=40, deadline=None)
def test_property_roundtrip_with_synchronized_stores(payloads):
    """Encoder and decoder stores stay in sync across any stream."""
    enc, dec = make_pair(store=2048, entries=256, window=16)
    for payload in payloads:
        tokens, _ = enc.encode(payload)
        assert dec.decode(tokens) == payload


@given(st.lists(st.binary(min_size=0, max_size=100), min_size=1, max_size=25))
@settings(max_examples=40, deadline=None)
def test_property_roundtrip_arbitrary_payloads(payloads):
    enc, dec = make_pair(store=8192, entries=128, window=8)
    for payload in payloads:
        tokens, _ = enc.encode(payload)
        assert dec.decode(tokens) == payload


def test_element_initialization_and_processing():
    env = make_env()
    element = REElement(store_bytes=4096, n_table_entries=256)
    element.initialize(env)
    ctx = AccessContext()
    pkt = Packet.udp(src=1, dst=2, payload=bytes(range(128)))
    out = element.process(ctx, pkt)
    assert out is pkt
    assert element.packets == 1
    assert element.bytes_in == 128
    assert ctx.n_references > 0
    assert "re_tokens" in pkt.annotations


def test_element_requires_initialize():
    element = REElement()
    with pytest.raises(RuntimeError):
        element.process(AccessContext(), Packet.udp(src=1, dst=2))


def test_element_compresses_repeats():
    env = make_env()
    element = REElement(store_bytes=8192, n_table_entries=512)
    element.initialize(env)
    payload = bytes(range(128))
    for _ in range(3):
        element.process(AccessContext(), Packet.udp(src=1, dst=2,
                                                    payload=payload))
    assert element.bytes_out < element.bytes_in


def test_element_store_reads_split_at_the_wrap():
    """A matched chunk that straddles the circular store's end is read as
    two ranges, like the write; no reference falls outside the store."""
    env = make_env()
    element = REElement(store_bytes=1000, n_table_entries=1024)
    element.initialize(env)
    store = element.store_region
    store_tag = element._tag_store
    capacity = element.encoder.store.capacity
    payload = bytes((i * 37 + 11) % 256 for i in range(196))
    straddles = 0
    for _ in range(40):
        ctx = AccessContext()
        pkt = Packet.udp(src=1, dst=2, payload=payload)
        element.process(ctx, pkt)
        straddles += sum(
            1 for token in pkt.annotations["re_tokens"]
            if token[0] == "ref" and token[1] % capacity + token[2] > capacity)
        for _, line, tag in ctx.references():
            if tag == store_tag:
                assert store.base >> 6 <= line <= (store.end - 1) >> 6
    assert straddles > 0
