"""VPN element: real encryption with simulated payload accesses."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.apps.aes import AES128, ctr_crypt
from repro.apps.vpn import KEYSTREAM_AHEAD, VPNEncrypt
from repro.constants import COST_AES_BLOCK
from repro.mem.access import AccessContext
from repro.net.packet import Packet
from tests.conftest import make_env


def make_vpn(key=b"\x07" * 16):
    element = VPNEncrypt(key=key)
    element.initialize(make_env())
    return element


def test_encrypts_payload():
    element = make_vpn()
    payload = b"confidential data!!!"
    pkt = Packet.udp(src=1, dst=2, payload=payload)
    out = element.process(AccessContext(), pkt)
    assert out.payload != payload
    assert len(out.payload) == len(payload)
    assert element.bytes_encrypted == len(payload)


def test_ciphertext_is_decryptable():
    key = b"\x07" * 16
    element = make_vpn(key)
    payload = bytes(range(48))
    pkt = Packet.udp(src=1, dst=2, payload=payload)
    element.process(AccessContext(), pkt)
    # First packet: nonce 0, counter 0.
    recovered = ctr_crypt(AES128(key), nonce=0, counter0=0, data=pkt.payload)
    assert recovered == payload


def test_counter_advances_per_packet():
    element = make_vpn()
    p1 = Packet.udp(src=1, dst=2, payload=b"A" * 32)
    p2 = Packet.udp(src=1, dst=2, payload=b"A" * 32)
    element.process(AccessContext(), p1)
    element.process(AccessContext(), p2)
    # Same plaintext must not produce the same ciphertext (fresh keystream).
    assert p1.payload != p2.payload
    assert element.counter == 4


def test_empty_payload_is_noop_crypto():
    element = make_vpn()
    pkt = Packet.udp(src=1, dst=2, payload=b"")
    out = element.process(AccessContext(), pkt)
    assert out.payload == b""
    assert element.packets == 1


def test_records_payload_references():
    element = make_vpn()
    ctx = AccessContext()
    pkt = Packet.udp(src=1, dst=2, payload=b"B" * 128)
    # Bind the packet to a buffer so payload lines are attributable.
    env = make_env(seed=99)
    buf = env.space.domain(0).alloc(2048, "buf")
    pkt.buffer = buf
    element.process(ctx, pkt)
    buf_lines = set(range(buf.base >> 6, buf.end >> 6))
    assert any(line in buf_lines for line in ctx.lines_touched())


def test_random_key_when_unconfigured():
    env = make_env()
    a = VPNEncrypt()
    a.initialize(env)
    b = VPNEncrypt()
    b.initialize(make_env(seed=1234))
    assert a.cipher.key != b.cipher.key


def test_requires_initialize():
    with pytest.raises(RuntimeError):
        VPNEncrypt().process(AccessContext(), Packet.udp(src=1, dst=2))


def reference_encrypt(key, payloads):
    """The element's contract as a loop over the scalar reference."""
    cipher = AES128(key)
    packets = counter = 0
    out = []
    for payload in payloads:
        if payload:
            out.append(ctr_crypt(cipher, nonce=packets, counter0=counter,
                                 data=payload))
            counter += (len(payload) + 15) // 16
        else:
            out.append(payload)
        packets += 1
    return out, packets, counter


@given(sizes=st.lists(
    st.one_of(st.sampled_from([0, 1, 15, 16, 17, 256]),
              st.integers(min_value=0, max_value=300)),
    min_size=1, max_size=2 * KEYSTREAM_AHEAD + 5,
), fixed=st.booleans())
@settings(max_examples=40, deadline=None)
def test_property_matches_reference_loop(sizes, fixed):
    """Buffer hits (fixed size) and misses (varying size) both equal
    ctr_crypt with nonce = packet number and the running counter."""
    key = b"\x5a" * 16
    if fixed:
        sizes = [sizes[0]] * len(sizes)
    payloads = [bytes((7 * i + n) % 256 for i in range(n)) for n in sizes]
    expected, packets, counter = reference_encrypt(key, payloads)
    element = make_vpn(key)
    for payload, want in zip(payloads, expected):
        pkt = Packet.udp(src=1, dst=2, payload=payload)
        element.process(AccessContext(), pkt)
        assert type(pkt.payload) is bytes
        assert pkt.payload == want
    assert element.packets == packets
    assert element.counter == counter
    assert element.bytes_encrypted == sum(sizes)


def test_reinitialize_drops_keystream_of_old_key():
    element = VPNEncrypt()
    element.initialize(make_env(seed=1))
    element.process(AccessContext(), Packet.udp(src=1, dst=2, payload=b"x" * 64))
    element.initialize(make_env(seed=2))
    pkt = Packet.udp(src=1, dst=2, payload=b"x" * 64)
    element.process(AccessContext(), pkt)
    assert pkt.payload == ctr_crypt(element.cipher, nonce=1, counter0=4,
                                    data=b"x" * 64)


@pytest.mark.parametrize("size", [1, 16, 17, 256, 1500])
def test_charges_aes_cost_per_block(size):
    element = make_vpn()
    ctx = AccessContext()
    pkt = Packet.udp(src=1, dst=2, payload=b"C" * size)
    pkt.buffer = make_env(seed=3).space.domain(0).alloc(2048, "buf")
    element.process(ctx, pkt)
    n_blocks = (size + 15) // 16
    assert ctx.instructions == COST_AES_BLOCK[1] * n_blocks
    # Three context lines, then the payload lines read and written: all
    # of the compute sits before the first ciphertext write.
    n_payload_lines = (ctx.n_references - 3) // 2
    gaps = ctx.program[0::3]
    assert gaps[3 + n_payload_lines] == COST_AES_BLOCK[0] * n_blocks
    assert sum(gaps) == COST_AES_BLOCK[0] * n_blocks
