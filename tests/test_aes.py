"""AES-128 against the FIPS-197 / SP 800-38A vectors."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.apps.aes import (
    AES128,
    aes_ctr_keystream,
    ctr_crypt,
    ctr_keystream_batch,
)

MAX64 = 2**64 - 1
#: Counters drawn anywhere in 64 bits, or within a few blocks of the wrap.
counters64 = st.one_of(
    st.integers(min_value=0, max_value=MAX64),
    st.integers(min_value=MAX64 - 100, max_value=MAX64),
)


def test_fips197_appendix_b():
    key = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
    plaintext = bytes.fromhex("3243f6a8885a308d313198a2e0370734")
    expected = bytes.fromhex("3925841d02dc09fbdc118597196a0b32")
    assert AES128(key).encrypt_block(plaintext) == expected


def test_fips197_appendix_c1():
    key = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
    plaintext = bytes.fromhex("00112233445566778899aabbccddeeff")
    expected = bytes.fromhex("69c4e0d86a7b0430d8cdb78070b4c55a")
    cipher = AES128(key)
    assert cipher.encrypt_block(plaintext) == expected
    assert cipher.decrypt_block(expected) == plaintext


def test_sp800_38a_ecb_vectors():
    key = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
    cipher = AES128(key)
    vectors = [
        ("6bc1bee22e409f96e93d7e117393172a",
         "3ad77bb40d7a3660a89ecaf32466ef97"),
        ("ae2d8a571e03ac9c9eb76fac45af8e51",
         "f5d3d58503b9699de785895a96fdbaaf"),
        ("30c81c46a35ce411e5fbc1191a0a52ef",
         "43b1cd7f598ece23881b00e3ed030688"),
        ("f69f2445df4f9b17ad2b417be66c3710",
         "7b0c785e27e8ad3f8223207104725dd4"),
    ]
    for pt_hex, ct_hex in vectors:
        assert cipher.encrypt_block(bytes.fromhex(pt_hex)) == \
            bytes.fromhex(ct_hex)


def test_sp800_38a_ctr_vector():
    # SP 800-38A F.5.1 CTR-AES128.Encrypt, first block.
    key = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
    counter_block = bytes.fromhex("f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff")
    plaintext = bytes.fromhex("6bc1bee22e409f96e93d7e117393172a")
    expected = bytes.fromhex("874d6191b620e3261bef6864990db6ce")
    ks = AES128(key).encrypt_block(counter_block)
    ct = bytes(a ^ b for a, b in zip(plaintext, ks))
    assert ct == expected


def test_key_length_validated():
    with pytest.raises(ValueError):
        AES128(b"short")


def test_block_length_validated():
    cipher = AES128(b"\x00" * 16)
    with pytest.raises(ValueError):
        cipher.encrypt_block(b"\x00" * 15)
    with pytest.raises(ValueError):
        cipher.decrypt_block(b"\x00" * 17)


@given(key=st.binary(min_size=16, max_size=16),
       block=st.binary(min_size=16, max_size=16))
@settings(max_examples=30, deadline=None)
def test_property_decrypt_inverts_encrypt(key, block):
    cipher = AES128(key)
    assert cipher.decrypt_block(cipher.encrypt_block(block)) == block


@given(key=st.binary(min_size=16, max_size=16),
       data=st.binary(max_size=200),
       nonce=st.integers(min_value=0, max_value=MAX64),
       counter0=counters64)
@settings(max_examples=20, deadline=None)
def test_property_ctr_is_symmetric(key, data, nonce, counter0):
    cipher = AES128(key)
    ct = ctr_crypt(cipher, nonce, counter0, data)
    assert ctr_crypt(cipher, nonce, counter0, ct) == data
    # Block j is the plaintext XOR E(nonce || counter0 + j mod 2**64).
    for j in range(0, len(data), 16):
        counter = (counter0 + j // 16) & MAX64
        ks = cipher.encrypt_block(nonce.to_bytes(8, "big")
                                  + counter.to_bytes(8, "big"))
        assert ct[j:j + 16] == bytes(
            a ^ b for a, b in zip(data[j:j + 16], ks))


def test_ctr_keystream_length_and_determinism():
    cipher = AES128(b"\x01" * 16)
    ks1 = aes_ctr_keystream(cipher, nonce=5, counter0=0, n_bytes=33)
    ks2 = aes_ctr_keystream(cipher, nonce=5, counter0=0, n_bytes=33)
    assert len(ks1) == 33
    assert ks1 == ks2
    ks3 = aes_ctr_keystream(cipher, nonce=6, counter0=0, n_bytes=33)
    assert ks3 != ks1


def test_ctr_keystream_rejects_negative():
    with pytest.raises(ValueError):
        aes_ctr_keystream(AES128(b"\x00" * 16), 0, 0, -1)


def test_avalanche():
    cipher = AES128(b"\x00" * 16)
    a = cipher.encrypt_block(b"\x00" * 16)
    b = cipher.encrypt_block(b"\x00" * 15 + b"\x01")
    differing = sum(bin(x ^ y).count("1") for x, y in zip(a, b))
    assert differing > 30  # roughly half of 128 bits flip


def test_round_keys_match_fips197_appendix_a1():
    cipher = AES128(bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c"))
    assert cipher.round_keys.shape == (11, 16)
    assert cipher.round_keys[0].tobytes() == cipher.key
    assert cipher.round_keys[10].tobytes() == bytes.fromhex(
        "d014f9a8c9ee2589e13f0cc8b6630ca6")


@given(key=st.binary(min_size=16, max_size=16),
       n_bytes=st.one_of(st.sampled_from([0, 1, 15, 16, 17]),
                         st.integers(min_value=0, max_value=1500)),
       packets=st.lists(st.tuples(st.integers(min_value=0, max_value=MAX64),
                                  counters64),
                        min_size=1, max_size=4))
@settings(max_examples=60, deadline=None)
def test_property_batch_keystream_equals_reference(key, n_bytes, packets):
    cipher = AES128(key)
    n_blocks = (n_bytes + 15) // 16
    nonces = [nonce for nonce, _ in packets]
    counters = [counter for _, counter in packets]
    out = ctr_keystream_batch(cipher, nonces, counters, n_blocks)
    assert len(out) == len(packets) * n_blocks * 16
    for i, (nonce, counter0) in enumerate(packets):
        row = out[i * n_blocks * 16:(i + 1) * n_blocks * 16]
        assert row[:n_bytes] == aes_ctr_keystream(cipher, nonce, counter0,
                                                  n_bytes)


def test_batch_keystream_fips_counter_block():
    # SP 800-38A F.5.1: counter block f0f1...f7 || f8f9...ff.
    cipher = AES128(bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c"))
    ks = ctr_keystream_batch(cipher, [0xF0F1F2F3F4F5F6F7],
                             [0xF8F9FAFBFCFDFEFF], 1)
    plaintext = bytes.fromhex("6bc1bee22e409f96e93d7e117393172a")
    assert bytes(a ^ b for a, b in zip(plaintext, ks)) == bytes.fromhex(
        "874d6191b620e3261bef6864990db6ce")


@pytest.mark.parametrize("nonce,n_bytes,n_blocks", [
    (0, -1, -1),
    (0, -16, -1),
    (-1, 16, 1),
    (2**64, 1, 1),
    (2**70, 1500, 94),
])
def test_batch_keystream_rejects_what_reference_rejects(nonce, n_bytes,
                                                        n_blocks):
    cipher = AES128(b"\x03" * 16)
    with pytest.raises(Exception) as ref:
        aes_ctr_keystream(cipher, nonce, 0, n_bytes)
    with pytest.raises(ref.type):
        ctr_keystream_batch(cipher, [nonce], [0], n_blocks)


@pytest.mark.parametrize("nonce", [-1, 2**64])
def test_batch_keystream_accepts_what_reference_accepts(nonce):
    # With nothing to encrypt, neither checks the nonce.
    cipher = AES128(b"\x03" * 16)
    assert aes_ctr_keystream(cipher, nonce, 0, 0) == b""
    assert ctr_keystream_batch(cipher, [nonce], [0], 0) == b""


def test_batch_keystream_needs_one_counter_per_nonce():
    with pytest.raises(ValueError):
        ctr_keystream_batch(AES128(b"\x03" * 16), [0, 1], [0], 1)
