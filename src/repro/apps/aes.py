"""AES-128 block cipher (FIPS-197) and the batched CTR keystream kernel.

Used by the VPN application the way IPsec uses it: CTR-mode payload
encryption. Two implementations of the same cipher live here:

* :func:`ctr_keystream_batch` is the one the VPN element runs. CTR
  keystream depends only on the key, nonce and counter, never on the data,
  so it can be computed many packets ahead. The kernel encrypts every
  counter block of *K* packets at once with numpy, byte-sliced: the state
  is a ``(16, n_blocks)`` ``uint8`` array, SubBytes and the MixColumns
  products are 256-entry table lookups (S, 2·S and 3·S), ShiftRows is
  folded into the four row permutations MixColumns combines, and the round
  keys are the ``(11, 16)`` array :class:`AES128` builds once.
* :meth:`AES128.encrypt_block` (the classic four T-table formulation),
  :func:`aes_ctr_keystream` and :func:`ctr_crypt` are the scalar reference.
  They are verified against the FIPS-197 / SP 800-38A test vectors, and the
  tests check the batched kernel against them. Decryption implements the
  straightforward inverse cipher and exists so tests can round-trip.

Inside the timing simulation, the AES lookup tables are not emitted as
individual memory references: at 4 KB they are L1-resident on any
configuration and cannot contend for the shared L3, so their cost is
folded into the calibrated per-block compute cycles (see
``constants.COST_AES_BLOCK``). The *payload* lines the cipher reads and
writes are simulated.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

# -- S-boxes ------------------------------------------------------------------

_SBOX = [
    0x63, 0x7C, 0x77, 0x7B, 0xF2, 0x6B, 0x6F, 0xC5, 0x30, 0x01, 0x67, 0x2B,
    0xFE, 0xD7, 0xAB, 0x76, 0xCA, 0x82, 0xC9, 0x7D, 0xFA, 0x59, 0x47, 0xF0,
    0xAD, 0xD4, 0xA2, 0xAF, 0x9C, 0xA4, 0x72, 0xC0, 0xB7, 0xFD, 0x93, 0x26,
    0x36, 0x3F, 0xF7, 0xCC, 0x34, 0xA5, 0xE5, 0xF1, 0x71, 0xD8, 0x31, 0x15,
    0x04, 0xC7, 0x23, 0xC3, 0x18, 0x96, 0x05, 0x9A, 0x07, 0x12, 0x80, 0xE2,
    0xEB, 0x27, 0xB2, 0x75, 0x09, 0x83, 0x2C, 0x1A, 0x1B, 0x6E, 0x5A, 0xA0,
    0x52, 0x3B, 0xD6, 0xB3, 0x29, 0xE3, 0x2F, 0x84, 0x53, 0xD1, 0x00, 0xED,
    0x20, 0xFC, 0xB1, 0x5B, 0x6A, 0xCB, 0xBE, 0x39, 0x4A, 0x4C, 0x58, 0xCF,
    0xD0, 0xEF, 0xAA, 0xFB, 0x43, 0x4D, 0x33, 0x85, 0x45, 0xF9, 0x02, 0x7F,
    0x50, 0x3C, 0x9F, 0xA8, 0x51, 0xA3, 0x40, 0x8F, 0x92, 0x9D, 0x38, 0xF5,
    0xBC, 0xB6, 0xDA, 0x21, 0x10, 0xFF, 0xF3, 0xD2, 0xCD, 0x0C, 0x13, 0xEC,
    0x5F, 0x97, 0x44, 0x17, 0xC4, 0xA7, 0x7E, 0x3D, 0x64, 0x5D, 0x19, 0x73,
    0x60, 0x81, 0x4F, 0xDC, 0x22, 0x2A, 0x90, 0x88, 0x46, 0xEE, 0xB8, 0x14,
    0xDE, 0x5E, 0x0B, 0xDB, 0xE0, 0x32, 0x3A, 0x0A, 0x49, 0x06, 0x24, 0x5C,
    0xC2, 0xD3, 0xAC, 0x62, 0x91, 0x95, 0xE4, 0x79, 0xE7, 0xC8, 0x37, 0x6D,
    0x8D, 0xD5, 0x4E, 0xA9, 0x6C, 0x56, 0xF4, 0xEA, 0x65, 0x7A, 0xAE, 0x08,
    0xBA, 0x78, 0x25, 0x2E, 0x1C, 0xA6, 0xB4, 0xC6, 0xE8, 0xDD, 0x74, 0x1F,
    0x4B, 0xBD, 0x8B, 0x8A, 0x70, 0x3E, 0xB5, 0x66, 0x48, 0x03, 0xF6, 0x0E,
    0x61, 0x35, 0x57, 0xB9, 0x86, 0xC1, 0x1D, 0x9E, 0xE1, 0xF8, 0x98, 0x11,
    0x69, 0xD9, 0x8E, 0x94, 0x9B, 0x1E, 0x87, 0xE9, 0xCE, 0x55, 0x28, 0xDF,
    0x8C, 0xA1, 0x89, 0x0D, 0xBF, 0xE6, 0x42, 0x68, 0x41, 0x99, 0x2D, 0x0F,
    0xB0, 0x54, 0xBB, 0x16,
]

_INV_SBOX = [0] * 256
for _i, _v in enumerate(_SBOX):
    _INV_SBOX[_v] = _i


def _xtime(a: int) -> int:
    a <<= 1
    if a & 0x100:
        a ^= 0x11B
    return a & 0xFF


def _gmul(a: int, b: int) -> int:
    """GF(2^8) multiplication."""
    result = 0
    for _ in range(8):
        if b & 1:
            result ^= a
        b >>= 1
        a = _xtime(a)
    return result


# T-tables: Te0[x] = (S[x].2, S[x], S[x], S[x].3) packed big-endian.
_TE0: List[int] = []
for _x in range(256):
    _s = _SBOX[_x]
    _TE0.append(
        (_gmul(_s, 2) << 24) | (_s << 16) | (_s << 8) | _gmul(_s, 3)
    )
_TE1 = [((t >> 8) | ((t & 0xFF) << 24)) & 0xFFFFFFFF for t in _TE0]
_TE2 = [((t >> 8) | ((t & 0xFF) << 24)) & 0xFFFFFFFF for t in _TE1]
_TE3 = [((t >> 8) | ((t & 0xFF) << 24)) & 0xFFFFFFFF for t in _TE2]

_RCON = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1B, 0x36]

# Byte-sliced tables for the batched kernel: S[x], 2·S[x] and 3·S[x].
_S1 = np.array(_SBOX, dtype=np.uint8)
_S2 = np.array([_xtime(s) for s in _SBOX], dtype=np.uint8)
_S3 = _S2 ^ _S1

# State byte 4c + r is row r, column c. MixColumns makes row r of column c
# from rows r, r+1, r+2, r+3 (weights 2, 3, 1, 1) of the ShiftRows output,
# whose row r' at column c is input byte 4*((c + r') % 4) + r'. _MIX[k]
# gathers, for every output byte, the input byte feeding it with weight k.
_MIX = np.array(
    [[4 * ((c + (r + k) % 4) % 4) + (r + k) % 4
      for c in range(4) for r in range(4)] for k in range(4)],
    dtype=np.intp,
)

_MASK64 = (1 << 64) - 1


class AES128:
    """AES with a 128-bit key: 10 rounds, 4-word round keys."""

    BLOCK_SIZE = 16

    def __init__(self, key: bytes):
        if len(key) != 16:
            raise ValueError("AES-128 requires a 16-byte key")
        self.key = key
        self._rk = self._expand_key(key)
        # Round key r as 16 state bytes, for the batched kernel.
        self.round_keys = np.frombuffer(
            b"".join(w.to_bytes(4, "big") for w in self._rk), dtype=np.uint8
        ).reshape(11, 16)

    @staticmethod
    def _expand_key(key: bytes) -> List[int]:
        """FIPS-197 key expansion into 44 32-bit words."""
        words = [int.from_bytes(key[i:i + 4], "big") for i in range(0, 16, 4)]
        for i in range(4, 44):
            temp = words[i - 1]
            if i % 4 == 0:
                temp = ((temp << 8) | (temp >> 24)) & 0xFFFFFFFF  # RotWord
                temp = (
                    (_SBOX[(temp >> 24) & 0xFF] << 24)
                    | (_SBOX[(temp >> 16) & 0xFF] << 16)
                    | (_SBOX[(temp >> 8) & 0xFF] << 8)
                    | _SBOX[temp & 0xFF]
                )
                temp ^= _RCON[i // 4 - 1] << 24
            words.append(words[i - 4] ^ temp)
        return words

    # -- encryption (T-table fast path) ---------------------------------------

    def encrypt_block(self, block: bytes) -> bytes:
        """Encrypt one 16-byte block."""
        if len(block) != 16:
            raise ValueError("block must be 16 bytes")
        rk = self._rk
        s0 = int.from_bytes(block[0:4], "big") ^ rk[0]
        s1 = int.from_bytes(block[4:8], "big") ^ rk[1]
        s2 = int.from_bytes(block[8:12], "big") ^ rk[2]
        s3 = int.from_bytes(block[12:16], "big") ^ rk[3]
        te0, te1, te2, te3 = _TE0, _TE1, _TE2, _TE3
        k = 4
        for _ in range(9):
            t0 = (te0[s0 >> 24] ^ te1[(s1 >> 16) & 0xFF]
                  ^ te2[(s2 >> 8) & 0xFF] ^ te3[s3 & 0xFF] ^ rk[k])
            t1 = (te0[s1 >> 24] ^ te1[(s2 >> 16) & 0xFF]
                  ^ te2[(s3 >> 8) & 0xFF] ^ te3[s0 & 0xFF] ^ rk[k + 1])
            t2 = (te0[s2 >> 24] ^ te1[(s3 >> 16) & 0xFF]
                  ^ te2[(s0 >> 8) & 0xFF] ^ te3[s1 & 0xFF] ^ rk[k + 2])
            t3 = (te0[s3 >> 24] ^ te1[(s0 >> 16) & 0xFF]
                  ^ te2[(s1 >> 8) & 0xFF] ^ te3[s2 & 0xFF] ^ rk[k + 3])
            s0, s1, s2, s3 = t0, t1, t2, t3
            k += 4
        sbox = _SBOX
        out = bytearray(16)
        for i, (a, b, c, d) in enumerate(
            ((s0, s1, s2, s3), (s1, s2, s3, s0), (s2, s3, s0, s1),
             (s3, s0, s1, s2))
        ):
            w = rk[40 + i]
            out[4 * i] = sbox[a >> 24] ^ (w >> 24) & 0xFF
            out[4 * i + 1] = sbox[(b >> 16) & 0xFF] ^ (w >> 16) & 0xFF
            out[4 * i + 2] = sbox[(c >> 8) & 0xFF] ^ (w >> 8) & 0xFF
            out[4 * i + 3] = sbox[d & 0xFF] ^ w & 0xFF
        return bytes(out)

    # -- decryption (straightforward inverse cipher; tests only) ---------------

    def decrypt_block(self, block: bytes) -> bytes:
        """Decrypt one 16-byte block (inverse cipher, unoptimized)."""
        if len(block) != 16:
            raise ValueError("block must be 16 bytes")
        state = [
            [block[r + 4 * c] for c in range(4)] for r in range(4)
        ]
        rk = self._rk

        def add_round_key(rnd: int) -> None:
            for c in range(4):
                w = rk[4 * rnd + c]
                for r in range(4):
                    state[r][c] ^= (w >> (24 - 8 * r)) & 0xFF

        def inv_shift_rows() -> None:
            for r in range(1, 4):
                state[r] = state[r][-r:] + state[r][:-r]

        def inv_sub_bytes() -> None:
            for r in range(4):
                for c in range(4):
                    state[r][c] = _INV_SBOX[state[r][c]]

        def inv_mix_columns() -> None:
            for c in range(4):
                col = [state[r][c] for r in range(4)]
                state[0][c] = (_gmul(col[0], 14) ^ _gmul(col[1], 11)
                               ^ _gmul(col[2], 13) ^ _gmul(col[3], 9))
                state[1][c] = (_gmul(col[0], 9) ^ _gmul(col[1], 14)
                               ^ _gmul(col[2], 11) ^ _gmul(col[3], 13))
                state[2][c] = (_gmul(col[0], 13) ^ _gmul(col[1], 9)
                               ^ _gmul(col[2], 14) ^ _gmul(col[3], 11))
                state[3][c] = (_gmul(col[0], 11) ^ _gmul(col[1], 13)
                               ^ _gmul(col[2], 9) ^ _gmul(col[3], 14))

        add_round_key(10)
        for rnd in range(9, 0, -1):
            inv_shift_rows()
            inv_sub_bytes()
            add_round_key(rnd)
            inv_mix_columns()
        inv_shift_rows()
        inv_sub_bytes()
        add_round_key(0)
        return bytes(state[r % 4][r // 4] for r in range(16))


def aes_ctr_keystream(cipher: AES128, nonce: int, counter0: int,
                      n_bytes: int) -> bytes:
    """CTR keystream: E(nonce || counter) for as many blocks as needed."""
    if n_bytes < 0:
        raise ValueError("n_bytes must be non-negative")
    out = bytearray()
    counter = counter0
    while len(out) < n_bytes:
        block = nonce.to_bytes(8, "big") + (counter & 0xFFFFFFFFFFFFFFFF).to_bytes(8, "big")
        out.extend(cipher.encrypt_block(block))
        counter += 1
    return bytes(out[:n_bytes])


def ctr_crypt(cipher: AES128, nonce: int, counter0: int, data: bytes) -> bytes:
    """Encrypt/decrypt ``data`` in CTR mode (the operation is symmetric)."""
    ks = aes_ctr_keystream(cipher, nonce, counter0, len(data))
    return bytes(a ^ b for a, b in zip(data, ks))


def ctr_keystream_batch(cipher: AES128, nonces: Sequence[int],
                        counters: Sequence[int], n_blocks: int) -> bytes:
    """CTR keystream of ``n_blocks`` blocks for each of several packets.

    Packet ``i`` uses the counter blocks ``nonces[i] || counters[i] + j``
    (the counter modulo 2**64) for ``j < n_blocks``, like
    :func:`aes_ctr_keystream`. Returns the packets' keystreams back to back,
    ``16 * n_blocks`` bytes each. Rejects what the reference rejects: a
    negative length, and a nonce outside 64 bits when there is a block to
    encrypt.
    """
    if n_blocks < 0:
        raise ValueError("n_blocks must be non-negative")
    if len(nonces) != len(counters):
        raise ValueError("need one counter per nonce")
    if n_blocks == 0 or not nonces:
        return b""
    k = len(nonces)
    blocks = np.empty((k, n_blocks, 16), dtype=np.uint8)
    blocks[:, :, :8] = np.frombuffer(
        b"".join(n.to_bytes(8, "big") for n in nonces), dtype=np.uint8
    ).reshape(k, 1, 8)
    # Array arithmetic wraps modulo 2**64 like the reference's mask.
    ctr = (np.array([c & _MASK64 for c in counters], dtype=np.uint64)[:, None]
           + np.arange(n_blocks, dtype=np.uint64))
    blocks[:, :, 8:] = ctr.astype(">u8").view(np.uint8).reshape(k, n_blocks, 8)
    rk = cipher.round_keys[:, :, None]
    state = blocks.reshape(-1, 16).T ^ rk[0]
    for rnd in range(1, 10):
        # take() is about twice as fast as fancy indexing here.
        s1, s2, s3 = _S1.take(state), _S2.take(state), _S3.take(state)
        state = (s2[_MIX[0]] ^ s3[_MIX[1]] ^ s1[_MIX[2]] ^ s1[_MIX[3]]
                 ^ rk[rnd])
    state = _S1.take(state)[_MIX[0]] ^ rk[10]
    return state.T.tobytes()
