"""VPN: AES-128 payload encryption (the paper's CPU-intensive flow).

"Each packet is subjected to full IP forwarding, NetFlow and AES-128
encryption." The element really encrypts the payload (CTR mode, nonce =
packet number, per-flow block counter). The keystream comes from
:func:`repro.apps.aes.ctr_keystream_batch`, computed ``KEYSTREAM_AHEAD``
packets at a time; the ciphertext is byte-identical to the scalar
reference :func:`repro.apps.aes.ctr_crypt` with the same nonce and counter.
The AES lookup tables are L1-resident and folded into the calibrated
per-block compute cost; the payload lines the cipher reads and writes are
mirrored into simulated memory.
"""

from __future__ import annotations

from typing import Optional

from ..constants import COST_AES_BLOCK
from ..hw.machine import FlowEnv
from ..mem.access import AccessContext, TAGS
from ..click.element import Element
from ..net.packet import Packet
from .aes import AES128, ctr_keystream_batch

#: Packets of keystream computed per kernel call. A numpy kernel call costs
#: ~100 us however little it encrypts, so batching is the whole gain. Per
#: 256-byte packet against the scalar reference (2-vCPU Xeon VM): one
#: packet per call is 2.2x faster, 16 per call 17x, 32 per call 21x and 64
#: per call 25x; 16 bytes per call is 5x slower. A flow-run wastes at most
#: KEYSTREAM_AHEAD - 1 packets of keystream.
KEYSTREAM_AHEAD = 32


class VPNEncrypt(Element):
    """Encrypt the packet payload under a per-flow AES-128 key."""

    def __init__(self, key: Optional[bytes] = None):
        self._cfg_key = key
        self.cipher: AES128 = None  # type: ignore[assignment]
        self.context_region = None
        self.counter = 0
        self.packets = 0
        self.bytes_encrypted = 0
        self._tag = TAGS.register("vpn_payload")
        self._tag_ctx = TAGS.register("vpn_context")

    def initialize(self, env: FlowEnv) -> None:
        key = self._cfg_key if self._cfg_key is not None else env.rng.randbytes(16)
        self.cipher = AES128(key)
        # Keystream of packets _ks_nonce, _ks_nonce + 1, ... under this key:
        # packet _ks_nonce + i is assumed to start at block counter
        # _ks_counter + i * _ks_blocks and to need at most _ks_blocks blocks.
        self._ks = b""
        self._ks_nonce = self._ks_counter = self._ks_blocks = 0
        # Security-association state: round keys + nonce/counter (hot lines).
        self.context_region = env.space.domain(env.domain).alloc(
            256, "vpn.context"
        )

    def _keystream(self, n_blocks: int) -> bytes:
        """Keystream for this packet (nonce ``packets``, ``counter``)."""
        i = self.packets - self._ks_nonce
        if not (0 <= i < KEYSTREAM_AHEAD and n_blocks <= self._ks_blocks
                and self.counter == self._ks_counter + i * self._ks_blocks):
            self._ks = ctr_keystream_batch(
                self.cipher,
                range(self.packets, self.packets + KEYSTREAM_AHEAD),
                [self.counter + j * n_blocks for j in range(KEYSTREAM_AHEAD)],
                n_blocks,
            )
            self._ks_nonce, self._ks_counter = self.packets, self.counter
            self._ks_blocks = n_blocks
            i = 0
        start = i * self._ks_blocks * 16
        return self._ks[start:start + n_blocks * 16]

    def process(self, ctx: AccessContext, packet: Packet) -> Packet:
        if self.cipher is None:
            raise RuntimeError("VPNEncrypt used before initialize()")
        payload = packet.payload
        ctx.touch(self.context_region, 0, 192, self._tag_ctx)
        if payload:
            size = len(payload)
            n_blocks = (size + 15) // 16
            # Read plaintext, encrypt, write ciphertext back.
            if packet.buffer is not None:
                ctx.touch(packet.buffer, packet.header_bytes, size, self._tag)
            ctx.compute(COST_AES_BLOCK[0] * n_blocks,
                        COST_AES_BLOCK[1] * n_blocks)
            keystream = self._keystream(n_blocks)[:size]
            packet.payload = (
                int.from_bytes(payload, "big")
                ^ int.from_bytes(keystream, "big")
            ).to_bytes(size, "big")
            self.counter += n_blocks
            if packet.buffer is not None:
                ctx.touch(packet.buffer, packet.header_bytes, size, self._tag)
            self.bytes_encrypted += size
        self.packets += 1
        return packet
