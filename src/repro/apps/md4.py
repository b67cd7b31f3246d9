"""`md4` — 128-bit digital signatures over packet payloads.

The paper: "It moves data packets from SDRAM to SRAM and accesses SRAM
multiple times for computation.  It is therefore both memory and
computation intensive."  The model:

receive
    parse; store the packet to SDRAM; then per 64-byte MD4 block: fetch
    the block from SDRAM, stage it into SRAM, read it back for the
    compute rounds (the "accesses SRAM multiple times"), and charge the
    48-step MD4 round cost; finally write the 16-byte digest to SRAM and
    enqueue.  Block count uses the real RFC 1320 padding rule.
transmit
    standard descriptor + SDRAM fetch + MAC handoff.

The model charges the digest's cost; it never computes the digest.
"""

from __future__ import annotations

from typing import List

from repro.apps.base import (
    CHUNK_BYTES,
    AppModel,
    AppProfile,
    AppResources,
    chunks_of,
    register_app,
)
from repro.apps.md4_core import OPS_PER_BLOCK, md4_blocks_for
from repro.npu.steps import Compute, MemRead, MemWrite, PutTx, Step
from repro.traffic.packet import Packet

#: md4's cost profile.
MD4_PROFILE = AppProfile(
    rx_header_instr=200,
    rx_chunk_instr=100,
    rx_finish_instr=150,
    lookup_step_instr=20,
    enqueue_instr=30,
    tx_header_instr=50,
    tx_chunk_instr=60,
    tx_finish_instr=40,
)

#: Digest bytes written back to SRAM.
DIGEST_BYTES = 16


class Md4App(AppModel):
    """Per-packet MD4 signatures: memory- and compute-intensive."""

    name = "md4"

    def __init__(self, resources: AppResources, profile=None):
        super().__init__(resources, profile or MD4_PROFILE)
        self.blocks_hashed = 0

    def rx_steps(self, packet: Packet) -> List[Step]:
        # The stream's shape is the chunk count and the RFC 1320 block
        # count; ``blocks_hashed`` commutes, so the stream is pure.
        blocks = md4_blocks_for(packet.payload_bytes_len)
        self.blocks_hashed += blocks
        packet.output_port = packet.input_port
        key = (chunks_of(packet.size_bytes), blocks)
        steps = self._rx_steps_memo.get(key)
        if steps is None:
            steps = self._rx_steps_memo[key] = self._rx_shape(*key)
        return steps

    def _rx_shape(self, nchunks: int, blocks: int) -> List[Step]:
        profile = self.profile
        steps: List[Step] = [Compute(profile.rx_header_instr)]
        # Store the packet to SDRAM.
        for _ in range(nchunks):
            steps.append(Compute(profile.rx_chunk_instr))
            steps.append(MemWrite("sdram", CHUNK_BYTES))
        # Hash the payload block by block: SDRAM -> SRAM -> rounds.
        for _ in range(blocks):
            steps += (
                MemRead("sdram", CHUNK_BYTES),
                MemWrite("sram", CHUNK_BYTES),
                MemRead("sram", CHUNK_BYTES),
                Compute(OPS_PER_BLOCK),
            )
        # Digest write-back and descriptor enqueue.
        steps += (
            MemWrite("sram", DIGEST_BYTES),
            Compute(profile.rx_finish_instr),
            MemWrite("scratch", 8),
            Compute(profile.enqueue_instr),
            PutTx(),
        )
        return steps

    def tx_steps(self, packet: Packet) -> List[Step]:
        return self._standard_tx_steps(packet, fetch_sdram=True)


register_app("md4", Md4App)
