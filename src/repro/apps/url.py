"""`url` — URL-request-based routing.

The paper: "It checks the payload of packets frequently, so it needs a
large number of SRAM and SDRAM accesses" — the most memory-intensive of
the four benchmarks.  The model:

receive
    parse the header; store the packet to SDRAM; then *re-read* every
    payload chunk back from SDRAM and scan it for a URL token (heavy
    per-chunk compute); probe the SRAM URL table (a few hash probes);
    route on the match; enqueue the descriptor.
transmit
    standard descriptor + SDRAM fetch + MAC handoff.
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
from repro.npu.steps import Compute, MemRead, MemWrite, PutTx, Step
from repro.traffic.packet import Packet

#: SRAM bytes per URL-table probe (one bucket record).
URL_BUCKET_BYTES = 16
#: Number of hash probes per lookup.
URL_PROBES = 3
#: SDRAM bytes of the route/port information block.
PORT_INFO_BYTES = 8

#: url's cost profile: payload scanning dominates.
URL_PROFILE = AppProfile(
    rx_header_instr=250,
    rx_chunk_instr=130,
    rx_finish_instr=120,
    lookup_step_instr=30,
    enqueue_instr=30,
    tx_header_instr=50,
    tx_chunk_instr=60,
    tx_finish_instr=40,
)

#: Instructions per payload chunk scanned for the URL token (~2.7/byte).
SCAN_CHUNK_INSTR = 170


class UrlApp(AppModel):
    """URL routing: payload scanning plus SRAM hash-table probing."""

    name = "url"

    def __init__(self, resources: AppResources, profile=None):
        super().__init__(resources, profile or URL_PROFILE)
        self._route_rng = resources.rng_streams.get("apps.url.routes")
        self.scanned_chunks = 0

    def rx_steps(self, packet: Packet) -> List[Step]:
        # Pattern scans only bump a commutative counter and the route is
        # a pure function of the packet, so the stream is pure: its shape
        # is the stored and the scanned chunk counts.
        payload_chunks = chunks_of(packet.payload_bytes_len)
        self.scanned_chunks += payload_chunks
        # Route on the (deterministic per-flow) match.
        packet.output_port = packet.flow_id % self.resources.num_ports
        key = (chunks_of(packet.size_bytes), payload_chunks)
        steps = self._rx_steps_memo.get(key)
        if steps is None:
            steps = self._rx_steps_memo[key] = self._rx_shape(*key)
        return steps

    def _rx_shape(self, nchunks: int, payload_chunks: int) -> List[Step]:
        profile = self.profile
        steps: List[Step] = [Compute(profile.rx_header_instr)]
        # Store the packet to SDRAM...
        for _ in range(nchunks):
            steps.append(Compute(profile.rx_chunk_instr))
            steps.append(MemWrite("sdram", CHUNK_BYTES))
        # ...then read the payload back chunk by chunk and scan it.
        for _ in range(payload_chunks):
            steps.append(MemRead("sdram", CHUNK_BYTES))
            steps.append(Compute(SCAN_CHUNK_INSTR))
        # Probe the URL table in SRAM.
        for _ in range(URL_PROBES):
            steps.append(MemRead("sram", URL_BUCKET_BYTES))
            steps.append(Compute(profile.lookup_step_instr))
        steps += (
            MemRead("sdram", PORT_INFO_BYTES),
            Compute(profile.rx_finish_instr),
            MemWrite("scratch", 8),
            Compute(profile.enqueue_instr),
            PutTx(),
        )
        return steps

    def tx_steps(self, packet: Packet) -> List[Step]:
        return self._standard_tx_steps(packet, fetch_sdram=True)


register_app("url", UrlApp)
