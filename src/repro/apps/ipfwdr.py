"""`ipfwdr` — IP forwarding (Intel SDK reference application).

Per packet, the paper's description: "The routing table is stored in the
SRAM and the output port information is stored in the SDRAM."  The model:

receive
    parse/validate the header; store the packet to SDRAM in 64-byte
    chunks; walk the SRAM routing trie (one SRAM read per trie node
    visited — real LPM depth from the actual destination address); read
    the output-port info block from SDRAM; enqueue the descriptor.
transmit
    read the descriptor, fetch the packet back from SDRAM chunk by
    chunk, hand off to the MAC.
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
from repro.apps.routing import RoutingTrie, routing_trie_for, strides_for_depth
from repro.npu.steps import Compute, MemRead, MemWrite, PutTx, Step
from repro.traffic.packet import Packet

#: SRAM bytes read per trie-walk step (one node record).
TRIE_NODE_BYTES = 4
#: SDRAM bytes of the output-port information block.
PORT_INFO_BYTES = 8

#: ipfwdr's cost profile (see AppProfile for field meanings).  Receive
#: compute is light (forwarding is table-driven), so under load the
#: SDRAM waits dominate each thread's cycle — the source of the 30-40 %
#: receive-ME idle windows the paper observes and EDVS exploits.
IPFWDR_PROFILE = AppProfile(
    rx_header_instr=300,
    rx_chunk_instr=90,
    rx_finish_instr=120,
    lookup_step_instr=15,
    enqueue_instr=30,
    tx_header_instr=50,
    tx_chunk_instr=60,
    tx_finish_instr=40,
)


class IpfwdrApp(AppModel):
    """IP forwarding over a real longest-prefix-match trie."""

    name = "ipfwdr"

    def __init__(self, resources: AppResources, profile=None):
        super().__init__(resources, profile or IPFWDR_PROFILE)
        self.trie: RoutingTrie = routing_trie_for(resources)
        self.lookups = 0
        self.total_lookup_depth = 0

    def rx_steps(self, packet: Packet) -> List[Step]:
        # The trie lookup is read-only, so the stream is pure: its shape
        # is the chunk count and the LPM walk's stride count.
        port, depth = self.trie.lookup(packet.dst_ip)
        self.lookups += 1
        self.total_lookup_depth += depth
        packet.output_port = port
        key = (chunks_of(packet.size_bytes), strides_for_depth(depth))
        steps = self._rx_steps_memo.get(key)
        if steps is None:
            steps = self._rx_steps_memo[key] = self._rx_shape(*key)
        return steps

    def _rx_shape(self, nchunks: int, strides: int) -> List[Step]:
        profile = self.profile
        steps: List[Step] = [Compute(profile.rx_header_instr)]
        # Move the packet RFIFO -> SDRAM, 64 bytes at a time.
        for _ in range(nchunks):
            steps.append(Compute(profile.rx_chunk_instr))
            steps.append(MemWrite("sdram", CHUNK_BYTES))
        # LPM walk: one SRAM read per 8-bit stride of the match depth.
        for _ in range(strides):
            steps.append(MemRead("sram", TRIE_NODE_BYTES))
            steps.append(Compute(profile.lookup_step_instr))
        steps += (
            # Output-port information lives in SDRAM.
            MemRead("sdram", PORT_INFO_BYTES),
            Compute(profile.rx_finish_instr),
            # Descriptor enqueue through the scratchpad ring.
            MemWrite("scratch", 8),
            Compute(profile.enqueue_instr),
            PutTx(),
        )
        return steps

    def tx_steps(self, packet: Packet) -> List[Step]:
        return self._standard_tx_steps(packet, fetch_sdram=True)

    @property
    def mean_lookup_depth(self) -> float:
        """Average trie-walk depth so far (SRAM reads per packet)."""
        if self.lookups == 0:
            return 0.0
        return self.total_lookup_depth / self.lookups


register_app("ipfwdr", IpfwdrApp)
