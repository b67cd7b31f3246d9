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

from typing import Iterator

from repro.apps.base import (
    CHUNK_BYTES,
    AppModel,
    AppProfile,
    AppResources,
    chunks_of,
    register_app,
)
from repro.apps.routing import RoutingTrie, random_routing_trie, strides_for_depth
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

    # Pure streams: trie lookups are read-only and the per-packet
    # counters commute, so both sides may be materialized.
    materialize_rx = True
    materialize_tx = True

    def __init__(self, resources: AppResources, profile=None):
        super().__init__(resources, profile or IPFWDR_PROFILE)
        if resources.routing_trie is None:
            resources.routing_trie = random_routing_trie(
                resources.rng_streams.get("apps.routing"),
                num_prefixes=256,
                num_ports=resources.num_ports,
            )
        self.trie: RoutingTrie = resources.routing_trie
        self.lookups = 0
        self.total_lookup_depth = 0

    def rx_steps(self, packet: Packet) -> Iterator[Step]:
        profile = self.profile
        yield Compute(profile.rx_header_instr)
        # Move the packet RFIFO -> SDRAM, 64 bytes at a time.
        for _ in range(chunks_of(packet.size_bytes)):
            yield Compute(profile.rx_chunk_instr)
            yield MemWrite("sdram", CHUNK_BYTES)
        # LPM walk: one SRAM read per 8-bit stride of the match depth.
        port, depth = self.trie.lookup(packet.dst_ip)
        self.lookups += 1
        self.total_lookup_depth += depth
        for _ in range(strides_for_depth(depth)):
            yield MemRead("sram", TRIE_NODE_BYTES)
            yield Compute(profile.lookup_step_instr)
        packet.output_port = port
        # Output-port information lives in SDRAM.
        yield MemRead("sdram", PORT_INFO_BYTES)
        yield Compute(profile.rx_finish_instr)
        # Descriptor enqueue through the scratchpad ring.
        yield MemWrite("scratch", 8)
        yield Compute(profile.enqueue_instr)
        yield PutTx()

    def rx_steps_list(self, packet: Packet) -> list:
        port, depth = self.trie.lookup(packet.dst_ip)
        key = (chunks_of(packet.size_bytes), strides_for_depth(depth))
        steps = self._rx_steps_memo.get(key)
        if steps is None:
            # The generator performs the lookup and counter updates
            # itself (one extra read-only trie walk, first time only).
            steps = list(self.rx_steps(packet))
            self._rx_steps_memo[key] = steps
            return steps
        self.lookups += 1
        self.total_lookup_depth += depth
        packet.output_port = port
        return steps

    def tx_steps(self, packet: Packet) -> Iterator[Step]:
        return self._standard_tx_steps(packet, fetch_sdram=True)

    def tx_steps_list(self, packet: Packet) -> list:
        return self._standard_tx_steps_list(packet, fetch_sdram=True)

    @property
    def mean_lookup_depth(self) -> float:
        """Average trie-walk depth so far (SRAM reads per packet)."""
        if self.lookups == 0:
            return 0.0
        return self.total_lookup_depth / self.lookups


register_app("ipfwdr", IpfwdrApp)
