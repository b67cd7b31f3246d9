"""`nat` — network address translation.

The paper: "In nat, each packet only needs an access to SRAM for looking
up the IP forwarding table" and later "nat has very few memory accesses,
and the MEs are kept busy" — which is why EDVS never finds idle time to
exploit on this benchmark.  The model:

receive
    parse the header; a single SRAM read fetches the translation entry
    (the real :class:`~repro.apps.nat_table.NatTable` supplies it, and a
    brand-new flow pays one extra SRAM write to install its entry); a
    large compute block rewrites the header and incrementally updates
    checksums; enqueue the descriptor.
transmit
    cut-through: the packet moves RFIFO -> TFIFO without an SDRAM round
    trip, so transmit is compute-only per chunk.
"""

from __future__ import annotations

from typing import Iterator, List

from repro.apps.base import AppModel, AppProfile, AppResources, register_app
from repro.apps.nat_table import NatTable
from repro.npu.steps import Compute, Drop, MemRead, MemWrite, PutTx, Step
from repro.traffic.packet import Packet

#: SRAM bytes per translation-entry read/install.
NAT_ENTRY_BYTES = 16

#: nat's cost profile: header rewriting dominates; no packet-body moves.
NAT_PROFILE = AppProfile(
    rx_header_instr=300,
    rx_chunk_instr=30,  # cut-through FIFO move bookkeeping per chunk
    rx_finish_instr=120,
    lookup_step_instr=24,
    enqueue_instr=30,
    tx_header_instr=80,
    tx_chunk_instr=30,
    tx_finish_instr=40,
)

#: The header-rewrite + incremental-checksum compute block.
REWRITE_INSTR = 1600


class NatApp(AppModel):
    """Source NAT with a real translation table; compute-bound."""

    name = "nat"

    def __init__(self, resources: AppResources, profile=None):
        super().__init__(resources, profile or NAT_PROFILE)
        if resources.nat_table is None:
            resources.nat_table = NatTable()
        self.table: NatTable = resources.nat_table
        self.translated = 0
        self.dropped_exhausted = 0

    def rx_steps(self, packet: Packet) -> Iterator[Step]:
        # A generator: it allocates translation-table entries as it runs,
        # and entry order is observable across interleaved packets.
        profile = self.profile
        yield Compute(profile.rx_header_instr)
        # The single SRAM lookup the paper describes.
        new_flow = not self.table.is_known(packet.five_tuple)
        yield MemRead("sram", NAT_ENTRY_BYTES)
        yield Compute(profile.lookup_step_instr)
        entry = self.table.translate(packet.five_tuple)
        if entry is None:
            self.dropped_exhausted += 1
            yield Drop("nat-port-exhausted")
            return
        if new_flow:
            # Install the fresh translation entry.
            yield MemWrite("sram", NAT_ENTRY_BYTES)
            yield Compute(profile.lookup_step_instr)
        # Header rewrite and incremental checksum update: pure compute.
        yield Compute(REWRITE_INSTR)
        self.translated += 1
        packet.output_port = packet.flow_id % self.resources.num_ports
        yield Compute(profile.rx_finish_instr)
        yield MemWrite("scratch", 8)
        yield Compute(profile.enqueue_instr)
        yield PutTx()

    def tx_steps(self, packet: Packet) -> List[Step]:
        # Cut-through transmit: no SDRAM fetch, per-chunk FIFO moves only.
        return self._standard_tx_steps(packet, fetch_sdram=False)


register_app("nat", NatApp)
