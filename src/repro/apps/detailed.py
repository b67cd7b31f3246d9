"""Detailed-mode applications: microcode executed by the interpreter.

``ipfwdr_uc`` and ``nat_uc`` are drop-in benchmark names (usable in
:class:`~repro.config.RunConfig` exactly like the fast models) whose
receive path runs real microcode instruction by instruction:

* one :class:`~repro.npu.steps.Compute` per retired instruction (so
  per-instruction ``pipeline`` trace events are possible);
* memory references go through both the *timing* model (the controller
  queue blocks the thread) and the *contents* model (the
  :class:`~repro.npu.memstore.MemStore` word the instruction addresses);
* routing/NAT decisions come from real table contents: the stride-trie
  serialized into SRAM, NAT buckets probed and installed by the code.

The transmit path reuses the shared fast-model skeleton — detailed mode
targets the receive processing the paper's applications differ in.
"""

from __future__ import annotations

from typing import Iterator, Optional

from repro.apps.base import AppModel, AppProfile, AppResources, register_app
from repro.apps.microcode import (
    IPFWDR_UC,
    NAT_UC,
    serialize_stride_trie,
    write_port_info_blocks,
)
from repro.apps.routing import routing_trie_for
from repro.npu.assembler import assemble
from repro.npu.interpreter import Interpreter
from repro.npu.memstore import MemStore
from repro.npu.steps import Step
from repro.traffic.packet import Packet

#: Content-store sizes for detailed mode (timing is unaffected by size).
_SRAM_STORE_BYTES = 8 * 1024 * 1024
_SDRAM_STORE_BYTES = 32 * 1024 * 1024
_SCRATCH_STORE_BYTES = 16 * 1024

#: Transmit-side cost profile shared by the microcode apps.
_TX_PROFILE = AppProfile(
    rx_header_instr=1,  # unused on the detailed RX path
    rx_chunk_instr=1,
    rx_finish_instr=1,
    lookup_step_instr=1,
    enqueue_instr=1,
    tx_header_instr=50,
    tx_chunk_instr=60,
    tx_finish_instr=40,
)


class MicrocodeApp(AppModel):
    """Base for microcode-backed benchmarks."""

    #: Assembly source; subclasses set it.
    source = ""
    #: Whether the transmit path fetches the body from SDRAM.
    tx_fetch_sdram = True

    def __init__(self, resources: AppResources):
        super().__init__(resources, _TX_PROFILE)
        self.stores = {
            "sram": MemStore("sram", _SRAM_STORE_BYTES),
            "sdram": MemStore("sdram", _SDRAM_STORE_BYTES),
            "scratch": MemStore("scratch", _SCRATCH_STORE_BYTES),
        }
        self.program = assemble(self.source, name=self.name)
        self.interpreter = Interpreter(self.program, self.stores)
        self._setup_tables()

    def _setup_tables(self) -> None:
        """Populate memory contents before traffic starts."""

    def rx_steps(self, packet: Packet) -> Iterator[Step]:
        return self.interpreter.steps_for_packet(packet)

    def tx_steps(self, packet: Packet) -> Iterator[Step]:
        return self._standard_tx_steps(packet, fetch_sdram=self.tx_fetch_sdram)


class IpfwdrMicrocodeApp(MicrocodeApp):
    """IP forwarding through interpreted microcode and a real SRAM trie."""

    name = "ipfwdr_uc"
    source = IPFWDR_UC

    def __init__(self, resources: AppResources):
        self.trie = routing_trie_for(resources)
        super().__init__(resources)

    def _setup_tables(self) -> None:
        self.tables_emitted = serialize_stride_trie(self.trie, self.stores["sram"])
        write_port_info_blocks(self.stores["sdram"], self.resources.num_ports)


class NatMicrocodeApp(MicrocodeApp):
    """NAT through interpreted microcode: real bucket probes in SRAM."""

    name = "nat_uc"
    source = NAT_UC
    tx_fetch_sdram = False  # cut-through, like the fast nat model

    def nat_entries_installed(self) -> int:
        """Translations installed so far (the scratch port counter)."""
        from repro.apps.microcode import NAT_PORT_COUNTER_ADDR

        return self.stores["scratch"].read_word(NAT_PORT_COUNTER_ADDR)


register_app("ipfwdr_uc", IpfwdrMicrocodeApp)
register_app("nat_uc", NatMicrocodeApp)
