"""The NPU architecture model (NePSim/IXP1200 substitute).

The chip (:mod:`~repro.npu.chip`) assembles:

* six multithreaded **microengines** (:mod:`~repro.npu.microengine`) split
  into receive and transmit groups; threads busy-poll for work and block
  on memory references, which is exactly the behaviour the paper's EDVS
  policy keys on;
* **SRAM / SDRAM / scratchpad** controllers and the **IX bus**
  (:mod:`~repro.npu.memqueue`) — queued resources with per-access latency
  and occupancy, giving the long memory stalls that idle the MEs;
* sixteen **device ports** (:mod:`~repro.npu.ports`) with bounded receive
  queues (the packet-loss mechanism) and wire-rate transmit serialization
  (the source of ``forward`` trace events);
* an SDRAM **packet-buffer allocator** (:mod:`~repro.npu.packetbuf`).

Applications plug in as step streams (see :mod:`repro.apps.base`); the
DVS governors plug in through per-ME clock domains and the stall
interface.
"""

from repro._exports import lazy_exports
from repro.npu.microengine import Microengine
from repro.npu.steps import (
    Compute,
    Drop,
    MemRead,
    MemWrite,
    PutTx,
)

__all__ = [
    "Compute",
    "Drop",
    "MemRead",
    "MemWrite",
    "Microengine",
    "NpuChip",
    "PutTx",
    "RunTotals",
    "build_chip",
]

# The chip imports the apps and the power model, which import
# ``repro.npu`` submodules: binding it lazily lets either package load
# first.
_EXPORTS = {
    "NpuChip": "repro.npu.chip",
    "RunTotals": "repro.npu.chip",
    "build_chip": "repro.npu.chip",
}

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
