"""Synthetic IP traffic: the NLANR-trace substitute.

The paper drives NePSim with a few seconds of real edge-router traffic
sampled from NLANR at high, medium and low arrival rates.  Those traces
are not redistributable, so this subpackage synthesizes equivalent input:

* :mod:`~repro.traffic.diurnal` — a day-long rate profile shaped like the
  paper's Figure 2 (diurnal swell, short-timescale max/med/min envelope)
  and the high/medium/low loads sampled from it, mirroring "we sample a
  few seconds of real traffic in high, medium and low arriving rates";
* :mod:`~repro.traffic.arrivals` — Poisson, CBR and 2-state MMPP (bursty)
  arrival processes, and the piecewise process that sequences them;
* :mod:`~repro.traffic.sizes` — IMIX-style packet-size mixes;
* :mod:`~repro.traffic.generator` — the simulator-bound packet source
  feeding the NPU's 16 device ports, playing timed phases;
* :mod:`~repro.traffic.trace_file` — portable on-disk packet traces.
"""

from repro.traffic.arrivals import (
    ConstantBitRate,
    MmppProcess,
    PiecewiseArrivalProcess,
    PoissonProcess,
    arrival_process,
)
from repro.traffic.diurnal import DiurnalBucket, DiurnalModel, level_load_bps
from repro.traffic.generator import TrafficSource
from repro.traffic.packet import FlowPool, Packet
from repro.traffic.sizes import IMIX_CLASSIC, PacketSizeMix
from repro.traffic.trace_file import read_packet_trace, write_packet_trace

__all__ = [
    "ConstantBitRate",
    "DiurnalBucket",
    "DiurnalModel",
    "FlowPool",
    "IMIX_CLASSIC",
    "MmppProcess",
    "Packet",
    "PacketSizeMix",
    "PiecewiseArrivalProcess",
    "PoissonProcess",
    "TrafficSource",
    "arrival_process",
    "level_load_bps",
    "read_packet_trace",
    "write_packet_trace",
]
