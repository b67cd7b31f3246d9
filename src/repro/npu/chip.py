"""Top-level NPU chip: wiring every component together.

:class:`NpuChip` builds, from a :class:`~repro.config.RunConfig`:

* the fixed reference clock (trace ``cycle`` annotation) and one
  scalable clock domain per microengine (the DVS actuation points);
* the memory controllers, IX bus and packet-buffer pool;
* the 16 device ports with their arrival/enqueue/forward hooks;
* the receive and transmit microengines bound to the selected benchmark
  application's step streams;
* the power accountant, the trace annotation provider, and the
  :class:`~repro.trace.bus.TraceBus` every observation rides.

Trace events flow through the bus: subscribers (compiled LOC monitors,
legacy ``emit(TraceEvent)`` sinks) register before :meth:`NpuChip.start`,
and starting the chip binds one emitter per event name — the shared
no-op for names nobody listens to, so an unobserved run never
materializes a record.  The run loop itself lives in :mod:`repro.runner`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.apps.base import AppResources, build_app
from repro.config import RunConfig
from repro.errors import NpuError
from repro.npu.fifo import PacketQueue
from repro.npu.memqueue import build_memories
from repro.npu.microengine import BUSY, IDLE, STALLED, Microengine, RxPortMux
from repro.npu.packetbuf import PacketBufferPool
from repro.npu.ports import PortArray
from repro.npu.steps import Compute, Drop
from repro.power.model import MePowerModel, PowerAccountant
from repro.sim.clock import ClockDomain, FixedClock
from repro.sim.kernel import Simulator
from repro.sim.rng import RngStreams
from repro.sim.stats import RateWindow
from repro.trace.annotations import AnnotationProvider
from repro.trace.bus import NOOP_EMITTER, TraceBus
from repro.trace.events import prefixed_event_name
from repro.traffic.packet import Packet

#: Receive stream of a packet that found no free buffer: the failed
#: allocation still burns cycles, then the packet is dropped.
_NO_BUFFER_STEPS = (Compute(8), Drop("no-buffer"))


@dataclass
class MeSummary:
    """End-of-run summary for one microengine."""

    index: int
    role: str
    freq_mhz: float
    busy_fraction: float
    idle_fraction: float
    stalled_fraction: float
    instructions: int
    packets: int
    freq_changes: int


@dataclass
class RunTotals:
    """End-of-run chip-level totals."""

    duration_s: float
    offered_packets: int
    offered_bits: int
    forwarded_packets: int
    forwarded_bits: int
    rx_dropped: int
    drops_by_reason: Dict[str, int]
    mean_power_w: float
    power_breakdown_w: Dict[str, float]
    me_summaries: List[MeSummary] = field(default_factory=list)

    @property
    def offered_mbps(self) -> float:
        """Offered load over the run, in Mbps."""
        if self.duration_s <= 0:
            return 0.0
        return self.offered_bits / self.duration_s / 1e6

    @property
    def throughput_mbps(self) -> float:
        """Forwarded throughput over the run, in Mbps."""
        if self.duration_s <= 0:
            return 0.0
        return self.forwarded_bits / self.duration_s / 1e6

    @property
    def loss_fraction(self) -> float:
        """Packets offered but not forwarded, over packets offered.

        That counts drops of any reason and also the backlog: packets
        still queued at cutoff count as lost, until a packet ledger
        splits drops from backlog (ROADMAP.md, item 1).  At the short
        ``bench`` profile the backlog can be most of the loss.
        """
        if self.offered_packets == 0:
            return 0.0
        lost = self.offered_packets - self.forwarded_packets
        return max(0, lost) / self.offered_packets


class NpuChip:
    """The assembled NPU model (see module docstring)."""

    def __init__(
        self,
        sim: Simulator,
        config: RunConfig,
        rng_streams: Optional[RngStreams] = None,
    ):
        config.validate()
        self.sim = sim
        self.config = config
        npu = config.npu
        streams = rng_streams or RngStreams(config.seed)

        # -- clocks -----------------------------------------------------
        self.reference_clock = FixedClock(sim, npu.reference_freq_hz, "ref")
        self.me_clocks: List[ClockDomain] = [
            ClockDomain(sim, npu.me_freq_max_hz, f"me{k}")
            for k in range(npu.num_microengines)
        ]

        # -- power ------------------------------------------------------
        self.me_power_model = MePowerModel(
            config.power, npu.me_freq_max_hz, npu.me_vdd_max
        )
        self.accountant = PowerAccountant(sim, config.power, self.me_power_model)

        # -- memories and bus --------------------------------------------
        self.sram, self.sdram, self.scratch, self.ixbus = build_memories(
            sim, npu.memory
        )
        for resource in (self.sram, self.sdram, self.scratch, self.ixbus):
            self.accountant.attach_memory(resource)
        self.memories = {
            "sram": self.sram,
            "sdram": self.sdram,
            "scratch": self.scratch,
        }
        self.buffer_pool = PacketBufferPool(npu.memory.sdram_bytes // 2)
        self._buffer_handles: Dict[int, int] = {}

        # -- counters and monitor ------------------------------------------
        self.traffic_monitor = RateWindow(sim, "port-arrivals")
        self.offered_packets = 0
        self.offered_bits = 0
        self.forwarded_packets = 0
        self.forwarded_bits = 0
        self.drops_by_reason: Dict[str, int] = {}

        # -- trace ---------------------------------------------------------
        self.annotations = AnnotationProvider(
            self.reference_clock,
            energy_uj=self.accountant.total_energy_uj,
            total_pkt=self._total_forwarded_packets,
            total_bit=self._total_forwarded_bits,
        )
        self.bus = TraceBus(self.annotations)
        self._emit_forward = NOOP_EMITTER

        # -- ports ---------------------------------------------------------
        self.ports = PortArray(
            sim,
            npu.num_ports,
            npu.port_rate_bps,
            npu.rx_queue_packets,
            self.ixbus,
            on_arrival=self._on_arrival,
            on_forward=self._on_forward,
        )

        # -- application ------------------------------------------------------
        self.app_resources = AppResources(
            num_ports=npu.num_ports, rng_streams=streams.spawn("apps")
        )
        self.app = build_app(config.benchmark, self.app_resources)

        # -- transmit rings (one unbounded queue per transmit ME) --------------
        self.tx_rings: List[PacketQueue] = [
            PacketQueue(None, f"txring{k}") for k in range(len(npu.tx_me_indices))
        ]
        self._ports_per_tx_ring = npu.num_ports // len(npu.tx_me_indices)
        #: ``out_port % num_ports`` indexes straight to the owning ring's
        #: bound ``offer`` — the ring arithmetic is paid once at build time
        #: instead of per transmitted packet.
        self._num_ports = npu.num_ports
        self._ring_offer_for_port = [
            self.tx_rings[p // self._ports_per_tx_ring].offer
            for p in range(npu.num_ports)
        ]

        # -- microengines -------------------------------------------------------
        self.mes: List[Microengine] = []
        ports_per_rx = npu.ports_per_rx_me
        rx_position = {index: pos for pos, index in enumerate(npu.rx_me_indices)}
        tx_position = {index: pos for pos, index in enumerate(npu.tx_me_indices)}
        for me_index in range(npu.num_microengines):
            if me_index in rx_position:
                pos = rx_position[me_index]
                source = RxPortMux(
                    self.ports.ports[pos * ports_per_rx : (pos + 1) * ports_per_rx]
                )
                me = Microengine(
                    sim,
                    self.me_clocks[me_index],
                    me_index,
                    "rx",
                    source,
                    self._make_rx_steps,
                    self.memories,
                    num_threads=npu.threads_per_me,
                    poll_instructions=npu.poll_instructions,
                    poll_counts_as_idle=npu.poll_counts_as_idle,
                    ctx_switch_cycles=npu.ctx_switch_cycles,
                    on_put_tx=self._on_put_tx,
                    on_drop=self._on_drop,
                )
            else:
                pos = tx_position[me_index]
                me = Microengine(
                    sim,
                    self.me_clocks[me_index],
                    me_index,
                    "tx",
                    self.tx_rings[pos],
                    self.app.tx_steps,
                    self.memories,
                    num_threads=npu.threads_per_me,
                    poll_instructions=npu.poll_instructions,
                    poll_counts_as_idle=npu.poll_counts_as_idle,
                    ctx_switch_cycles=npu.ctx_switch_cycles,
                    on_packet_done=self._on_tx_done,
                    on_drop=self._on_drop,
                )
            self.accountant.attach_me(me)
            self.mes.append(me)

        self._started = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Bind trace emitters against the bus, then start every ME.

        Binding happens here — after every subscriber registered — so
        that event names nobody observes resolve to the bus's shared
        no-op emitter and cost nothing during the run.  A subscription
        to a name the chip does not publish (a misspelt or retired
        event) raises :class:`~repro.errors.TraceError` here.
        """
        if self._started:
            raise NpuError("chip already started")
        self._started = True
        self._emit_forward = self.bus.emitter("forward")
        self.ports.bind_trace(self.bus)
        for name, resource in self.memories.items():
            resource.bind_trace(self.bus, f"mem_{name}")
        self.ixbus.bind_trace(self.bus, "mem_ixbus")
        if self.config.pipeline_events is not None:
            for me in self.mes:
                emit = self.bus.emitter(prefixed_event_name("pipeline", me.index))
                me.pipeline_emitter = None if emit is NOOP_EMITTER else emit
        self.bus.require_published()
        for me in self.mes:
            me.start()

    def add_sink(self, sink) -> None:
        """Attach a structured trace sink (LOC analyzer, writer, buffer ...).

        Sinks are wildcard subscribers on the chip's
        :class:`~repro.trace.bus.TraceBus`; attach them before
        :meth:`start`.
        """
        self.bus.attach_sink(sink)

    def deliver(self, port_index: int, packet: Packet) -> None:
        """Traffic-source entry point."""
        self.ports.deliver(port_index, packet)

    # ------------------------------------------------------------------
    # Receive-side hooks
    # ------------------------------------------------------------------
    def _total_forwarded_packets(self) -> int:
        """Annotation provider callback (named so profiles attribute it)."""
        return self.forwarded_packets

    def _total_forwarded_bits(self) -> int:
        """Annotation provider callback (named so profiles attribute it)."""
        return self.forwarded_bits

    def _on_arrival(self, packet: Packet) -> None:
        self.offered_packets += 1
        self.offered_bits += packet.size_bits
        self.traffic_monitor.add(packet.size_bits)

    def _make_rx_steps(self, packet: Packet):
        handle = self.buffer_pool.allocate()
        if handle is None:
            return _NO_BUFFER_STEPS
        self._buffer_handles[packet.seq] = handle
        return self.app.rx_steps(packet)

    # ------------------------------------------------------------------
    # Transmit-side hooks
    # ------------------------------------------------------------------
    def _on_put_tx(self, packet: Packet) -> None:
        out_port = packet.output_port
        if out_port is None:
            out_port = packet.input_port
        self._ring_offer_for_port[out_port % self._num_ports](packet)

    def _on_tx_done(self, packet: Packet) -> None:
        self.ports.transmit(packet)

    def _on_forward(self, packet: Packet) -> None:
        self.forwarded_packets += 1
        self.forwarded_bits += packet.size_bits
        self._release_buffer(packet)
        self._emit_forward()

    def _on_drop(self, packet: Packet, reason: str) -> None:
        self.drops_by_reason[reason] = self.drops_by_reason.get(reason, 0) + 1
        self._release_buffer(packet)

    def _release_buffer(self, packet: Packet) -> None:
        handle = self._buffer_handles.pop(packet.seq, None)
        if handle is not None:
            self.buffer_pool.release(handle)

    # ------------------------------------------------------------------
    # Summaries
    # ------------------------------------------------------------------
    def totals(self) -> RunTotals:
        """Snapshot chip-level totals at the current simulation time."""
        duration_s = self.sim.now_ps / 1e12
        summaries = []
        for me in self.mes:
            fractions = me.states.totals_ps()
            total = sum(fractions.values()) or 1
            summaries.append(
                MeSummary(
                    index=me.index,
                    role=me.role,
                    freq_mhz=me.clock.freq_hz / 1e6,
                    busy_fraction=fractions.get(BUSY, 0) / total,
                    idle_fraction=fractions.get(IDLE, 0) / total,
                    stalled_fraction=fractions.get(STALLED, 0) / total,
                    instructions=me.instructions_executed,
                    packets=me.packets_processed,
                    freq_changes=me.clock.freq_changes,
                )
            )
        return RunTotals(
            duration_s=duration_s,
            offered_packets=self.offered_packets,
            offered_bits=self.offered_bits,
            forwarded_packets=self.forwarded_packets,
            forwarded_bits=self.forwarded_bits,
            rx_dropped=self.ports.rx_dropped,
            drops_by_reason=dict(self.drops_by_reason),
            mean_power_w=self.accountant.mean_power_w(),
            power_breakdown_w=self.accountant.breakdown_w(),
            me_summaries=summaries,
        )


def build_chip(config: RunConfig, sim: Optional[Simulator] = None) -> NpuChip:
    """Convenience constructor: fresh simulator + chip from a config."""
    return NpuChip(sim or Simulator(), config)
