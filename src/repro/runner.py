"""One-call simulation runs: config in, totals and distributions out.

:class:`SimulationRun` wires a :class:`~repro.npu.chip.NpuChip`, a
traffic source playing the run's scenario (:func:`traffic_scenario`)
and (optionally) a DVS governor together from a single
:class:`~repro.config.RunConfig`, attaches observers to the chip's
:class:`~repro.trace.bus.TraceBus` — LOC monitors (``monitors=``,
see :mod:`repro.loc.monitor`) and structured sinks (``sinks=``: trace
writers, buffers) — and runs for the
configured number of reference-clock cycles.  This is the entry point
the experiments, the examples and most integration tests use.

When nothing subscribes to an event name, the bus binds the chip's
emitters to a shared no-op at start, so an unobserved run skips trace
materialization entirely.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.config import RunConfig, TrafficConfig
from repro.dvs.combined import CombinedGovernor
from repro.dvs.edvs import EdvsGovernor
from repro.dvs.tdvs import TdvsGovernor
from repro.dvs.vf_table import VfTable
from repro.errors import ConfigError
from repro.npu.chip import NpuChip, RunTotals
from repro.npu.microengine import BUSY, IDLE, STALLED
from repro.power.overhead import DvsOverheadMeter
from repro.scenarios.catalog import get_scenario
from repro.scenarios.spec import Scenario, ScenarioSegment
from repro.sim.kernel import Simulator
from repro.sim.rng import RngStreams
from repro.traffic.diurnal import level_load_bps
from repro.traffic.generator import TrafficSource


def traffic_scenario(traffic: TrafficConfig) -> Scenario:
    """The scenario a run with this traffic config plays.

    A catalog ``scenario`` plays as registered.  Otherwise the
    single-rate fields make a one-segment scenario, flow shape
    included: an explicit load goes in as given, a named level at its
    :func:`~repro.traffic.diurnal.level_load_bps`.
    """
    if traffic.scenario is not None:
        return get_scenario(traffic.scenario)
    load_mbps = traffic.offered_load_mbps
    if load_mbps is None:
        load_mbps = level_load_bps(traffic.level) / 1e6
    segment = ScenarioSegment(
        weight=1.0,
        offered_load_mbps=load_mbps,
        process=traffic.process,
        burst_ratio=traffic.burst_ratio,
        burst_fraction=traffic.burst_fraction,
        size_mix=traffic.size_mix,
    )
    return Scenario(
        name="single_rate",
        title="Single rate",
        description="One phase at the run's single-rate traffic fields.",
        segments=(segment,),
        num_flows=traffic.num_flows,
        zipf_s=traffic.zipf_s,
    )


@dataclass
class RunResult:
    """Everything a finished run reports."""

    config: RunConfig
    totals: RunTotals
    governor_policy: str
    governor_transitions: int
    governor_windows: int
    dvs_overhead_w: float

    @property
    def mean_power_w(self) -> float:
        """Mean chip power over the run."""
        return self.totals.mean_power_w

    @property
    def throughput_mbps(self) -> float:
        """Forwarded throughput over the run."""
        return self.totals.throughput_mbps


class SimulationRun:
    """A fully wired simulation, ready to run once.

    ``sinks`` are structured observers (``emit(TraceEvent)``: trace
    writers, buffers); ``monitors`` are bus-native observers exposing
    ``attach(bus)`` — typically :func:`repro.loc.monitor.build_monitor`
    products riding the tuple-payload path.  Both subscribe to
    :attr:`bus` before the chip starts.
    """

    def __init__(
        self,
        config: RunConfig,
        sinks: Sequence = (),
        monitors: Sequence = (),
    ):
        config.validate()
        self.config = config
        self.sim = Simulator(name=f"{config.benchmark}-{config.dvs.policy}")
        self.rng_streams = RngStreams(config.seed)
        self.chip = NpuChip(self.sim, config, self.rng_streams)
        self.bus = self.chip.bus
        for sink in sinks:
            self.chip.add_sink(sink)
        for monitor in monitors:
            monitor.attach(self.bus)

        # -- traffic -----------------------------------------------------
        scenario = traffic_scenario(config.traffic)
        self.traffic = TrafficSource(
            self.sim,
            self.chip.deliver,
            scenario.phases(self.duration_ps),
            num_ports=config.npu.num_ports,
            rng_streams=self.rng_streams,
            num_flows=scenario.num_flows,
            zipf_s=scenario.zipf_s,
        )

        # -- DVS governor ---------------------------------------------------
        self.governor = None
        self.overhead_meter = None
        if config.dvs.policy != "none":
            vf_table = VfTable.from_config(config.npu)
            # The TDVS monitor adder charges once per packet arrival.
            chip = self.chip
            self.overhead_meter = DvsOverheadMeter(
                chip.accountant,
                config.power,
                arrivals=(
                    (lambda: chip.offered_packets)
                    if config.dvs.policy in ("tdvs", "combined")
                    else None
                ),
            )
            if config.dvs.policy == "tdvs":
                self.governor = TdvsGovernor(
                    self.sim,
                    config.dvs,
                    vf_table,
                    self.chip.mes,
                    self.chip.reference_clock,
                    self.chip.traffic_monitor,
                    overhead=self.overhead_meter,
                )
            elif config.dvs.policy == "edvs":
                self.governor = EdvsGovernor(
                    self.sim,
                    config.dvs,
                    vf_table,
                    self.chip.mes,
                    overhead=self.overhead_meter,
                )
            elif config.dvs.policy == "combined":
                self.governor = CombinedGovernor(
                    self.sim,
                    config.dvs,
                    vf_table,
                    self.chip.mes,
                    self.chip.reference_clock,
                    self.chip.traffic_monitor,
                    overhead=self.overhead_meter,
                )
            else:  # pragma: no cover - config validation rejects others
                raise ConfigError(f"unhandled policy {config.dvs.policy!r}")

        self._ran = False

        # Kernel-phase spans ride existing end-of-run accounting (the
        # per-ME IntervalAccumulator totals), never per-event hooks: one
        # on_run_end snapshot per run.
        self._span_totals: Optional[List] = None
        self.sim.on_run_end.append(self._capture_span_totals)

    def _capture_span_totals(self) -> None:
        self._span_totals = [
            (me.index, me.role, me.states.totals_ps()) for me in self.chip.mes
        ]

    def sim_spans(self) -> List[Dict]:
        """Deterministic sim-clock span records for the finished run.

        Scenario playback segments (one span per segment on the
        ``scenario`` track) plus per-ME busy/stall/idle windows laid
        sequentially on each ``me<k>`` track.  The ME windows are
        *aggregates* — total time charged to each state, drawn as
        adjacent blocks — not an event-accurate interleaving; deriving
        them from :meth:`~repro.sim.stats.IntervalAccumulator.totals_ps`
        is what keeps span overhead out of the kernel hot loop.  Every
        value is integer picoseconds from run start, so records are
        byte-identical across backends.  Empty until
        the run has finished.
        """
        if self._span_totals is None:
            return []
        spans: List[Dict] = []
        end_ps = self.sim.now_ps
        if self.config.traffic.scenario is not None:
            scenario = get_scenario(self.config.traffic.scenario)
            start = 0
            for index, (seg_end, segment) in enumerate(
                scenario.segment_spans_ps(self.duration_ps)
            ):
                seg_end = min(seg_end, end_ps)
                if seg_end <= start:
                    break
                spans.append({
                    "clock": "sim",
                    "name": f"segment{index}",
                    "track": "scenario",
                    "start": start,
                    "dur": seg_end - start,
                    "attrs": {
                        "load_mbps": segment.offered_load_mbps,
                        "process": segment.process,
                    },
                })
                start = seg_end
        for index, role, totals in self._span_totals:
            track = f"me{index}"
            start = 0
            for state in (BUSY, STALLED, IDLE):
                dur = int(totals.get(state, 0))
                if dur <= 0:
                    continue
                spans.append({
                    "clock": "sim",
                    "name": state,
                    "track": track,
                    "start": start,
                    "dur": dur,
                    "attrs": {"role": role},
                })
                start += dur
        return spans

    @property
    def duration_ps(self) -> int:
        """Run length in picoseconds (reference cycles x period)."""
        return self.chip.reference_clock.delay_for_cycles(
            self.config.duration_cycles
        )

    def run(self) -> RunResult:
        """Execute the simulation and return the result."""
        if self._ran:
            raise ConfigError("SimulationRun objects are single-use")
        self._ran = True
        stop_ps = self.duration_ps
        self.chip.start()
        if self.governor is not None:
            self.governor.start()
        self.traffic.start(stop_ps=stop_ps)
        self.sim.run(until_ps=stop_ps)

        totals = self.chip.totals()
        return RunResult(
            config=self.config,
            totals=totals,
            governor_policy=self.config.dvs.policy,
            governor_transitions=self.governor.transitions if self.governor else 0,
            governor_windows=self.governor.windows_evaluated if self.governor else 0,
            dvs_overhead_w=totals.power_breakdown_w["dvs_overhead"],
        )


def run_simulation(
    config: RunConfig,
    sinks: Sequence = (),
    monitors: Sequence = (),
) -> RunResult:
    """Build and run a simulation in one call."""
    return SimulationRun(config, sinks=sinks, monitors=monitors).run()
