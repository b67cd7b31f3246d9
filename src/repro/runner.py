"""One-call simulation runs: config in, totals and distributions out.

:class:`SimulationRun` wires a :class:`~repro.npu.chip.NpuChip`, a
traffic source and (optionally) a DVS governor together from a single
:class:`~repro.config.RunConfig`, attaches observers to the chip's
:class:`~repro.trace.bus.TraceBus` — compiled LOC monitors
(``monitors=``, see :mod:`repro.loc.monitor`) and legacy structured
sinks (``sinks=``: analyzers, trace writers) — and runs for the
configured number of reference-clock cycles.  This is the entry point
the experiments, the examples and most integration tests use.

When nothing subscribes to an event name, the bus binds the chip's
emitters to a shared no-op at start, so an unobserved run skips trace
materialization entirely.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.config import RunConfig
from repro.dvs.combined import CombinedGovernor
from repro.dvs.edvs import EdvsGovernor
from repro.dvs.tdvs import TdvsGovernor
from repro.dvs.vf_table import VfTable
from repro.errors import ConfigError
from repro.npu.chip import NpuChip, RunTotals
from repro.npu.microengine import BUSY, IDLE, STALLED
from repro.power.overhead import DvsOverheadMeter
from repro.scenarios.catalog import get_scenario
from repro.scenarios.source import ScenarioTrafficSource
from repro.sim.kernel import Simulator
from repro.sim.rng import RngStreams
from repro.traffic.diurnal import DiurnalModel
from repro.traffic.generator import TrafficSource
from repro.traffic.sampler import SegmentSpec, TrafficSampler
from repro.traffic.sizes import SIZE_MIXES


#: Shared diurnal sampler for named-level load resolution.  The sampler
#: is pure (percentile lookups over the fixed day profile), so one
#: instance serves every run — building it per call burned a day-curve
#: construction on each of a sweep's thousands of job setups.
_DIURNAL_SAMPLER: Optional[TrafficSampler] = None


def _diurnal_sampler() -> TrafficSampler:
    global _DIURNAL_SAMPLER
    if _DIURNAL_SAMPLER is None:
        _DIURNAL_SAMPLER = TrafficSampler(DiurnalModel())
    return _DIURNAL_SAMPLER


def resolve_offered_load_bps(config: RunConfig) -> float:
    """Offered load in bits/second from a run's traffic config.

    Named levels resolve through the diurnal sampler (the NLANR-like day
    profile); explicit loads pass through; scenarios report their
    duration-weighted mean load.
    """
    traffic = config.traffic
    if traffic.offered_load_mbps is not None:
        return traffic.offered_load_mbps * 1e6
    if traffic.scenario is not None:
        return get_scenario(traffic.scenario).mean_load_mbps * 1e6
    return _diurnal_sampler().level_load_bps(traffic.level)


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

    ``sinks`` are legacy structured observers (``emit(TraceEvent)``);
    ``monitors`` are bus-native observers exposing ``attach(bus)`` —
    typically :func:`repro.loc.monitor.build_monitor` products riding
    the tuple-payload fast path.  Both subscribe to :attr:`bus` before
    the chip starts.
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
        if config.traffic.scenario is not None:
            self.traffic = ScenarioTrafficSource.from_scenario(
                self.sim,
                self.chip.deliver,
                get_scenario(config.traffic.scenario),
                duration_ps=self.duration_ps,
                num_ports=config.npu.num_ports,
                rng_streams=self.rng_streams,
            )
        else:
            size_mix = SIZE_MIXES[config.traffic.size_mix]
            spec = SegmentSpec(
                level=config.traffic.level or "explicit",
                offered_load_bps=resolve_offered_load_bps(config),
                duration_s=1.0,  # actual stop time comes from duration_cycles
                process=config.traffic.process,
                burst_ratio=config.traffic.burst_ratio,
                burst_fraction=config.traffic.burst_fraction,
            )
            self.traffic = TrafficSource.from_spec(
                self.sim,
                self.chip.deliver,
                spec,
                size_mix=size_mix,
                num_ports=config.npu.num_ports,
                rng_streams=self.rng_streams,
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
        byte-identical across backends and monitor modes.  Empty until
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
