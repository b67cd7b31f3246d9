"""Integration tests: the assembled chip and the run loop."""

from collections import Counter

import pytest

from repro.config import DvsConfig, NpuConfig, RunConfig, TrafficConfig
from repro.errors import ConfigError
from repro.loc.builtin import (
    power_distribution_formula,
    throughput_distribution_formula,
)
from repro.loc.monitor import build_monitor
from repro.npu.chip import build_chip
from repro.npu.steps import Compute, MemPost, MemRead, MemWrite
from repro.runner import SimulationRun, run_simulation, traffic_scenario
from repro.scenarios import Scenario, ScenarioSegment, register_scenario
from repro.scenarios.catalog import _CATALOG
from repro.trace.buffer import TraceBuffer
from repro.traffic.diurnal import level_load_bps

from conftest import quick_config


class TestChipConstruction:
    def test_build_chip_defaults(self):
        chip = build_chip(quick_config())
        assert len(chip.mes) == 6
        assert len(chip.ports) == 16
        assert len(chip.tx_rings) == 2
        assert [me.role for me in chip.mes] == ["rx"] * 4 + ["tx"] * 2

    def test_custom_me_partition(self):
        config = quick_config(
            npu=NpuConfig(rx_me_indices=(0, 1), tx_me_indices=(2, 3, 4, 5),
                          num_ports=16)
        )
        chip = build_chip(config)
        assert [me.role for me in chip.mes] == ["rx", "rx", "tx", "tx", "tx", "tx"]
        assert len(chip.tx_rings) == 4

    def test_start_only_once(self):
        chip = build_chip(quick_config())
        chip.start()
        with pytest.raises(Exception):
            chip.start()


class TestConservation:
    """Packet conservation: offered = forwarded + dropped + in flight."""

    def _check(self, result, chip):
        totals = result.totals
        in_flight = (
            sum(len(port.rx_queue) + port.rx_queue_reserved for port in chip.ports.ports)
            + sum(len(ring) for ring in chip.tx_rings)
            + sum(
                1
                for me in chip.mes
                for thread in me.threads
                if thread.packet is not None
            )
        )
        wire_pending = chip.ports.total_tx_packets - totals.forwarded_packets
        accounted = (
            totals.forwarded_packets
            + totals.rx_dropped
            + sum(totals.drops_by_reason.values())
            + in_flight
            + wire_pending
        )
        assert accounted == totals.offered_packets

    # Note: the parameter is not named "benchmark" because pytest-benchmark
    # reserves that name for its fixture.
    @pytest.mark.parametrize("bench_name", ["ipfwdr", "url", "nat", "md4"])
    def test_every_benchmark_conserves_packets(self, bench_name):
        run = SimulationRun(quick_config(benchmark=bench_name))
        result = run.run()
        assert result.totals.offered_packets > 50
        assert result.totals.forwarded_packets > 0
        self._check(result, run.chip)

    def test_conservation_under_tdvs_stalls(self):
        run = SimulationRun(
            quick_config(
                duration_cycles=300_000,
                traffic=TrafficConfig(offered_load_mbps=1500.0, process="cbr"),
                dvs=DvsConfig(policy="tdvs", window_cycles=20_000,
                              top_threshold_mbps=1400.0),
            )
        )
        result = run.run()
        self._check(result, run.chip)

    def test_buffer_pool_balanced(self):
        run = SimulationRun(quick_config())
        run.run()
        pool = run.chip.buffer_pool
        # Whatever is still allocated corresponds to in-flight packets.
        assert pool.in_use == len(run.chip._buffer_handles)


class TestStepAccounting:
    """The engines' and controllers' counters agree with the steps the
    engines pulled.

    Each ME's step source is wrapped, so a step is counted as the engine
    pulls it; a pulled step executes at once (a ``Compute`` charges its
    instructions, a memory step issues its one request).  A stream
    pulled to its end is one processed packet.  No observer is attached,
    so idle engines park and their missed polls are charged in closed
    form when they settle; under DVS, stalls freeze engines mid-stream.
    """

    @pytest.mark.parametrize("policy", ["none", "tdvs", "edvs"])
    @pytest.mark.parametrize("app", ["ipfwdr", "nat", "url", "md4"])
    def test_counters_match_pulled_steps(self, app, policy):
        run = SimulationRun(
            quick_config(
                benchmark=app,
                duration_cycles=200_000,
                traffic=TrafficConfig.for_scenario("flash_crowd"),
                dvs=DvsConfig(policy=policy, window_cycles=20_000, top_threshold_mbps=1200.0),
            )
        )
        instructions, accesses, finished = Counter(), Counter(), Counter()
        requests = Counter()

        def counted(steps, index):
            for step in steps:
                if isinstance(step, Compute):
                    instructions[index] += step.instructions
                elif isinstance(step, (MemRead, MemWrite, MemPost)):
                    accesses[index] += 1
                    requests[step.target] += 1
                yield step
            finished[index] += 1

        for me in run.chip.mes:
            me.make_steps = lambda p, make=me.make_steps, k=me.index: counted(make(p), k)
        result = run.run()
        # nat keeps its engines busy, so EDVS finds no idle window to
        # step down in (as the paper observes); every other pair scales.
        scales = policy != "none" and (app, policy) != ("nat", "edvs")
        assert (result.governor_transitions > 0) == scales

        for me in run.chip.mes:
            assert me.polls > 0 and finished[me.index] > 0
            assert me.instructions_executed == (
                instructions[me.index] + me.polls * me.poll_instructions
            )
            assert me.mem_accesses == accesses[me.index]
            assert me.packets_processed == finished[me.index]
        assert {
            target: memory.requests
            for target, memory in run.chip.memories.items()
            if memory.requests
        } == dict(requests)


class TestTraceEmission:
    def test_fifo_and_forward_events_emitted(self):
        buffer = TraceBuffer()
        result = run_simulation(quick_config(), sinks=[buffer])
        names = {event.name for event in buffer.events}
        assert names == {"fifo", "forward"}
        forwards = [e for e in buffer.events if e.name == "forward"]
        assert len(forwards) == result.totals.forwarded_packets

    def test_annotations_monotone(self):
        buffer = TraceBuffer()
        run_simulation(quick_config(), sinks=[buffer])
        events = buffer.events
        for earlier, later in zip(events, events[1:]):
            assert later.cycle >= earlier.cycle
            assert later.time >= earlier.time
            assert later.energy >= earlier.energy
            assert later.total_pkt >= earlier.total_pkt
            assert later.total_bit >= earlier.total_bit

    def test_forward_counters_step_per_packet(self):
        buffer = TraceBuffer(names=("forward",))
        run_simulation(quick_config(), sinks=[buffer])
        pkts = [e.total_pkt for e in buffer.events]
        assert pkts == list(range(1, len(pkts) + 1))

    def test_pipeline_events_when_enabled(self):
        buffer = TraceBuffer()
        run_simulation(
            quick_config(duration_cycles=40_000, pipeline_events="chunk"),
            sinks=[buffer],
        )
        pipeline_names = {
            e.name for e in buffer.events if e.base_type == "pipeline"
        }
        assert pipeline_names  # m<k>_pipeline events present
        assert all(name.startswith("m") for name in pipeline_names)

    @pytest.mark.parametrize("app", ["ipfwdr", "nat", "url", "md4"])
    def test_pipeline_events_count_computes_and_missed_polls(self, app):
        """Each ME publishes one pipeline event per executed ``Compute``
        step and one per missed poll.

        Both are counted outside the engine: each ME's step source and
        work-source poll are wrapped, so a step is counted as the engine
        pulls it (and a pulled ``Compute`` executes at once) and a poll
        as it comes back empty.  The attached emitter keeps every engine
        from parking, so its poll counter matches the misses seen.
        """
        buffer = TraceBuffer()
        run = SimulationRun(
            quick_config(benchmark=app, duration_cycles=40_000, pipeline_events="chunk"),
            sinks=[buffer],
        )
        computes, misses = Counter(), Counter()

        def counted(steps, index):
            for step in steps:
                if isinstance(step, Compute):
                    computes[index] += 1
                yield step

        def polled(poll, index):
            packet = poll()
            if packet is None:
                misses[index] += 1
            return packet

        for me in run.chip.mes:
            me.make_steps = lambda p, make=me.make_steps, k=me.index: counted(make(p), k)
            me._ws_poll = lambda poll=me._ws_poll, k=me.index: polled(poll, k)
        run.run()

        published = Counter(e.name for e in buffer.events if e.base_type == "pipeline")
        for me in run.chip.mes:
            assert computes[me.index] > 0 and misses[me.index] > 0
            assert published[f"m{me.index}_pipeline"] == (
                computes[me.index] + misses[me.index]
            )
            assert me.polls == misses[me.index]

    def test_loc_checker_as_live_monitor(self):
        checker = build_monitor(
            "total_pkt(forward[i+1]) - total_pkt(forward[i]) == 1",
            expect="checker",
        )
        run_simulation(quick_config(), monitors=[checker])
        assert checker.finish().passed
        assert checker.finish().instances_checked > 0

    def test_loc_analyzers_as_live_monitors(self):
        power = build_monitor(power_distribution_formula(span=10))
        throughput = build_monitor(throughput_distribution_formula(span=10))
        result = run_simulation(quick_config(), monitors=[power, throughput])
        power_result = power.finish()
        throughput_result = throughput.finish()
        assert power_result.total > 0
        assert throughput_result.total > 0
        # Distribution means sit near the run-level averages.
        assert power_result.mean == pytest.approx(
            result.totals.mean_power_w, rel=0.25
        )
        assert throughput_result.mean == pytest.approx(
            result.totals.throughput_mbps, rel=0.35
        )


class TestRunner:
    def test_single_use(self):
        run = SimulationRun(quick_config())
        run.run()
        with pytest.raises(ConfigError):
            run.run()

    def test_early_abort_gates_are_retired(self):
        # Every run goes to its full cycle budget: nothing takes gates,
        # and a result carries no abort marker.
        import dataclasses

        from repro.runner import RunResult

        with pytest.raises(TypeError):
            SimulationRun(quick_config(), gates=())
        with pytest.raises(TypeError):
            run_simulation(quick_config(), gates=())
        names = {field.name for field in dataclasses.fields(RunResult)}
        assert not names & {"aborted_early", "abort_reason"}

    def test_resolve_level_loads(self):
        low = traffic_scenario(TrafficConfig(level="low", offered_load_mbps=None))
        high = traffic_scenario(TrafficConfig(level="high", offered_load_mbps=None))
        assert low.mean_load_mbps * 1e6 == level_load_bps("low")
        assert high.mean_load_mbps * 1e6 == level_load_bps("high")
        assert low.mean_load_mbps < high.mean_load_mbps
        # An explicit load goes into the segment as given, in Mbps.
        explicit = traffic_scenario(TrafficConfig(offered_load_mbps=123.0))
        assert explicit.mean_load_mbps == 123.0

    def test_duration_matches_cycles(self):
        run = SimulationRun(quick_config(duration_cycles=60_000))
        result = run.run()
        assert result.totals.duration_s == pytest.approx(1e-4, rel=0.01)

    def test_seed_reproducibility(self):
        a = run_simulation(quick_config(seed=5))
        b = run_simulation(quick_config(seed=5))
        assert a.totals.offered_packets == b.totals.offered_packets
        assert a.totals.forwarded_packets == b.totals.forwarded_packets
        assert a.mean_power_w == pytest.approx(b.mean_power_w, rel=1e-12)

    def test_different_seeds_differ(self):
        # CBR spacing fixes the packet *count*, but sizes are drawn from
        # the seed-dependent size stream, so the bit totals must differ.
        a = run_simulation(quick_config(seed=5))
        b = run_simulation(quick_config(seed=6))
        assert a.totals.offered_bits != b.totals.offered_bits


class TestSingleRateTraffic:
    """A single-rate run plays a one-segment scenario of its fields."""

    def test_flow_shape_reaches_the_source(self):
        run = SimulationRun(
            quick_config(
                duration_cycles=400_000,
                traffic=TrafficConfig(
                    offered_load_mbps=500.0, process="poisson", num_flows=1, zipf_s=0.0
                ),
            )
        )
        flows = set()
        deliver = run.traffic.deliver

        def spy(port, packet):
            flows.add(packet.flow_id)
            deliver(port, packet)

        run.traffic.deliver = spy
        result = run.run()
        assert result.totals.offered_packets > 50
        assert flows == {0}

    @pytest.mark.parametrize(
        "traffic, load_mbps",
        [
            (
                TrafficConfig(
                    offered_load_mbps=700.0,
                    process="poisson",
                    size_mix="imix_downstream",
                    num_flows=64,
                    zipf_s=0.5,
                ),
                700.0,
            ),
            (
                TrafficConfig(
                    level="med", offered_load_mbps=None, num_flows=2048, zipf_s=0.2
                ),
                level_load_bps("med") / 1e6,
            ),
        ],
        ids=["load", "level"],
    )
    def test_equals_a_registered_one_segment_scenario(self, traffic, load_mbps):
        twin = Scenario(
            name="single_rate_twin",
            title="Single-rate twin",
            description="The single-rate fields as a catalog entry.",
            segments=(
                ScenarioSegment(
                    weight=1.0,
                    offered_load_mbps=load_mbps,
                    process=traffic.process,
                    burst_ratio=traffic.burst_ratio,
                    burst_fraction=traffic.burst_fraction,
                    size_mix=traffic.size_mix,
                ),
            ),
            num_flows=traffic.num_flows,
            zipf_s=traffic.zipf_s,
        )
        settings = dict(
            duration_cycles=400_000, dvs=DvsConfig(policy="tdvs", window_cycles=40_000)
        )
        register_scenario(twin, replace=True)
        try:
            played = run_simulation(
                quick_config(
                    traffic=TrafficConfig.for_scenario("single_rate_twin"), **settings
                )
            )
        finally:
            _CATALOG.pop("single_rate_twin", None)
        single = run_simulation(quick_config(traffic=traffic, **settings))
        assert single.totals.offered_packets > 50
        assert repr(single.totals) == repr(played.totals)
