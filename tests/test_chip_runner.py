"""Integration tests: the assembled chip and the run loop."""

import pytest

from repro.config import DvsConfig, NpuConfig, RunConfig, TrafficConfig
from repro.errors import ConfigError
from repro.loc.builtin import (
    power_distribution_formula,
    throughput_distribution_formula,
)
from repro.loc.monitor import build_monitor
from repro.npu.chip import build_chip
from repro.runner import SimulationRun, resolve_offered_load_bps, run_simulation
from repro.trace.buffer import TraceBuffer

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
        low = resolve_offered_load_bps(
            quick_config(traffic=TrafficConfig(level="low", offered_load_mbps=None))
        )
        high = resolve_offered_load_bps(
            quick_config(traffic=TrafficConfig(level="high", offered_load_mbps=None))
        )
        assert low < high
        explicit = resolve_offered_load_bps(
            quick_config(traffic=TrafficConfig(offered_load_mbps=123.0))
        )
        assert explicit == 123e6

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
