"""Micro-benchmarks of the substrates (statistical, multi-round).

These are conventional pytest-benchmark timings for the hot paths: the
event kernel, a generated LOC monitor, and whole-chip simulation
throughput per benchmark application.
"""

from repro.config import RunConfig, TrafficConfig
from repro.loc.builtin import power_distribution_formula
from repro.loc.monitor import build_monitor
from repro.runner import run_simulation
from repro.sim.kernel import Simulator
from repro.trace.events import TraceEvent


def test_kernel_event_throughput(benchmark):
    """Schedule+dispatch cost of 20k chained kernel events."""

    def run_kernel():
        sim = Simulator()
        remaining = [20_000]

        def tick():
            remaining[0] -= 1
            if remaining[0] > 0:
                sim.schedule(10, tick)

        sim.schedule(10, tick)
        sim.run()
        return sim.events_executed

    events = benchmark(run_kernel)
    assert events == 20_000


def test_loc_analyzer_throughput(benchmark):
    """Streaming formula (2) evaluation over 20k forward events."""
    events = [
        TraceEvent("forward", k * 600, k * 1.0, k * 1.5, k, k * 8000)
        for k in range(20_000)
    ]

    def analyze():
        monitor = build_monitor(power_distribution_formula(), expect="distribution")
        for event in events:
            monitor.feed_event(event)
        return monitor.finish()

    result = benchmark(analyze)
    assert result.total == 20_000 - 100


def _simulate(bench_name: str):
    config = RunConfig(
        benchmark=bench_name,
        duration_cycles=200_000,
        seed=1,
        traffic=TrafficConfig(offered_load_mbps=1000.0, process="cbr"),
    )
    return run_simulation(config)


def test_sim_throughput_ipfwdr(benchmark):
    result = benchmark.pedantic(_simulate, args=("ipfwdr",), rounds=3, iterations=1)
    assert result.totals.forwarded_packets > 0


def test_sim_throughput_nat(benchmark):
    result = benchmark.pedantic(_simulate, args=("nat",), rounds=3, iterations=1)
    assert result.totals.forwarded_packets > 0


def test_sim_throughput_md4(benchmark):
    result = benchmark.pedantic(_simulate, args=("md4",), rounds=3, iterations=1)
    assert result.totals.forwarded_packets > 0
