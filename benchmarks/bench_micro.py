"""Micro-benchmarks of the substrates (statistical, multi-round).

These are conventional pytest-benchmark timings for the hot paths: the
event kernel, the LOC streaming analyzer, and whole-chip simulation
throughput per benchmark application, plus the checking-path speed-up
of compiled monitors over the interpreter, taken as a ratio inside one
process so host speed cancels out.
"""

import random
import time

from repro.config import RunConfig, TrafficConfig
from repro.loc.analyzer import DistributionAnalyzer
from repro.loc.builtin import (
    power_distribution_formula,
    throughput_distribution_formula,
)
from repro.loc.monitor import CompiledMonitor, InterpretedMonitor
from repro.runner import run_simulation
from repro.sim.kernel import Simulator
from repro.trace.events import TraceEvent

#: The acceptance bar: compiled monitors must check ``forward`` rows at
#: least this many times faster than the interpreter.
MIN_SPEEDUP = 2.0


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
        analyzer = DistributionAnalyzer(power_distribution_formula())
        for event in events:
            analyzer.emit(event)
        return analyzer.finish()

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


class _Wiring:
    """Stands in for the TraceBus: keeps what monitors attach."""

    def __init__(self):
        self.feeds = []
        self.sinks = []

    def subscribe(self, name, handler):
        self.feeds.append(handler)

    def attach_sink(self, sink):
        self.sinks.append(sink.emit)


def _forward_rows(count: int):
    """``count`` annotation rows ``(cycle, time, energy, pkt, bit)``."""
    rng = random.Random(7)
    cycle = 0
    time_us = energy_uj = 0.0
    bits = 0
    rows = []
    for pkt in range(1, count + 1):
        gap_us = rng.uniform(1.0, 6.0)
        cycle += int(gap_us * 600)
        time_us += gap_us
        energy_uj += gap_us * rng.uniform(0.6, 2.0)
        bits += 8 * rng.randint(64, 1500)
        rows.append((cycle, time_us, energy_uj, pkt, bits))
    return rows


def _replay(monitor_cls, rows, formulas):
    """Feed ``rows`` through fresh monitors; (wall_s, results)."""
    monitors = [monitor_cls(formula) for formula in formulas]
    wiring = _Wiring()
    for monitor in monitors:
        monitor.attach(wiring)
    feeds, sinks = wiring.feeds, wiring.sinks
    start = time.perf_counter()
    if feeds:
        # The bus's tuple path: each subscribed feed gets the bare row.
        for row in rows:
            for feed in feeds:
                feed(row)
    else:
        # The wildcard-sink path: one TraceEvent per row, every sink.
        for row in rows:
            event = TraceEvent("forward", *row)
            for emit in sinks:
                emit(event)
    wall = time.perf_counter() - start
    return wall, [monitor.finish() for monitor in monitors]


def test_checking_path_speedup():
    """Formulas (2) and (3) over 20k ``forward`` rows: compiled vs
    interpreted, best of 5 each, same results.  The two sides alternate,
    so a host that changes speed mid-test slows both alike."""
    rows = _forward_rows(20_000)
    formulas = [power_distribution_formula(), throughput_distribution_formula()]
    compiled, interpreted = [], []
    for _ in range(5):
        compiled.append(_replay(CompiledMonitor, rows, formulas))
        interpreted.append(_replay(InterpretedMonitor, rows, formulas))
    assert compiled[0][1] == interpreted[0][1]
    assert all(result[0].total == 20_000 - 100 for _, result in compiled)
    speedup = min(w for w, _ in interpreted) / min(w for w, _ in compiled)
    print(f"\ncompiled monitors: {speedup:.1f}x the interpreter's rows/s")
    assert speedup >= MIN_SPEEDUP, (
        f"compiled monitors checked rows only {speedup:.2f}x faster than "
        f"the interpreter (need >= {MIN_SPEEDUP}x)"
    )
