"""Figure 4: a snapshot of a NePSim-style simulation trace.

Runs a short `ipfwdr` simulation with per-chunk pipeline events enabled
and prints the first trace lines in the paper's column format.

The run stays a direct :func:`~repro.runner.run_simulation` call
outside the session: it needs a trace sink to collect the events, and a
sweep outcome carries no trace.
"""

from __future__ import annotations

from repro.config import RunConfig, TrafficConfig
from repro.experiments.registry import ExperimentResult, register
from repro.runner import run_simulation
from repro.trace.buffer import TraceBuffer
from repro.trace.writer import format_trace_snapshot


@register("fig04", "Simulation trace snapshot", "Figure 4")
def run(profile: str, session) -> ExperimentResult:
    """Generate a short trace and render the snapshot."""
    buffer = TraceBuffer(max_events=4000)
    config = RunConfig(
        benchmark="ipfwdr",
        duration_cycles=30_000,
        seed=2005,
        traffic=TrafficConfig(offered_load_mbps=1200.0, process="cbr"),
        pipeline_events="chunk",
    )
    run_simulation(config, sinks=[buffer])
    events = buffer.events
    # Show a window that includes forward events, like the paper's.
    first_forward = next(
        (k for k, event in enumerate(events) if event.name == "forward"), 0
    )
    start = max(0, first_forward - 3)
    window = events[start : start + 14]
    text = (
        "Figure 4: snapshot of a simulation trace\n"
        + format_trace_snapshot(window)
    )
    return ExperimentResult(
        "fig04",
        text,
        data={
            "total_events": len(events),
            "event_names": sorted({event.name for event in events}),
        },
    )
