#!/usr/bin/env python3
"""Logic of Constraints end to end: checkers, analyzers, code generation.

1. Runs a short simulation and writes a NePSim-style text trace.
2. Checks a latency-style assertion over the live event stream.
3. Runs the paper's formula (2) distribution analysis two ways:
   in-process and through a *generated standalone analyzer script*
   executed on the trace file — the same generated code both times —
   and shows they agree.

Run:  python examples/loc_assertions.py
"""

import subprocess
import sys
import tempfile
from pathlib import Path

from repro import RunConfig, TrafficConfig, run_simulation
from repro.loc import (
    build_monitor,
    generate_analyzer_source,
    power_distribution_formula,
)
from repro.trace.writer import TextTraceWriter

FORMULA = power_distribution_formula(span=25)

#: Forwarded packets must be counted one at a time — a sanity assertion
#: in the style of the paper's original LOC checkers.
CHECKER_TEXT = "total_pkt(forward[i+1]) - total_pkt(forward[i]) == 1"


def main() -> None:
    workdir = Path(tempfile.mkdtemp(prefix="loc_demo_"))
    trace_path = workdir / "trace.txt"

    # 1. Simulate with a file-writer sink and two monitors: a checker
    #    and a distribution analyzer.
    writer = TextTraceWriter.open(str(trace_path))
    checker = build_monitor(CHECKER_TEXT, expect="checker")
    analyzer = build_monitor(FORMULA, expect="distribution")
    config = RunConfig(
        benchmark="ipfwdr",
        duration_cycles=600_000,
        seed=3,
        traffic=TrafficConfig(offered_load_mbps=900.0),
    )
    result = run_simulation(config, sinks=[writer], monitors=[checker, analyzer])
    writer.close()
    print(f"simulated {result.totals.forwarded_packets} forwarded packets; "
          f"trace: {trace_path}")

    # 2. The checker's verdict.
    print()
    print(checker.finish().report())

    # 3. In-process distribution vs. the generated standalone analyzer.
    in_process = analyzer.finish()
    print()
    print(in_process.report(max_rows=8))

    script_path = workdir / "gen_analyzer.py"
    script_path.write_text(generate_analyzer_source(FORMULA))
    print(f"\ngenerated standalone analyzer: {script_path}")
    completed = subprocess.run(
        [sys.executable, str(script_path), str(trace_path)],
        capture_output=True, text=True, check=True,
    )
    head = "\n".join(completed.stdout.splitlines()[:6])
    print("standalone analyzer output (head):")
    print(head)

    generated_total = next(
        line for line in completed.stdout.splitlines() if "instances" in line
    )
    print(f"\nagreement: in-process instances={in_process.total}; "
          f"standalone reports '{generated_total.strip()}'")


if __name__ == "__main__":
    main()
