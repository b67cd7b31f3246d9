#!/usr/bin/env python3
"""Regression gate over simbench output files.

Usage, from the root of a checkout::

    python3 simbench/run.py --workload W --seed 7 --trace 0 > simbench-W.out
    python3 tools/bench_gate.py simbench-*.out

Each file is one ``--trace 0`` run: a ``{"detail": ...}`` line naming
the workload, then the result line.  A file fails when its result line
is not ``"correct": true`` with ``"failed": 0``, when no line of
``benchmarks/BENCH_history.jsonl`` names its workload, or when a gated
metric is more than :data:`MAX_WORSE` worse than the newest history
line that does.  Each metric's direction comes from the ``end_to_end``
list of ``BENCHMARK.json``.  The metrics are already scaled to the
reference host by simbench's own calibration.

Exit status: 0 when every file passes, 1 otherwise.  Under GitHub
Actions each failure is also printed as an ``::error`` annotation.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
HISTORY = ROOT / "benchmarks" / "BENCH_history.jsonl"
BENCHMARK = ROOT / "BENCHMARK.json"

#: The end-to-end metrics the gate holds against the history.
GATED = ("sim_cycles_per_s", "study_wall_s")

#: Largest tolerated change for the worse, as a fraction of the
#: history value.
MAX_WORSE = 0.20


def newest_entry(workload: str, history: Path = HISTORY) -> Optional[Dict]:
    """The metrics of the last history line that names ``workload``."""
    found = None
    if history.is_file():
        for line in history.read_text(encoding="utf-8").splitlines():
            if line.strip():
                entry = json.loads(line)
                if workload in entry.get("workloads", {}):
                    found = entry["workloads"][workload]
    return found


def read_run(path: Path) -> Tuple[Optional[str], Any]:
    """``(workload, result line)`` of one simbench output file."""
    workload = result = None
    for line in path.read_text(encoding="utf-8").splitlines():
        if not line.strip():
            continue
        try:
            result = json.loads(line)
        except ValueError:
            result = None
            continue
        if isinstance(result, dict) and "detail" in result:
            workload = result["detail"].get("workload")
    return workload, result


def gate(
    outputs: Sequence[str], history: Path = HISTORY, benchmark: Path = BENCHMARK
) -> List[str]:
    """Failure messages for the simbench ``outputs``; empty means pass."""
    spec = json.loads(benchmark.read_text(encoding="utf-8"))
    better = {entry["name"]: entry["better"] for entry in spec["end_to_end"]}
    failures: List[str] = []
    for name in outputs:
        workload, result = read_run(Path(name))
        if workload is None or not isinstance(result, dict):
            failures.append(f"{name}: not a simbench output (no detail or result line)")
            continue
        if result.get("correct") is not True or result.get("failed") != 0:
            failures.append(
                f"{workload}: run not clean (correct={result.get('correct')}, "
                f"failed={result.get('failed')})"
            )
            continue
        reference = newest_entry(workload, history)
        if reference is None:
            failures.append(f"{workload}: no line in {history.name} names it")
            continue
        metrics = result.get("metrics", {})
        for metric in GATED:
            value = metrics.get(metric, {}).get("value")
            if value is None or metric not in reference:
                failures.append(f"{workload}: {metric} missing")
                continue
            change = value / reference[metric] - 1.0
            worse = -change if better[metric] == "higher" else change
            line = (
                f"{workload}: {metric} {value:.6g} vs {reference[metric]:.6g} "
                f"({change:+.1%}, {better[metric]} is better)"
            )
            if worse > MAX_WORSE:
                failures.append(f"{line}: more than {MAX_WORSE:.0%} worse")
            else:
                print(f"bench_gate: {line}")
    return failures


def main() -> int:
    outputs = sys.argv[1:]
    if not outputs:
        print("usage: bench_gate.py SIMBENCH_OUT...", file=sys.stderr)
        return 2
    failures = gate(outputs)
    for failure in failures:
        print(f"bench_gate: FAIL {failure}", file=sys.stderr)
        if os.environ.get("GITHUB_ACTIONS"):
            print(f"::error title=bench_gate::{failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
