"""The per-run observation benchmark: what does checking a trace cost?

The paper's premise is that checker overhead bounds how much design
space a study can explore — simulation-time (online) checking is only
worth it if it is cheap.  This harness measures exactly that, per
catalog scenario, and writes the machine-readable ``BENCH_run.json``
artifact CI tracks run over run:

* **run wall-clock** — the same configuration simulated three ways:
  unobserved (no subscribers: the bus binds no-op emitters), with the
  interpretive checking path (``REPRO_LOC_MONITOR=interpreted``
  semantics: wildcard sinks, per-event :class:`TraceEvent` allocation,
  AST-walking evaluator) and with compiled monitors (the default:
  tuple rows on the :class:`~repro.trace.bus.TraceBus`, ring-buffer
  closures);
* **checking-path throughput** — the scenario's captured trace replayed
  through both checking paths at volume, yielding events/sec through
  the observation layer alone.  This is the headline number: the
  simulation itself is identical across modes, so the replay isolates
  what one observed event costs;
* **equivalence** — every benchmarked run asserts that compiled and
  interpreted monitors produced identical check results and
  distributions, so the artifact doubles as a correctness regression
  guard.

Monitors under test are the real workload: the paper's power and
throughput distribution formulas plus the study engine's derived LOC
gates for the scenario.

Entry points: :func:`run_bench` (library),
:meth:`repro.api.Session.bench_run` (session facade) and ``repro
bench`` on the CLI (which also applies the soft regression gate via
:func:`compare_bench`).
"""

from __future__ import annotations

import cProfile
import gc
import heapq
import json
import math
import os
import pstats
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.config import DvsConfig, RunConfig, TrafficConfig
from repro.errors import ExperimentError
from repro.experiments.common import (
    EXPERIMENT_SEED,
    cycles_for,
    span_for,
)
from repro.loc.analyzer import DistributionAnalyzer
from repro.loc.builtin import (
    power_distribution_formula,
    throughput_distribution_formula,
)
from repro.loc.checker import build_checker
from repro.loc.monitor import build_monitor
from repro.obs.spans import OBS_SPANS_ENV_VAR
from repro.runner import SimulationRun
from repro.scenarios import get_scenario, list_scenarios
from repro.studies.spec import StudySpec
from repro.trace.buffer import TraceBuffer
from repro.trace.bus import OBS_COUNTERS_ENV_VAR
from repro.trace.events import TraceEvent

#: Default scenario subset: one surge, one attack, one steady-saturation
#: workload — diverse shapes without paying for the whole catalog.
DEFAULT_SCENARIOS: Tuple[str, ...] = (
    "flash_crowd",
    "ddos_min64",
    "saturation_stress",
)

#: Observation modes benchmarked per scenario, in artifact order.
MODES: Tuple[str, ...] = ("no_checkers", "interpreted", "compiled")

#: Iterations of the host-calibration spin loop (see
#: :func:`host_calibration`).  Fixed, so every artifact's score measures
#: the same synthetic work.
CALIBRATION_OPS = 120_000


def _calibration_spin() -> int:
    """The fixed synthetic workload: integer arithmetic + heap churn.

    Shaped like the kernel hot loop (tuple heap pushes/pops dominate the
    simulator), deterministic, and returns a checksum so the interpreter
    cannot elide any of it.
    """
    heap: List[Tuple[int, int]] = []
    push = heapq.heappush
    pop = heapq.heappop
    acc = 0
    for i in range(CALIBRATION_OPS):
        acc = (acc * 33 + i) % 1_000_003
        push(heap, (acc, i))
        if len(heap) > 64:
            acc += pop(heap)[1]
    return acc


def host_calibration(repeats: int = 5) -> Dict:
    """Score this host against the fixed spin loop; stamped per artifact.

    ``ops_per_s`` (best-of-N, minimum-wall estimator like every other
    bench number) is the host-speed scalar: the regression gate divides
    the two artifacts' scores to compare *calibrated* ratios, so a
    baseline recorded on a fast runner does not read as a regression on
    a slow one (and vice versa).
    """
    best: Optional[float] = None
    for _ in range(max(1, repeats)):
        start = time.perf_counter()
        _calibration_spin()
        wall = time.perf_counter() - start
        if best is None or wall < best:
            best = wall
    assert best is not None
    return {
        "spin_ops": CALIBRATION_OPS,
        "spin_best_s": round(best, 6),
        "ops_per_s": round(CALIBRATION_OPS / best, 1) if best > 0 else None,
    }


def calibration_ratio(baseline: Dict, current: Dict) -> float:
    """Current host speed over baseline host speed (1.0 when unstamped).

    Artifacts written before the calibration stamp existed compare at
    ratio 1.0 — the uncalibrated behaviour.
    """
    old = baseline.get("host", {}).get("ops_per_s")
    new = current.get("host", {}).get("ops_per_s")
    if not old or not new:
        return 1.0
    return new / old


def bench_formulas(scenario_name: str, span: int) -> List:
    """The monitored formulas for one scenario: a real job's load.

    The paper's formulas (2)/(3) distributions plus the study engine's
    derived LOC gates for the scenario — exactly what a study job
    attaches.
    """
    spec = StudySpec(span=span)
    gates = [a.formula for a in spec.assertions_for(get_scenario(scenario_name))]
    return [
        power_distribution_formula(span=span),
        throughput_distribution_formula(span=span),
        *gates,
    ]


def bench_config(scenario_name: str, profile: str) -> RunConfig:
    """The benchmarked configuration for one scenario."""
    return RunConfig(
        benchmark="ipfwdr",
        duration_cycles=cycles_for(profile),
        seed=EXPERIMENT_SEED,
        traffic=TrafficConfig.for_scenario(scenario_name),
        dvs=DvsConfig(policy="tdvs"),
    )


def _timed_run(
    config: RunConfig,
    monitors: Sequence = (),
    sinks: Sequence = (),
):
    """One simulation; returns (wall_s, RunResult).

    Collects garbage before timing and pauses automatic collection for
    the duration of the run — the discipline ``timeit`` applies — so a
    generational sweep triggered by a *previous* run's garbage cannot
    land inside this run's timed region, the largest single source of
    repeat-to-repeat spread.
    """
    run = SimulationRun(config, sinks=sinks, monitors=monitors)
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    start = time.perf_counter()
    try:
        result = run.run()
    finally:
        wall = time.perf_counter() - start
        if was_enabled:
            gc.enable()
    return wall, result


def _event_count(result) -> int:
    """Primary trace events a run offers: one ``fifo`` per enqueued
    packet plus one ``forward`` per transmitted packet (deterministic
    per config, independent of who observes)."""
    totals = result.totals
    enqueued = totals.offered_packets - totals.rx_dropped
    return totals.forwarded_packets + enqueued


def _replay_interpreted(trace, formulas, repeat: int) -> float:
    """Replay through the legacy path: TraceEvent per event, wildcard sinks."""
    sinks = [
        build_checker(f) if isinstance(f, str) else DistributionAnalyzer(f)
        for f in formulas
    ]
    start = time.perf_counter()
    for _ in range(repeat):
        for name, row in trace:
            event = TraceEvent(name, *row)
            for sink in sinks:
                sink.emit(event)
    return time.perf_counter() - start


def _replay_compiled(trace, formulas, repeat: int) -> float:
    """Replay through the bus fast path: per-name tuple handlers."""
    monitors = [build_monitor(f, mode="compiled") for f in formulas]
    handlers: Dict[str, List[Callable]] = {}
    for monitor in monitors:
        if not monitor.compiled:  # pragma: no cover - bench formulas compile
            raise ExperimentError(
                f"bench formula {monitor.formula.unparse()!r} did not compile"
            )
        handlers.setdefault(monitor.event, []).append(monitor._feed)
    start = time.perf_counter()
    for _ in range(repeat):
        for name, row in trace:
            feeds = handlers.get(name)
            if feeds is not None:
                for feed in feeds:
                    feed(row)
    return time.perf_counter() - start


def _wall_stats(samples: Sequence[float]) -> Dict:
    """Best/mean/stddev over one mode's repeat samples.

    Population stddev — the repeats are the whole measurement, not a
    sample from a larger draw.  ``best_s`` is the gate-friendly number
    (minimum wall = least scheduler noise); the spread quantifies how
    trustworthy a single-run comparison would have been.
    """
    best = min(samples)
    mean = sum(samples) / len(samples)
    variance = sum((s - mean) ** 2 for s in samples) / len(samples)
    return {
        "best_s": round(best, 4),
        "mean_s": round(mean, 4),
        "stddev_s": round(math.sqrt(variance), 4),
        "samples": len(samples),
    }


def _best_compiled_wall_with_env_off(
    env_var: str, config: RunConfig, formulas: Sequence, repeats: int
) -> Optional[float]:
    """Best compiled-mode wall with one observability lane disabled.

    Saves/sets/restores ``env_var`` around the reruns so the rest of
    the bench (and the calling process) keeps its configuration.
    """
    saved = os.environ.get(env_var)
    os.environ[env_var] = "off"
    try:
        best = None
        for _ in range(max(1, repeats)):
            monitors = [build_monitor(f, mode="compiled") for f in formulas]
            wall, _result = _timed_run(config, monitors=monitors)
            best = wall if best is None else min(best, wall)
    finally:
        if saved is None:
            del os.environ[env_var]
        else:
            os.environ[env_var] = saved
    return best


def _results_identical(compiled_monitors, interpreted_monitors) -> bool:
    """Compare finished results across modes (dict/equality forms)."""
    for compiled, interpreted in zip(compiled_monitors, interpreted_monitors):
        a, b = compiled.finish(), interpreted.finish()
        if hasattr(a, "to_dict"):
            if a.to_dict() != b.to_dict():
                return False
        elif a != b:
            return False
    return True


def bench_scenario(
    scenario_name: str,
    profile: str = "bench",
    repeats: int = 3,
    replay_target_events: int = 100_000,
) -> Dict:
    """Benchmark one scenario; returns its artifact entry."""
    config = bench_config(scenario_name, profile)
    span = span_for(profile)
    formulas = bench_formulas(scenario_name, span)

    # Capture the trace once (also the interpreted-mode result anchor).
    buffer = TraceBuffer()
    capture_monitors = [build_monitor(f, mode="interpreted") for f in formulas]
    _, capture_result = _timed_run(
        config, monitors=capture_monitors, sinks=[buffer]
    )
    trace = [(e.name, e.as_tuple()[1:]) for e in buffer.events]
    events = _event_count(capture_result)

    # Whole-run wall clock per observation mode.  Every repeat sample is
    # kept: ``walls`` (and the gate) use the best-of-N minimum, while the
    # per-mode stddev lands in the artifact so a reader can tell a real
    # regression from scheduler noise.
    walls: Dict[str, float] = {}
    wall_stats: Dict[str, Dict] = {}
    compiled_monitors: List = []
    for mode in MODES:
        samples: List[float] = []
        for _ in range(max(1, repeats)):
            if mode == "no_checkers":
                wall, result = _timed_run(config)
            else:
                monitors = [
                    build_monitor(
                        f,
                        mode="interpreted" if mode == "interpreted" else "compiled",
                    )
                    for f in formulas
                ]
                wall, result = _timed_run(config, monitors=monitors)
                if mode == "compiled":
                    compiled_monitors = monitors
            if _event_count(result) != events:
                raise ExperimentError(
                    f"{scenario_name}: event count changed under observation "
                    f"({_event_count(result)} != {events}) — the bus must "
                    "not perturb the simulation"
                )
            samples.append(wall)
        walls[mode] = min(samples)
        wall_stats[mode] = _wall_stats(samples)

    # Counter overhead: the per-channel observation counters default
    # on, so ``walls["compiled"]`` already pays them; rerun the same
    # compiled configuration with ``REPRO_OBS_COUNTERS=off`` to price
    # exactly what the counters add.
    uncounted = _best_compiled_wall_with_env_off(
        OBS_COUNTERS_ENV_VAR, config, formulas, repeats
    )
    counter_overhead_pct = (
        round(100.0 * (walls["compiled"] / uncounted - 1.0), 2)
        if uncounted and uncounted > 0
        else None
    )

    # Span overhead, same shape: ``walls["compiled"]`` pays the
    # end-of-run kernel-phase span capture (``REPRO_OBS_SPANS`` defaults
    # on); rerun with it off to price what the spans add.  The capture
    # is a run-end snapshot, never per-event, so this should sit in the
    # noise floor — the artifact records it to prove that.
    unspanned = _best_compiled_wall_with_env_off(
        OBS_SPANS_ENV_VAR, config, formulas, repeats
    )
    span_overhead_pct = (
        round(100.0 * (walls["compiled"] / unspanned - 1.0), 2)
        if unspanned and unspanned > 0
        else None
    )

    if not _results_identical(compiled_monitors, capture_monitors):
        raise ExperimentError(
            f"{scenario_name}: compiled and interpreted monitors disagree — "
            "run the differential wall (tests/test_monitors.py)"
        )

    # Checking-path throughput: replay the captured trace at volume,
    # best wall-clock over ``repeats`` measurements (replay timings are
    # short; the minimum is the least noisy estimator).
    repeat = max(1, -(-replay_target_events // max(1, len(trace))))
    replayed = len(trace) * repeat
    interpreted_s = min(
        _replay_interpreted(trace, formulas, repeat)
        for _ in range(max(1, repeats))
    )
    compiled_s = min(
        _replay_compiled(trace, formulas, repeat) for _ in range(max(1, repeats))
    )

    return {
        "events": events,
        "trace_events": len(trace),
        "duration_cycles": config.duration_cycles,
        "run_wall_s": {mode: round(walls[mode], 4) for mode in MODES},
        "run_wall_stats": wall_stats,
        "run_events_per_s": {
            mode: round(events / walls[mode], 1) if walls[mode] > 0 else None
            for mode in MODES
        },
        "counters": {
            "compiled_counted_s": round(walls["compiled"], 4),
            "compiled_uncounted_s": round(uncounted, 4) if uncounted else None,
            "overhead_pct": counter_overhead_pct,
        },
        "spans": {
            "compiled_with_spans_s": round(walls["compiled"], 4),
            "compiled_no_spans_s": round(unspanned, 4) if unspanned else None,
            "overhead_pct": span_overhead_pct,
        },
        "checking": {
            "replayed_events": replayed,
            "interpreted": {
                "wall_s": round(interpreted_s, 4),
                "events_per_s": round(replayed / interpreted_s, 1)
                if interpreted_s > 0
                else None,
            },
            "compiled": {
                "wall_s": round(compiled_s, 4),
                "events_per_s": round(replayed / compiled_s, 1)
                if compiled_s > 0
                else None,
            },
            "speedup": round(interpreted_s / compiled_s, 2)
            if compiled_s > 0
            else None,
        },
        "results_identical": True,
    }


def run_bench(
    scenarios: Optional[Sequence[str]] = None,
    profile: str = "bench",
    repeats: int = 3,
    replay_target_events: int = 100_000,
    progress: Optional[Callable[[str, Dict], None]] = None,
) -> Dict:
    """Run the per-run observation benchmark; returns the artifact dict.

    ``scenarios`` defaults to :data:`DEFAULT_SCENARIOS`; pass ``["all"]``
    for the whole catalog.  ``progress(scenario_name, entry)`` fires as
    each scenario completes.
    """
    names = list(scenarios) if scenarios else list(DEFAULT_SCENARIOS)
    if names == ["all"]:
        names = list(list_scenarios())
    for name in names:
        get_scenario(name)  # raise early on unknown names

    entries: Dict[str, Dict] = {}
    for name in names:
        entry = bench_scenario(
            name,
            profile=profile,
            repeats=repeats,
            replay_target_events=replay_target_events,
        )
        entries[name] = entry
        if progress is not None:
            progress(name, entry)

    interp_s = sum(e["checking"]["interpreted"]["wall_s"] for e in entries.values())
    comp_s = sum(e["checking"]["compiled"]["wall_s"] for e in entries.values())
    replayed = sum(e["checking"]["replayed_events"] for e in entries.values())
    run_interp = sum(e["run_wall_s"]["interpreted"] for e in entries.values())
    run_comp = sum(e["run_wall_s"]["compiled"] for e in entries.values())
    counted_s = sum(e["counters"]["compiled_counted_s"] for e in entries.values())
    uncounted_s = sum(
        e["counters"]["compiled_uncounted_s"] or 0.0 for e in entries.values()
    )
    spanned_s = sum(e["spans"]["compiled_with_spans_s"] for e in entries.values())
    unspanned_s = sum(
        e["spans"]["compiled_no_spans_s"] or 0.0 for e in entries.values()
    )
    return {
        "bench": "run",
        "profile": profile,
        "span": span_for(profile),
        "repeats": repeats,
        # Host-speed stamp: lets the regression gate compare calibrated
        # ratios across runners (see :func:`calibration_ratio`).
        "host": host_calibration(),
        "scenarios": entries,
        "totals": {
            "replayed_events": replayed,
            "events_per_s_checking": {
                "interpreted": round(replayed / interp_s, 1) if interp_s > 0 else None,
                "compiled": round(replayed / comp_s, 1) if comp_s > 0 else None,
            },
            # The headline: events/sec through the checking path,
            # compiled monitors over the interpreted baseline.
            "speedup_compiled_vs_interpreted": round(interp_s / comp_s, 2)
            if comp_s > 0
            else None,
            "run_speedup_with_checkers": round(run_interp / run_comp, 3)
            if run_comp > 0
            else None,
            # Cost of the default-on per-channel observation counters
            # (compiled whole-run wall, counted vs REPRO_OBS_COUNTERS=off).
            "counter_overhead_pct": round(
                100.0 * (counted_s / uncounted_s - 1.0), 2
            )
            if uncounted_s > 0
            else None,
            # Cost of the default-on run-timeline spans (compiled
            # whole-run wall, spans on vs REPRO_OBS_SPANS=off).
            "span_overhead_pct": round(
                100.0 * (spanned_s / unspanned_s - 1.0), 2
            )
            if unspanned_s > 0
            else None,
        },
    }


def render_bench_text(data: Dict) -> str:
    """Human-readable report of a :func:`run_bench` artifact."""
    lines = [
        f"per-run observation bench (profile={data['profile']}, "
        f"span={data['span']}, repeats={data['repeats']})",
        f"{'scenario':18s} {'events':>7s} {'no-chk(s)':>10s} {'interp(s)':>10s} "
        f"{'compiled(s)':>11s} {'check ev/s int':>14s} {'check ev/s comp':>15s} "
        f"{'speedup':>8s}",
    ]
    for name, entry in data["scenarios"].items():
        checking = entry["checking"]
        lines.append(
            f"{name:18s} {entry['events']:7d} "
            f"{entry['run_wall_s']['no_checkers']:10.3f} "
            f"{entry['run_wall_s']['interpreted']:10.3f} "
            f"{entry['run_wall_s']['compiled']:11.3f} "
            f"{checking['interpreted']['events_per_s']:14,.0f} "
            f"{checking['compiled']['events_per_s']:15,.0f} "
            f"{checking['speedup']:7.1f}x"
        )
    totals = data["totals"]
    lines.append(
        f"checking path: {totals['events_per_s_checking']['interpreted']:,.0f} -> "
        f"{totals['events_per_s_checking']['compiled']:,.0f} events/s "
        f"({totals['speedup_compiled_vs_interpreted']:.1f}x compiled vs "
        f"interpreted); whole-run speedup with checkers attached: "
        f"{totals['run_speedup_with_checkers']:.2f}x"
    )
    overhead = totals.get("counter_overhead_pct")
    if overhead is not None:
        lines.append(
            f"observation counters (default on): {overhead:+.1f}% whole-run "
            f"wall vs REPRO_OBS_COUNTERS=off"
        )
    span_overhead = totals.get("span_overhead_pct")
    if span_overhead is not None:
        lines.append(
            f"run-timeline spans (default on): {span_overhead:+.1f}% "
            f"whole-run wall vs REPRO_OBS_SPANS=off"
        )
    host = data.get("host", {})
    if host.get("ops_per_s"):
        lines.append(
            f"host calibration: {host['ops_per_s']:,.0f} spin ops/s "
            f"(stamped for cross-host gate calibration)"
        )
    return "\n".join(lines)


def compare_bench(
    baseline: Dict, current: Dict, tolerance: float = 0.20
) -> List[str]:
    """Regression gate: messages when events/sec fell > ``tolerance``.

    Compares the checking-path events/sec totals (both modes), each
    scenario's compiled checking throughput, and each scenario's
    whole-run kernel throughput (``run_events_per_s``, compiled mode)
    against a previous artifact.  Every compared number is best-of-N
    (the repeat minimum), and the whole-run gate is noise-aware: when
    both artifacts carry ``run_wall_stats``, the tolerance widens by
    the larger side's relative stddev, so a noisy machine produces a
    wider gate instead of a flaky one.

    When both artifacts carry a ``host`` calibration stamp (see
    :func:`host_calibration`), the baseline numbers are rescaled by the
    hosts' spin-loop speed ratio before comparison, so a baseline
    committed from a fast runner does not read as a regression on a
    slow one.  Unstamped artifacts compare uncalibrated (ratio 1.0).

    Returns message strings; empty means no regression beyond the
    tolerance.  Whether a non-empty list is a warning or a failure is
    the caller's policy (``repro bench`` defaults to warn;
    ``--regress-fail`` promotes it)."""
    warnings: List[str] = []
    cal = calibration_ratio(baseline, current)

    def check(label: str, old_value, new_value, extra_slack: float = 0.0) -> None:
        if not old_value or not new_value:
            return
        expected = old_value * cal
        if new_value < expected * (1.0 - tolerance - extra_slack):
            drop = 100.0 * (1.0 - new_value / expected)
            warnings.append(
                f"{label}: events/sec regressed {drop:.0f}% "
                f"({expected:,.0f} calibrated -> {new_value:,.0f})"
            )

    def run_noise(entry: Dict) -> float:
        """Relative repeat spread of the compiled whole-run wall."""
        stats = entry.get("run_wall_stats", {}).get("compiled", {})
        best = stats.get("best_s")
        stddev = stats.get("stddev_s")
        if not best or stddev is None:
            return 0.0
        return stddev / best

    old_totals = baseline.get("totals", {}).get("events_per_s_checking", {})
    new_totals = current.get("totals", {}).get("events_per_s_checking", {})
    for mode in ("interpreted", "compiled"):
        check(f"totals.{mode}", old_totals.get(mode), new_totals.get(mode))
    # Walk the union of scenario keys: a scenario present on only one
    # side (the default subset changed, or the catalog gained/lost an
    # entry) is a note, not a crash — the numeric gate only applies
    # where both artifacts measured the same thing.
    old_scenarios = baseline.get("scenarios", {})
    new_scenarios = current.get("scenarios", {})
    for name in sorted(set(old_scenarios) | set(new_scenarios)):
        if name not in new_scenarios:
            warnings.append(
                f"{name}: in baseline but not current run; skipping comparison"
            )
            continue
        if name not in old_scenarios:
            warnings.append(
                f"{name}: in current run but not baseline; skipping comparison"
            )
            continue
        # .get chains: a schema-drifted artifact skips the comparison
        # rather than failing the gate.
        check(
            f"{name}.compiled",
            old_scenarios[name].get("checking", {}).get("compiled", {})
            .get("events_per_s"),
            new_scenarios[name].get("checking", {}).get("compiled", {})
            .get("events_per_s"),
        )
        check(
            f"{name}.run.compiled",
            old_scenarios[name].get("run_events_per_s", {}).get("compiled"),
            new_scenarios[name].get("run_events_per_s", {}).get("compiled"),
            extra_slack=max(
                run_noise(old_scenarios[name]), run_noise(new_scenarios[name])
            ),
        )
    return warnings


def kernel_gain(baseline: Dict, current: Dict) -> Dict:
    """Whole-run kernel throughput vs a baseline artifact.

    Ratios of compiled-mode ``run_events_per_s`` per scenario (packets
    through the simulation per wall second — the kernel-speed number,
    as opposed to the checking-path replay throughput), over the
    scenarios both artifacts measured.  The geometric mean is the
    headline; ``min_speedup`` is the gate-friendly floor.  When both
    artifacts carry a host-calibration stamp, ``calibrated_geomean``
    normalizes away the host-speed difference — the number to hold
    against a speedup target across different runners.
    """
    entries: Dict[str, Dict] = {}
    old_scenarios = baseline.get("scenarios", {})
    new_scenarios = current.get("scenarios", {})
    for name in sorted(set(old_scenarios) & set(new_scenarios)):
        old = old_scenarios[name].get("run_events_per_s", {}).get("compiled")
        new = new_scenarios[name].get("run_events_per_s", {}).get("compiled")
        if not old or not new:
            continue
        entries[name] = {
            "baseline": old,
            "current": new,
            "speedup": round(new / old, 3),
        }
    ratios = [e["speedup"] for e in entries.values()]
    geomean = (
        round(math.exp(sum(math.log(r) for r in ratios) / len(ratios)), 3)
        if ratios
        else None
    )
    cal = calibration_ratio(baseline, current)
    return {
        "scenarios": entries,
        "min_speedup": min(ratios) if ratios else None,
        "geomean_speedup": geomean,
        "calibration_ratio": round(cal, 3),
        "calibrated_geomean": round(geomean / cal, 3)
        if geomean is not None and cal > 0
        else None,
    }


def _readable_name(name: str) -> str:
    """Human attribution for one profile frame.

    cProfile records the code object's qualname (bare name before
    py3.11), so nested closures arrive as ``build_monitor.<locals>.feed``
    and anonymous code as ``<lambda>``/``<genexpr>``.  The table and the
    collapsed stacks should read as code the reader can find: the
    ``<locals>`` hop is dropped and anonymous frames keep a stable
    printable form (the ``file:line`` part of the label is what locates
    them).
    """
    name = name.replace(".<locals>", "")
    if name.startswith("<") and name.endswith(">"):
        name = name[1:-1]
    return name


def _frame_label(func: Tuple[str, int, str]) -> str:
    """One collapsed-stack frame: ``file:line:name``, basename only.

    Semicolons separate frames and the trailing space separates the
    count in the folded format, so neither may appear inside a frame.
    """
    filename, lineno, name = func
    base = os.path.basename(filename) if filename not in ("~", "") else "~"
    name = _readable_name(name)
    label = f"{base}:{lineno}:{name}" if lineno else f"{base}:{name}"
    return label.replace(";", ",").replace(" ", "_")


def _render_profile_table(stats: pstats.Stats, top_n: int) -> str:
    """Top-``top_n`` cumulative-time table with readable attribution.

    Same columns as ``pstats.print_stats`` but rendered here so frame
    names pass through :func:`_readable_name` — table-dispatched steps
    appear as the bound methods they are
    (``microengine.py:...(Microengine._mem_done)``), and compiled
    monitor feeds lose the ``<locals>`` hop.
    """
    total_calls = 0
    prim_calls = 0
    total_tt = 0.0
    for _cc, _nc, _tt, _ct, _callers in stats.stats.values():
        total_calls += _nc
        prim_calls += _cc
        total_tt += _tt
    calls = (
        f"{total_calls} function calls"
        if total_calls == prim_calls
        else f"{total_calls} function calls ({prim_calls} primitive calls)"
    )
    lines = [
        f"{calls} in {total_tt:.3f} seconds",
        "",
        f"{'ncalls':>12s} {'tottime':>9s} {'percall':>9s} "
        f"{'cumtime':>9s} {'percall':>9s}  location(function)",
    ]
    ranked = sorted(
        stats.stats.items(), key=lambda item: item[1][3], reverse=True
    )
    for func, (cc, nc, tt, ct, _callers) in ranked[: max(0, top_n)]:
        filename, lineno, name = func
        if filename in ("~", ""):
            where = f"{_readable_name(name)}"
        else:
            where = (
                f"{os.path.basename(filename)}:{lineno}"
                f"({_readable_name(name)})"
            )
        ncalls = str(nc) if nc == cc else f"{nc}/{cc}"
        lines.append(
            f"{ncalls:>12s} {tt:9.3f} {tt / nc if nc else 0.0:9.6f} "
            f"{ct:9.3f} {ct / cc if cc else 0.0:9.6f}  {where}"
        )
    return "\n".join(lines) + "\n"


def collapsed_stacks(stats: pstats.Stats) -> List[str]:
    """Caller;callee folded lines from cProfile stats, flamegraph-ready.

    cProfile records caller/callee *pairs*, not full stacks, so each
    line is a two-frame stack weighted by the cumulative microseconds
    the callee spent under that caller — an approximation that still
    surfaces where the hot loop's time pools.  Root (uncalled)
    functions appear as single-frame lines.
    """
    lines: List[str] = []
    for func, (_cc, _nc, _tt, ct, callers) in sorted(stats.stats.items()):
        label = _frame_label(func)
        if not callers:
            weight = int(ct * 1e6)
            if weight > 0:
                lines.append(f"{label} {weight}")
            continue
        for caller, caller_stats in sorted(callers.items()):
            weight = int(caller_stats[3] * 1e6)  # cumtime under this caller
            if weight > 0:
                lines.append(f"{_frame_label(caller)};{label} {weight}")
    return lines


def profile_kernel(
    scenario_name: str = "flash_crowd",
    profile: str = "bench",
    top_n: int = 25,
    stacks_path: Optional[str] = None,
) -> Dict:
    """Run one compiled-monitor simulation under cProfile.

    The profiled workload is the same kernel hot loop ``repro bench``
    times: the scenario's configuration with the full compiled-monitor
    set attached.  Returns a dict with the top-``top_n``
    cumulative-time table (``table``, pre-rendered text) and, when
    ``stacks_path`` is given, writes caller;callee collapsed stacks
    there for flamegraph tooling (see :func:`collapsed_stacks`).
    """
    config = bench_config(scenario_name, profile)
    formulas = bench_formulas(scenario_name, span_for(profile))
    monitors = [build_monitor(f, mode="compiled") for f in formulas]
    run = SimulationRun(config, monitors=monitors)
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        result = run.run()
    finally:
        profiler.disable()
    stats = pstats.Stats(profiler)
    table = _render_profile_table(stats, top_n)
    stacks = collapsed_stacks(stats)
    if stacks_path is not None:
        with open(stacks_path, "w", encoding="utf-8") as handle:
            handle.write("\n".join(stacks) + ("\n" if stacks else ""))
    return {
        "scenario": scenario_name,
        "profile": profile,
        "top_n": top_n,
        "events": _event_count(result),
        "table": table,
        "stack_lines": len(stacks),
        "stacks_path": stacks_path,
    }


def write_bench_json(data: Dict, path: str) -> None:
    """Write the artifact (stable key order, trailing newline)."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(data, handle, indent=2, sort_keys=True)
        handle.write("\n")


def load_bench_json(path: str) -> Dict:
    """Read a previously written artifact."""
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)
