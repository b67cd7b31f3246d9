"""The sweep runner: :func:`run_job` and the sweep report helpers.

:func:`run_job` is the single in-process execution path every backend
shares — the serial loop, the process-pool workers and the distributed
``repro worker`` processes all call it, which is what makes results
bit-identical regardless of where a job lands.  Sweeps themselves run
through :meth:`repro.api.Session.sweep` (or ``Session.stream`` for
completion-order results).

A :class:`~repro.sweep.store.ResultStore` makes sweeps resumable:
completed job ids are skipped and their stored outcomes returned
instead, and fresh outcomes are appended as they stream in — so an
interrupted grid (or a crashed distributed coordinator) only pays for
the missing cells on the next run.
"""

from __future__ import annotations

import os
import sys
import time
from typing import Callable, Sequence

from repro.errors import ExperimentError
from repro.loc.builtin import (
    power_distribution_formula,
    throughput_distribution_formula,
)
from repro.loc.monitor import build_monitor
from repro.runner import SimulationRun
from repro.sweep.spec import Job
from repro.sweep.store import SweepOutcome

#: Environment override for the default worker count (see
#: :func:`default_workers`); experiments consult it so ``repro run``
#: figures parallelize without new plumbing through every profile.
WORKERS_ENV_VAR = "REPRO_SWEEP_WORKERS"

#: Progress callback: (completed_count, total_count, outcome).
ProgressFn = Callable[[int, int, SweepOutcome], None]


def default_workers() -> int:
    """Worker count from ``REPRO_SWEEP_WORKERS`` (default: serial)."""
    value = os.environ.get(WORKERS_ENV_VAR, "").strip()
    if not value:
        return 1
    try:
        workers = int(value)
    except ValueError:
        raise ExperimentError(
            f"{WORKERS_ENV_VAR} must be an integer, got {value!r}"
        ) from None
    return max(1, workers)


def run_job(job: Job) -> SweepOutcome:
    """Execute one job in this process.

    This is the single execution path shared by the serial loop, the
    process-pool workers and :func:`repro.experiments.common.instrumented_run`.
    Determinism comes from the job itself: the config carries the seed,
    and every RNG stream derives from it.

    LOC analysis (the span distributions and ``job.checks``) rides the
    run's :class:`~repro.trace.bus.TraceBus` as online monitors —
    compiled by default, interpretive under
    ``REPRO_LOC_MONITOR=interpreted`` — with results proven identical
    either way (``tests/test_monitors.py``).

    When the job carries an early-abort policy (``job.early_abort``),
    streaming anomaly gates (:mod:`repro.obs.gates`) attach after the
    monitors and may stop the simulator mid-run; the outcome then
    reports ``result.aborted_early`` with partial totals.  Observed
    runs additionally carry per-channel ``published`` event counts in
    ``outcome.obs`` — only the observer-independent half of
    :meth:`~repro.trace.bus.TraceBus.channel_stats`, so outcomes stay
    byte-identical across backends *and* monitor modes (delivery/shed
    accounting depends on subscriber topology, which differs between
    compiled monitors and the interpreted wildcard-sink fallback).
    """
    config = job.run_config()
    power_monitor = throughput_monitor = None
    monitors = []
    if job.span is not None:
        power_monitor = build_monitor(
            power_distribution_formula(span=job.span), expect="distribution"
        )
        throughput_monitor = build_monitor(
            throughput_distribution_formula(span=job.span),
            expect="distribution",
        )
        monitors = [power_monitor, throughput_monitor]
    check_monitors = [
        build_monitor(check, expect="checker") for check in job.checks
    ]
    monitors = monitors + check_monitors
    gates = []
    if job.early_abort:
        from repro.obs.gates import EarlyAbortPolicy, build_gates

        gates = build_gates(
            EarlyAbortPolicy.from_dict(job.early_abort), check_monitors
        )
    run = SimulationRun(config, monitors=monitors, gates=gates)
    result = run.run()
    channel_stats = run.bus.channel_stats()
    check_results = [monitor.finish() for monitor in check_monitors]
    obs = None
    if channel_stats:
        obs = {
            "channels": {
                name: {"published": channel_stats[name]["published"]}
                for name in sorted(channel_stats)
            },
        }
    # Deterministic sim-clock spans (scenario segments, per-ME phase
    # windows, check-evaluation windows) ride the outcome like the
    # channel counters: same integer-picosecond values from every
    # backend and monitor mode, so byte-identity holds.  Wall-clock
    # spans never go through outcomes — they stay in the per-process
    # recorder (see repro.obs.spans).
    spans = run.sim_spans()
    if spans:
        end_ps = run.sim.now_ps
        for check in check_results:
            spans.append({
                "clock": "sim",
                "name": "check",
                "track": "checks",
                "start": 0,
                "dur": end_ps,
                "attrs": {
                    "formula": check.formula_text,
                    "instances": check.instances_checked,
                },
            })
        obs = dict(obs or {})
        obs["spans"] = spans
    return SweepOutcome(
        job_id=job.job_id,
        label=job.label,
        result=result,
        power_dist=power_monitor.finish() if power_monitor else None,
        throughput_dist=throughput_monitor.finish() if throughput_monitor else None,
        check_results=check_results,
        obs=obs,
    )


def summarize(outcomes: Sequence[SweepOutcome]) -> str:
    """A text table of sweep outcomes (the CLI's summary report)."""
    header = (
        f"{'job':32s} {'power(W)':>9s} {'tput(Mbps)':>10s} "
        f"{'loss%':>6s} {'trans':>6s} {'cached':>6s}"
    )
    lines = [header, "-" * len(header)]
    for outcome in outcomes:
        label = outcome.label or outcome.job_id
        lines.append(
            f"{label[:32]:32s} {outcome.mean_power_w:9.3f} "
            f"{outcome.throughput_mbps:10.1f} "
            f"{outcome.result.totals.loss_fraction * 100:6.2f} "
            f"{outcome.result.governor_transitions:6d} "
            f"{'yes' if outcome.cached else 'no':>6s}"
        )
    return "\n".join(lines)


def progress_printer(stream=None) -> ProgressFn:
    """A progress callback that writes one line per completed job."""
    out = stream or sys.stderr
    # Judgment call: this clock feeds the operator's progress line on
    # stderr only — never sim time, outcomes, or stored artifacts — so
    # the wall-clock rule is suppressed rather than obeyed here.
    start = time.monotonic()  # repro: noqa(DET102)

    def report(done: int, total: int, outcome: SweepOutcome) -> None:
        elapsed = time.monotonic() - start  # repro: noqa(DET102)
        tag = " (cached)" if outcome.cached else ""
        out.write(
            f"[{done:3d}/{total}] {elapsed:7.1f}s "
            f"{outcome.label or outcome.job_id}{tag}\n"
        )
        out.flush()

    return report
