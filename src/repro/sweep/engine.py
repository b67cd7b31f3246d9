"""The sweep runner: :func:`run_family`, :func:`run_job` and the sweep
report helpers.

:func:`run_family` is the single in-process execution path every
backend shares: the serial loop and the process-pool workers run whole
job families through it, and :func:`run_job` (the distributed
``repro worker`` processes, custom backends) is a family of one.  That
is what makes results bit-identical regardless of where a job lands.
Sweeps themselves run through :meth:`repro.api.Session.sweep` (or
``Session.stream`` for completion-order results).

Threshold siblings share a run
------------------------------
A *family* is a set of TDVS jobs identical except for the traffic
rule's own parameters (:data:`~repro.dvs.governor.TRAFFIC_RULE_FIELDS`:
``top_threshold_mbps`` and ``tdvs_hysteresis``); :func:`family_key` is
the job identity with those blanked.  Members run in job order.  Each
simulated member leaves its governor's window inputs behind (the level
before and the judged arrival rate, per window).  A later member whose
own rule, replayed over those inputs, lands on the recorded level after
at *every* window makes every decision that member made, so by
induction over the event sequence its run is that member's run, event
for event.  It takes a deep copy of that member's outcome instead of
simulating.  The inputs never leave the process that recorded them.

A :class:`~repro.sweep.store.ResultStore` makes sweeps resumable:
completed job ids are skipped and their stored outcomes returned
instead, and fresh outcomes are appended as they stream in — so an
interrupted grid (or a crashed distributed coordinator) only pays for
the missing cells on the next run.
"""

from __future__ import annotations

import copy
import sys
import time
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.config import RunConfig
from repro.dvs.governor import TRAFFIC_RULE_FIELDS
from repro.dvs.tdvs import TdvsDecisions, TdvsGovernor
from repro.loc.builtin import (
    power_distribution_formula,
    throughput_distribution_formula,
)
from repro.loc.monitor import build_monitor
from repro.runner import SimulationRun
from repro.sweep.spec import Job, config_hash
from repro.sweep.store import SweepOutcome

#: Progress callback: (completed_count, total_count, outcome).
ProgressFn = Callable[[int, int, SweepOutcome], None]


def family_key(job: Job) -> Optional[str]:
    """The identity a TDVS job shares with its threshold siblings.

    The job's identity hash (config dict, span, scenario, checks) with
    the traffic rule's own fields blanked.
    ``None`` for every other policy: ``combined``'s idle rule reads the
    chip, so only TDVS qualifies.  Works on the job's dicts alone, with
    no :class:`~repro.config.RunConfig` built.
    """
    dvs = job.config.get("dvs") or {}
    if dvs.get("policy") != "tdvs":
        return None
    config = dict(job.config)
    config["dvs"] = {**dvs, **dict.fromkeys(TRAFFIC_RULE_FIELDS)}
    return config_hash(config, job.span, job.scenario, job.checks)


def job_families(jobs: Sequence[Job]) -> List[List[Job]]:
    """Group ``jobs`` into families, in order of first appearance.

    Members keep job order; a job without a :func:`family_key` is a
    family of one.
    """
    families: List[List[Job]] = []
    by_key: Dict[str, List[Job]] = {}
    for job in jobs:
        key = family_key(job)
        if key is None:
            families.append([job])
        elif key in by_key:
            by_key[key].append(job)
        else:
            by_key[key] = [job]
            families.append(by_key[key])
    return families


def run_family(jobs: Sequence[Job]) -> Iterator[Tuple[SweepOutcome, bool]]:
    """Run a family's members in order, yielding ``(outcome, shared)``.

    ``shared`` is true when a sibling's run answered the member: its
    rule, replayed over that sibling's recorded window inputs,
    reproduced every decision (see the module docstring).  The outcome
    is then a deep copy of the sibling's, carrying the member's own
    ``job_id``, ``label`` and ``result.config``, and its ``to_dict()``
    equals that of an independent run byte for byte.  A job is only
    ever compared with earlier jobs of its own :func:`family_key`, so
    any job list is safe to pass.  Each member's
    :class:`~repro.runner.SimulationRun` is released before the next
    member runs; only its outcome and window inputs are kept.
    """
    finished: Dict[Optional[str], List[Tuple[TdvsDecisions, SweepOutcome]]] = {}
    for job in jobs:
        config = job.run_config()
        siblings = finished.setdefault(family_key(job), [])
        source = next(
            (
                outcome
                for decisions, outcome in siblings
                if decisions.reproduced_by(config.dvs)
            ),
            None,
        )
        if source is not None:
            yield _derived(source, job, config), True
            continue
        outcome, decisions = _simulate(job, config)
        if decisions is not None:
            siblings.append((decisions, outcome))
        yield outcome, False


def _derived(source: SweepOutcome, job: Job, config: RunConfig) -> SweepOutcome:
    """``source`` as ``job``'s outcome, sharing no mutable object with it."""
    outcome = copy.deepcopy(source)
    outcome.job_id = job.job_id
    outcome.label = job.label
    outcome.result.config = config
    return outcome


def run_job(job: Job) -> SweepOutcome:
    """Execute one job in this process: a family of one.

    This is the execution path of the distributed workers and custom
    backends.
    Determinism comes from the job itself: the config carries the seed,
    and every RNG stream derives from it.

    LOC analysis (the span distributions and ``job.checks``) rides the
    run's :class:`~repro.trace.bus.TraceBus` as generated monitors
    (:func:`~repro.loc.monitor.build_monitor`).

    Observed runs additionally carry per-channel ``published`` event
    counts in ``outcome.obs`` — only the observer-independent half of
    :meth:`~repro.trace.bus.TraceBus.channel_stats`, so outcomes stay
    byte-identical across backends (delivery counts depend on which
    monitors subscribe to which names).
    """
    ((outcome, _shared),) = run_family([job])
    return outcome


def _simulate(
    job: Job, config: RunConfig
) -> Tuple[SweepOutcome, Optional[TdvsDecisions]]:
    """Simulate ``job``: its outcome, plus its TDVS window inputs."""
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
    run = SimulationRun(config, monitors=monitors)
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
    # backend, so byte-identity holds.  Wall-clock spans never go
    # through outcomes — they stay in the per-process recorder (see
    # repro.obs.spans).
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
    outcome = SweepOutcome(
        job_id=job.job_id,
        label=job.label,
        result=result,
        power_dist=power_monitor.finish() if power_monitor else None,
        throughput_dist=throughput_monitor.finish() if throughput_monitor else None,
        check_results=check_results,
        obs=obs,
    )
    governor = run.governor
    decisions = governor.decisions() if isinstance(governor, TdvsGovernor) else None
    return outcome, decisions


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
