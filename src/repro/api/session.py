"""The :class:`Session` facade: one object that owns execution policy.

A session binds an :class:`~repro.api.policy.ExecutionPolicy`, a
:class:`~repro.api.policy.StorePolicy` and an
:class:`~repro.api.events.EventHooks` bundle once, then offers every
entry point of the reproduction through them:

* :meth:`Session.run` — one configuration, one outcome;
* :meth:`Session.sweep` — a grid, outcomes in job order;
* :meth:`Session.stream` — the same grid, outcomes yielded **in
  completion order** as the backend finishes them (cached hits first);
* :meth:`Session.study` — a scenario-conditioned policy study, with
  per-scenario verdicts available the moment each scenario's grid
  drains;
* :meth:`Session.experiment` — a registered paper figure, whose
  grids sweep through the session.

What a session does depends only on the arguments it was built with.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

from repro.api.events import EventHooks, chain_hooks
from repro.api.policy import ExecutionPolicy, StorePolicy
from repro.config import RunConfig
from repro.errors import BackendError, ExperimentError
from repro.sweep.spec import Job, SweepSpec
from repro.sweep.store import ResultStore, SweepOutcome

JobsLike = Union[SweepSpec, Sequence[Job]]


class Session:
    """A configured entry point for runs, sweeps, studies, experiments.

    Parameters
    ----------
    execution:
        Backend / worker / connect policy (default: serial for one
        worker).
    store:
        Result persistence and cache-reuse policy (default: no store).
    hooks:
        Session-wide event subscribers; per-call hooks layer on top.
    """

    def __init__(
        self,
        execution: Optional[ExecutionPolicy] = None,
        store: Optional[StorePolicy] = None,
        hooks: Optional[EventHooks] = None,
    ):
        self.execution = execution or ExecutionPolicy()
        self.store = store or StorePolicy()
        self.hooks = hooks or EventHooks()
        # The session-level telemetry snapshot: job/outcome counters,
        # per-channel TraceBus accounting aggregated across outcomes,
        # and backend fleet telemetry — exported via write_metrics().
        from repro.obs.metrics import MetricsRegistry
        from repro.obs.spans import SpanRecorder

        self.metrics = MetricsRegistry()
        # The session's own span timeline.  While a sweep streams it is
        # the process-wide recorder, so backend-internal spans
        # (coordinator grants, worker absorption) land in the same log as
        # the session's orchestration spans, and no session's records
        # pile up in another's.
        self.spans = SpanRecorder()

    # -- single runs -----------------------------------------------------
    def run(
        self,
        config: Union[RunConfig, Dict, Job],
        span: Optional[int] = None,
        label: str = "",
        checks: Sequence[str] = (),
    ) -> SweepOutcome:
        """Run one configuration under the session's policies.

        Accepts a :class:`~repro.config.RunConfig` (or its dict form),
        or a pre-built :class:`~repro.sweep.spec.Job`.  The result-store
        policy applies: a cached outcome is served without simulating.
        """
        if isinstance(config, Job):
            job = config
        else:
            job = Job.build(config, span=span, label=label, checks=checks)
        return self.sweep([job])[0]

    # -- sweeps ----------------------------------------------------------
    def sweep(
        self, jobs: JobsLike, hooks: Optional[EventHooks] = None
    ) -> List[SweepOutcome]:
        """Run a sweep and return outcomes in job order.

        Duplicate job ids execute once; the shared outcome (including
        the first occurrence's display label) lands at every index.
        """
        jobs = self._expand(jobs)
        by_id: Dict[str, SweepOutcome] = {}
        for outcome in self.stream(jobs, hooks=hooks):
            by_id[outcome.job_id] = outcome
        return [by_id[job.job_id] for job in jobs]

    def stream(
        self, jobs: JobsLike, hooks: Optional[EventHooks] = None
    ) -> Iterator[SweepOutcome]:
        """Run a sweep, yielding outcomes **in completion order**.

        Cached outcomes (store hits) stream first, in job order; fresh
        outcomes follow as the backend finishes them — any backend, any
        worker count, same numbers.  Each unique job id yields exactly
        once.  Event hooks fire as outcomes are yielded; the
        ``progress`` hook ticks once per job *index* (duplicates
        included), preserving the legacy progress contract.
        """
        jobs = self._expand(jobs)
        merged = chain_hooks(self.hooks, hooks)
        return self._stream(jobs, merged)

    def _expand(self, jobs: JobsLike) -> List[Job]:
        if isinstance(jobs, SweepSpec):
            return jobs.jobs()
        return list(jobs)

    def _stream(
        self, jobs: List[Job], hooks: EventHooks
    ) -> Iterator[SweepOutcome]:
        from repro.backends.base import ExecutionBackend

        from repro.obs.metrics import FORWARD_LATENCY_EDGES_US
        from repro.obs.spans import swap_recorder

        total = len(jobs)
        done = 0

        # Group indices by job id so repeats execute exactly once.
        indices_by_id: Dict[str, List[int]] = {}
        first_jobs: List[Job] = []
        for index, job in enumerate(jobs):
            slots = indices_by_id.setdefault(job.job_id, [])
            if not slots:
                first_jobs.append(job)
            slots.append(index)

        metrics = self.metrics
        spans = self.spans
        if hooks.on_span is not None:
            spans.add_listener(hooks.on_span)

        def emit(outcome: SweepOutcome) -> None:
            nonlocal done
            for _ in indices_by_id[outcome.job_id]:
                done += 1
                if hooks.progress is not None:
                    hooks.progress(done, total, outcome)
            metrics.counter("session.outcomes").inc()
            if outcome.cached:
                metrics.counter("session.outcomes_cached").inc()
            if outcome.obs:
                for name, stats in outcome.obs.get("channels", {}).items():
                    metrics.counter(f"trace.{name}.published").inc(
                        int(stats["published"])
                    )
                # The job's deterministic sim-time timeline joins the
                # session span log, tagged with the job id so exporters
                # can group each run's kernel phases into its own track
                # set and link them to the wall-clock job spans.
                spans.extend(
                    outcome.obs.get("spans") or (),
                    attrs={"job": outcome.job_id},
                )
            # Forward-latency distribution per scenario: every outcome
            # carrying a span-latency check contributes its mean
            # inter-packet span latency (µs) to a fixed-edge histogram,
            # so snapshots ship mergeable latency distributions without
            # any per-packet sampling.
            for check in outcome.check_results:
                # The unparsed LHS arrives parenthesized:
                # "(time(forward[i+k]) - time(forward[i])) <= bound".
                if (
                    check.instances_checked > 0
                    and check.formula_text.lstrip("(").startswith(
                        "time(forward["
                    )
                ):
                    scenario = (
                        outcome.result.config.traffic.scenario or "none"
                    )
                    metrics.histogram(
                        f"latency.forward.{scenario}",
                        FORWARD_LATENCY_EDGES_US,
                    ).observe(check.mean_lhs)
            if hooks.on_outcome is not None:
                hooks.on_outcome(outcome)
            if hooks.on_check_failed is not None and outcome.check_results:
                failed = [c for c in outcome.check_results if not c.passed]
                if failed:
                    hooks.on_check_failed(outcome, failed)

        previous_recorder = swap_recorder(spans)
        try:
            with spans.wall_span("stream", "session", {"jobs": total}):
                store: Optional[ResultStore] = self.store.make()
                pending: List[Job] = []
                cached_hits: List[SweepOutcome] = []
                for job in first_jobs:
                    cached = (
                        store.get(job.job_id)
                        if store is not None and self.store.reuse
                        else None
                    )
                    if cached is not None:
                        cached_hits.append(cached)
                    else:
                        pending.append(job)
                for outcome in cached_hits:
                    emit(outcome)
                    yield outcome

                if not pending:
                    # Single-use contract even when everything was cached.
                    if isinstance(self.execution.backend, ExecutionBackend):
                        self.execution.backend.close()
                    return

                open_ids = {job.job_id for job in pending}
                backend = self.execution.make_backend(len(pending))
                try:
                    with spans.wall_span(
                        "run", "backend",
                        {"backend": backend.name, "jobs": len(pending)},
                    ):
                        for outcome in backend.run(
                            pending, on_start=hooks.on_job_start
                        ):
                            if outcome.job_id not in open_ids:
                                raise BackendError(
                                    f"backend {backend.name!r} yielded unknown or "
                                    f"duplicate job id {outcome.job_id!r}"
                                )
                            open_ids.discard(outcome.job_id)
                            if store is not None:
                                with spans.wall_span(
                                    "append", "store",
                                    {"job": outcome.job_id},
                                ):
                                    store.add(outcome)
                            emit(outcome)
                            yield outcome
                    # Fleet telemetry (coordinator/worker counters, lease
                    # EWMA) merges into the sweep-level snapshot once the
                    # run drains.
                    metrics.merge_telemetry(
                        backend.telemetry(), prefix=f"backend.{backend.name}."
                    )
                finally:
                    backend.close()
                if open_ids:
                    raise BackendError(
                        f"backend {backend.name!r} finished without yielding "
                        f"{len(open_ids)} job(s): {', '.join(sorted(open_ids))}"
                    )
        finally:
            swap_recorder(previous_recorder)
            if hooks.on_span is not None:
                spans.remove_listener(hooks.on_span)

    # -- telemetry -------------------------------------------------------
    def write_metrics(self, path: str, meta: Optional[Dict] = None) -> None:
        """Write the session's metrics snapshot as JSONL.

        One header line (schema tag + version) then one sorted line per
        instrument — see ``src/repro/obs/SCHEMA.md`` and the
        ``repro metrics`` CLI.
        """
        self.metrics.write_snapshot(path, meta=meta)

    def write_spans(self, path: str, meta: Optional[Dict] = None) -> None:
        """Write the session's span timeline as a JSONL span log.

        One header line (schema tag + version) then one sorted line per
        span — the artifact ``repro trace export`` and ``repro report
        --html`` consume.  A session that recorded nothing still writes
        the header line.
        """
        self.spans.write(path, meta=meta)

    # -- studies ---------------------------------------------------------
    def study(
        self,
        spec,
        jobs_by_scenario: Optional[Sequence[Tuple[str, List[Job]]]] = None,
        hooks: Optional[EventHooks] = None,
        on_scenario_complete=None,
    ):
        """Run a scenario-conditioned policy study (one streamed sweep).

        ``jobs_by_scenario`` accepts a precomputed
        :meth:`~repro.studies.spec.StudySpec.jobs_by_scenario` expansion
        so callers that already expanded the grid (the CLI prints the
        job count up front) do not pay for a second expansion; the
        sweep is the concatenation of every scenario's grid.
        ``hooks`` layer on the session's own event hooks.
        ``on_scenario_complete(verdict)`` fires the moment the last
        outcome of a scenario's grid lands — with that scenario's
        :class:`~repro.studies.policymap.ScenarioVerdict`, identical to
        its entry in the final map — so gates short-circuit per
        scenario instead of waiting for the whole study.
        """
        from repro.studies.engine import StudyResult
        from repro.studies.policymap import PolicyMap

        per_scenario = (
            list(jobs_by_scenario)
            if jobs_by_scenario is not None
            else spec.jobs_by_scenario()
        )
        flat_jobs = [job for _, jobs in per_scenario for job in jobs]

        study_hooks = hooks
        if on_scenario_complete is not None:
            study_hooks = chain_hooks(
                hooks,
                EventHooks(
                    on_outcome=_ScenarioCompletionTracker(
                        spec, per_scenario, on_scenario_complete
                    )
                ),
            )

        flat_outcomes = self.sweep(flat_jobs, hooks=study_hooks)

        outcomes_by_scenario: List[Tuple[str, List[SweepOutcome]]] = []
        cursor = 0
        for scenario_name, jobs in per_scenario:
            chunk = flat_outcomes[cursor : cursor + len(jobs)]
            cursor += len(jobs)
            outcomes_by_scenario.append((scenario_name, list(chunk)))

        policy_map = PolicyMap.build(spec, outcomes_by_scenario)
        return StudyResult(
            spec=spec,
            policy_map=policy_map,
            outcomes_by_scenario=outcomes_by_scenario,
        )

    # -- experiments -----------------------------------------------------
    def experiment(self, experiment_id: str, profile: str = "quick"):
        """Run a registered paper experiment through this session.

        The figure's grids sweep through :meth:`sweep`, so the
        session's execution policy, store and event hooks apply to
        them; every simulating experiment except ``fig04``,
        ``formula1`` and ``idle`` runs that way.  Figures share
        outcomes only through the session's store.  A figure may run
        several sweeps and each builds its own backend, so the policy
        must name the backend: a pre-built instance is single-use and
        is refused.
        """
        from repro.experiments.registry import get_experiment

        backend = self.execution.backend
        if backend is not None and not isinstance(backend, str):
            raise ExperimentError(
                "experiment runs need a named backend policy "
                "('serial' / 'process' / 'distributed'), not a "
                "single-use backend instance"
            )
        return get_experiment(experiment_id).runner(profile, self)


class _ScenarioCompletionTracker:
    """Fires a study's per-scenario verdicts as grids drain."""

    def __init__(self, spec, per_scenario, on_scenario_complete):
        self.spec = spec
        self.on_scenario_complete = on_scenario_complete
        self.jobs_of = {name: list(jobs) for name, jobs in per_scenario}
        self.pending = {
            name: {job.job_id for job in jobs} for name, jobs in per_scenario
        }
        self.scenarios_by_id: Dict[str, List[str]] = {}
        for name, jobs in per_scenario:
            for job in jobs:
                self.scenarios_by_id.setdefault(job.job_id, []).append(name)
        self.collected: Dict[str, SweepOutcome] = {}

    def __call__(self, outcome: SweepOutcome) -> None:
        from repro.studies.policymap import PolicyMap

        self.collected[outcome.job_id] = outcome
        for name in self.scenarios_by_id.get(outcome.job_id, ()):
            remaining = self.pending.get(name)
            if remaining is None:
                continue
            remaining.discard(outcome.job_id)
            if remaining:
                continue
            del self.pending[name]
            ordered = [self.collected[j.job_id] for j in self.jobs_of[name]]
            verdict = PolicyMap.build(self.spec, [(name, ordered)]).entries[name]
            self.on_scenario_complete(verdict)
