"""The session event surface: streamed execution notifications.

An :class:`EventHooks` bundle subscribes to the lifecycle of a sweep as
it streams — the assertion-based-methodology move of checking verdicts
*as runs complete* instead of after the whole grid lands:

``on_job_start(job)``
    A job was dispatched: handed to the serial loop, submitted to the
    process pool, or granted to a distributed worker.  May fire from a
    non-main thread (distributed), and again for a job whose lease was
    lost and requeued.
``on_outcome(outcome)``
    One outcome arrived (cached hits included — inspect
    ``outcome.cached``).  Fires once per unique job.
``on_check_failed(outcome, failed)``
    Convenience subset of ``on_outcome``: the outcome carried LOC
    checker verdicts and at least one recorded violations.  ``failed``
    is the violating :class:`~repro.loc.checker.CheckResult` list.
``progress(done, total, outcome)``
    The legacy per-delivery callback, counted per job *index* (so a
    duplicated job id ticks once per occurrence) — exactly what
    :func:`~repro.sweep.engine.progress_printer` expects.
``on_span(record)``
    One span record landed in the session's process-wide
    :class:`~repro.obs.spans.SpanRecorder` (wall-clock orchestration
    spans and absorbed sim-time job spans alike).  Registered as a
    recorder listener for the duration of each streamed sweep.  May
    fire from a non-main thread (distributed grants and completions).

Hooks must not raise: an exception escapes into (and aborts) the sweep,
by design — a monitoring bug should be loud, not silent.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Any, Callable, Dict, List, Optional

from repro.loc.checker import CheckResult
from repro.sweep.spec import Job
from repro.sweep.store import SweepOutcome

StartHook = Callable[[Job], None]
OutcomeHook = Callable[[SweepOutcome], None]
CheckFailedHook = Callable[[SweepOutcome, List[CheckResult]], None]
ProgressHook = Callable[[int, int, SweepOutcome], None]
SpanHook = Callable[[Dict[str, Any]], None]


@dataclass(frozen=True)
class EventHooks:
    """One subscriber bundle; any subset of hooks may be set."""

    on_job_start: Optional[StartHook] = field(default=None, compare=False)
    on_outcome: Optional[OutcomeHook] = field(default=None, compare=False)
    on_check_failed: Optional[CheckFailedHook] = field(default=None, compare=False)
    progress: Optional[ProgressHook] = field(default=None, compare=False)
    on_span: Optional[SpanHook] = field(default=None, compare=False)

    def __bool__(self) -> bool:
        return any(
            getattr(self, spec.name) is not None for spec in fields(self)
        )


def chain_hooks(*bundles: Optional[EventHooks]) -> EventHooks:
    """Combine hook bundles; every non-``None`` subscriber fires, in order.

    Session-level hooks come first, per-call hooks after — so a live
    progress display layered on top of a session's logging both see
    every event.
    """
    present = [bundle for bundle in bundles if bundle]
    if not present:
        return EventHooks()
    if len(present) == 1:
        return present[0]

    def fan(name: str):
        callbacks = [
            getattr(bundle, name)
            for bundle in present
            if getattr(bundle, name) is not None
        ]
        if not callbacks:
            return None
        if len(callbacks) == 1:
            return callbacks[0]

        def fire(*args):
            for callback in callbacks:
                callback(*args)

        return fire

    return EventHooks(
        on_job_start=fan("on_job_start"),
        on_outcome=fan("on_outcome"),
        on_check_failed=fan("on_check_failed"),
        progress=fan("progress"),
        on_span=fan("on_span"),
    )
