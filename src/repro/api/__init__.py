"""The unified session API.

``repro.api`` is the one front door to the reproduction's execution
machinery.  A :class:`Session` owns execution policy once, as typed
objects passed as arguments — nothing is read from the environment:

* :class:`~repro.api.policy.ExecutionPolicy` — backend, workers,
  distributed connect target;
* :class:`~repro.api.policy.StorePolicy` — result-store path and
  cache reuse/overwrite;
* :class:`~repro.api.events.EventHooks` — streamed execution events
  (``on_job_start`` / ``on_outcome`` / ``on_check_failed`` /
  ``progress``).

Quickstart::

    from repro.api import EventHooks, ExecutionPolicy, Session, StorePolicy
    from repro.sweep import SweepSpec

    session = Session(
        execution=ExecutionPolicy(backend="process", workers=4),
        store=StorePolicy(path="results.jsonl"),
    )
    spec = SweepSpec(policies=("tdvs",), thresholds_mbps=(1000.0, 1200.0),
                     windows_cycles=(40_000,), duration_cycles=400_000)

    # Batch: outcomes in job order.
    outcomes = session.sweep(spec)

    # Streaming: outcomes in completion order, any backend.
    for outcome in session.stream(spec):
        print(outcome.label, outcome.mean_power_w)

    # A paper figure: its grids sweep through the same session.
    result = session.experiment("fig08", profile="bench")

Exported names resolve on first access (:mod:`repro._exports`).
"""

from repro._exports import lazy_exports

__all__ = [
    "EventHooks",
    "ExecutionPolicy",
    "Session",
    "StorePolicy",
    "chain_hooks",
]

_EXPORTS = {
    "EventHooks": "repro.api.events",
    "ExecutionPolicy": "repro.api.policy",
    "Session": "repro.api.session",
    "StorePolicy": "repro.api.policy",
    "chain_hooks": "repro.api.events",
}

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
