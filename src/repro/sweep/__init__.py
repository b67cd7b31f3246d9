"""Parallel design-space sweep orchestration.

* :mod:`~repro.sweep.spec` — :class:`SweepSpec` grids and picklable
  :class:`Job` units keyed by config hash;
* :mod:`~repro.sweep.engine` — :func:`run_family` and :func:`run_job`
  (a family of one), the shared in-process execution path (sweeps run
  through :class:`repro.api.Session`, over the pluggable backends of
  :mod:`repro.backends`);
* :mod:`~repro.sweep.store` — :class:`ResultStore`, the JSONL result
  log that doubles as the resume/skip cache.

Quickstart::

    from repro.api import ExecutionPolicy, Session, StorePolicy
    from repro.sweep import SweepSpec

    spec = SweepSpec(
        policies=("tdvs",),
        thresholds_mbps=(800.0, 1000.0, 1200.0, 1400.0),
        windows_cycles=(20_000, 40_000, 60_000, 80_000),
        traffic=("level:high", "scenario:flash_crowd"),
        duration_cycles=400_000,
    )
    session = Session(execution=ExecutionPolicy(workers=4),
                      store=StorePolicy(path="sweep.jsonl"))
    outcomes = session.sweep(spec)           # job order
    for outcome in session.stream(spec):     # completion order
        ...

Exported names resolve on first access (:mod:`repro._exports`).
"""

from repro._exports import lazy_exports

__all__ = [
    "Job",
    "ResultStore",
    "SweepOutcome",
    "SweepSpec",
    "config_hash",
    "parse_traffic_token",
    "progress_printer",
    "run_job",
    "summarize",
]

_EXPORTS = {
    "Job": "repro.sweep.spec",
    "ResultStore": "repro.sweep.store",
    "SweepOutcome": "repro.sweep.store",
    "SweepSpec": "repro.sweep.spec",
    "config_hash": "repro.sweep.spec",
    "parse_traffic_token": "repro.sweep.spec",
    "progress_printer": "repro.sweep.engine",
    "run_job": "repro.sweep.engine",
    "summarize": "repro.sweep.engine",
}

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
