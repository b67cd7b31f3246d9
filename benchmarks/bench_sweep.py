"""Benches for the sweep engine: per-backend wall-clock and streaming.

Times the same job grid through every execution backend — serial
(``workers=1``, the in-process path), the local process pool, and the
distributed coordinator with two loopback workers — asserts the
results are bit-identical, and prints the wall-clock figures plus the
speedup so sweep scaling is recorded alongside the figure benches.  On
single-core runners the pool/queue carry fork and socket overhead with
no win — the interesting number there is how small the overhead stays.

Sweeps run through :meth:`repro.api.Session.stream`, so each backend
also reports its **time-to-first-outcome** — the latency before a
monitoring hook (or a study's LOC gate) sees the first verdict, the
number the streaming session API exists to shrink.

Each timed backend lands in ``BENCH_sweep.json`` (per-backend
wall-clock seconds, jobs/sec and ttfo seconds), the machine-readable
artifact CI uploads so the sweep-engine perf trajectory is tracked run
over run.
"""

import json
import os
import threading
import time

from repro.api import ExecutionPolicy, Session
from repro.sweep import SweepSpec

from conftest import run_once

#: A 2x2 TDVS grid plus baseline at bench-profile length.
SPEC = SweepSpec(
    policies=("none", "tdvs"),
    thresholds_mbps=(1000.0, 1400.0),
    windows_cycles=(20_000, 80_000),
    traffic=("level:high",),
    duration_cycles=400_000,
    span=20,
)

#: Machine-readable results artifact (cwd: uploaded by the CI bench lane).
BENCH_JSON = os.environ.get("REPRO_BENCH_JSON", "BENCH_sweep.json")


def _record(backend_name, wall_s, n_jobs, ttfo_s=None):
    """Merge one backend's figures into the JSON artifact."""
    data = {}
    if os.path.exists(BENCH_JSON):
        with open(BENCH_JSON, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    data.setdefault("bench", "sweep")
    data["jobs"] = n_jobs
    data["duration_cycles"] = SPEC.duration_cycles
    backends = data.setdefault("backends", {})
    backends[backend_name] = {
        "wall_s": round(wall_s, 4),
        "jobs_per_s": round(n_jobs / wall_s, 4) if wall_s > 0 else None,
        "ttfo_s": round(ttfo_s, 4) if ttfo_s is not None else None,
    }
    with open(BENCH_JSON, "w", encoding="utf-8") as handle:
        json.dump(data, handle, indent=2, sort_keys=True)
        handle.write("\n")


def _timed_stream(jobs, execution=None, **session_kwargs):
    """Drain ``session.stream``; wall-clock plus time-to-first-outcome.

    Outcomes come back in completion order; callers compare via
    :func:`_by_job_order`.
    """
    session = Session(execution=execution, **session_kwargs)
    start = time.perf_counter()
    first_s = None
    outcomes = []
    for outcome in session.stream(jobs):
        if first_s is None:
            first_s = time.perf_counter() - start
        outcomes.append(outcome)
    return outcomes, time.perf_counter() - start, first_s


def _by_job_order(jobs, outcomes):
    by_id = {outcome.job_id: outcome for outcome in outcomes}
    return [by_id[job.job_id] for job in jobs]


def test_sweep_serial_vs_parallel_wall_clock(benchmark):
    jobs = SPEC.jobs()
    serial, serial_s, serial_ttfo = _timed_stream(
        jobs, ExecutionPolicy(workers=1)
    )
    (parallel, parallel_s, parallel_ttfo) = run_once(
        benchmark, _timed_stream, jobs, ExecutionPolicy(workers=4)
    )
    _record("serial", serial_s, len(jobs), ttfo_s=serial_ttfo)
    _record("process", parallel_s, len(jobs), ttfo_s=parallel_ttfo)

    print(
        f"\nsweep of {len(jobs)} jobs: serial {serial_s:.2f}s "
        f"(first outcome {serial_ttfo:.2f}s), "
        f"4 workers {parallel_s:.2f}s (first outcome {parallel_ttfo:.2f}s), "
        f"speedup {serial_s / parallel_s:.2f}x"
    )
    # The acceptance property: worker count never changes the numbers.
    for s, p in zip(_by_job_order(jobs, serial), _by_job_order(jobs, parallel)):
        assert s.result.totals == p.result.totals
        assert s.power_dist.counts == p.power_dist.counts


def test_sweep_distributed_loopback_wall_clock(benchmark):
    """The distributed backend with two loopback workers: what the
    coordinator/queue machinery costs relative to the process pool."""
    from repro.backends import DistributedBackend
    from repro.backends.worker import run_worker

    jobs = SPEC.jobs()
    serial, serial_s, _ = _timed_stream(jobs, ExecutionPolicy(workers=1))

    def distributed_sweep():
        backend = DistributedBackend(port=0)
        workers = [
            threading.Thread(
                target=run_worker, args=(backend.address,),
                kwargs={"log": None}, daemon=True,
            )
            for _ in range(2)
        ]
        for worker in workers:
            worker.start()
        outcomes, wall_s, ttfo_s = _timed_stream(
            jobs, ExecutionPolicy(backend=backend)
        )
        for worker in workers:
            worker.join(timeout=60)
        return outcomes, wall_s, ttfo_s

    (distributed, distributed_s, distributed_ttfo) = run_once(
        benchmark, distributed_sweep
    )
    _record("distributed", distributed_s, len(jobs), ttfo_s=distributed_ttfo)

    print(
        f"\nsweep of {len(jobs)} jobs: serial {serial_s:.2f}s, distributed "
        f"(2 loopback workers) {distributed_s:.2f}s "
        f"(first outcome {distributed_ttfo:.2f}s), "
        f"speedup {serial_s / distributed_s:.2f}x"
    )
    for s, d in zip(_by_job_order(jobs, serial), _by_job_order(jobs, distributed)):
        assert s.result.totals == d.result.totals
        assert s.power_dist.counts == d.power_dist.counts


def test_sweep_store_cache_replay_is_fast(benchmark, tmp_path):
    from repro.api import StorePolicy

    path = str(tmp_path / "results.jsonl")
    jobs = SPEC.jobs()
    _timed_stream(
        jobs, ExecutionPolicy(workers=1), store=StorePolicy(path=path)
    )

    start = time.perf_counter()
    (replay, _, replay_ttfo) = run_once(
        benchmark,
        _timed_stream,
        jobs,
        ExecutionPolicy(workers=1),
        store=StorePolicy(path=path),
    )
    replay_s = time.perf_counter() - start
    _record("store_replay", replay_s, len(jobs), ttfo_s=replay_ttfo)
    print(f"\ncache replay of {len(jobs)} jobs: {replay_s:.3f}s")
    assert all(outcome.cached for outcome in replay)
