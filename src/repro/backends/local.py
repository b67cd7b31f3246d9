"""Single-host backends: in-process serial and process-pool execution.

Both are thin wrappers over :func:`~repro.sweep.engine.run_family` — the
execution path behind :func:`~repro.sweep.engine.run_job`, which the
distributed workers use — so every strategy satisfies one
:class:`~repro.backends.base.ExecutionBackend` contract.  Both run a
family of threshold siblings in one process, in job order, so siblings
that decide alike share one simulation (``jobs_shared`` in
:meth:`~repro.backends.base.ExecutionBackend.telemetry`).
"""

from __future__ import annotations

import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from typing import Iterator, List, Optional, Sequence, Tuple

from repro.errors import BackendError
from repro.backends.base import ExecutionBackend, StartFn
from repro.obs.spans import get_recorder
from repro.sweep.spec import Job
from repro.sweep.store import SweepOutcome


class SerialBackend(ExecutionBackend):
    """Run every job in this process, one family after another.

    Families run in order of their first job and members in job order,
    so jobs run in submission order except that a family's later
    members follow its first.  No executor, no IPC — the easiest
    backend to debug or profile, and the reference the others must
    match bit for bit.
    """

    name = "serial"

    def __init__(self):
        self.jobs_run = 0
        self.jobs_shared = 0

    def run(
        self, jobs: Sequence[Job], on_start: Optional[StartFn] = None
    ) -> Iterator[SweepOutcome]:
        from repro.sweep.engine import job_families, run_family

        spans = get_recorder()
        for family in job_families(jobs):
            members = run_family(family)
            for job in family:
                with spans.wall_span(
                    "grant", "coordinator", {"job": job.job_id, "worker": "serial"}
                ):
                    if on_start is not None:
                        on_start(job)
                start_s = time.perf_counter()
                with spans.wall_span(
                    "execute", "worker:serial", {"job": job.job_id}
                ):
                    outcome, shared = next(members)
                spans.add_wall(
                    "job", "job", start_s, time.perf_counter() - start_s,
                    {"job": job.job_id, "worker": "serial"},
                )
                self.jobs_run += 1
                self.jobs_shared += shared
                yield outcome

    def telemetry(self) -> dict:
        return {"jobs_run": self.jobs_run, "jobs_shared": self.jobs_shared}


def _run_family(jobs: List[Job]) -> List[Tuple[SweepOutcome, bool]]:
    """One pool task: a whole family, run in the worker process."""
    from repro.sweep.engine import run_family

    return list(run_family(jobs))


class ProcessBackend(ExecutionBackend):
    """Fan job families out over a local :class:`ProcessPoolExecutor`.

    One pool task per family, families before single jobs, largest
    first.  Outcomes are yielded as tasks finish, so incremental store
    persistence and progress reporting see completions immediately.
    ``on_start`` fires at pool submission — the closest observable
    moment to the actual start in another process.
    """

    name = "process"

    def __init__(self, workers: int):
        if workers < 1:
            raise BackendError(f"process backend needs workers >= 1, got {workers}")
        self.workers = workers
        self.jobs_run = 0
        self.jobs_shared = 0
        self._pool_size = 0

    def run(
        self, jobs: Sequence[Job], on_start: Optional[StartFn] = None
    ) -> Iterator[SweepOutcome]:
        from repro.sweep.engine import job_families

        if not jobs:
            return
        spans = get_recorder()
        families = sorted(job_families(jobs), key=len, reverse=True)
        self._pool_size = min(self.workers, len(families))
        with ProcessPoolExecutor(max_workers=self._pool_size) as pool:
            remaining = set()
            # future -> (submission index, submission time)
            submitted = {}
            for family in families:
                for job in family:
                    with spans.wall_span(
                        "grant", "coordinator",
                        {"job": job.job_id, "worker": "pool"},
                    ):
                        if on_start is not None:
                            on_start(job)
                future = pool.submit(_run_family, family)
                remaining.add(future)
                submitted[future] = (len(submitted), time.perf_counter())
            while remaining:
                finished, remaining = wait(remaining, return_when=FIRST_COMPLETED)
                # ``finished`` is a set; its iteration order follows
                # object hashes, not anything reproducible.  Drain each
                # completion batch in submission order so the outcome
                # stream (and the span log riding it) is stable across
                # runs and interpreters.
                for future in sorted(finished, key=submitted.__getitem__):
                    start_s = submitted[future][1]
                    dur_s = time.perf_counter() - start_s
                    for outcome, shared in future.result():
                        self.jobs_run += 1
                        self.jobs_shared += shared
                        # Submit→completion of the job's family as seen
                        # from the coordinator; the child process's own
                        # wall spans stay in the child (no IPC channel
                        # carries them back — only the deterministic sim
                        # spans ride the outcome).
                        spans.add_wall(
                            "job", "job", start_s, dur_s,
                            {"job": outcome.job_id, "worker": "pool"},
                        )
                        yield outcome

    def telemetry(self) -> dict:
        return {
            "jobs_run": self.jobs_run,
            "jobs_shared": self.jobs_shared,
            "pool_workers": self._pool_size,
        }
