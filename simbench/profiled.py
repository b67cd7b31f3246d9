"""The traced study: ``Session.study`` on a profiled process pool.

:class:`ProfiledPoolBackend` is an
:class:`~repro.backends.base.ExecutionBackend`, the extension point
sessions accept as a backend instance.  It splits the jobs into one
chunk per worker.  Each forked worker runs its chunk through
``repro.sweep.engine.run_job`` under cProfile, so the outcomes are the
real ones, and reads each run's count ledger once it finishes.  It hands
back the outcomes with its profile, its ledgers and its summed
``run_job`` wall.  A serial traced study would take about 4x the
untraced study; two workers halve that.

The pool forks, like the ``process`` backend on Linux.  A spawned pool
would start multiprocessing's resource-tracker process, which outlives
the benchmark by up to a minute.
"""

from __future__ import annotations

import cProfile
import multiprocessing
import sys
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from typing import Dict, Iterator, List, Optional, Sequence

import layers
from repro.backends.base import ExecutionBackend


def traced_chunk(jobs: Sequence) -> tuple:
    """Run ``jobs`` with ``run_job`` under cProfile, in this worker.

    Returns ``(outcomes, ledgers by job id, profile stats, run_job wall)``.
    To read each run's counts, this worker process keeps a reference to
    every :class:`~repro.runner.SimulationRun` as its ``run`` returns.
    Nothing else changes, and only in this process.
    """
    from repro.runner import SimulationRun
    from repro.sweep.engine import run_job

    finished: List = []
    run = SimulationRun.run

    def run_and_keep(self):
        result = run(self)
        finished.append(self)
        return result

    SimulationRun.run = run_and_keep
    profiler = cProfile.Profile()
    outcomes, ledgers, run_job_s = [], {}, 0.0
    try:
        for job in jobs:
            start = time.perf_counter()
            profiler.enable()
            outcome = run_job(job)
            profiler.disable()
            run_job_s += time.perf_counter() - start
            results = layers.outcome_monitor_results(outcome)
            ledgers[job.job_id] = layers.run_ledger(finished.pop(), results)
            outcomes.append(outcome)
    finally:
        SimulationRun.run = run
    profiler.create_stats()
    return outcomes, ledgers, profiler.stats, run_job_s


class ProfiledPoolBackend(ExecutionBackend):
    """Runs a study's jobs in profiled chunks on forked workers."""

    name = "profiled-process"

    def __init__(self, workers: int):
        self.workers = workers
        #: Raw ``pstats`` tables, one per chunk.
        self.profiles: List[Dict] = []
        #: Count ledger per job id.
        self.ledgers: Dict[str, Dict] = {}
        #: Summed ``run_job`` wall per chunk.
        self.run_job_s: List[float] = []

    def run(self, jobs: Sequence, on_start: Optional[object] = None) -> Iterator:
        chunks = [list(jobs[k::self.workers]) for k in range(self.workers)]
        context = multiprocessing.get_context("fork")
        # A forked worker inherits the caller's enabled profiler; the
        # initializer turns it off, so only ``traced_chunk`` profiles.
        with ProcessPoolExecutor(
            max_workers=self.workers, mp_context=context,
            initializer=sys.setprofile, initargs=(None,),
        ) as pool:
            pending = set()
            for chunk in chunks:
                if on_start is not None:
                    for job in chunk:
                        on_start(job)
                pending.add(pool.submit(traced_chunk, chunk))
            while pending:
                done, pending = wait(pending, return_when=FIRST_COMPLETED)
                for future in done:
                    outcomes, ledgers, profile, run_job_s = future.result()
                    self.profiles.append(profile)
                    self.ledgers.update(ledgers)
                    self.run_job_s.append(run_job_s)
                    yield from outcomes


class RawStats:
    """A ``pstats.Stats`` source for a stats table from another process."""

    def __init__(self, stats: Dict):
        self.stats = stats

    def create_stats(self) -> None:
        """Nothing to create: the table was made in the worker."""
