"""Shared benchmark fixtures.

Benches run each experiment once (``pedantic`` with a single round) at
the ``bench`` profile: the goal is regenerating every figure/table and
timing the harness honestly, not statistical micro-timing of 8M-cycle
simulations.
"""

from __future__ import annotations

import pytest

#: Profile used by all figure benches.
PROFILE = "bench"


@pytest.fixture(scope="session")
def design_grid():
    """A session whose in-memory store holds the Figures 6-9 grid.

    The grid is simulated here, outside any timed region; a figure run
    through the returned session reads it back from the store.
    """
    from repro.api import Session, StorePolicy
    from repro.experiments.common import tdvs_design_space
    from repro.sweep import ResultStore

    session = Session(store=StorePolicy(store=ResultStore()))
    tdvs_design_space(PROFILE, session)
    return session


def run_once(benchmark, fn, *args, **kwargs):
    """Run ``fn`` exactly once under the benchmark timer."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)
