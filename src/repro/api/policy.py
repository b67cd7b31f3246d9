"""Execution and storage policy objects.

These two dataclasses are the only way to configure execution:

* :class:`ExecutionPolicy` — *where and how* jobs run: backend
  selector, worker count, distributed connect target.
* :class:`StorePolicy` — *what happens to results*: the JSONL
  :class:`~repro.sweep.store.ResultStore` path (or a shared instance)
  and whether cached outcomes are reused or overwritten.

A :class:`~repro.api.session.Session` carries one of each, so what a
sweep does depends only on the arguments the session was built with.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Union

from repro.errors import ExperimentError
from repro.sweep.store import ResultStore

#: What an :class:`ExecutionPolicy` accepts as its backend selector: a
#: name token (``serial`` / ``process`` / ``distributed``), a pre-built
#: :class:`~repro.backends.base.ExecutionBackend` instance (single-use),
#: or ``None`` for the serial-vs-process-pool default.
BackendSelector = Union[None, str, "object"]


@dataclass(frozen=True)
class ExecutionPolicy:
    """How a session executes sweep jobs.

    Attributes
    ----------
    backend:
        Backend selector (see :data:`BackendSelector`).  ``None`` runs
        serially for one worker or one pending job and through the
        local process pool otherwise.
    workers:
        Worker-process count (``None``: 1).
    connect:
        ``HOST:PORT`` the distributed coordinator listens on.
    log:
        Coordinator event-line callback (distributed backend only).
    """

    backend: BackendSelector = None
    workers: Optional[int] = None
    connect: Optional[str] = None
    log: Optional[Callable[[str], None]] = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if self.workers is not None and self.workers < 1:
            raise ExperimentError(f"workers must be >= 1, got {self.workers}")

    def make_backend(self, n_pending: int):
        """Build the backend for one sweep of ``n_pending`` fresh jobs.

        With no selector, a single pending job — or one worker — runs
        serially in-process, everything else through the local pool.
        Explicit selectors and pre-built instances pass straight
        through to the factory.
        """
        from repro.backends import get_backend

        workers = 1 if self.workers is None else self.workers
        if self.backend is None and n_pending <= 1:
            workers = 1
        return get_backend(
            self.backend, workers=workers, connect=self.connect, log=self.log
        )


@dataclass(frozen=True)
class StorePolicy:
    """What a session does with sweep outcomes.

    Attributes
    ----------
    path:
        JSONL :class:`~repro.sweep.store.ResultStore` file; ``None``
        (and no ``store``) disables persistence.  The file is re-read
        per sweep, so an interrupted grid resumes cell by cell.
    store:
        A pre-built store instance shared across the session's sweeps
        (wins over ``path``).
    reuse:
        ``True`` (default) serves completed jobs from the store as
        ``cached`` outcomes; ``False`` re-runs every job and appends a
        superseding record (the newest record for a job id wins on
        reload) — the knob for regenerating a stale cache.  The JSONL
        file is append-only, so repeated overwrite runs grow it; copy
        ``iter_outcomes()`` to a fresh store to compact.
    """

    path: Optional[str] = None
    store: Optional[ResultStore] = field(default=None, compare=False)
    reuse: bool = True

    def make(self) -> Optional[ResultStore]:
        """The store for one sweep, or ``None`` when persistence is off."""
        if self.store is not None:
            return self.store
        if self.path is not None:
            return ResultStore(self.path)
        return None
