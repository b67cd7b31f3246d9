"""Execution and storage policy objects.

These two dataclasses replace the scattered per-call kwargs and
environment-variable reads that used to configure execution:

* :class:`ExecutionPolicy` — *where and how* jobs run: backend
  selector, worker count, distributed connect target, retry budget.
  One explicit object instead of per-call kwargs plus
  ``REPRO_SWEEP_BACKEND`` / ``REPRO_SWEEP_CONNECT`` /
  ``REPRO_SWEEP_WORKERS`` lookups sprinkled through the engine.
* :class:`StorePolicy` — *what happens to results*: the JSONL
  :class:`~repro.sweep.store.ResultStore` path (or a shared instance)
  and whether cached outcomes are reused or overwritten.

Precedence is explicit and testable: a field set on the policy always
wins; a field left ``None`` defers to the environment at resolve time,
so a default-constructed :class:`~repro.api.session.Session` follows
``REPRO_SWEEP_*`` as set when it runs.
:meth:`ExecutionPolicy.from_env` instead *captures* the environment
into explicit fields once, pinning the configuration for the life of
the session regardless of later ``os.environ`` changes.
"""

from __future__ import annotations

import contextlib
import os
from dataclasses import dataclass, field, replace
from typing import Callable, Iterator, Mapping, Optional, Union

from repro.errors import ExperimentError
from repro.sweep.store import ResultStore

#: What an :class:`ExecutionPolicy` accepts as its backend selector: a
#: name token (``serial`` / ``process`` / ``distributed``), a pre-built
#: :class:`~repro.backends.base.ExecutionBackend` instance (single-use),
#: or ``None`` for "consult the environment, then the classic
#: serial-vs-process-pool default".
BackendSelector = Union[None, str, "object"]


def _env_workers(env: Mapping[str, str]) -> Optional[int]:
    """``REPRO_SWEEP_WORKERS`` as an int, ``None`` when unset."""
    from repro.sweep.engine import WORKERS_ENV_VAR

    value = env.get(WORKERS_ENV_VAR, "").strip()
    if not value:
        return None
    try:
        workers = int(value)
    except ValueError:
        raise ExperimentError(
            f"{WORKERS_ENV_VAR} must be an integer, got {value!r}"
        ) from None
    return max(1, workers)


@dataclass(frozen=True)
class ExecutionPolicy:
    """How a session executes sweep jobs.

    Attributes
    ----------
    backend:
        Backend selector (see :data:`BackendSelector`).  ``None`` keeps
        the legacy resolution: ``REPRO_SWEEP_BACKEND`` if set, else
        serial for one worker / one pending job and the local process
        pool otherwise.
    workers:
        Worker-process count; ``None`` defers to ``REPRO_SWEEP_WORKERS``
        (default 1).
    connect:
        ``HOST:PORT`` the distributed coordinator listens on; ``None``
        defers to ``REPRO_SWEEP_CONNECT``.
    retries:
        Extra grants a distributed job may receive after a lost attempt
        (``None``: the backend default).
    lease_s:
        Initial distributed lease term (``None``: backend default; the
        term then adapts to observed job wall-clock).
    log:
        Coordinator event-line callback (distributed backend only).
    """

    backend: BackendSelector = None
    workers: Optional[int] = None
    connect: Optional[str] = None
    retries: Optional[int] = None
    lease_s: Optional[float] = None
    log: Optional[Callable[[str], None]] = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if self.workers is not None and self.workers < 1:
            raise ExperimentError(f"workers must be >= 1, got {self.workers}")
        if self.retries is not None and self.retries < 0:
            raise ExperimentError(f"retries must be >= 0, got {self.retries}")
        if self.lease_s is not None and self.lease_s <= 0:
            raise ExperimentError(f"lease_s must be positive, got {self.lease_s}")

    @classmethod
    def from_env(
        cls, environ: Optional[Mapping[str, str]] = None, **overrides
    ) -> "ExecutionPolicy":
        """Capture the legacy environment variables into explicit fields.

        Reads ``REPRO_SWEEP_BACKEND`` / ``REPRO_SWEEP_CONNECT`` /
        ``REPRO_SWEEP_WORKERS`` *now* and pins them; keyword overrides
        beat the environment.  Use a default-constructed policy instead
        when the legacy read-at-call-time behaviour is wanted.
        """
        from repro.backends import BACKEND_ENV_VAR, CONNECT_ENV_VAR

        env = os.environ if environ is None else environ
        fields = {
            "backend": env.get(BACKEND_ENV_VAR, "").strip() or None,
            "connect": env.get(CONNECT_ENV_VAR, "").strip() or None,
            "workers": _env_workers(env),
        }
        fields.update(overrides)
        return cls(**fields)

    def with_(self, **overrides) -> "ExecutionPolicy":
        """A copy with the given fields replaced."""
        return replace(self, **overrides)

    def resolved_workers(self) -> int:
        """The effective worker count (field, else environment, else 1)."""
        if self.workers is not None:
            return self.workers
        from repro.sweep.engine import default_workers

        return default_workers()

    def make_backend(self, n_pending: int):
        """Build the backend for one sweep of ``n_pending`` fresh jobs.

        Preserves the classic engine behaviour exactly: with no explicit
        selector (field or ``REPRO_SWEEP_BACKEND``), a single pending
        job — or ``workers=1`` — runs serially in-process, everything
        else through the local pool.  Explicit selectors and pre-built
        instances pass straight through to the factory.
        """
        from repro.backends import BACKEND_ENV_VAR, get_backend

        workers = self.resolved_workers()
        if workers < 1:
            raise ExperimentError(f"workers must be >= 1, got {workers}")
        kwargs = dict(
            connect=self.connect,
            log=self.log,
            lease_s=self.lease_s,
            max_retries=self.retries,
        )
        if self.backend is None and not os.environ.get(
            BACKEND_ENV_VAR, ""
        ).strip():
            effective = workers if n_pending > 1 else 1
            return get_backend(None, workers=effective, **kwargs)
        return get_backend(self.backend, workers=workers, **kwargs)

    @contextlib.contextmanager
    def scoped_env(self) -> Iterator[None]:
        """Export the policy's explicit fields as the legacy env vars.

        Experiment runners still pick execution settings up from the
        environment (so every figure grid parallelizes with zero
        call-site plumbing); this scope makes them obey the session's
        policy for the duration of one experiment, then restores the
        previous values.  Only explicitly set fields are exported — a
        default policy changes nothing.

        Pre-built backend *instances* cannot be exported (experiments
        may issue several sweeps, and instances are single-use); name
        the backend instead.
        """
        from repro.backends import BACKEND_ENV_VAR, CONNECT_ENV_VAR
        from repro.sweep.engine import WORKERS_ENV_VAR

        exports = {}
        if self.workers is not None:
            exports[WORKERS_ENV_VAR] = str(self.workers)
        if self.backend is not None:
            if not isinstance(self.backend, str):
                raise ExperimentError(
                    "experiment runs need a named backend policy "
                    "('serial' / 'process' / 'distributed'), not a "
                    "single-use backend instance"
                )
            exports[BACKEND_ENV_VAR] = self.backend
        if self.connect is not None:
            exports[CONNECT_ENV_VAR] = self.connect
        previous = {key: os.environ.get(key) for key in exports}
        os.environ.update(exports)
        try:
            yield
        finally:
            for key, value in previous.items():
                if value is None:
                    os.environ.pop(key, None)
                else:
                    os.environ[key] = value


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

    def with_(self, **overrides) -> "StorePolicy":
        """A copy with the given fields replaced."""
        return replace(self, **overrides)

    def make(self) -> Optional[ResultStore]:
        """The store for one sweep, or ``None`` when persistence is off."""
        if self.store is not None:
            return self.store
        if self.path is not None:
            return ResultStore(self.path)
        return None
