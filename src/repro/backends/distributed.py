"""The multi-machine backend: a TCP job-queue coordinator.

:class:`DistributedBackend` binds a TCP endpoint, queues the pending
jobs, and leases them out to ``repro worker --connect HOST:PORT``
processes (see :mod:`repro.backends.worker`), streaming outcomes back
to the sweep engine as they arrive.  Fault tolerance is built into the
lease discipline:

* every grant carries a **lease**: the worker must heartbeat before
  the lease term expires or the job is presumed lost;
* the lease term is **adaptive**: it starts at ``lease_s`` and then
  tracks observed job wall-clock (an EWMA with a floor, see
  :class:`LeaseClock`) — short jobs shrink the term so dead workers
  are detected in seconds, long jobs grow it so network jitter never
  costs a spurious requeue;
* a worker whose connection drops (crash, ``SIGKILL``, network cut)
  has all of its leased jobs **requeued immediately**;
* requeues are **bounded**: a job granted more than ``1 + max_retries``
  times fails the sweep with a :class:`~repro.errors.BackendError`
  (an :class:`~repro.errors.ExperimentError`) naming the job;
* a late outcome for an already-completed job — the leaseholder was
  slow, not dead, and the requeued copy finished first — is **dropped**,
  so nothing is ever delivered twice.

Exactly-once delivery plus the engine's incremental
:class:`~repro.sweep.store.ResultStore` appends give crash-resume on
the coordinator side too: restart the sweep with the same store and
only unfinished cells are re-queued.
"""

from __future__ import annotations

import queue
import socket
import threading
import time
from collections import deque
from dataclasses import dataclass, replace
from typing import Callable, Dict, Iterator, List, Optional, Sequence

from repro.errors import BackendError, ExperimentError
from repro.backends.base import ExecutionBackend, StartFn
from repro.obs.spans import get_recorder
from repro.backends.protocol import (
    DEFAULT_HOST,
    PROTOCOL_VERSION,
    recv_message,
    send_message,
)
from repro.sweep.spec import Job
from repro.sweep.store import SweepOutcome

#: One log callback: a short human-readable event line.
LogFn = Callable[[str], None]


class LeaseClock:
    """Adaptive lease term derived from observed job wall-clock.

    Grants start at ``initial_s``.  Every completed job feeds its
    wall-clock into an EWMA; once one exists the term becomes
    ``margin * ewma`` clamped to ``[floor_s, cap_s]``.  The floor keeps
    sub-second jobs from producing a term shorter than a worker can
    reliably heartbeat; the cap bounds how long a truly dead worker can
    sit on a lease after a run of very long jobs.
    """

    def __init__(
        self,
        initial_s: float,
        floor_s: float = 2.0,
        margin: float = 4.0,
        cap_s: float = 300.0,
        alpha: float = 0.3,
    ):
        if floor_s <= 0 or initial_s <= 0:
            raise BackendError("lease terms must be positive")
        if margin <= 0:
            raise BackendError(f"lease margin must be positive, got {margin}")
        if not 0.0 < alpha <= 1.0:
            raise BackendError(f"lease EWMA alpha must be in (0, 1], got {alpha}")
        if cap_s < floor_s:
            raise BackendError(
                f"lease cap {cap_s}s is below the floor {floor_s}s"
            )
        self.initial_s = initial_s
        self.floor_s = floor_s
        self.margin = margin
        self.cap_s = cap_s
        self.alpha = alpha
        self.ewma_s: Optional[float] = None

    def observe(self, wall_s: float) -> None:
        """Feed one completed job's wall-clock into the EWMA."""
        wall_s = max(0.0, wall_s)
        if self.ewma_s is None:
            self.ewma_s = wall_s
        else:
            self.ewma_s = self.alpha * wall_s + (1.0 - self.alpha) * self.ewma_s

    @property
    def term_s(self) -> float:
        """The lease term the next grant should carry."""
        if self.ewma_s is None:
            return self.initial_s
        return min(max(self.floor_s, self.margin * self.ewma_s), self.cap_s)


@dataclass
class _Lease:
    """One outstanding job grant."""

    job: Job
    worker: str
    deadline: float
    #: The term this grant was issued under; heartbeats extend by this
    #: (not the clock's current term), so a lease always stays
    #: consistent with the heartbeat cadence its worker was told.
    term_s: float
    granted_at: float
    #: When the lease last heartbeat (or was granted) — feeds the
    #: heartbeat-interval EWMA in the coordinator telemetry.
    last_beat: float = 0.0
    #: ``perf_counter`` at grant time — the start of the grant→outcome
    #: span on the ``job`` track (``granted_at`` is ``monotonic``, the
    #: lease-math clock; spans share the recorder's ``perf_counter``
    #: timeline instead).
    granted_perf: float = 0.0


class _State:
    """Shared coordinator state, guarded by one lock."""

    def __init__(self, jobs: Sequence[Job], clock: LeaseClock, max_retries: int,
                 log: Optional[LogFn], on_start: Optional[StartFn] = None):
        self.lock = threading.Lock()
        self.pending = deque(jobs)
        self.leases: Dict[str, _Lease] = {}
        self.grants: Dict[str, int] = {}
        self.completed = set()
        self.total = len(jobs)
        self.results: "queue.Queue[object]" = queue.Queue()
        self.clock = clock
        self.lease_s = clock.initial_s
        self.max_retries = max_retries
        self.failed = False
        self.shutdown = threading.Event()
        self.log = log
        self.on_start = on_start
        #: Fleet counters (guarded by the same lock); merged into the
        #: session's sweep-level metrics snapshot after the run.
        self.counters = {
            "jobs_granted": 0,
            "jobs_completed": 0,
            "jobs_requeued": 0,
            "duplicates_dropped": 0,
            "lease_expirations": 0,
            "heartbeats": 0,
            "lease_renewals": 0,
            "workers_connected": 0,
            "worker_jobs_reported": 0,
            "worker_heartbeats_reported": 0,
        }
        #: EWMA of the interval between a lease's consecutive
        #: heartbeats — the fleet's effective heartbeat latency.
        self.heartbeat_ewma_s: Optional[float] = None

    def _say(self, line: str) -> None:
        if self.log is not None:
            self.log(line)

    def grant(self, worker: str) -> dict:
        """Answer one ``pull``: a job, a wait, or a shutdown."""
        granted: Optional[Job] = None
        grant_start = time.perf_counter()
        with self.lock:
            if self.failed or self.shutdown.is_set():
                return {"type": "shutdown"}
            if self.pending:
                job = self.pending.popleft()
                now = time.monotonic()
                term_s = self.clock.term_s
                self.grants[job.job_id] = self.grants.get(job.job_id, 0) + 1
                self.leases[job.job_id] = _Lease(
                    job=job, worker=worker,
                    deadline=now + term_s, term_s=term_s, granted_at=now,
                    last_beat=now, granted_perf=grant_start,
                )
                self.counters["jobs_granted"] += 1
                granted = job
                reply = {"type": "job", "job": job.to_dict(), "lease_s": term_s}
            elif len(self.completed) >= self.total:
                return {"type": "shutdown"}
            else:
                return {"type": "wait", "poll_s": 0.2}
        # Fire the dispatch hook outside the lock: a slow subscriber
        # must never stall heartbeats or completions.
        if granted is not None:
            get_recorder().add_wall(
                "grant", "coordinator",
                grant_start, time.perf_counter() - grant_start,
                {"job": granted.job_id, "worker": worker},
            )
            if self.on_start is not None:
                self.on_start(granted)
        return reply

    def heartbeat(self, job_id: str, worker: str) -> None:
        """Extend a live lease (stale heartbeats are ignored)."""
        with self.lock:
            self.counters["heartbeats"] += 1
            lease = self.leases.get(job_id)
            if lease is not None and lease.worker == worker:
                now = time.monotonic()
                lease.deadline = now + lease.term_s
                self.counters["lease_renewals"] += 1
                interval = max(0.0, now - lease.last_beat)
                lease.last_beat = now
                if self.heartbeat_ewma_s is None:
                    self.heartbeat_ewma_s = interval
                else:
                    self.heartbeat_ewma_s = (
                        0.3 * interval + 0.7 * self.heartbeat_ewma_s
                    )

    def complete(self, job_id: str, outcome: SweepOutcome) -> None:
        """Deliver an outcome exactly once; duplicates are dropped."""
        with self.lock:
            if job_id in self.completed:
                self.counters["duplicates_dropped"] += 1
                self._say(f"dropping duplicate outcome for {job_id}")
                return
            self.completed.add(job_id)
            self.counters["jobs_completed"] += 1
            lease = self.leases.pop(job_id, None)
            if lease is not None:
                self.clock.observe(time.monotonic() - lease.granted_at)
                # Grant→outcome as the coordinator saw it: the wall-clock
                # cost of the whole remote attempt, one span per job.
                get_recorder().add_wall(
                    "job", "job",
                    lease.granted_perf,
                    time.perf_counter() - lease.granted_perf,
                    {"job": job_id, "worker": lease.worker},
                )
            # A late delivery may race a lease-expiry requeue: purge the
            # pending copy so the finished job is never granted again.
            if any(job.job_id == job_id for job in self.pending):
                self.pending = deque(
                    job for job in self.pending if job.job_id != job_id
                )
            self.results.put(outcome)

    def fail_attempt(self, job_id: str, worker: str, reason: str) -> None:
        """Handle one lost/failed attempt: requeue or give up.

        Only the current leaseholder may fail its lease — a stale
        report (the job was already requeued and re-granted to another
        worker) must not cancel the live lease or burn retry budget.
        """
        with self.lock:
            lease = self.leases.get(job_id)
            if lease is None or lease.worker != worker or job_id in self.completed:
                return
            del self.leases[job_id]
            attempts = self.grants.get(job_id, 1)
            if attempts > self.max_retries:
                self.failed = True
                self.results.put(BackendError(
                    f"job {job_id} ({lease.job.label or 'unlabelled'}) failed "
                    f"after {attempts} attempt(s); last worker {worker}: {reason}"
                ))
                return
            self.counters["jobs_requeued"] += 1
            self._say(f"requeueing {job_id} (attempt {attempts} lost: {reason})")
            self.pending.appendleft(lease.job)

    def release_worker(self, worker: str, reason: str) -> None:
        """Requeue every job the departed worker still held."""
        with self.lock:
            held = [job_id for job_id, lease in self.leases.items()
                    if lease.worker == worker]
        for job_id in held:
            self.fail_attempt(job_id, worker, reason)

    def expire_leases(self) -> None:
        """Requeue jobs whose leaseholder stopped heartbeating."""
        now = time.monotonic()
        with self.lock:
            expired = [(job_id, lease.worker)
                       for job_id, lease in self.leases.items()
                       if lease.deadline < now]
            self.counters["lease_expirations"] += len(expired)
        for job_id, worker in expired:
            self.fail_attempt(job_id, worker, "lease expired")

    def absorb_worker_telemetry(self, telemetry: object) -> None:
        """Fold a worker's self-reported counters into the fleet totals.

        Workers attach an optional ``telemetry`` dict to each outcome
        message (absent on protocol-v1 peers that predate it); only the
        keys the coordinator knows are aggregated, so a newer worker
        never breaks an older coordinator.
        """
        if not isinstance(telemetry, dict):
            return
        with self.lock:
            for src, dst in (
                ("jobs_run", "worker_jobs_reported"),
                ("heartbeats_sent", "worker_heartbeats_reported"),
            ):
                value = telemetry.get(src)
                if isinstance(value, int) and not isinstance(value, bool):
                    self.counters[dst] += max(0, value)

    def absorb_worker_spans(self, spans: object) -> None:
        """Fold a worker's wall-clock spans into the coordinator log.

        Workers attach an optional ``spans`` list to each outcome
        message — pull-wait, execute and ship spans on their own
        ``worker:<name>`` tracks — absent on protocol-v1 peers that
        predate it.  Malformed entries are dropped, never raised on,
        exactly like unknown ``telemetry`` keys.
        """
        if not isinstance(spans, list):
            return
        get_recorder().extend(spans)


class DistributedBackend(ExecutionBackend):
    """Coordinator side of the multi-machine job queue.

    Parameters
    ----------
    host / port:
        TCP endpoint to listen on; port ``0`` binds an ephemeral port
        (read it back from :attr:`address` — how the tests wire
        loopback workers).  The socket binds eagerly, so the address
        is printable before the sweep starts.
    lease_s:
        Initial lease term — used until the first job completes, after
        which the term adapts to observed job wall-clock (see
        :class:`LeaseClock` and ``lease_floor_s``/``lease_margin``).
        Workers heartbeat at a third of each grant's term; a job whose
        lease lapses is requeued even if the TCP connection looks open
        (half-open links, hung workers).
    lease_floor_s / lease_margin / lease_cap_s:
        Adaptive-term shape: the term never drops below the floor,
        grants ``lease_margin`` times the job-wall-clock EWMA, and
        never exceeds the cap.
    max_retries:
        Extra grants a job may receive after its first attempt is lost
        before the sweep fails.
    """

    name = "distributed"

    def __init__(
        self,
        host: str = DEFAULT_HOST,
        port: int = 0,
        lease_s: float = 15.0,
        max_retries: int = 2,
        log: Optional[LogFn] = None,
        lease_floor_s: float = 2.0,
        lease_margin: float = 4.0,
        lease_cap_s: float = 300.0,
    ):
        if lease_s <= 0:
            raise BackendError(f"lease_s must be positive, got {lease_s}")
        if max_retries < 0:
            raise BackendError(f"max_retries must be >= 0, got {max_retries}")
        self.lease_s = lease_s
        self.clock = LeaseClock(
            initial_s=lease_s,
            floor_s=min(lease_floor_s, lease_s),
            margin=lease_margin,
            cap_s=max(lease_cap_s, lease_s),
        )
        self.max_retries = max_retries
        self.log = log
        self._listener: Optional[socket.socket] = socket.socket(
            socket.AF_INET, socket.SOCK_STREAM
        )
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        try:
            self._listener.bind((host, port))
            self._listener.listen(16)
        except OSError as exc:
            self._listener.close()
            self._listener = None
            raise BackendError(f"cannot listen on {host}:{port}: {exc}") from None
        self.host, self.port = self._listener.getsockname()[:2]
        self._connections: List[socket.socket] = []
        self._conn_lock = threading.Lock()
        self._last_state: Optional[_State] = None

    @property
    def address(self) -> str:
        """The bound ``HOST:PORT`` workers should connect to."""
        return f"{self.host}:{self.port}"

    def close(self) -> None:
        if self._listener is not None:
            # Closing alone leaves the port listening while the accept
            # thread is blocked in accept(); shutting the socket down
            # first wakes it, so the next sweep can bind the same port.
            try:
                self._listener.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                self._listener.close()
            except OSError:
                pass
            self._listener = None
        with self._conn_lock:
            connections, self._connections = self._connections, []
        for conn in connections:
            try:
                conn.close()
            except OSError:
                pass

    def run(
        self, jobs: Sequence[Job], on_start: Optional[StartFn] = None
    ) -> Iterator[SweepOutcome]:
        if self._listener is None:
            raise BackendError("distributed backend already closed (single-use)")
        jobs = list(jobs)
        state = _State(jobs, self.clock, self.max_retries, self.log,
                       on_start=on_start)
        self._last_state = state
        accept = threading.Thread(
            target=self._accept_loop, args=(state,), daemon=True,
            name="repro-coordinator-accept",
        )
        accept.start()
        delivered = 0
        try:
            while delivered < len(jobs):
                state.expire_leases()
                try:
                    item = state.results.get(timeout=0.05)
                except queue.Empty:
                    continue
                if isinstance(item, BaseException):
                    raise item
                yield item
                delivered += 1
        finally:
            state.shutdown.set()
            self.close()

    def telemetry(self) -> dict:
        """Fleet counters from the last run, plus lease/heartbeat gauges."""
        if self._last_state is None:
            return {}
        state = self._last_state
        with state.lock:
            out: dict = dict(state.counters)
            if state.heartbeat_ewma_s is not None:
                out["heartbeat_ewma_s"] = float(state.heartbeat_ewma_s)
        if self.clock.ewma_s is not None:
            out["job_wall_ewma_s"] = float(self.clock.ewma_s)
        out["lease_term_s"] = float(self.clock.term_s)
        return out

    # -- socket threads -------------------------------------------------
    def _accept_loop(self, state: _State) -> None:
        assert self._listener is not None
        listener = self._listener
        while not state.shutdown.is_set():
            try:
                conn, peer = listener.accept()
            except OSError:
                return  # listener closed: sweep over
            with self._conn_lock:
                self._connections.append(conn)
            worker = f"{peer[0]}:{peer[1]}"
            threading.Thread(
                target=self._serve_worker, args=(conn, worker, state),
                daemon=True, name=f"repro-coordinator-{worker}",
            ).start()

    def _serve_worker(self, conn: socket.socket, worker: str, state: _State) -> None:
        reason = "worker disconnected"
        try:
            while True:
                message = recv_message(conn)
                if message is None:
                    break
                kind = message.get("type")
                if kind == "hello":
                    if message.get("protocol") != PROTOCOL_VERSION:
                        send_message(conn, {
                            "type": "shutdown",
                            "error": f"protocol mismatch: coordinator speaks "
                                     f"v{PROTOCOL_VERSION}",
                        })
                        break
                    name = message.get("worker")
                    if name:
                        worker = f"{worker} ({name})"
                    with state.lock:
                        state.counters["workers_connected"] += 1
                    state._say(f"worker connected: {worker}")
                    send_message(conn, {
                        "type": "welcome",
                        "protocol": PROTOCOL_VERSION,
                        "lease_s": state.lease_s,
                    })
                elif kind == "pull":
                    send_message(conn, state.grant(worker))
                elif kind == "heartbeat":
                    state.heartbeat(str(message.get("job_id")), worker)
                elif kind == "outcome":
                    outcome = replace(
                        SweepOutcome.from_dict(message["outcome"]), cached=False
                    )
                    state.absorb_worker_telemetry(message.get("telemetry"))
                    state.absorb_worker_spans(message.get("spans"))
                    state.complete(outcome.job_id, outcome)
                    send_message(conn, {"type": "ok"})
                elif kind == "error":
                    job_id = str(message.get("job_id"))
                    state.fail_attempt(
                        job_id, worker,
                        f"job raised: {message.get('message', 'unknown error')}",
                    )
                    send_message(conn, {"type": "ok"})
                else:
                    raise BackendError(f"unexpected message type {kind!r}")
        except (OSError, ExperimentError, KeyError) as exc:
            reason = f"worker connection error: {exc}"
        finally:
            state.release_worker(worker, reason)
            state._say(f"worker gone: {worker}")
            try:
                conn.close()
            except OSError:
                pass
