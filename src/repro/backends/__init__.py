"""Pluggable sweep execution backends.

* :mod:`~repro.backends.base` — the :class:`ExecutionBackend`
  contract: submit pending jobs, stream outcomes back in any order,
  bit-identical results;
* :mod:`~repro.backends.local` — :class:`SerialBackend` (in-process)
  and :class:`ProcessBackend` (local process pool);
* :mod:`~repro.backends.distributed` — :class:`DistributedBackend`,
  the TCP coordinator of the multi-machine job queue;
* :mod:`~repro.backends.worker` — :func:`run_worker`, the
  ``repro worker --connect HOST:PORT`` pull loop;
* :mod:`~repro.backends.protocol` — the length-prefixed JSON wire
  format shared by coordinator and workers.

:class:`~repro.api.Session` selects a backend from its
:class:`~repro.api.policy.ExecutionPolicy` ``backend`` field, the
``REPRO_SWEEP_BACKEND`` environment
variable (``serial`` / ``process`` / ``distributed``; the distributed
endpoint comes from ``REPRO_SWEEP_CONNECT``), or — by default — serial
for one worker and the process pool otherwise, exactly as before the
backends existed.

Quickstart (two machines)::

    # machine A — the coordinator side runs the sweep as usual:
    repro study --scenario all --policy tdvs,edvs \\
        --backend distributed --connect 0.0.0.0:7641

    # machine B (any number of times):
    repro worker --connect machineA:7641
"""

from __future__ import annotations

import os
from typing import Optional, Union

from repro.errors import BackendError
from repro.backends.base import ExecutionBackend, StartFn
from repro.backends.distributed import DistributedBackend, LeaseClock
from repro.backends.local import ProcessBackend, SerialBackend
from repro.backends.protocol import PROTOCOL_VERSION, parse_endpoint
from repro.backends.worker import run_worker

#: Environment override for the default backend (``serial`` /
#: ``process`` / ``distributed``); experiments consult it through
#: their :class:`~repro.api.Session` sweeps, so every figure grid can fan
#: out to a worker fleet with zero call-site changes.
BACKEND_ENV_VAR = "REPRO_SWEEP_BACKEND"

#: Environment fallback for the distributed coordinator endpoint.
CONNECT_ENV_VAR = "REPRO_SWEEP_CONNECT"

#: Name → backend selector tokens accepted by :func:`get_backend`.
BACKEND_NAMES = ("serial", "process", "distributed")


def get_backend(
    name: Optional[Union[str, ExecutionBackend]] = None,
    workers: Optional[int] = None,
    connect: Optional[str] = None,
    log=None,
    lease_s: Optional[float] = None,
    max_retries: Optional[int] = None,
) -> ExecutionBackend:
    """Build a backend from a selector token (or pass one through).

    ``name=None`` consults ``REPRO_SWEEP_BACKEND`` and falls back to
    the classic behaviour: serial for ``workers`` <= 1, the local
    process pool otherwise.  ``connect`` (or ``REPRO_SWEEP_CONNECT``)
    gives the distributed coordinator its ``HOST:PORT`` to listen on;
    ``lease_s`` / ``max_retries`` tune its fault tolerance (both are
    ignored by the local backends, and by pre-built instances, which
    pass through untouched).
    """
    if isinstance(name, ExecutionBackend):
        return name
    if name is None:
        name = os.environ.get(BACKEND_ENV_VAR, "").strip() or None
    if workers is None:
        from repro.sweep.engine import default_workers

        workers = default_workers()
    if name is None:
        name = "process" if workers > 1 else "serial"
    if name == "serial":
        return SerialBackend()
    if name == "process":
        return ProcessBackend(max(1, workers))
    if name == "distributed":
        connect = connect or os.environ.get(CONNECT_ENV_VAR, "").strip() or None
        if connect is None:
            raise BackendError(
                "distributed backend needs an endpoint to listen on: pass "
                "--connect HOST:PORT (or set REPRO_SWEEP_CONNECT)"
            )
        host, port = parse_endpoint(connect)
        extra = {}
        if lease_s is not None:
            extra["lease_s"] = lease_s
        if max_retries is not None:
            extra["max_retries"] = max_retries
        return DistributedBackend(host=host, port=port, log=log, **extra)
    raise BackendError(
        f"unknown sweep backend {name!r}; expected one of "
        + ", ".join(BACKEND_NAMES)
    )


__all__ = [
    "BACKEND_ENV_VAR",
    "BACKEND_NAMES",
    "CONNECT_ENV_VAR",
    "DistributedBackend",
    "ExecutionBackend",
    "LeaseClock",
    "PROTOCOL_VERSION",
    "ProcessBackend",
    "SerialBackend",
    "StartFn",
    "get_backend",
    "parse_endpoint",
    "run_worker",
]
