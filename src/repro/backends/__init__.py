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
:class:`~repro.api.policy.ExecutionPolicy`: the ``backend`` field
(``serial`` / ``process`` / ``distributed``, the distributed endpoint
from ``connect``), or — by default — serial for one worker and the
process pool otherwise.

Quickstart (two machines)::

    # machine A — the coordinator side runs the sweep as usual:
    repro study --scenario all --policy tdvs,edvs \\
        --backend distributed --connect 0.0.0.0:7641

    # machine B (any number of times):
    repro worker --connect machineA:7641
"""

from __future__ import annotations

from typing import Optional, Union

from repro._exports import lazy_exports
from repro.errors import BackendError
from repro.backends.base import ExecutionBackend, StartFn
from repro.backends.local import ProcessBackend, SerialBackend

#: Name → backend selector tokens accepted by :func:`get_backend`.
BACKEND_NAMES = ("serial", "process", "distributed")


def get_backend(
    name: Optional[Union[str, ExecutionBackend]] = None,
    workers: Optional[int] = None,
    connect: Optional[str] = None,
    log=None,
) -> ExecutionBackend:
    """Build a backend from a selector token (or pass one through).

    ``name=None`` picks serial for ``workers`` <= 1 (``None`` counts
    as 1) and the local process pool otherwise.  ``connect`` gives the
    distributed coordinator its ``HOST:PORT`` to listen on; pre-built
    instances pass through untouched.
    """
    if isinstance(name, ExecutionBackend):
        return name
    workers = 1 if workers is None else workers
    if name is None:
        name = "process" if workers > 1 else "serial"
    if name == "serial":
        return SerialBackend()
    if name == "process":
        return ProcessBackend(max(1, workers))
    if name == "distributed":
        from repro.backends.distributed import DistributedBackend
        from repro.backends.protocol import parse_endpoint

        if connect is None:
            raise BackendError(
                "distributed backend needs an endpoint to listen on: pass "
                "connect='HOST:PORT' (--connect HOST:PORT on the CLI)"
            )
        host, port = parse_endpoint(connect)
        return DistributedBackend(host=host, port=port, log=log)
    raise BackendError(
        f"unknown sweep backend {name!r}; expected one of "
        + ", ".join(BACKEND_NAMES)
    )


__all__ = [
    "BACKEND_NAMES",
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

# The distributed coordinator, its wire protocol and the worker loop
# (with ``socket`` and ``threading``) load on first use, so a serial or
# process-pool sweep never imports them.
_EXPORTS = {
    "DistributedBackend": "repro.backends.distributed",
    "LeaseClock": "repro.backends.distributed",
    "PROTOCOL_VERSION": "repro.backends.protocol",
    "parse_endpoint": "repro.backends.protocol",
    "run_worker": "repro.backends.worker",
}

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
