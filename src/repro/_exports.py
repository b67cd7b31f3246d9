"""Lazy package exports (PEP 562).

An orchestration package (``repro``, ``repro.api``, ``repro.sweep``,
``repro.studies``, ``repro.obs``) re-exports names from its modules
without importing them: it keeps one table mapping each public name to
its defining module and binds the two hooks :func:`lazy_exports`
returns::

    __all__ = ["Session"]

    _EXPORTS = {"Session": "repro.api.session"}

    __getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)

The first ``repro.api.Session`` (or ``from repro.api import Session``)
imports ``repro.api.session`` and caches the name in the package's
globals, so later lookups never reach ``__getattr__``.  A run that only
needs the simulator thus never imports the sweep, study and session
machinery.
"""

from __future__ import annotations

import importlib
from typing import Any, Callable, List, Mapping, MutableMapping, Tuple


def lazy_exports(
    namespace: MutableMapping[str, Any], exports: Mapping[str, str]
) -> Tuple[Callable[[str], Any], Callable[[], List[str]]]:
    """Module ``__getattr__`` and ``__dir__`` for a package whose public
    names resolve on first access.

    ``namespace`` is the package's ``globals()``; ``exports`` maps each
    public name to the module that defines it.  An unknown name raises
    :class:`AttributeError` naming the package; an export whose module
    fails to import raises that import's error.
    """
    package = namespace["__name__"]

    def __getattr__(name: str) -> Any:
        try:
            module = exports[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        value = getattr(importlib.import_module(module), name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted({*namespace, *exports})

    return __getattr__, __dir__
