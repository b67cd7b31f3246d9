"""Exception hierarchy for the ``repro`` package.

All exceptions raised intentionally by this package derive from
:class:`ReproError`, so callers can catch a single base class.  Each
subsystem has its own subclass to make error provenance obvious in
tracebacks and to let tests assert on precise failure categories.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class ConfigError(ReproError):
    """A configuration value is missing, malformed, or inconsistent."""


class SimulationError(ReproError):
    """The simulation kernel or a component reached an invalid state."""


class SchedulingError(SimulationError):
    """An event was scheduled in the past or with an invalid delay."""


class ClockError(SimulationError):
    """A clock-domain operation was invalid (e.g. non-positive frequency)."""


class NpuError(ReproError):
    """An architectural component of the NPU model was misused."""


class MemoryModelError(NpuError):
    """An SRAM/SDRAM/scratchpad access was out of range or malformed."""


class TrafficError(ReproError):
    """A traffic model or packet source was misconfigured."""


class TraceError(ReproError):
    """A trace file or event stream is malformed."""


class LocError(ReproError):
    """Base class for Logic-of-Constraints errors."""


class LocSyntaxError(LocError):
    """LOC formula text failed to tokenize or parse.

    Attributes
    ----------
    position:
        0-based character offset into the formula, or ``None``.
    """

    def __init__(self, message: str, position: "int | None" = None):
        if position is not None:
            message = f"at offset {position}: {message}"
        super().__init__(message)
        self.position = position


class LocSemanticError(LocError):
    """A parsed LOC formula reads an annotation the trace rows lack."""


class AnalysisError(ReproError):
    """A distribution/percentile/surface computation was invalid."""


class ExperimentError(ReproError):
    """An experiment runner was misconfigured or failed to produce output."""


class BackendError(ExperimentError):
    """A sweep execution backend failed or was misused.

    Subclasses :class:`ExperimentError` so sweep callers that already
    guard experiment execution catch backend faults (worker loss beyond
    the retry budget, protocol violations) without new handlers.
    """
