"""Trace event records and event-name conventions.

The paper (Figure 3) uses three event types:

``pipeline``
    in the paper, an instruction enters an ME execution pipeline.  This
    model publishes one per instruction *block*: one per ``Compute``
    step (a block of 20–600 instructions) and one per missed poll (see
    :mod:`repro.npu.microengine`), so a LOC formula over ``pipeline``
    events counts blocks and polls, not instructions;
``forward``
    an IP packet is forwarded (transmitted out of the NPU);
``fifo``
    an IP packet is put into the processing queue (received).

Events originating from a specific microengine carry an ``m<k>`` prefix in
the trace (``m2_pipeline``); chip-level events (``forward``, ``fifo``)
are unprefixed.  Each event carries the five annotations of Figure 3.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.errors import TraceError

#: The base event types of the paper's Figure 3.
EVENT_TYPES = ("pipeline", "forward", "fifo")

#: Human-readable one-liners, used by the Figure 3 reproduction.  They
#: keep Figure 3's wording (``pipeline`` included, though the model
#: publishes one per instruction block): fig03 prints them, and the
#: ``repro run all`` output md5 pins that text.
EVENT_DESCRIPTIONS: Dict[str, str] = {
    "pipeline": "an instruction enters the execution pipeline",
    "forward": "an IP packet is forwarded",
    "fifo": "an IP packet is put into the processing queue",
}


def prefixed_event_name(base: str, me_index: Optional[int] = None) -> str:
    """Build a trace event name, optionally prefixed with an ME index.

    >>> prefixed_event_name("pipeline", 2)
    'm2_pipeline'
    >>> prefixed_event_name("forward")
    'forward'
    """
    if base not in EVENT_TYPES:
        raise TraceError(f"unknown base event type {base!r}")
    if me_index is None:
        return base
    if me_index < 0:
        raise TraceError(f"negative microengine index {me_index}")
    return f"m{me_index}_{base}"


def parse_event_name(name: str) -> Tuple[str, Optional[int]]:
    """Split an event name into ``(base, me_index)``.

    Accepts both the underscore form used in files (``m2_pipeline``) and
    the space form used in the paper's prose (``m2 pipeline``).

    >>> parse_event_name("m2_pipeline")
    ('pipeline', 2)
    >>> parse_event_name("forward")
    ('forward', None)
    """
    normalized = name.strip().replace(" ", "_")
    if normalized in EVENT_TYPES:
        return normalized, None
    if "_" in normalized:
        prefix, _, base = normalized.partition("_")
        if base in EVENT_TYPES and len(prefix) >= 2 and prefix[0] == "m":
            digits = prefix[1:]
            if digits.isdigit():
                return base, int(digits)
    raise TraceError(f"malformed event name {name!r}")


class TraceEvent:
    """One record of a simulation trace.

    Attributes mirror the paper's annotation set exactly; ``name`` is the
    (possibly ME-prefixed) event name.

    Attributes
    ----------
    name:
        Event name, e.g. ``"forward"`` or ``"m2_pipeline"``.
    cycle:
        Core clock cycles elapsed since simulation start (reference clock).
    time:
        Simulated time elapsed since start, in microseconds.
    energy:
        Cumulative energy consumed, in microjoules.
    total_pkt:
        Total packets received or transmitted so far.
    total_bit:
        Total bits received or transmitted so far.
    """

    __slots__ = ("name", "cycle", "time", "energy", "total_pkt", "total_bit")

    def __init__(
        self,
        name: str,
        cycle: int,
        time: float,
        energy: float,
        total_pkt: int,
        total_bit: int,
    ):
        self.name = name
        self.cycle = cycle
        self.time = time
        self.energy = energy
        self.total_pkt = total_pkt
        self.total_bit = total_bit

    def annotation(self, annotation_name: str) -> float:
        """Look up an annotation by name (as LOC formulas do).

        Raises :class:`~repro.errors.TraceError` for unknown names.
        """
        try:
            return getattr(self, annotation_name)
        except AttributeError:
            raise TraceError(
                f"event {self.name!r} has no annotation {annotation_name!r}"
            ) from None

    @property
    def base_type(self) -> str:
        """The unprefixed event type (``pipeline``/``forward``/``fifo``)."""
        return parse_event_name(self.name)[0]

    @property
    def me_index(self) -> Optional[int]:
        """The microengine index encoded in the name, or ``None``."""
        return parse_event_name(self.name)[1]

    def as_tuple(self) -> Tuple[str, int, float, float, int, int]:
        """Return the record as a plain tuple (for compact storage)."""
        return (
            self.name,
            self.cycle,
            self.time,
            self.energy,
            self.total_pkt,
            self.total_bit,
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TraceEvent):
            return NotImplemented
        return self.as_tuple() == other.as_tuple()

    def __hash__(self) -> int:
        return hash(self.as_tuple())

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"TraceEvent({self.name!r}, cycle={self.cycle}, time={self.time:.3f}, "
            f"energy={self.energy:.6f}, total_pkt={self.total_pkt}, "
            f"total_bit={self.total_bit})"
        )
