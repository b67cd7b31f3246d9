"""Packet queues: bounded receive queues and unbounded transmit rings.

:class:`PacketQueue` is a FIFO with drop counting.  Bounded, it is a
port's receive queue — where packets are lost when the microengines
fall behind (e.g. while stalled through a DVS transition penalty).
Unbounded (``capacity=None``), it is the descriptor ring between
receive and transmit microengines (scratchpad rings in the real chip;
the apps pay the scratch-write cost explicitly in their step streams).

A queue wakes the microengine parked on it: the consuming engine
installs its wake hook once, with ``set_waiter``, and the hook runs
after every enqueue (returning at once while the engine is not parked).
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Optional, Tuple

from repro.errors import NpuError
from repro.traffic.packet import Packet


class PacketQueue:
    """FIFO of packets with drop accounting; ``capacity=None`` is unbounded."""

    def __init__(self, capacity: Optional[int], name: str = "queue"):
        if capacity is not None and capacity <= 0:
            raise NpuError(f"queue {name!r}: capacity must be positive")
        self.capacity = capacity
        self.name = name
        self._items: Deque[Packet] = deque()
        #: The backing deque, as a one-tuple: a consumer tests the queue
        #: empty with ``not any(queue.deques)``, without a call.  The
        #: deque keeps its identity for the queue's life.
        self.deques: Tuple[Deque[Packet], ...] = (self._items,)
        self.enqueued = 0
        self.dropped = 0
        self.max_depth = 0
        self.waiter: Optional[Callable[[], None]] = None

    def set_waiter(self, waiter: Callable[[], None]) -> None:
        """Install the consuming engine's wake hook, run after every enqueue."""
        self.waiter = waiter

    def offer(self, packet: Packet) -> bool:
        """Enqueue if space remains; returns False (and counts) on drop."""
        if self.capacity is not None and len(self._items) >= self.capacity:
            self.dropped += 1
            return False
        self._items.append(packet)
        self.enqueued += 1
        if len(self._items) > self.max_depth:
            self.max_depth = len(self._items)
        if self.waiter is not None:
            self.waiter()
        return True

    def poll(self) -> Optional[Packet]:
        """Dequeue the oldest packet, or ``None`` when empty."""
        if not self._items:
            return None
        return self._items.popleft()

    def __len__(self) -> int:
        return len(self._items)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<PacketQueue {self.name} depth={len(self._items)}/"
            f"{self.capacity} dropped={self.dropped}>"
        )
