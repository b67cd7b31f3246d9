"""SDRAM packet-buffer allocator.

IP packets live in SDRAM between reception and transmission.  The
allocator hands out fixed-size buffers from a freelist, mirroring the
IXP1200's buffer pools; exhaustion is a (rare, but real) loss mechanism
that the receive path checks before copying packet data into SDRAM.

The freelist is lazy: handles never used yet come from a counter, and
released handles are reused last-in first-out ahead of them.  That is
the handle sequence of an eager freelist holding every handle in
reverse order (``tests/test_packetbuf.py`` keeps one as the oracle),
without building 65,536 ints per run at the default 128 MB packet area.
"""

from __future__ import annotations

from typing import List, Optional

from repro.errors import MemoryModelError


class PacketBufferPool:
    """Fixed-size buffer allocator over the SDRAM packet area.

    Parameters
    ----------
    total_bytes:
        SDRAM bytes dedicated to packet buffers.
    buffer_bytes:
        Size of one buffer (must hold an MTU packet).
    """

    def __init__(self, total_bytes: int, buffer_bytes: int = 2048):
        if buffer_bytes <= 0:
            raise MemoryModelError(f"buffer_bytes must be positive, got {buffer_bytes}")
        if total_bytes < buffer_bytes:
            raise MemoryModelError(
                f"total_bytes {total_bytes} smaller than one buffer {buffer_bytes}"
            )
        self.buffer_bytes = buffer_bytes
        self.num_buffers = total_bytes // buffer_bytes
        # Handles below ``_next`` have been handed out at least once;
        # ``_released`` holds those of them that are free again.
        self._next = 0
        self._released: List[int] = []
        # Allocation mask, so the double-free check never scans the
        # released list.
        self._allocated = bytearray(self.num_buffers)
        self.allocations = 0
        self.failures = 0
        self.peak_in_use = 0

    @property
    def in_use(self) -> int:
        """Buffers currently allocated."""
        return self._next - len(self._released)

    @property
    def free_buffers(self) -> int:
        """Buffers currently free."""
        return self.num_buffers - self.in_use

    def allocate(self) -> Optional[int]:
        """Return a buffer handle, or ``None`` when exhausted."""
        released = self._released
        if released:
            handle = released.pop()
        elif self._next < self.num_buffers:
            handle = self._next
            self._next = handle + 1
        else:
            self.failures += 1
            return None
        self._allocated[handle] = 1
        self.allocations += 1
        in_use = self._next - len(released)
        if in_use > self.peak_in_use:
            self.peak_in_use = in_use
        return handle

    def release(self, handle: int) -> None:
        """Return a buffer to the pool.

        Raises on double-free or out-of-range handles — those are model
        bugs worth failing loudly for.
        """
        if not 0 <= handle < self.num_buffers:
            raise MemoryModelError(f"bad buffer handle {handle}")
        if not self._allocated[handle]:
            raise MemoryModelError(f"double free of buffer {handle}")
        self._allocated[handle] = 0
        self._released.append(handle)

    def address_of(self, handle: int) -> int:
        """Byte address of a buffer within the packet area."""
        if not 0 <= handle < self.num_buffers:
            raise MemoryModelError(f"bad buffer handle {handle}")
        return handle * self.buffer_bytes

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<PacketBufferPool {self.in_use}/{self.num_buffers} in use, "
            f"failures={self.failures}>"
        )
