"""Tests for the SDRAM packet-buffer allocator."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import MemoryModelError
from repro.npu.packetbuf import PacketBufferPool


def test_allocate_release_cycle():
    pool = PacketBufferPool(8192, buffer_bytes=2048)
    assert pool.num_buffers == 4
    handles = [pool.allocate() for _ in range(4)]
    assert None not in handles
    assert len(set(handles)) == 4
    assert pool.in_use == 4
    assert pool.allocate() is None
    assert pool.failures == 1
    pool.release(handles[0])
    assert pool.allocate() == handles[0]


def test_peak_tracking():
    pool = PacketBufferPool(8192)
    a = pool.allocate()
    b = pool.allocate()
    pool.release(a)
    pool.release(b)
    assert pool.peak_in_use == 2
    assert pool.in_use == 0


def test_double_free_rejected():
    pool = PacketBufferPool(8192)
    handle = pool.allocate()
    pool.release(handle)
    with pytest.raises(MemoryModelError):
        pool.release(handle)


def test_bad_handle_rejected():
    pool = PacketBufferPool(8192)
    with pytest.raises(MemoryModelError):
        pool.release(99)
    with pytest.raises(MemoryModelError):
        pool.address_of(99)


def test_addresses_distinct_and_aligned():
    pool = PacketBufferPool(8192, buffer_bytes=2048)
    addresses = {pool.address_of(h) for h in range(pool.num_buffers)}
    assert len(addresses) == pool.num_buffers
    assert all(a % 2048 == 0 for a in addresses)


def test_construction_validation():
    with pytest.raises(MemoryModelError):
        PacketBufferPool(100, buffer_bytes=2048)
    with pytest.raises(MemoryModelError):
        PacketBufferPool(2048, buffer_bytes=0)


class EagerFreelistPool:
    """The oracle: a freelist holding every handle in reverse order, so
    ``pop()`` hands out handles lowest first and reuses released ones
    last-in first-out."""

    def __init__(self, num_buffers):
        self.num_buffers = num_buffers
        self.free = list(range(num_buffers - 1, -1, -1))
        self.allocations = 0
        self.failures = 0
        self.peak_in_use = 0

    @property
    def in_use(self):
        return self.num_buffers - len(self.free)

    def allocate(self):
        if not self.free:
            self.failures += 1
            return None
        handle = self.free.pop()
        self.allocations += 1
        self.peak_in_use = max(self.peak_in_use, self.in_use)
        return handle

    def release(self, handle):
        if not 0 <= handle < self.num_buffers:
            raise MemoryModelError(f"bad buffer handle {handle}")
        if handle in self.free:
            raise MemoryModelError(f"double free of buffer {handle}")
        self.free.append(handle)


def _outcome(call, *args):
    try:
        return call(*args)
    except MemoryModelError as exc:
        return str(exc)


@given(
    num_buffers=st.integers(min_value=1, max_value=8),
    ops=st.lists(
        st.one_of(st.none(), st.integers(min_value=-2, max_value=10)),
        max_size=60,
    ),
)
@settings(max_examples=200, deadline=None)
def test_lazy_freelist_matches_eager_freelist(num_buffers, ops):
    # ``None`` allocates; an integer releases that handle, which may be
    # held, already free, never handed out or out of range.
    pool = PacketBufferPool(num_buffers * 2048, buffer_bytes=2048)
    oracle = EagerFreelistPool(num_buffers)
    for op in ops:
        if op is None:
            assert pool.allocate() == oracle.allocate()
        else:
            assert _outcome(pool.release, op) == _outcome(oracle.release, op)
        assert pool.in_use == oracle.in_use
        assert pool.free_buffers == len(oracle.free)
        assert pool.peak_in_use == oracle.peak_in_use
        assert pool.failures == oracle.failures
        assert pool.allocations == oracle.allocations
