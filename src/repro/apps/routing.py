"""Longest-prefix-match routing table (binary trie).

`ipfwdr` walks a trie stored in SRAM: each step of the walk is one SRAM
read in the step stream, so the *depth* of the successful lookup directly
shapes the application's memory behaviour.  The implementation is a real
binary trie with prefix insertion and LPM lookup; tests cross-check it
against a brute-force reference.
"""

from __future__ import annotations

import random
from functools import lru_cache
from typing import TYPE_CHECKING, Optional, Tuple

from repro.errors import NpuError

if TYPE_CHECKING:
    from repro.apps.base import AppResources

#: Routing tables one process keeps (about 225 KB each).  A study builds
#: one per seed.
SHARED_TRIES_MAX = 8


class _TrieNode:
    __slots__ = ("zero", "one", "next_hop")

    def __init__(self):
        self.zero: Optional[_TrieNode] = None
        self.one: Optional[_TrieNode] = None
        self.next_hop: Optional[int] = None


class RoutingTrie:
    """Binary LPM trie mapping IPv4 prefixes to next-hop port indices."""

    def __init__(self, default_port: int = 0):
        self._root = _TrieNode()
        self._root.next_hop = default_port
        self.prefixes = 0

    def insert(self, prefix: int, length: int, port: int) -> None:
        """Insert ``prefix/length`` -> ``port``.

        ``prefix`` is a 32-bit address whose top ``length`` bits matter.
        """
        if not 0 <= length <= 32:
            raise NpuError(f"prefix length must be 0..32, got {length}")
        if not 0 <= prefix < 2**32:
            raise NpuError(f"prefix must be a 32-bit value, got {prefix}")
        node = self._root
        for bit_index in range(length):
            bit = (prefix >> (31 - bit_index)) & 1
            if bit:
                if node.one is None:
                    node.one = _TrieNode()
                node = node.one
            else:
                if node.zero is None:
                    node.zero = _TrieNode()
                node = node.zero
        if node.next_hop is None:
            self.prefixes += 1
        node.next_hop = port

    def lookup(self, address: int) -> Tuple[int, int]:
        """Longest-prefix-match: returns ``(port, depth_visited)``.

        ``depth_visited`` is the number of trie nodes traversed — the
        number of SRAM reads the microengine pays for the walk (at least
        1: the root/default-route read).
        """
        node = self._root
        best = node.next_hop
        depth = 1
        for bit_index in range(32):
            bit = (address >> (31 - bit_index)) & 1
            node = node.one if bit else node.zero
            if node is None:
                break
            depth += 1
            if node.next_hop is not None:
                best = node.next_hop
        assert best is not None  # root always carries the default route
        return best, depth

    def __len__(self) -> int:
        return self.prefixes


def random_routing_trie(
    rng, num_prefixes: int = 256, num_ports: int = 16
) -> RoutingTrie:
    """Build a realistic routing table covering the whole address space.

    All 256 /8 prefixes are installed with round-robin output ports (so
    arbitrary destinations spread across every port, as a deployed edge
    table would), and ``num_prefixes`` longer random prefixes (/12-/24,
    the classic BGP length mix) are layered on top to vary LPM depth.
    """
    if num_prefixes < 0:
        raise NpuError(f"num_prefixes must be non-negative, got {num_prefixes}")
    trie = RoutingTrie(default_port=0)
    for octet in range(256):
        trie.insert(octet << 24, 8, (octet * 7 + rng.randrange(num_ports)) % num_ports)
    lengths = [12, 16, 16, 20, 24, 24]
    for _ in range(num_prefixes):
        length = rng.choice(lengths)
        prefix = rng.getrandbits(length) << (32 - length)
        trie.insert(prefix, length, rng.randrange(num_ports))
    return trie


def routing_trie_for(resources: AppResources) -> RoutingTrie:
    """The chip's routing table, ``resources.routing_trie``, filled in
    on first use.

    The table is the one :func:`random_routing_trie` builds from the
    ``apps.routing`` stream (256 prefixes over the chip's ports), built
    once per process: it is a pure function of the stream's state and
    the two sizes, so every run whose stream starts alike (every job of
    one seed) shares it, and the stream is left where the build would
    have left it.  The shared trie is read-only: apps only look it up.
    A caller that inserts routes builds its own with
    :func:`random_routing_trie`.
    """
    if resources.routing_trie is None:
        rng = resources.rng_streams.get("apps.routing")
        trie, state_after = _built_trie(rng.getstate(), 256, resources.num_ports)
        rng.setstate(state_after)
        resources.routing_trie = trie
    return resources.routing_trie


@lru_cache(maxsize=SHARED_TRIES_MAX)
def _built_trie(state: tuple, num_prefixes: int, num_ports: int):
    rng = random.Random()
    rng.setstate(state)
    trie = random_routing_trie(rng, num_prefixes=num_prefixes, num_ports=num_ports)
    return trie, rng.getstate()


def strides_for_depth(depth_bits: int, stride_bits: int = 8, max_strides: int = 5) -> int:
    """SRAM reads for a multibit (stride) trie walk of ``depth_bits``.

    The timing model walks an 8-bit-stride table (as IXP reference code
    does) rather than one read per bit: the root's read plus one per
    stride the walk starts, so a /24 match (25 nodes) costs 4 reads.
    """
    if depth_bits <= 1:
        return 1
    return min(max_strides, 1 + (depth_bits - 2) // stride_bits + 1)
