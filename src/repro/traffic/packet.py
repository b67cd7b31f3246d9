"""Packet and flow records.

A :class:`Packet` is the unit every layer of the model passes around:
the traffic generator stamps arrival metadata, the device ports enqueue
it, microengine threads process it (the applications read header fields
and, when needed, payload bytes), and the transmit path forwards it.

Payload bytes are *virtual*: storing megabytes of random payload would be
wasted memory, so each packet carries a ``payload_seed`` and materializes
deterministic pseudo-random bytes only when asked.  No application model
reads them: ``url`` and ``md4`` charge their payload work by length.
"""

from __future__ import annotations

import random
import zlib
from bisect import bisect_left
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Optional, Tuple

from repro.errors import TrafficError

#: Minimum and maximum legal IPv4 packet sizes this model accepts.
MIN_PACKET_BYTES = 40
MAX_PACKET_BYTES = 9000

#: Flow tables one process keeps (160 KB at 512 flows, 490 KB at 2048).
#: The catalog builds two per seed: its scenarios have two flow shapes.
SHARED_FLOW_TABLES_MAX = 16

#: IP header bytes assumed by the applications (no options).
IP_HEADER_BYTES = 20


@dataclass
class Packet:
    """One IP packet traversing the NPU model.

    Attributes
    ----------
    seq:
        Global sequence number assigned by the traffic source.
    arrival_ps:
        Arrival timestamp at the device port, in picoseconds.
    size_bytes:
        Total packet length including headers.
    src_ip / dst_ip:
        32-bit addresses (integers).
    src_port / dst_port:
        16-bit transport ports.
    protocol:
        IP protocol number (6 TCP, 17 UDP).
    flow_id:
        Flow index from the :class:`FlowPool`.
    input_port:
        NPU device-port index (0..15) the packet arrived on.
    payload_seed:
        Seed for deterministic payload synthesis.
    output_port:
        Filled in by the forwarding application.
    """

    seq: int
    arrival_ps: int
    size_bytes: int
    src_ip: int
    dst_ip: int
    src_port: int
    dst_port: int
    protocol: int
    flow_id: int
    input_port: int
    payload_seed: int = 0
    output_port: Optional[int] = None

    def __post_init__(self) -> None:
        if not MIN_PACKET_BYTES <= self.size_bytes <= MAX_PACKET_BYTES:
            raise TrafficError(
                f"packet size {self.size_bytes} outside "
                f"[{MIN_PACKET_BYTES}, {MAX_PACKET_BYTES}]"
            )

    @property
    def size_bits(self) -> int:
        """Packet length in bits."""
        return self.size_bytes * 8

    @property
    def payload_bytes_len(self) -> int:
        """Payload length (total minus IP header)."""
        return max(0, self.size_bytes - IP_HEADER_BYTES)

    @property
    def five_tuple(self) -> Tuple[int, int, int, int, int]:
        """The classification 5-tuple."""
        return (self.src_ip, self.dst_ip, self.src_port, self.dst_port, self.protocol)

    def payload(self) -> bytes:
        """Materialize deterministic pseudo-random payload bytes.

        The same packet always yields the same payload.
        """
        length = self.payload_bytes_len
        if length == 0:
            return b""
        out = bytearray()
        state = (self.payload_seed ^ (self.seq * 0x9E3779B9)) & 0xFFFFFFFF
        while len(out) < length:
            state = zlib.crc32(state.to_bytes(4, "big"))
            out.extend(state.to_bytes(4, "big"))
        return bytes(out[:length])


class FlowPool:
    """A population of flows with skewed (Zipf-like) popularity.

    The traffic generator draws a flow for each packet; applications that
    keep per-flow state (``nat``) see realistic reuse, and route lookups
    (``ipfwdr``) see a realistic destination mix.

    Parameters
    ----------
    num_flows:
        Size of the flow population.
    zipf_s:
        Zipf exponent; 0 gives uniform popularity, ~1 is web-like skew.
    rng:
        ``random.Random`` used for all draws.
    """

    def __init__(self, num_flows: int, zipf_s: float, rng):
        if num_flows <= 0:
            raise TrafficError(f"num_flows must be positive, got {num_flows}")
        if zipf_s < 0:
            raise TrafficError(f"zipf_s must be non-negative, got {zipf_s}")
        self.num_flows = num_flows
        self.zipf_s = zipf_s
        self._rng = rng
        # The endpoint tuples and the popularity CDF are built once per
        # process for each stream state (see ``_flow_table``); the pool
        # keeps drawing from ``rng``, so it resumes where the build left it.
        self._flows, self._cdf, state_after = _flow_table(
            rng.getstate(), num_flows, zipf_s
        )
        rng.setstate(state_after)

    def draw(self) -> int:
        """Draw a flow index according to the popularity distribution."""
        return bisect_left(self._cdf, self._rng.random())

    def endpoints(self, flow_id: int) -> Tuple[int, int, int, int, int]:
        """The (src_ip, dst_ip, src_port, dst_port, protocol) of a flow."""
        return self._flows[flow_id]

    def __len__(self) -> int:
        return self.num_flows


@lru_cache(maxsize=SHARED_FLOW_TABLES_MAX)
def _flow_table(state: tuple, num_flows: int, zipf_s: float):
    """``(endpoints, cdf, state_after)`` of a :class:`FlowPool` whose
    stream starts at ``state``.

    A pure function of its arguments, so pools built from equal stream
    states share the two tables (tuples: no pool mutates them), and
    ``state_after`` is where the build leaves the stream.
    """
    rng = random.Random()
    rng.setstate(state)
    flows = []
    for _ in range(num_flows):
        src_ip = rng.getrandbits(32)
        dst_ip = rng.getrandbits(32)
        src_port = rng.randrange(1024, 65536)
        dst_port = rng.choice((80, 80, 443, 8080, 53, rng.randrange(1024, 65536)))
        protocol = 6 if rng.random() < 0.85 else 17
        flows.append((src_ip, dst_ip, src_port, dst_port, protocol))
    weights = [1.0 / (rank + 1) ** zipf_s for rank in range(num_flows)]
    total = sum(weights)
    cumulative = 0.0
    cdf = []
    for weight in weights:
        cumulative += weight / total
        cdf.append(cumulative)
    cdf[-1] = 1.0  # guard float drift
    return tuple(flows), tuple(cdf), rng.getstate()
