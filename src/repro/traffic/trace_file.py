"""Portable on-disk packet traces.

A packet trace is a CSV file with a header row and one row per packet
(sequence number, arrival time, size, 5-tuple, flow, input port).
Traces let experiments pin their exact input — the moral equivalent of
the paper's sampled NLANR files — and let users replay identical
traffic across runs or against other tools.  A reader refuses a header
that is not the current column list: traces with the retired
``payload_seed`` column (packets carry no payload bytes) are refused.
"""

from __future__ import annotations

import csv
from typing import IO, Iterator, Iterable, List, Union

from repro.errors import TraceError
from repro.traffic.packet import Packet

_FIELDS = (
    "seq",
    "arrival_ps",
    "size_bytes",
    "src_ip",
    "dst_ip",
    "src_port",
    "dst_port",
    "protocol",
    "flow_id",
    "input_port",
)

#: The column older traces carry that packets no longer have.
_RETIRED_COLUMN = "payload_seed"


def write_packet_trace(packets: Iterable[Packet], destination: Union[str, IO]) -> int:
    """Write packets as CSV; returns the number of rows written."""
    if isinstance(destination, str):
        handle: IO = open(destination, "w", encoding="utf-8", newline="")
        owned = True
    else:
        handle = destination
        owned = False
    try:
        writer = csv.writer(handle)
        writer.writerow(_FIELDS)
        count = 0
        for packet in packets:
            writer.writerow(
                (
                    packet.seq,
                    packet.arrival_ps,
                    packet.size_bytes,
                    packet.src_ip,
                    packet.dst_ip,
                    packet.src_port,
                    packet.dst_port,
                    packet.protocol,
                    packet.flow_id,
                    packet.input_port,
                )
            )
            count += 1
        return count
    finally:
        if owned:
            handle.close()


def read_packet_trace(source: Union[str, IO]) -> Iterator[Packet]:
    """Yield packets from a CSV trace (path or open stream)."""
    if isinstance(source, str):
        handle: IO = open(source, "r", encoding="utf-8", newline="")
        owned = True
    else:
        handle = source
        owned = False
    try:
        reader = csv.reader(handle)
        for rowno, row in enumerate(reader, start=1):
            if not row:
                continue
            if row[0] == "seq":  # header
                if tuple(row) != _FIELDS:
                    retired = (
                        f"; column {_RETIRED_COLUMN!r} is retired"
                        if _RETIRED_COLUMN in row
                        else ""
                    )
                    raise TraceError(
                        f"packet trace row {rowno}: header {','.join(row)} is not "
                        f"{','.join(_FIELDS)}{retired}"
                    )
                continue
            if len(row) != len(_FIELDS):
                raise TraceError(
                    f"packet trace row {rowno}: expected {len(_FIELDS)} columns"
                )
            try:
                values: List[int] = [int(cell) for cell in row]
            except ValueError as exc:
                raise TraceError(f"packet trace row {rowno}: {exc}") from exc
            yield Packet(*values)
    finally:
        if owned:
            handle.close()

