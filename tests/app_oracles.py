"""Reference computations the application models are checked against.

Each is written the slow and obvious way, independently of the model it
checks; nothing in ``src/`` imports this module.
"""

from __future__ import annotations

from collections import Counter
from typing import List, Tuple

from repro.npu.steps import Compute, MemPost, MemRead, MemWrite


def brute_force_lpm(
    routes: List[Tuple[int, int, int]], address: int, default_port: int = 0
) -> int:
    """Longest-prefix match by scanning ``(prefix, length, port)`` tuples."""
    best_port = default_port
    best_length = -1
    for prefix, length, port in routes:
        # >= so that a re-inserted identical prefix overrides (last wins),
        # matching the trie's overwrite semantics.
        if length >= best_length:
            mask = (0xFFFFFFFF << (32 - length)) & 0xFFFFFFFF if length else 0
            if (address & mask) == (prefix & mask):
                best_port = port
                best_length = length
    return best_port


def brute_force_walk_depth(routes: List[Tuple[int, int, int]], address: int) -> int:
    """Trie nodes an LPM walk for ``address`` visits.

    The root, plus one node per leading bit the address shares with some
    inserted ``(prefix, length, port)`` route, up to that route's length.
    """
    shared = 0
    for prefix, length, _port in routes:
        common = 0
        while common < length and not ((address ^ prefix) >> (31 - common)) & 1:
            common += 1
        shared = max(shared, common)
    return 1 + shared


def stream_cost(steps) -> Tuple[int, Counter, str]:
    """Total ``Compute`` instructions, memory references and the last step.

    References count as ``(kind, target, nbytes)`` with kind ``read``,
    ``write`` or ``post``; the last step is named by its class.
    """
    instructions = 0
    references: Counter = Counter()
    last = None
    kinds = ((MemRead, "read"), (MemWrite, "write"), (MemPost, "post"))
    for step in steps:
        last = step
        if isinstance(step, Compute):
            instructions += step.instructions
        for cls, kind in kinds:
            if isinstance(step, cls):
                references[(kind, step.target, step.nbytes)] += 1
    return instructions, references, type(last).__name__


# ---------------------------------------------------------------------------
# Closed-form per-packet costs, from each benchmark's description
# ---------------------------------------------------------------------------
#: Bytes per chunk moved between the FIFOs and SDRAM.
CHUNK = 64
#: Bytes of the IP header; the rest of a packet is payload.
IP_HEADER = 20


def chunks(nbytes: int) -> int:
    """64-byte chunks that move ``nbytes``; an empty move still takes one."""
    return max(1, -(-nbytes // CHUNK))


def md4_blocks(payload_len: int) -> int:
    """Blocks RFC 1320 hashes: the message, a 0x80 byte, zeros up to 56
    mod 64, then the 8-byte length."""
    padded = payload_len + 1
    padded += (56 - padded) % 64
    return (padded + 8) // 64


def walk_reads(depth: int) -> int:
    """SRAM reads of an 8-bit-stride walk that visits ``depth`` trie nodes:
    the root's, plus one per stride the walk starts, at most 5."""
    return min(5, 1 + -(-(depth - 1) // 8))


def rx_cost(
    name: str, profile, size_bytes: int, reads: int = 0
) -> Tuple[int, Counter, str]:
    """Receive cost of one packet on ``ipfwdr``, ``url`` or ``md4``.

    Each stores the packet to SDRAM chunk by chunk and ends by enqueuing
    its descriptor through the scratchpad.  ``ipfwdr`` walks the SRAM
    trie (``reads`` node reads) and reads the output-port block from
    SDRAM; ``url`` reads the payload back from SDRAM to scan it, probes
    its SRAM table three times and reads the port block; ``md4`` moves
    each MD4 block SDRAM -> SRAM, reads it back for the 48 rounds of 6
    operations, and writes the 16-byte digest to SRAM.
    """
    stored = chunks(size_bytes)
    payload = max(0, size_bytes - IP_HEADER)
    instructions = (
        profile.rx_header_instr
        + stored * profile.rx_chunk_instr
        + profile.rx_finish_instr
        + profile.enqueue_instr
    )
    references = Counter({("write", "sdram", CHUNK): stored, ("write", "scratch", 8): 1})
    if name == "ipfwdr":
        instructions += reads * profile.lookup_step_instr
        references[("read", "sram", 4)] += reads
        references[("read", "sdram", 8)] += 1
    elif name == "url":
        scanned = chunks(payload)
        instructions += scanned * 170 + 3 * profile.lookup_step_instr
        references[("read", "sdram", CHUNK)] += scanned
        references[("read", "sram", 16)] += 3
        references[("read", "sdram", 8)] += 1
    elif name == "md4":
        blocks = md4_blocks(payload)
        instructions += blocks * 48 * 6
        for kind in ("read", "write"):
            references[(kind, "sram", CHUNK)] += blocks
        references[("read", "sdram", CHUNK)] += blocks
        references[("write", "sram", 16)] += 1
    else:
        raise ValueError(f"no receive closed form for {name!r}")
    return instructions, +references, "PutTx"


def nat_rx_cost(profile, flow: str) -> Tuple[int, Counter, str]:
    """Receive cost of one ``nat`` packet whose flow is ``new``, ``known``
    or ``exhausted`` (new, with no external port left).

    One SRAM read fetches the translation entry and a new flow pays one
    SRAM write to install it; translating is a 1,600-instruction header
    rewrite.  No packet body moves through SDRAM.
    """
    instructions = profile.rx_header_instr + profile.lookup_step_instr
    references = Counter({("read", "sram", 16): 1})
    if flow == "exhausted":
        return instructions, references, "Drop"
    if flow == "new":
        instructions += profile.lookup_step_instr
        references[("write", "sram", 16)] += 1
    instructions += 1600 + profile.rx_finish_instr + profile.enqueue_instr
    references[("write", "scratch", 8)] += 1
    return instructions, references, "PutTx"


def tx_cost(profile, size_bytes: int, fetch_sdram: bool) -> Tuple[int, Counter, str]:
    """Transmit cost of one packet: read the descriptor from the
    scratchpad, move each chunk to the TFIFO (posting its SDRAM fetch
    unless the packet cut through) and hand off to the MAC."""
    moved = chunks(size_bytes)
    instructions = profile.tx_header_instr + moved * profile.tx_chunk_instr
    instructions += profile.tx_finish_instr
    references = Counter({("read", "scratch", 8): 1})
    if fetch_sdram:
        references[("post", "sdram", CHUNK)] += moved
    return instructions, references, "Compute"
