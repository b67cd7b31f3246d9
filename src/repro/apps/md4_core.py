"""RFC 1320 MD4 cost constants.

The `md4` benchmark computes a 128-bit digital signature per packet; the
step-stream model charges its timing cost from the two facts here: the
number of 64-byte blocks the RFC's padding rule gives a payload, and the
operations MD4 spends per block.
"""

from __future__ import annotations

#: Operations per 64-byte block: 48 steps of ~6 ALU ops each plus message
#: scheduling — the cost constant the md4 app's step stream charges.
OPS_PER_BLOCK = 48 * 6


def md4_blocks_for(payload_len: int) -> int:
    """Number of 64-byte blocks MD4 processes for a payload length.

    Accounts for the mandatory padding block spill.
    """
    if payload_len < 0:
        raise ValueError(f"negative payload length {payload_len}")
    # Padding adds 1 byte plus an 8-byte length field.
    return (payload_len + 1 + 8 + 63) // 64
