"""Host calibration: a fixed spin loop that scores this host's speed.

The only reader is the repository benchmark: ``simbench`` stamps
:func:`host_calibration` into its ``{"detail": ...}`` line, so a reader
can tell a slow host from a slow change.  This module stays only until
the benchmark carries the spin itself (ROADMAP.md, item 5).
"""

from __future__ import annotations

import heapq
import time
from typing import Dict, List, Optional, Tuple

#: Iterations of the host-calibration spin loop (see
#: :func:`host_calibration`).  Fixed, so every score measures the same
#: synthetic work.
CALIBRATION_OPS = 120_000


def _calibration_spin() -> int:
    """The fixed synthetic workload: integer arithmetic + heap churn.

    Shaped like the kernel hot loop (tuple heap pushes/pops dominate the
    simulator), deterministic, and returns a checksum so the interpreter
    cannot elide any of it.
    """
    heap: List[Tuple[int, int]] = []
    push = heapq.heappush
    pop = heapq.heappop
    acc = 0
    for i in range(CALIBRATION_OPS):
        acc = (acc * 33 + i) % 1_000_003
        push(heap, (acc, i))
        if len(heap) > 64:
            acc += pop(heap)[1]
    return acc


def host_calibration(repeats: int = 5) -> Dict:
    """Score this host against the fixed spin loop.

    ``ops_per_s`` (best-of-N, the minimum-wall estimator) is the
    host-speed scalar: dividing two hosts' scores gives their relative
    speed on interpreter-bound code.
    """
    best: Optional[float] = None
    for _ in range(max(1, repeats)):
        start = time.perf_counter()
        _calibration_spin()
        wall = time.perf_counter() - start
        if best is None or wall < best:
            best = wall
    assert best is not None
    return {
        "spin_ops": CALIBRATION_OPS,
        "spin_best_s": round(best, 6),
        "ops_per_s": round(CALIBRATION_OPS / best, 1) if best > 0 else None,
    }
