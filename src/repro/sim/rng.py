"""Named, independently seeded random streams.

Every stochastic model component (arrival process, packet sizes, flow
choice, ...) draws from its own named stream derived deterministically from
a single experiment seed.  This gives two properties the experiment sweeps
rely on:

* **reproducibility** — the same seed always produces the same simulation;
* **independence under change** — adding a draw to one component does not
  shift the sequence seen by any other, so e.g. enabling DVS does not
  silently change the offered traffic.
"""

from __future__ import annotations

import hashlib
import random
from typing import Dict


def derive_seed(root_seed: int, name: str) -> int:
    """Derive a 64-bit child seed from ``root_seed`` and a stream name.

    Uses SHA-256 over the root seed and name, so the mapping is stable
    across Python versions and platforms (unlike ``hash()``).
    """
    digest = hashlib.sha256(f"{root_seed}:{name}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class RngStreams:
    """Factory and cache of named :class:`random.Random` streams.

    Examples
    --------
    >>> streams = RngStreams(42)
    >>> a = streams.get("arrivals")
    >>> b = streams.get("sizes")
    >>> a is streams.get("arrivals")
    True
    >>> a is not b
    True
    """

    def __init__(self, root_seed: int = 0):
        self.root_seed = int(root_seed)
        self._streams: Dict[str, random.Random] = {}

    def get(self, name: str) -> random.Random:
        """Return the stream for ``name``, creating it on first use."""
        stream = self._streams.get(name)
        if stream is None:
            stream = random.Random(derive_seed(self.root_seed, name))
            self._streams[name] = stream
        return stream

    def spawn(self, name: str) -> "RngStreams":
        """Create a child factory whose streams are namespaced by ``name``."""
        return RngStreams(derive_seed(self.root_seed, f"spawn:{name}"))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<RngStreams seed={self.root_seed} streams={sorted(self._streams)}>"
