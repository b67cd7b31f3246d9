"""Benchmark applications: the paper's four workloads.

Each application models the per-packet work of its Intel-SDK counterpart
as a *step stream* (:mod:`repro.npu.steps`) with the memory/compute
profile the paper describes:

* :mod:`~repro.apps.ipfwdr` — IP forwarding: routing table in SRAM
  (longest-prefix-match trie walk), output-port info in SDRAM, packet
  store/fetch through SDRAM;
* :mod:`~repro.apps.url` — URL-based routing: scans packet payload, so
  it re-reads every payload chunk from SDRAM and probes an SRAM hash
  table — the most memory-intensive workload;
* :mod:`~repro.apps.nat` — network address translation: a single SRAM
  lookup plus compute-heavy header rewriting; almost no memory waits, so
  its microengines never idle (and EDVS never helps);
* :mod:`~repro.apps.md4` — RFC 1320 message digests over packet
  payloads: moves data SDRAM -> SRAM and back through heavy compute
  rounds — both memory- and computation-intensive.

Real data structures back the models: an LPM trie
(:mod:`~repro.apps.routing`), a NAT translation table
(:mod:`~repro.apps.nat_table`) and MD4's block-count padding rule
(:mod:`~repro.apps.md4_core`).
"""

from repro.apps.base import AppModel, AppProfile, AppResources, build_app
from repro.apps.ipfwdr import IpfwdrApp
from repro.apps.md4 import Md4App
from repro.apps.nat import NatApp
from repro.apps.nat_table import NatTable
from repro.apps.routing import RoutingTrie, random_routing_trie
from repro.apps.url import UrlApp

__all__ = [
    "AppModel",
    "AppProfile",
    "AppResources",
    "IpfwdrApp",
    "Md4App",
    "NatApp",
    "NatTable",
    "RoutingTrie",
    "UrlApp",
    "build_app",
    "random_routing_trie",
]
