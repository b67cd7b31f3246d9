"""Per-process memos of a run's fixed model parts.

A run's routing trie (:func:`repro.apps.routing.routing_trie_for`), flow
tables (:class:`repro.traffic.packet.FlowPool`), parsed formulas
(:func:`repro.loc.parser.parse_formula`) and compiled monitor code
(:func:`repro.loc.codegen.compile_monitor_feed`) are built once per
process.  Each memoized value is a pure function of its key, and a hit
leaves the random stream where a build would, so a run's result must
not depend on what ran before it in the same process.
"""

from __future__ import annotations

import dataclasses
import json
import random

import pytest

from repro.apps.base import AppResources
from repro.apps.routing import (
    SHARED_TRIES_MAX,
    _built_trie,
    random_routing_trie,
    routing_trie_for,
)
from repro.config import DvsConfig, RunConfig, TrafficConfig
from repro.loc.builtin import power_distribution_formula, throughput_distribution_formula
from repro.loc.codegen import MONITOR_CODE_MAX, _monitor_code, compile_monitor_feed
from repro.loc.monitor import build_monitor
from repro.loc.parser import PARSED_FORMULAS_MAX, parse_formula
from repro.runner import SimulationRun
from repro.scenarios import get_scenario
from repro.sim.rng import RngStreams
from repro.studies.spec import StudySpec
from repro.traffic.packet import SHARED_FLOW_TABLES_MAX, FlowPool, _flow_table

MEMOS = (_built_trie, _flow_table, _monitor_code, parse_formula)
BOUNDS = (SHARED_TRIES_MAX, SHARED_FLOW_TABLES_MAX, MONITOR_CODE_MAX, PARSED_FORMULAS_MAX)

FORWARD_GAP = "total_pkt(forward[i+1]) - total_pkt(forward[i]) == 1"


@pytest.fixture
def cold_memos():
    """Empty memos and compiled monitors for the test; empty memos after it."""
    for memo in MEMOS:
        memo.cache_clear()
    yield
    for memo in MEMOS:
        memo.cache_clear()


def _config(benchmark: str, seed: int) -> RunConfig:
    return RunConfig(
        benchmark=benchmark,
        duration_cycles=120_000,
        seed=seed,
        traffic=TrafficConfig.for_scenario("flash_crowd"),
        dvs=DvsConfig(policy="tdvs", window_cycles=20_000, top_threshold_mbps=1200.0),
    )


def _record(config: RunConfig) -> str:
    """One monitored run's totals and monitor results, serialized."""
    span = 20
    gates = StudySpec(span=span).assertions_for(get_scenario(config.traffic.scenario))
    monitors = [
        build_monitor(power_distribution_formula(span=span), expect="distribution"),
        build_monitor(throughput_distribution_formula(span=span), expect="distribution"),
        *(build_monitor(gate.formula, expect="checker") for gate in gates),
    ]
    result = SimulationRun(config, monitors=monitors).run()
    assert result.totals.forwarded_packets > 0
    return json.dumps(
        {
            "totals": dataclasses.asdict(result.totals),
            "governor": [result.governor_transitions, result.governor_windows],
            "monitors": [dataclasses.asdict(monitor.finish()) for monitor in monitors],
        },
        sort_keys=True,
    )


@pytest.mark.parametrize("app", ["ipfwdr", "nat", "url", "md4"])
def test_warm_run_matches_cold_run(cold_memos, app):
    cold = _record(_config(app, seed=7))
    other = _record(_config(app, seed=11))
    warm = _record(_config(app, seed=7))
    assert warm == cold
    assert other != cold
    # Seeds 7 and 11 each built one table; the warm run hit both memos.
    # Only ipfwdr routes on the trie.
    tries = 2 if app == "ipfwdr" else 0
    assert _built_trie.cache_info().misses == tries
    assert _built_trie.cache_info().hits == tries // 2
    assert _flow_table.cache_info().misses == 2
    assert _flow_table.cache_info().hits == 1
    # Every monitor of the second and third runs reused its parse and
    # its compiled code.
    assert parse_formula.cache_info().hits >= 2 * parse_formula.cache_info().misses
    assert _monitor_code.cache_info().hits >= 2 * _monitor_code.cache_info().misses


def test_trie_hit_leaves_stream_where_a_build_does(cold_memos):
    def resources():
        return AppResources(num_ports=16, rng_streams=RngStreams(7).spawn("apps"))

    built = resources()
    fresh = random_routing_trie(built.rng_streams.get("apps.routing"), 256, 16)
    missed, hit = resources(), resources()
    shared = routing_trie_for(missed)
    assert routing_trie_for(hit) is shared
    assert _built_trie.cache_info().hits == 1
    states = [r.rng_streams.get("apps.routing").getstate() for r in (built, missed, hit)]
    assert states[1] == states[0] and states[2] == states[0]
    addresses = random.Random(3).sample(range(2**32), 500)
    assert [shared.lookup(a) for a in addresses] == [fresh.lookup(a) for a in addresses]


def _drawn_endpoints(rng, num_flows):
    """The reference: a pool's endpoints drawn one flow at a time."""
    return [
        (
            rng.getrandbits(32),
            rng.getrandbits(32),
            rng.randrange(1024, 65536),
            rng.choice((80, 80, 443, 8080, 53, rng.randrange(1024, 65536))),
            6 if rng.random() < 0.85 else 17,
        )
        for _ in range(num_flows)
    ]


def test_flow_table_hit_leaves_stream_where_a_build_does(cold_memos):
    built = random.Random(5)
    endpoints = _drawn_endpoints(built, 64)
    missed = FlowPool(64, 0.9, random.Random(5))
    hit = FlowPool(64, 0.9, random.Random(5))
    assert _flow_table.cache_info().hits == 1
    for pool in (missed, hit):
        assert pool._rng.getstate() == built.getstate()
        assert [pool.endpoints(k) for k in range(64)] == endpoints
    assert [hit.draw() for _ in range(200)] == [missed.draw() for _ in range(200)]


def test_flow_table_is_keyed_by_its_shape(cold_memos):
    skewed = FlowPool(64, 0.9, random.Random(5))
    uniform = FlowPool(64, 0.0, random.Random(5))
    fewer = FlowPool(32, 0.9, random.Random(5))
    assert _flow_table.cache_info().misses == 3
    assert skewed._cdf != uniform._cdf
    assert [skewed.endpoints(k) for k in range(32)] == [fewer.endpoints(k) for k in range(32)]


def test_memos_stay_within_their_bounds(cold_memos):
    for seed in range(SHARED_TRIES_MAX + 1):
        routing_trie_for(AppResources(rng_streams=RngStreams(seed)))
    for seed in range(SHARED_FLOW_TABLES_MAX + 1):
        FlowPool(4, 0.9, random.Random(seed))
    for bound in range(MONITOR_CODE_MAX + 1):
        compile_monitor_feed(
            f"total_pkt(forward[i+1]) - total_pkt(forward[i]) <= {bound + 1}"
        )
    # Compiling parsed those texts too; count the parse memo afresh.
    parse_formula.cache_clear()
    for bound in range(PARSED_FORMULAS_MAX + 1):
        parse_formula(f"time(forward[i+1]) - time(forward[i]) >= {bound}")
    for memo, bound in zip(MEMOS, BOUNDS):
        info = memo.cache_info()
        assert info.maxsize == bound
        assert info.currsize == bound
        assert info.misses == bound + 1


def test_parsed_formula_is_shared_and_immutable(cold_memos):
    parsed = parse_formula(FORWARD_GAP)
    assert parse_formula(FORWARD_GAP) is parsed
    assert parse_formula.cache_info().hits == 1
    ref = parsed.lhs.left
    for node, name, value in (
        (parsed, "op", "<"),
        (parsed.rhs, "value", 2.0),
        (ref, "event", "fifo"),
        (ref.index, "offset", 5),
    ):
        with pytest.raises(AttributeError, match="immutable"):
            setattr(node, name, value)
        with pytest.raises(AttributeError, match="immutable"):
            delattr(node, name)
    assert parsed.unparse() == (
        "(total_pkt(forward[i+1]) - total_pkt(forward[i])) == 1"
    )


def test_monitors_of_one_formula_share_code_not_counts(cold_memos):
    first = build_monitor(FORWARD_GAP)
    second = build_monitor(FORWARD_GAP)
    assert first._feeds["forward"].__code__ is second._feeds["forward"].__code__
    assert _monitor_code.cache_info().hits == 1
    for k in range(5):
        first._feeds["forward"]((k * 600, float(k), 0.0, k, k * 8000))
    assert first.finish().instances_checked == 4
    assert second.finish().instances_checked == 0
