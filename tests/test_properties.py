"""Property-based tests (hypothesis) for core invariants."""

import math
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.md4_core import md4_blocks_for
from repro.apps.routing import RoutingTrie
from repro.loc.analyzer import analyze_trace, build_edges
from repro.loc.parser import parse_formula
from repro.sim.clock import ClockDomain
from repro.sim.kernel import Simulator
from repro.sim.rng import RngStreams, derive_seed
from repro.traffic.sizes import PacketSizeMix
from repro.units import cycles_to_ps, ps_to_cycles

from app_oracles import brute_force_lpm, brute_force_walk_depth
from conftest import make_event


# ---------------------------------------------------------------------------
# Kernel ordering
# ---------------------------------------------------------------------------
@given(st.lists(st.integers(min_value=0, max_value=10_000), min_size=1, max_size=60))
@settings(max_examples=60, deadline=None)
def test_kernel_delivers_in_nondecreasing_time_order(delays):
    sim = Simulator()
    fired = []
    for delay in delays:
        sim.schedule(delay, lambda d=delay: fired.append((sim.now_ps, d)))
    sim.run()
    times = [t for t, _ in fired]
    assert times == sorted(times)
    assert len(fired) == len(delays)


# ---------------------------------------------------------------------------
# Clock conversions
# ---------------------------------------------------------------------------
@given(
    st.lists(
        st.tuples(
            st.integers(min_value=1, max_value=2_000_000),  # segment ps
            st.sampled_from([400e6, 450e6, 500e6, 550e6, 600e6]),
        ),
        min_size=1,
        max_size=8,
    )
)
@settings(max_examples=60, deadline=None)
def test_clock_cycles_monotone_across_changes(segments):
    sim = Simulator()
    clock = ClockDomain(sim, 600e6)
    previous_cycles = 0.0
    now = 0
    for span_ps, freq in segments:
        clock.set_frequency(freq)
        now += span_ps
        sim.run(until_ps=now)
        cycles = clock.cycles_now
        assert cycles >= previous_cycles
        previous_cycles = cycles


@given(
    st.integers(min_value=1, max_value=10_000_000),
    st.sampled_from([400e6, 500e6, 600e6, 1e9]),
)
@settings(max_examples=100, deadline=None)
def test_cycles_time_round_trip(cycles, freq):
    ps = cycles_to_ps(cycles, freq)
    back = ps_to_cycles(ps, freq)
    assert math.isclose(back, cycles, rel_tol=1e-9)


# ---------------------------------------------------------------------------
# RNG stream derivation
# ---------------------------------------------------------------------------
@given(st.integers(), st.text(min_size=1, max_size=30))
@settings(max_examples=80, deadline=None)
def test_derived_seeds_stable_and_distinct_across_names(seed, name):
    assert derive_seed(seed, name) == derive_seed(seed, name)
    assert derive_seed(seed, name) != derive_seed(seed, name + "x")


@given(st.integers(min_value=0, max_value=2**31))
@settings(max_examples=30, deadline=None)
def test_rng_streams_independent(seed):
    streams = RngStreams(seed)
    a_first = streams.get("a").random()
    # Drawing from "b" must not disturb "a"'s sequence.
    streams_again = RngStreams(seed)
    streams_again.get("b").random()
    a_second = streams_again.get("a").random()
    assert a_first == a_second


# ---------------------------------------------------------------------------
# LOC parser round-trip
# ---------------------------------------------------------------------------
_annotations = st.sampled_from(["cycle", "time", "energy", "total_pkt", "total_bit"])
_events = st.sampled_from(["forward", "fifo", "m2_pipeline", "enq", "deq"])
_offsets = st.integers(min_value=-50, max_value=150)


@st.composite
def _ref(draw):
    annotation = draw(_annotations)
    event = draw(_events)
    offset = draw(_offsets)
    index = "i" if offset == 0 else (f"i+{offset}" if offset > 0 else f"i-{-offset}")
    return f"{annotation}({event}[{index}])"


@st.composite
def _expr(draw, depth=0):
    if depth >= 2 or draw(st.booleans()):
        choice = draw(st.integers(min_value=0, max_value=2))
        if choice == 0:
            return draw(_ref())
        if choice == 1:
            return str(draw(st.integers(min_value=0, max_value=10_000)))
        return draw(_ref())
    op = draw(st.sampled_from(["+", "-", "*", "/"]))
    left = draw(_expr(depth=depth + 1))
    right = draw(_expr(depth=depth + 1))
    return f"({left} {op} {right})"


@given(_expr(), st.sampled_from(["<=", "<", ">=", ">", "==", "!="]), _expr())
@settings(max_examples=80, deadline=None)
def test_checker_formula_unparse_round_trip(lhs, op, rhs):
    text = f"{lhs} {op} {rhs}"
    formula = parse_formula(text)
    assert parse_formula(formula.unparse()).unparse() == formula.unparse()


@given(
    _expr(),
    st.sampled_from(["in", "below", "above"]),
    st.floats(min_value=-100, max_value=100, allow_nan=False),
    st.floats(min_value=0.01, max_value=50, allow_nan=False),
    st.floats(min_value=0.01, max_value=10, allow_nan=False),
)
@settings(max_examples=80, deadline=None)
def test_distribution_formula_unparse_round_trip(expr, mode, low, span, step):
    text = f"{expr} {mode} <{low}, {low + span}, {step}>"
    formula = parse_formula(text)
    assert parse_formula(formula.unparse()).unparse() == formula.unparse()


# ---------------------------------------------------------------------------
# Distribution semantics
# ---------------------------------------------------------------------------
@given(
    st.lists(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
             min_size=1, max_size=200),
    st.sampled_from(["in", "below", "above"]),
)
@settings(max_examples=80, deadline=None)
def test_distribution_mass_conserved(values, mode):
    result = analyze_trace(
        f"cycle(e[i]) {mode} <0, 100, 10>",
        [make_event("e", cycle=value) for value in values],
    )
    assert sum(result.counts) == result.total == len(values)
    curve = result.curve()
    fractions = [f for _, f in curve]
    if mode == "above":
        assert all(a >= b - 1e-12 for a, b in zip(fractions, fractions[1:]))
    else:
        assert all(a <= b + 1e-12 for a, b in zip(fractions, fractions[1:]))
    assert all(0.0 <= f <= 1.0 for f in fractions)


@given(
    st.floats(min_value=-100, max_value=100, allow_nan=False),
    st.integers(min_value=1, max_value=300),
    st.floats(min_value=0.001, max_value=10, allow_nan=False),
)
@settings(max_examples=80, deadline=None)
def test_build_edges_count_and_endpoints(low, steps, step):
    high = low + steps * step
    edges = build_edges(low, high, step)
    assert len(edges) == steps + 1
    assert edges[0] == low
    assert edges[-1] == high
    assert all(b > a for a, b in zip(edges, edges[1:]))


# ---------------------------------------------------------------------------
# LPM trie vs brute force
# ---------------------------------------------------------------------------
@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=2**32 - 1),
            st.integers(min_value=0, max_value=32),
            st.integers(min_value=0, max_value=15),
        ),
        max_size=60,
    ),
    st.lists(st.integers(min_value=0, max_value=2**32 - 1), min_size=1, max_size=30),
)
@settings(max_examples=60, deadline=None)
def test_trie_matches_brute_force(routes, addresses):
    trie = RoutingTrie(default_port=0)
    # Deduplicate (prefix-bits, length) keys keeping the last, mirroring
    # the trie's overwrite semantics for the brute-force reference.
    seen = {}
    for prefix, length, port in routes:
        mask = (0xFFFFFFFF << (32 - length)) & 0xFFFFFFFF if length else 0
        seen[(prefix & mask, length)] = port
        trie.insert(prefix, length, port)
    reference_routes = [(p, l, port) for (p, l), port in seen.items()]
    for address in addresses:
        expected = brute_force_lpm(reference_routes, address)
        assert trie.lookup(address)[0] == expected


@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=2**32 - 1),
            st.integers(min_value=0, max_value=32),
        ),
        max_size=40,
    ),
    st.lists(st.integers(min_value=0, max_value=2**32 - 1), min_size=1, max_size=30),
)
@settings(max_examples=60, deadline=None)
def test_trie_walk_depth_matches_brute_force(routes, addresses):
    # The depth is what ipfwdr pays in SRAM reads, so it counts every
    # node on the address's path, past the longest match too.
    trie = RoutingTrie(default_port=0)
    for prefix, length in routes:
        trie.insert(prefix, length, 1)
    reference_routes = [(prefix, length, 1) for prefix, length in routes]
    for address in addresses:
        assert trie.lookup(address)[1] == brute_force_walk_depth(reference_routes, address)


# ---------------------------------------------------------------------------
# MD4
# ---------------------------------------------------------------------------
@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=80, deadline=None)
def test_md4_blocks_matches_padding_rule(length):
    blocks = md4_blocks_for(length)
    padded = length + 1 + 8
    expected = (padded + 63) // 64
    assert blocks == expected


# ---------------------------------------------------------------------------
# Packet size mixes
# ---------------------------------------------------------------------------
@given(
    st.lists(
        st.tuples(
            st.integers(min_value=40, max_value=1500),
            st.floats(min_value=0.01, max_value=10, allow_nan=False),
        ),
        min_size=1,
        max_size=8,
    ),
    st.integers(min_value=0, max_value=2**31),
)
@settings(max_examples=60, deadline=None)
def test_size_mix_samples_only_listed_sizes(points, seed):
    mix = PacketSizeMix(points)
    listed = {size for size, _ in points}
    rng = random.Random(seed)
    for _ in range(50):
        assert mix.sample(rng) in listed
    low = min(listed)
    high = max(listed)
    assert low <= mix.mean_bytes <= high
