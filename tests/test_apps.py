"""Tests for the benchmark application models and their data structures."""

import random
from collections import Counter

import pytest

from repro.apps.base import AppProfile, AppResources, build_app, chunks_of
from repro.apps.ipfwdr import IpfwdrApp
from repro.apps.md4 import Md4App
from repro.apps.md4_core import md4_blocks_for
from repro.apps.nat import NatApp
from repro.apps.nat_table import NatTable
from repro.apps.routing import RoutingTrie, random_routing_trie, strides_for_depth
from repro.apps.url import UrlApp
from repro.errors import ConfigError, NpuError
from repro.npu.steps import Compute, Drop, MemPost, MemRead, MemWrite, PutTx
from repro.sim.rng import RngStreams

from app_oracles import (
    brute_force_lpm,
    brute_force_walk_depth,
    nat_rx_cost,
    rx_cost,
    stream_cost,
    tx_cost,
    walk_reads,
)
from test_traffic import make_packet


def fresh_resources():
    return AppResources(num_ports=16, rng_streams=RngStreams(77))


def step_summary(steps):
    """Collect (kind, target) pairs and total compute instructions."""
    kinds = []
    instructions = 0
    for step in steps:
        if isinstance(step, Compute):
            instructions += step.instructions
            kinds.append("compute")
        elif isinstance(step, MemRead):
            kinds.append(f"read:{step.target}")
        elif isinstance(step, MemWrite):
            kinds.append(f"write:{step.target}")
        elif isinstance(step, MemPost):
            kinds.append(f"post:{step.target}")
        elif isinstance(step, PutTx):
            kinds.append("puttx")
        elif isinstance(step, Drop):
            kinds.append("drop")
    return kinds, instructions


def step_record(steps):
    """Each step as plain data: steps compare by identity, not value."""
    return [
        (
            type(step).__name__,
            getattr(step, "instructions", None),
            getattr(step, "target", None),
            getattr(step, "nbytes", None),
        )
        for step in steps
    ]


class TestChunks:
    def test_chunking(self):
        assert chunks_of(1) == 1
        assert chunks_of(64) == 1
        assert chunks_of(65) == 2
        assert chunks_of(1500) == 24


class TestRoutingTrie:
    def test_default_route(self):
        trie = RoutingTrie(default_port=7)
        port, depth = trie.lookup(0x01020304)
        assert port == 7
        assert depth == 1

    def test_longest_prefix_wins(self):
        trie = RoutingTrie(default_port=0)
        trie.insert(0x0A000000, 8, 1)   # 10/8 -> 1
        trie.insert(0x0A0B0000, 16, 2)  # 10.11/16 -> 2
        assert trie.lookup(0x0A0B0C0D)[0] == 2
        assert trie.lookup(0x0A990C0D)[0] == 1
        assert trie.lookup(0x0B000000)[0] == 0

    def test_against_brute_force(self):
        rng = random.Random(3)
        routes = []
        trie = RoutingTrie(default_port=0)
        for _ in range(200):
            length = rng.choice([8, 12, 16, 20, 24])
            prefix = rng.getrandbits(length) << (32 - length)
            port = rng.randrange(16)
            routes.append((prefix, length, port))
            trie.insert(prefix, length, port)
        for _ in range(300):
            address = rng.getrandbits(32)
            assert trie.lookup(address)[0] == brute_force_lpm(routes, address)

    def test_random_trie_covers_space(self):
        rng = random.Random(4)
        trie = random_routing_trie(rng, num_prefixes=64)
        ports = {trie.lookup(rng.getrandbits(32))[0] for _ in range(400)}
        assert len(ports) >= 12  # destinations spread over most ports

    def test_validation(self):
        trie = RoutingTrie()
        with pytest.raises(NpuError):
            trie.insert(0, 40, 1)
        with pytest.raises(NpuError):
            trie.insert(2**33, 8, 1)

    def test_strides_for_depth(self):
        assert strides_for_depth(1) == 1
        assert strides_for_depth(9) == 1 + 1
        assert strides_for_depth(25) == 4
        assert strides_for_depth(33) == 5  # capped


class TestNatTable:
    def test_translation_stable_per_flow(self):
        table = NatTable()
        flow = (1, 2, 3, 4, 6)
        first = table.translate(flow)
        second = table.translate(flow)
        assert first == second
        assert table.hits == 1
        assert table.misses == 1

    def test_distinct_flows_get_distinct_ports(self):
        table = NatTable()
        a = table.translate((1, 2, 3, 4, 6))
        b = table.translate((5, 6, 7, 8, 6))
        assert a[1] != b[1]

    def test_exhaustion(self):
        table = NatTable(port_count=2)
        table.translate((1, 1, 1, 1, 6))
        table.translate((2, 2, 2, 2, 6))
        assert table.translate((3, 3, 3, 3, 6)) is None
        assert table.exhaustions == 1


class TestMd4Core:
    def test_blocks_for(self):
        assert md4_blocks_for(0) == 1
        assert md4_blocks_for(55) == 1
        assert md4_blocks_for(56) == 2  # padding spills
        assert md4_blocks_for(119) == 2
        assert md4_blocks_for(120) == 3


class TestAppFactory:
    def test_builds_all_benchmarks(self):
        for name, cls in (
            ("ipfwdr", IpfwdrApp),
            ("url", UrlApp),
            ("nat", NatApp),
            ("md4", Md4App),
        ):
            app = build_app(name, fresh_resources())
            assert isinstance(app, cls)
            assert app.name == name

    def test_unknown_benchmark_rejected(self):
        # The retired microcode benchmarks are unknown names too.
        for name in ("dns", "ipfwdr_uc", "nat_uc"):
            with pytest.raises(NpuError, match=name):
                build_app(name, fresh_resources())

    def test_profile_validation(self):
        with pytest.raises(ConfigError):
            AppProfile(rx_header_instr=0).validate()


class TestIpfwdr:
    def test_rx_steps_shape(self):
        app = build_app("ipfwdr", fresh_resources())
        packet = make_packet(size=320)
        kinds, instructions = step_summary(app.rx_steps(packet))
        assert kinds.count("write:sdram") == 5  # 320 bytes = 5 chunks
        assert "read:sdram" in kinds            # output-port info
        assert "write:scratch" in kinds
        assert kinds[-1] == "puttx"
        assert kinds.count("read:sram") >= 1    # trie walk
        assert instructions > 300
        assert packet.output_port is not None

    def test_tx_steps_posted_fetch(self):
        app = build_app("ipfwdr", fresh_resources())
        packet = make_packet(size=320)
        kinds, _ = step_summary(app.tx_steps(packet))
        assert kinds.count("post:sdram") == 5
        assert kinds[0] == "read:scratch"

    def test_lookup_statistics(self):
        app = build_app("ipfwdr", fresh_resources())
        for k in range(10):
            list(app.rx_steps(make_packet(seq=k, dst_ip=k * 7919)))
        assert app.lookups == 10
        assert app.mean_lookup_depth >= 1.0

    def test_bigger_packets_cost_more(self):
        app = build_app("ipfwdr", fresh_resources())
        small, _, _ = stream_cost(app.rx_steps(make_packet(size=64, dst_ip=5)))
        large, _, _ = stream_cost(app.rx_steps(make_packet(size=1500, dst_ip=5)))
        assert large > small


class TestUrl:
    def test_payload_rescanned_from_sdram(self):
        app = build_app("url", fresh_resources())
        packet = make_packet(size=320)
        kinds, _ = step_summary(app.rx_steps(packet))
        # Stored once (5 chunks) and payload (300 B -> 5 chunks) re-read.
        assert kinds.count("write:sdram") == 5
        assert kinds.count("read:sdram") == 5 + 1  # payload + port info
        assert kinds.count("read:sram") == 3  # hash probes

    def test_most_memory_intensive(self):
        resources = fresh_resources()
        packet = make_packet(size=576)
        counts = {}
        for name in ("ipfwdr", "url", "nat"):
            app = build_app(name, AppResources(num_ports=16,
                                               rng_streams=RngStreams(77)))
            kinds, _ = step_summary(app.rx_steps(packet))
            counts[name] = sum(1 for k in kinds if k.startswith(("read:", "write:")))
        assert counts["url"] > counts["ipfwdr"] > counts["nat"]


class TestNat:
    def test_single_sram_lookup_known_flow(self):
        app = build_app("nat", fresh_resources())
        packet = make_packet()
        list(app.rx_steps(packet))          # first packet installs the entry
        kinds, _ = step_summary(app.rx_steps(make_packet(seq=1)))
        assert kinds.count("read:sram") == 1
        assert kinds.count("write:sram") == 0  # known flow: no install
        assert kinds.count("write:sdram") == 0  # cut-through: no body store

    def test_new_flow_installs_entry(self):
        app = build_app("nat", fresh_resources())
        kinds, _ = step_summary(app.rx_steps(make_packet()))
        assert kinds.count("write:sram") == 1

    def test_compute_dominates(self):
        app = build_app("nat", fresh_resources())
        _, instructions = step_summary(app.rx_steps(make_packet()))
        assert instructions > 1500

    def test_port_exhaustion_drops(self):
        resources = fresh_resources()
        resources.nat_table = NatTable(port_count=1)
        app = NatApp(resources)
        list(app.rx_steps(make_packet(flow_id=0)))
        kinds, _ = step_summary(app.rx_steps(make_packet(seq=1, flow_id=1,
                                                         src_ip=9, dst_ip=9)))
        assert "drop" in kinds
        assert app.dropped_exhausted == 1

    def test_tx_has_no_sdram(self):
        app = build_app("nat", fresh_resources())
        kinds, _ = step_summary(app.tx_steps(make_packet()))
        assert not any("sdram" in k for k in kinds)


class TestMd4:
    def test_block_loop_shape(self):
        app = build_app("md4", fresh_resources())
        packet = make_packet(size=320)  # payload 300 B -> 5 MD4 blocks
        kinds, _ = step_summary(app.rx_steps(packet))
        blocks = md4_blocks_for(300)
        assert kinds.count("read:sdram") == blocks
        assert kinds.count("write:sram") == blocks + 1  # + digest
        assert kinds.count("read:sram") == blocks

    def test_compute_scales_with_payload(self):
        app = build_app("md4", fresh_resources())
        small, _, _ = stream_cost(app.rx_steps(make_packet(size=64)))
        large, _, _ = stream_cost(app.rx_steps(make_packet(size=1500)))
        assert large > 2 * small


#: Per-packet counters each pure receive stream bumps.
RX_COUNTERS = {
    "ipfwdr": ("lookups", "total_lookup_depth"),
    "url": ("scanned_chunks",),
    "md4": ("blocks_hashed",),
}


class TestMemoKeyCompleteness:
    """A memo hit gives what a fresh app instance builds for the packet.

    Pure streams share one list per memo key; a key that missed a
    dimension the stream varies on would hand a packet another shape's
    steps.  Packets vary in size (across chunk and MD4 padding
    boundaries), destination, flow and input port.
    """

    @pytest.mark.parametrize(
        "name, side",
        [
            ("ipfwdr", "rx"),
            ("url", "rx"),
            ("md4", "rx"),
            ("ipfwdr", "tx"),  # the shared skeleton, SDRAM fetch
            ("nat", "tx"),  # the shared skeleton, cut-through
        ],
    )
    def test_memo_hit_matches_fresh_instance(self, name, side):
        rng = random.Random(5)
        warm = build_app(name, fresh_resources())
        counters = RX_COUNTERS[name] if side == "rx" else ()
        for k in range(300):
            fields = dict(
                seq=k,
                size=rng.randint(40, 1600),
                dst_ip=rng.getrandbits(32),
                flow_id=rng.randrange(1000),
                input_port=rng.randrange(16),
            )
            warm_packet, fresh_packet = make_packet(**fields), make_packet(**fields)
            fresh = build_app(name, fresh_resources())
            before = [getattr(warm, counter) for counter in counters]
            warm_steps = getattr(warm, f"{side}_steps")(warm_packet)
            fresh_steps = getattr(fresh, f"{side}_steps")(fresh_packet)
            assert step_record(warm_steps) == step_record(fresh_steps)
            assert [
                getattr(warm, counter) - count
                for counter, count in zip(counters, before)
            ] == [getattr(fresh, counter) for counter in counters]
            assert warm_packet.output_port == fresh_packet.output_port
        memo = warm._rx_steps_memo if side == "rx" else warm._tx_steps_memo
        assert 2 <= len(memo) < 300  # many hits, across many shapes


APP_CLASSES = {"ipfwdr": IpfwdrApp, "url": UrlApp, "nat": NatApp, "md4": Md4App}

#: Sizes where some receive stream changes shape: the minimum packet,
#: the store-chunk boundary (64/65 B), md4's padding spill (payload
#: 55/56 B), url's scan-chunk boundary (payload 64/65 B) and a
#: full-size frame.
BOUNDARY_SIZES = [40, 64, 65, 75, 76, 84, 85, 1500]

#: Distinct values, none a default, so a stream that charges the wrong
#: field, or a field the wrong number of times, misses its total.
ODD_PROFILE = AppProfile(
    rx_header_instr=401,
    rx_chunk_instr=149,
    rx_finish_instr=151,
    lookup_step_instr=23,
    enqueue_instr=31,
    tx_header_instr=53,
    tx_chunk_instr=61,
    tx_finish_instr=41,
)

#: Nested routes around 10.11.12.13; the walk depth follows the longest
#: run of leading bits a destination shares with any of them.
NESTED_ROUTES = [
    (0x0A000000, 8, 1),
    (0x0A0B0000, 16, 2),
    (0x0A0B0C00, 24, 3),
    (0x0A0B0C0D, 32, 4),
]


def nested_route_resources():
    trie = RoutingTrie(default_port=0)
    for prefix, length, port in NESTED_ROUTES:
        trie.insert(prefix, length, port)
    resources = fresh_resources()
    resources.routing_trie = trie
    return resources


#: Instructions per packet at 64 B and at 1,500 B under the default
#: profiles, receive then transmit.  ipfwdr's packets take a 2-read
#: walk: 570 and 2,640 are the figures recorded for one such packet when
#: the model was last set beside microcode.  Each nat packet is a new
#: flow, and nat's receive cost does not depend on size.
DEFAULT_COSTS = {
    "ipfwdr": ((570, 2_640), (150, 1_530)),
    "url": ((790, 7_690), (150, 1_530)),
    "md4": ((768, 9_692), (150, 1_530)),
    "nat": ((2_098, 2_098), (150, 840)),
}


class TestCostClosedForms:
    """Each model's per-packet cost equals a closed form of its description.

    The closed forms (``app_oracles``) count instructions and memory
    references from the paper's account of each benchmark.  They pin
    what every result charges per packet: no second execution mode
    cross-checks the models.
    """

    @pytest.mark.parametrize("size", BOUNDARY_SIZES)
    @pytest.mark.parametrize("name", ["ipfwdr", "url", "md4"])
    def test_rx_cost(self, name, size):
        app = APP_CLASSES[name](nested_route_resources(), ODD_PROFILE)
        dst = 0x0A0B0C99  # shares 24 bits with 10.11.12.13: 25 nodes
        reads = walk_reads(brute_force_walk_depth(NESTED_ROUTES, dst))
        packet = make_packet(size=size, dst_ip=dst)
        assert stream_cost(app.rx_steps(packet)) == rx_cost(
            name, ODD_PROFILE, size, reads=reads
        )

    @pytest.mark.parametrize(
        "dst, port, reads",
        [
            (0xC0000000, 0, 1),  # first bit differs: the root alone
            (0x0B000000, 0, 2),  # 11/8 shares 7 bits with 10/8, no match
            (0x0A990000, 1, 2),  # 10/8
            (0x0A0B9900, 2, 3),  # 10.11/16
            (0x0A0B0C99, 3, 4),  # 10.11.12/24
            (0x0A0B0C0D, 4, 5),  # the /32: 33 nodes
        ],
    )
    def test_ipfwdr_walk_reads(self, dst, port, reads):
        resources = nested_route_resources()
        app = IpfwdrApp(resources)
        depth = brute_force_walk_depth(NESTED_ROUTES, dst)
        assert resources.routing_trie.lookup(dst) == (port, depth)
        assert walk_reads(depth) == reads
        packet = make_packet(size=64, dst_ip=dst)
        _, references, _ = stream_cost(app.rx_steps(packet))
        assert references[("read", "sram", 4)] == reads
        assert packet.output_port == port == brute_force_lpm(NESTED_ROUTES, dst)
        assert app.total_lookup_depth == depth

    @pytest.mark.parametrize("flow", ["new", "known", "exhausted"])
    def test_nat_rx_cost(self, flow):
        resources = fresh_resources()
        resources.nat_table = NatTable(port_count=1)
        app = NatApp(resources, ODD_PROFILE)
        if flow != "new":
            list(app.rx_steps(make_packet(seq=0, flow_id=0)))
        other = {"flow_id": 1, "src_ip": 9} if flow == "exhausted" else {}
        packet = make_packet(seq=1, size=1500, **other)
        assert stream_cost(app.rx_steps(packet)) == nat_rx_cost(ODD_PROFILE, flow)

    @pytest.mark.parametrize("size", [64, 65, 1500])
    @pytest.mark.parametrize("name", ["ipfwdr", "url", "nat", "md4"])
    def test_tx_cost(self, name, size):
        app = APP_CLASSES[name](fresh_resources(), ODD_PROFILE)
        steps = app.tx_steps(make_packet(size=size))
        # nat cuts through: its packets never reach SDRAM.
        assert stream_cost(steps) == tx_cost(ODD_PROFILE, size, fetch_sdram=name != "nat")

    @pytest.mark.parametrize("name", sorted(DEFAULT_COSTS))
    def test_default_profile_costs(self, name):
        """Instructions per packet at 64 B and at 1,500 B, as the models
        are calibrated."""
        app = build_app(name, nested_route_resources())
        for side, expected in zip(("rx", "tx"), DEFAULT_COSTS[name]):
            packets = [
                make_packet(seq=k, size=size, dst_ip=0x0A990000, src_ip=k, flow_id=k)
                for k, size in enumerate((64, 1500))
            ]
            steps = getattr(app, f"{side}_steps")
            assert tuple(stream_cost(steps(packet))[0] for packet in packets) == expected

    def test_nat_installs_one_entry_per_flow(self):
        rng = random.Random(8)
        app = build_app("nat", fresh_resources())
        flows = [rng.randrange(7) for _ in range(200)]
        totals = Counter()
        for seq, flow in enumerate(flows):
            size = rng.randint(40, 1500)
            packet = make_packet(seq=seq, size=size, flow_id=flow, src_ip=flow)
            totals += stream_cost(app.rx_steps(packet))[1]
        assert totals == Counter(
            {
                ("read", "sram", 16): len(flows),
                ("write", "sram", 16): len(set(flows)),
                ("write", "scratch", 8): len(flows),
            }
        )
        assert app.translated == len(flows)
        assert len(app.table) == len(set(flows))
