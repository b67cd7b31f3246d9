"""Tests for the traffic substrate: packets, sizes, arrivals, diurnal."""

import io
import random

import pytest

from repro.errors import TraceError, TrafficError
from repro.sim.kernel import Simulator
from repro.sim.rng import RngStreams
from repro.traffic.arrivals import (
    ConstantBitRate,
    MmppProcess,
    PoissonProcess,
    arrival_process,
)
from repro.traffic.diurnal import NPU_PEAK_MBPS, DiurnalModel, level_load_bps
from repro.traffic.generator import TrafficSource
from repro.traffic.packet import FlowPool, Packet
from repro.traffic.sizes import ALL_MINIMUM, IMIX_CLASSIC, PacketSizeMix
from repro.traffic.trace_file import read_packet_trace, write_packet_trace


def make_packet(seq=0, size=500, **kw):
    defaults = dict(
        seq=seq,
        arrival_ps=1000,
        size_bytes=size,
        src_ip=0x0A000001,
        dst_ip=0x0A000002,
        src_port=1234,
        dst_port=80,
        protocol=6,
        flow_id=0,
        input_port=3,
    )
    defaults.update(kw)
    return Packet(**defaults)


class TestPacket:
    def test_size_bits(self):
        assert make_packet(size=100).size_bits == 800

    def test_bad_sizes_rejected(self):
        with pytest.raises(TrafficError):
            make_packet(size=10)
        with pytest.raises(TrafficError):
            make_packet(size=100_000)

    def test_minimum_packet_has_small_payload(self):
        assert make_packet(size=40).payload_bytes_len == 20

    def test_payload_bytes_are_retired(self):
        packet = make_packet()
        assert not hasattr(packet, "payload")
        assert not hasattr(packet, "payload_seed")
        with pytest.raises(TypeError):
            make_packet(payload_seed=42)

    def test_five_tuple(self):
        packet = make_packet()
        assert packet.five_tuple == (0x0A000001, 0x0A000002, 1234, 80, 6)


class TestFlowPool:
    def test_draws_within_range(self):
        pool = FlowPool(32, 0.9, random.Random(1))
        for _ in range(200):
            assert 0 <= pool.draw() < 32

    def test_zipf_skews_popular_flows(self):
        pool = FlowPool(64, 1.0, random.Random(2))
        draws = [pool.draw() for _ in range(4000)]
        top = sum(1 for d in draws if d < 8)
        assert top > 1200  # top 1/8 of flows gets far more than 1/8 of draws

    def test_uniform_when_zipf_zero(self):
        pool = FlowPool(16, 0.0, random.Random(3))
        draws = [pool.draw() for _ in range(8000)]
        counts = [draws.count(k) for k in range(16)]
        assert min(counts) > 300

    def test_endpoints_stable(self):
        pool = FlowPool(8, 0.5, random.Random(4))
        assert pool.endpoints(3) == pool.endpoints(3)

    def test_validation(self):
        with pytest.raises(TrafficError):
            FlowPool(0, 0.5, random.Random(1))
        with pytest.raises(TrafficError):
            FlowPool(4, -1.0, random.Random(1))


class TestSizeMix:
    def test_normalization_and_mean(self):
        mix = PacketSizeMix([(100, 1), (300, 1)])
        assert mix.mean_bytes == 200
        assert mix.mean_bits == 1600

    def test_imix_mean(self):
        assert IMIX_CLASSIC.mean_bytes == pytest.approx(340.33, abs=0.01)

    def test_samples_follow_weights(self):
        mix = PacketSizeMix([(40, 9), (1500, 1)])
        rng = random.Random(5)
        samples = [mix.sample(rng) for _ in range(5000)]
        small = sum(1 for s in samples if s == 40)
        assert 0.85 < small / 5000 < 0.95

    def test_validation(self):
        with pytest.raises(TrafficError):
            PacketSizeMix([])
        with pytest.raises(TrafficError):
            PacketSizeMix([(0, 1)])
        with pytest.raises(TrafficError):
            PacketSizeMix([(40, -1)])


class TestArrivals:
    def test_cbr_exact_rate(self):
        process = ConstantBitRate(1e9, 8000.0)
        assert process.mean_rate_pps == pytest.approx(125_000)
        rng = random.Random(0)
        assert process.next_gap_ps(rng) == process.next_gap_ps(rng) == 8_000_000

    @pytest.mark.parametrize("cls", [PoissonProcess, MmppProcess])
    def test_long_run_rate_matches_target(self, cls):
        process = cls(1e9, 2722.7)
        rng = random.Random(11)
        n = 60_000
        total = sum(process.next_gap_ps(rng) for _ in range(n))
        measured_pps = n / (total / 1e12)
        assert measured_pps == pytest.approx(process.mean_rate_pps, rel=0.05)

    def test_mmpp_rates_bracket_mean(self):
        process = MmppProcess(1e9, 8000.0, burst_ratio=4.0, burst_fraction=0.3)
        assert process.quiet_rate_pps < process.mean_rate_pps < process.burst_rate_pps
        assert process.burst_rate_pps == pytest.approx(
            4 * process.quiet_rate_pps
        )

    def test_mmpp_validation(self):
        with pytest.raises(TrafficError):
            MmppProcess(1e9, 8000.0, burst_ratio=1.0)
        with pytest.raises(TrafficError):
            MmppProcess(1e9, 8000.0, burst_fraction=1.0)

    def test_registry(self):
        process = arrival_process("poisson", 1e9, 8000.0)
        assert isinstance(process, PoissonProcess)
        with pytest.raises(TrafficError):
            arrival_process("pareto", 1e9, 8000.0)

    def test_invalid_load_rejected(self):
        with pytest.raises(TrafficError):
            PoissonProcess(0, 8000.0)


class TestDiurnal:
    def test_base_rate_peaks_at_peak_hour(self):
        model = DiurnalModel(peak_hour=14.0)
        peak = model.base_rate_bps(14 * 3600)
        night = model.base_rate_bps(3 * 3600)
        assert peak > 5 * night
        assert peak == pytest.approx(model.peak_bps, rel=0.15)

    def test_sample_day_bucket_ordering(self):
        model = DiurnalModel()
        buckets = model.sample_day(bucket_s=3600.0, samples_per_bucket=10)
        assert len(buckets) == 24
        for bucket in buckets:
            assert bucket.min_bps <= bucket.med_bps <= bucket.max_bps

    def test_bucket_labels(self):
        model = DiurnalModel()
        buckets = model.sample_day(bucket_s=1800.0, samples_per_bucket=2,
                                   start_s=9 * 3600, end_s=11 * 3600)
        assert buckets[0].label == "09:00"
        assert buckets[1].label == "09:30"

    def test_percentile_rates_monotone(self):
        model = DiurnalModel()
        p10 = model.percentile_rate(10)
        p50 = model.percentile_rate(50)
        p97 = model.percentile_rate(97)
        assert p10 < p50 < p97

    def test_validation(self):
        with pytest.raises(TrafficError):
            DiurnalModel(night_bps=0)
        with pytest.raises(TrafficError):
            DiurnalModel(peak_hour=25)


class TestLevels:
    def test_levels_ordered(self):
        low = level_load_bps("low")
        med = level_load_bps("med")
        high = level_load_bps("high")
        assert low < med < high
        assert high == NPU_PEAK_MBPS * 1e6

    def test_level_loads_round_trip_through_mbps(self):
        # A single-rate run's segment holds the level's load in Mbps.
        for level in ("low", "med", "high"):
            load = level_load_bps(level)
            assert load / 1e6 * 1e6 == load

    def test_unknown_level_rejected(self):
        with pytest.raises(TrafficError):
            level_load_bps("peak")


def one_phase(load_bps, process, mix=IMIX_CLASSIC, end_ps=10**12):
    return [(end_ps, arrival_process(process, load_bps, mix.mean_bits), mix)]


class TestTrafficSource:
    def _run_source(self, phases, stop_us=2000):
        sim = Simulator()
        received = []
        source = TrafficSource(
            sim,
            lambda port, packet: received.append((port, packet)),
            phases,
            rng_streams=RngStreams(9),
        )
        source.start(stop_ps=stop_us * 1_000_000)
        sim.run()
        return source, received

    def test_packets_delivered_with_increasing_seq(self):
        source, received = self._run_source(one_phase(1e9, "cbr"))
        assert len(received) > 100
        seqs = [packet.seq for _, packet in received]
        assert seqs == sorted(seqs)
        assert source.offered_packets == len(received)

    def test_ports_in_range_and_flow_sticky(self):
        _, received = self._run_source(one_phase(1e9, "poisson"))
        port_by_flow = {}
        for port, packet in received:
            assert 0 <= port < 16
            previous = port_by_flow.setdefault(packet.flow_id, port)
            assert previous == port

    def test_offered_load_measured(self):
        source, _ = self._run_source(one_phase(1e9, "cbr"), stop_us=4000)
        assert source.offered_load_bps == pytest.approx(1e9, rel=0.1)

    def test_size_mix_follows_phases(self):
        # imix for the first ms, min64 for the second and after it.
        phases = one_phase(1e9, "cbr", end_ps=10**9) + one_phase(
            1e9, "cbr", ALL_MINIMUM, end_ps=2 * 10**9
        )
        _, received = self._run_source(phases, stop_us=3000)
        assert received[-1][1].arrival_ps > 2 * 10**9  # the last phase runs on
        sizes = [(packet.arrival_ps <= 10**9, packet.size_bytes) for _, packet in received]
        assert all(size != 64 for first, size in sizes if first)
        assert all(size == 64 for first, size in sizes if not first)

    def test_cannot_start_twice(self):
        sim = Simulator()
        source = TrafficSource(sim, lambda p, k: None, one_phase(1e9, "cbr"))
        source.start()
        with pytest.raises(TrafficError):
            source.start()


class TestPacketTraceFile:
    def test_round_trip(self):
        packets = [make_packet(seq=k, size=100 + k) for k in range(10)]
        buffer = io.StringIO()
        count = write_packet_trace(packets, buffer)
        assert count == 10
        buffer.seek(0)
        back = list(read_packet_trace(buffer))
        assert back == packets

    def test_file_round_trip(self, tmp_path):
        path = str(tmp_path / "packets.csv")
        packets = [make_packet(seq=k) for k in range(5)]
        write_packet_trace(packets, path)
        assert list(read_packet_trace(path)) == packets

    def test_header_is_the_column_list(self):
        buffer = io.StringIO()
        write_packet_trace([make_packet()], buffer)
        header = buffer.getvalue().splitlines()[0]
        assert header == (
            "seq,arrival_ps,size_bytes,src_ip,dst_ip,src_port,dst_port,"
            "protocol,flow_id,input_port"
        )

    def test_retired_payload_column_refused(self):
        old = io.StringIO(
            "seq,arrival_ps,size_bytes,src_ip,dst_ip,src_port,dst_port,"
            "protocol,flow_id,input_port,payload_seed\n"
            "0,1000,500,1,2,1234,80,6,0,3,42\n"
        )
        with pytest.raises(TraceError, match="'payload_seed' is retired"):
            list(read_packet_trace(old))

    def test_unknown_header_refused(self):
        with pytest.raises(TraceError, match="header seq,when is not"):
            list(read_packet_trace(io.StringIO("seq,when\n")))
