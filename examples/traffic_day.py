#!/usr/bin/env python3
"""The traffic substrate: a synthetic NLANR-like day, sampled and replayed.

1. Builds the diurnal day model and prints a Figure 2-style max/med/min
   table (with an ASCII sparkline of the median).
2. Derives the high/medium/low loads a ``level:`` run simulates.
3. Plays a few milliseconds of the high level through the traffic
   source every run uses, writes the packets to a portable CSV trace,
   reads them back, and verifies the replay is byte-identical — the
   workflow for pinning experiment inputs.

Run:  python examples/traffic_day.py
"""

import io

from repro.config import TrafficConfig
from repro.runner import traffic_scenario
from repro.sim.kernel import Simulator
from repro.sim.rng import RngStreams
from repro.traffic import (
    DiurnalModel,
    TrafficSource,
    level_load_bps,
    read_packet_trace,
    write_packet_trace,
)

BARS = " .:-=+*#%@"


def sparkline(values):
    top = max(values) or 1.0
    return "".join(BARS[min(len(BARS) - 1, int(v / top * (len(BARS) - 1)))]
                   for v in values)


def main() -> None:
    model = DiurnalModel()
    buckets = model.sample_day(bucket_s=1800.0, samples_per_bucket=20)

    print("Synthetic day profile (Figure 2 shape):")
    meds = [bucket.med_bps for bucket in buckets]
    print("  median  " + sparkline(meds))
    shown = buckets[::4]
    for bucket in shown:
        print(f"  {bucket.label}  max={bucket.max_bps / 1e6:7.1f}  "
              f"med={bucket.med_bps / 1e6:7.1f}  "
              f"min={bucket.min_bps / 1e6:7.1f}  Mbit/s")

    print("\nSampled levels (scaled to the NPU's regime):")
    for level in ("low", "med", "high"):
        print(f"  {level:4s}: {level_load_bps(level) / 1e6:7.0f} Mbps")

    # A level:high run plays a one-segment scenario; generate and replay it.
    high = traffic_scenario(TrafficConfig(level="high", offered_load_mbps=None))
    (segment,) = high.segments
    print(f"  high plays {segment.process}, burst ratio {segment.burst_ratio}, "
          f"{segment.size_mix} sizes, {high.num_flows} flows")
    sim = Simulator()
    packets = []
    stop_ps = 3_000_000_000  # 3 ms
    source = TrafficSource(
        sim, lambda port, packet: packets.append(packet),
        high.phases(stop_ps), rng_streams=RngStreams(2005),
        num_flows=high.num_flows, zipf_s=high.zipf_s,
    )
    source.start(stop_ps=stop_ps)
    sim.run()
    print(f"\ngenerated {len(packets)} packets in 3 ms "
          f"({source.offered_load_bps / 1e6:.0f} Mbps measured)")

    buffer = io.StringIO()
    write_packet_trace(packets, buffer)
    buffer.seek(0)
    replayed = list(read_packet_trace(buffer))
    assert replayed == packets
    print(f"trace round-trip OK: {len(replayed)} packets identical after "
          f"CSV write/read")
    ports = {}
    for packet in packets:
        ports[packet.input_port] = ports.get(packet.input_port, 0) + 1
    busiest = max(ports.items(), key=lambda kv: kv[1])
    print(f"port spread: {len(ports)} ports hit; busiest port {busiest[0]} "
          f"saw {busiest[1]} packets")


if __name__ == "__main__":
    main()
