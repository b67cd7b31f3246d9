"""The built-in scenario catalog.

Each entry is a :class:`~repro.scenarios.spec.Scenario` modeling a
workload the single-level experiments cannot express: flash crowds,
DDoS-like bursts of minimum-size packets, diurnal replays, failover load
doubling, on/off bursting, saturation stress and size-mix drift.  Loads
sit in the same NPU regime as the named traffic levels
(:data:`repro.traffic.diurnal.LEVEL_LOADS_MBPS`: 400/1000/1550 Mbps),
and the diurnal replays derive their phase loads from the
:class:`~repro.traffic.diurnal.DiurnalModel` day curve scaled to
:data:`DIURNAL_REPLAY_PEAK_MBPS`.

Use :func:`get_scenario` / :func:`list_scenarios` to look entries up and
:func:`register_scenario` to add custom ones (sweeps reference scenarios
by name, so anything registered here is immediately sweepable).
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.errors import TrafficError
from repro.scenarios.spec import Scenario, ScenarioSegment
from repro.traffic.diurnal import DiurnalModel

_CATALOG: Dict[str, Scenario] = {}


def register_scenario(scenario: Scenario, replace: bool = False) -> Scenario:
    """Add a scenario to the catalog (``replace=True`` to overwrite)."""
    scenario.validate()
    if scenario.name in _CATALOG and not replace:
        raise TrafficError(
            f"scenario {scenario.name!r} already registered "
            "(pass replace=True to overwrite)"
        )
    _CATALOG[scenario.name] = scenario
    return scenario


def get_scenario(name: str) -> Scenario:
    """Look one scenario up by name."""
    try:
        return _CATALOG[name]
    except KeyError:
        raise TrafficError(
            f"unknown scenario {name!r}; known: {sorted(_CATALOG)}"
        ) from None


def list_scenarios() -> List[str]:
    """All registered scenario names, sorted."""
    return sorted(_CATALOG)


def all_scenarios() -> List[Scenario]:
    """All registered scenarios, sorted by name."""
    return [_CATALOG[name] for name in list_scenarios()]


# ---------------------------------------------------------------------------
# Diurnal replay helper
# ---------------------------------------------------------------------------
#: The load a diurnal replay's peak hour offers (the weekend replay runs
#: at 0.6 of it): 1.6 Gbit/s drives the IXP1200-class model to
#: saturation at the day's busiest hour.
DIURNAL_REPLAY_PEAK_MBPS = 1600.0


def diurnal_replay_segments(
    hours: Sequence[float],
    model: DiurnalModel,
    npu_peak_mbps: float = DIURNAL_REPLAY_PEAK_MBPS,
) -> Tuple[ScenarioSegment, ...]:
    """Equal-length phases replaying the day curve at the given hours.

    Loads are the model's smooth base rates scaled so the day's peak
    hour lands on ``npu_peak_mbps``, keeping the day's ratios.
    """
    if not hours:
        raise TrafficError("diurnal replay needs at least one hour")
    peak_bps = model.base_rate_bps(model.peak_hour * 3600.0)
    return tuple(
        ScenarioSegment(
            weight=1.0,
            offered_load_mbps=npu_peak_mbps
            * model.base_rate_bps(hour * 3600.0)
            / peak_bps,
        )
        for hour in hours
    )


# ---------------------------------------------------------------------------
# Built-in entries
# ---------------------------------------------------------------------------
register_scenario(
    Scenario(
        name="flash_crowd",
        title="Flash-crowd ramp",
        description=(
            "Quiet baseline, a steep ramp to a burst-heavy peak as a "
            "crowd arrives, then a slow decay — the canonical TDVS "
            "threshold-tracking stressor."
        ),
        segments=(
            ScenarioSegment(weight=2.0, offered_load_mbps=300.0),
            ScenarioSegment(weight=1.0, offered_load_mbps=900.0),
            ScenarioSegment(
                weight=3.0, offered_load_mbps=1500.0, burst_ratio=6.0
            ),
            ScenarioSegment(weight=2.0, offered_load_mbps=1100.0),
            ScenarioSegment(weight=2.0, offered_load_mbps=500.0),
        ),
    )
)

register_scenario(
    Scenario(
        name="ddos_min64",
        title="DDoS-like min64 burst storm",
        description=(
            "Normal imix traffic interrupted by a storm of minimum-size "
            "packets at high rate — per-packet costs dominate, so "
            "throughput collapses harder than offered bits suggest."
        ),
        segments=(
            ScenarioSegment(weight=3.0, offered_load_mbps=600.0),
            ScenarioSegment(
                weight=4.0,
                offered_load_mbps=1400.0,
                size_mix="min64",
                burst_ratio=8.0,
                burst_fraction=0.5,
            ),
            ScenarioSegment(weight=3.0, offered_load_mbps=600.0),
        ),
        num_flows=2048,  # attack traffic sprays many source flows
        zipf_s=0.2,
    )
)

register_scenario(
    Scenario(
        name="weekday_diurnal",
        title="Weekday diurnal replay",
        description=(
            "A compressed working day from the Figure 2 model: overnight "
            "trough, morning rise, midday plateau, afternoon peak, "
            "evening shoulder."
        ),
        segments=diurnal_replay_segments((3.0, 9.0, 12.0, 14.0, 20.0), DiurnalModel()),
    )
)

register_scenario(
    Scenario(
        name="weekend_diurnal",
        title="Weekend diurnal replay",
        description=(
            "The same day shape with a later, flatter peak at roughly "
            "60% of weekday volume — long low-load stretches reward "
            "aggressive down-scaling."
        ),
        segments=diurnal_replay_segments(
            (4.0, 11.0, 16.0, 22.0),
            DiurnalModel(peak_bps=1.2e8, peak_hour=16.0),
            npu_peak_mbps=0.6 * DIURNAL_REPLAY_PEAK_MBPS,
        ),
    )
)

register_scenario(
    Scenario(
        name="overnight_trough",
        title="Overnight trough",
        description=(
            "Sustained light Poisson traffic, the emptiest hours of the "
            "day — the upper bound on what any DVS policy can save."
        ),
        segments=(
            ScenarioSegment(weight=1.0, offered_load_mbps=120.0, process="poisson"),
        ),
    )
)

register_scenario(
    Scenario(
        name="link_failover",
        title="Link-failover load doubling",
        description=(
            "Steady medium load until a parallel link fails and this "
            "path inherits its traffic: an instant doubling that a "
            "slow-reacting policy turns into sustained loss."
        ),
        segments=(
            ScenarioSegment(weight=1.0, offered_load_mbps=700.0),
            ScenarioSegment(weight=1.0, offered_load_mbps=1400.0),
        ),
    )
)

register_scenario(
    Scenario(
        name="bursty_onoff",
        title="Bursty on/off alternation",
        description=(
            "Alternating heavy burst phases and near-idle gaps at the "
            "DVS-window timescale — maximizes VF transition churn and "
            "the cost of the 10 us penalty."
        ),
        segments=(
            ScenarioSegment(
                weight=1.0, offered_load_mbps=1300.0, burst_ratio=8.0
            ),
            ScenarioSegment(weight=1.0, offered_load_mbps=200.0, process="poisson"),
            ScenarioSegment(
                weight=1.0, offered_load_mbps=1300.0, burst_ratio=8.0
            ),
            ScenarioSegment(weight=1.0, offered_load_mbps=200.0, process="poisson"),
            ScenarioSegment(
                weight=1.0, offered_load_mbps=1300.0, burst_ratio=8.0
            ),
            ScenarioSegment(weight=1.0, offered_load_mbps=200.0, process="poisson"),
        ),
    )
)

register_scenario(
    Scenario(
        name="saturation_stress",
        title="Saturation stress",
        description=(
            "Constant-rate offered load beyond the chip's forwarding "
            "capacity for the whole run — drops are expected; the "
            "question is whether DVS makes them worse."
        ),
        segments=(
            ScenarioSegment(weight=1.0, offered_load_mbps=1900.0, process="cbr"),
        ),
    )
)

register_scenario(
    Scenario(
        name="imix_drift",
        title="Mixed-size imix drift",
        description=(
            "Constant offered bits while the packet-size mix drifts from "
            "classic imix through downstream-heavy to minimum-size — "
            "isolates per-packet from per-byte processing cost."
        ),
        segments=(
            ScenarioSegment(weight=1.0, offered_load_mbps=1000.0, size_mix="imix"),
            ScenarioSegment(
                weight=1.0, offered_load_mbps=1000.0, size_mix="imix_downstream"
            ),
            ScenarioSegment(weight=1.0, offered_load_mbps=1000.0, size_mix="min64"),
        ),
    )
)
