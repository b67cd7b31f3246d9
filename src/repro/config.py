"""Configuration dataclasses for the NPU model, DVS policies and runs.

Every knob of the reproduction lives here, with defaults matching the
paper's experimental settings (IXP1200-derived NPU at 600 MHz with
memory/bus speeds scaled 1.3x, XScale-style VF ladder 400-600 MHz /
1.1-1.3 V in 50 MHz steps, 10 us transition penalty, 8x10^6-cycle runs).

All configs are plain dataclasses with ``validate()`` plus dict
round-tripping (``to_dict`` / ``from_dict``) so experiments can be
serialized next to their results.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import Any, Dict, Optional, Tuple, Type, TypeVar

from repro.errors import ConfigError

T = TypeVar("T", bound="_Base")


@dataclass
class _Base:
    """Shared dict round-trip helpers for all config dataclasses."""

    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict form (nested configs become nested dicts).

        Equal to :func:`dataclasses.asdict`, and as fresh: containers
        are copied, and the leaves are immutable scalars.  A sweep
        converts one config per job, and ``asdict`` costs about six
        times this field-table walk: it classifies and deep-copies
        every leaf.
        """
        return {name: plain(getattr(self, name)) for name in _FIELD_NAMES[type(self)]}

    @classmethod
    def from_dict(cls: Type[T], data: Dict[str, Any]) -> T:
        """Rebuild from :meth:`to_dict` output; unknown keys are errors."""
        known = {f.name: f for f in fields(cls)}
        unknown = set(data) - set(known)
        if unknown:
            raise ConfigError(
                f"{cls.__name__}: unknown keys {sorted(unknown)}; "
                f"known: {sorted(known)}"
            )
        kwargs = {}
        for name, value in data.items():
            target = known[name].type
            # Nested config dataclasses arrive as dicts.
            nested = _NESTED_TYPES.get((cls.__name__, name))
            if nested is not None and isinstance(value, dict):
                value = nested.from_dict(value)
            elif isinstance(value, list):
                value = tuple(value)
            kwargs[name] = value
        instance = cls(**kwargs)
        instance.validate()
        return instance

    def replaced(self: T, **changes) -> T:
        """Copy with fields changed (and re-validated)."""
        out = replace(self, **changes)
        out.validate()
        return out

    def validate(self) -> None:
        """Raise :class:`ConfigError` on inconsistent settings."""


#: Leaf types :func:`plain` passes through as they are (immutable).
_SCALARS = frozenset((bool, int, float, str, type(None)))


def plain(value: Any) -> Any:
    """``value`` with configs as dicts and every dict, list and tuple copied.

    This is how :meth:`_Base.to_dict` renders a field, and how a sweep
    gives each job its own copy of data its jobs share.
    """
    if type(value) in _SCALARS:
        return value
    if isinstance(value, _Base):
        return value.to_dict()
    if isinstance(value, (tuple, list)):
        return type(value)(plain(item) for item in value)
    if isinstance(value, dict):
        return {key: plain(item) for key, item in value.items()}
    return value


def _positive(value, name: str) -> None:
    if value is None or value <= 0:
        raise ConfigError(f"{name} must be positive, got {value!r}")


def _non_negative(value, name: str) -> None:
    if value is None or value < 0:
        raise ConfigError(f"{name} must be non-negative, got {value!r}")


# ---------------------------------------------------------------------------
# Memory / interconnect
# ---------------------------------------------------------------------------
@dataclass
class MemoryConfig(_Base):
    """SRAM/SDRAM/scratchpad timing and sizing.

    Timing values are in nanoseconds and already include the paper's 1.3x
    memory-speed scaling relative to the stock IXP1200.  ``*_access_ns``
    is the pipeline latency of one access; ``*_occupancy_ns`` is how long
    the controller is held busy per access (queueing builds on it);
    ``*_byte_ns`` adds transfer time per byte moved.
    """

    sram_bytes: int = 8 * 1024 * 1024
    sram_access_ns: float = 24.0
    sram_occupancy_ns: float = 7.0
    sram_byte_ns: float = 0.32

    sdram_bytes: int = 256 * 1024 * 1024
    sdram_access_ns: float = 60.0
    sdram_occupancy_ns: float = 20.0
    sdram_byte_ns: float = 2.0

    scratch_bytes: int = 4 * 1024
    scratch_access_ns: float = 12.0
    scratch_occupancy_ns: float = 3.0
    scratch_byte_ns: float = 0.1

    #: IX bus: per-transfer overhead and per-byte transfer time.
    bus_access_ns: float = 8.0
    bus_byte_ns: float = 0.72

    def validate(self) -> None:
        for name in (
            "sram_bytes",
            "sdram_bytes",
            "scratch_bytes",
        ):
            _positive(getattr(self, name), f"MemoryConfig.{name}")
        for name in (
            "sram_access_ns",
            "sram_occupancy_ns",
            "sdram_access_ns",
            "sdram_occupancy_ns",
            "scratch_access_ns",
            "scratch_occupancy_ns",
            "bus_access_ns",
        ):
            _positive(getattr(self, name), f"MemoryConfig.{name}")
        for name in ("sram_byte_ns", "sdram_byte_ns", "scratch_byte_ns", "bus_byte_ns"):
            _non_negative(getattr(self, name), f"MemoryConfig.{name}")


# ---------------------------------------------------------------------------
# NPU architecture
# ---------------------------------------------------------------------------
@dataclass
class NpuConfig(_Base):
    """Top-level NPU architecture parameters (IXP1200-derived).

    The six microengines are split into receive and transmit groups as in
    Intel's reference forwarding design; each receive ME owns
    ``num_ports / len(rx_me_indices)`` device ports.
    """

    num_microengines: int = 6
    threads_per_me: int = 4
    rx_me_indices: Tuple[int, ...] = (0, 1, 2, 3)
    tx_me_indices: Tuple[int, ...] = (4, 5)

    #: Reference (trace) clock and the ME VF ladder bounds.
    reference_freq_hz: float = 600e6
    me_freq_max_hz: float = 600e6
    me_freq_min_hz: float = 400e6
    me_freq_step_hz: float = 50e6
    me_vdd_max: float = 1.3
    me_vdd_min: float = 1.1

    num_ports: int = 16
    port_rate_bps: float = 622e6
    rx_queue_packets: int = 64

    #: Busy-poll cost when a thread finds no packet waiting (instructions).
    poll_instructions: int = 24

    #: Ablation knob: charge polling time to the ``idle`` state instead
    #: of ``busy``.  The paper's model (and our default) counts polling
    #: as busy — "even if an ME does not process packets ... it will
    #: actively execute instructions to poll the buffers".
    poll_counts_as_idle: bool = False

    #: Context-switch overhead in ME cycles.
    ctx_switch_cycles: int = 1

    memory: MemoryConfig = field(default_factory=MemoryConfig)

    def validate(self) -> None:
        _positive(self.num_microengines, "NpuConfig.num_microengines")
        _positive(self.threads_per_me, "NpuConfig.threads_per_me")
        _positive(self.num_ports, "NpuConfig.num_ports")
        _positive(self.port_rate_bps, "NpuConfig.port_rate_bps")
        _positive(self.rx_queue_packets, "NpuConfig.rx_queue_packets")
        _positive(self.reference_freq_hz, "NpuConfig.reference_freq_hz")
        _positive(self.poll_instructions, "NpuConfig.poll_instructions")
        _non_negative(self.ctx_switch_cycles, "NpuConfig.ctx_switch_cycles")
        indices = tuple(self.rx_me_indices) + tuple(self.tx_me_indices)
        if sorted(indices) != list(range(self.num_microengines)):
            raise ConfigError(
                "rx_me_indices + tx_me_indices must partition "
                f"0..{self.num_microengines - 1}, got rx={self.rx_me_indices} "
                f"tx={self.tx_me_indices}"
            )
        if self.num_ports % len(self.rx_me_indices) != 0:
            raise ConfigError(
                f"num_ports ({self.num_ports}) must divide evenly among "
                f"{len(self.rx_me_indices)} receive MEs"
            )
        if not self.me_freq_min_hz <= self.me_freq_max_hz:
            raise ConfigError("me_freq_min_hz must not exceed me_freq_max_hz")
        _positive(self.me_freq_step_hz, "NpuConfig.me_freq_step_hz")
        span = self.me_freq_max_hz - self.me_freq_min_hz
        steps = span / self.me_freq_step_hz
        if abs(steps - round(steps)) > 1e-6:
            raise ConfigError(
                "me_freq_step_hz must evenly divide the frequency range"
            )
        if not 0 < self.me_vdd_min <= self.me_vdd_max:
            raise ConfigError("need 0 < me_vdd_min <= me_vdd_max")
        self.memory.validate()

    @property
    def ports_per_rx_me(self) -> int:
        """Device ports owned by each receive microengine."""
        return self.num_ports // len(self.rx_me_indices)


# ---------------------------------------------------------------------------
# Power model calibration
# ---------------------------------------------------------------------------
@dataclass
class PowerConfig(_Base):
    """Activity-based power calibration.

    ``me_active_w_max`` is one microengine's dynamic power at the top VF
    point (600 MHz / 1.3 V); other VF points scale by ``f * Vdd^2``.
    Idle (all threads blocked on memory, clock partially gated) and
    stalled (VF transition) states burn ``me_idle_fraction`` of active
    power at the same VF point.  Memory energy is per access + per byte;
    ``base_w`` covers everything the study holds constant (StrongARM,
    PLLs, I/O pads, leakage).

    Defaults calibrate `ipfwdr` at high traffic, no DVS, to ~1.5 W as in
    the paper's Figures 10/11.
    """

    me_active_w_max: float = 0.22
    me_idle_fraction: float = 0.25

    sram_access_nj: float = 2.0
    sram_byte_nj: float = 0.06
    sdram_access_nj: float = 4.5
    sdram_byte_nj: float = 0.12
    scratch_access_nj: float = 0.4
    scratch_byte_nj: float = 0.02
    bus_byte_nj: float = 0.09

    base_w: float = 0.12

    #: DVS monitor overhead: the 32-bit adder TDVS runs per packet
    #: arrival, and the EDVS idle counter update per window.  The paper
    #: measured the total under 1 % of chip power.
    tdvs_adder_nj_per_packet: float = 0.35
    edvs_counter_nj_per_window: float = 1.0

    def validate(self) -> None:
        _positive(self.me_active_w_max, "PowerConfig.me_active_w_max")
        if not 0.0 <= self.me_idle_fraction <= 1.0:
            raise ConfigError("me_idle_fraction must be within [0, 1]")
        for name in (
            "sram_access_nj",
            "sram_byte_nj",
            "sdram_access_nj",
            "sdram_byte_nj",
            "scratch_access_nj",
            "scratch_byte_nj",
            "bus_byte_nj",
            "base_w",
            "tdvs_adder_nj_per_packet",
            "edvs_counter_nj_per_window",
        ):
            _non_negative(getattr(self, name), f"PowerConfig.{name}")


# ---------------------------------------------------------------------------
# DVS policies
# ---------------------------------------------------------------------------
@dataclass
class DvsConfig(_Base):
    """DVS policy selection and parameters.

    ``policy`` is ``"none"``, ``"tdvs"``, ``"edvs"`` or ``"combined"``
    (the extension governor measuring the paper's declined design point;
    see :mod:`repro.dvs.combined`).  Window sizes are
    in clock cycles: reference-clock cycles for TDVS (a chip-wide policy)
    and local ME cycles for EDVS (each ME windows its own clock), as in
    the paper.  ``top_threshold_mbps`` is TDVS's threshold at the top
    frequency; lower levels scale proportionally to frequency (Figure 5).
    ``idle_threshold`` is EDVS's idle-time fraction (10 % in the paper).
    """

    policy: str = "none"
    window_cycles: int = 40_000
    #: Read only by the traffic rule (:func:`repro.dvs.governor.traffic_rule`),
    #: as is ``tdvs_hysteresis``: TDVS jobs differing only in these two
    #: fields share a run whenever the rule decides alike.  A new reader
    #: must make the field join the sweep engine's family key (drop it
    #: from :data:`repro.dvs.governor.TRAFFIC_RULE_FIELDS`).
    top_threshold_mbps: float = 1000.0
    idle_threshold: float = 0.10
    transition_penalty_us: float = 10.0
    #: Ablation knob: the traffic rule (TDVS, and the combined policy's
    #: traffic floor) down-steps only when the window rate falls below
    #: ``threshold * (1 - tdvs_hysteresis)``.  The paper's policy has no
    #: hysteresis (0.0).  Read only by the traffic rule; see
    #: ``top_threshold_mbps``.
    tdvs_hysteresis: float = 0.0

    def validate(self) -> None:
        if self.policy not in ("none", "tdvs", "edvs", "combined"):
            raise ConfigError(
                "policy must be 'none', 'tdvs', 'edvs' or 'combined', "
                f"got {self.policy!r}"
            )
        _positive(self.window_cycles, "DvsConfig.window_cycles")
        _positive(self.top_threshold_mbps, "DvsConfig.top_threshold_mbps")
        if not 0.0 < self.idle_threshold < 1.0:
            raise ConfigError("idle_threshold must be within (0, 1)")
        _non_negative(self.transition_penalty_us, "DvsConfig.transition_penalty_us")
        if not 0.0 <= self.tdvs_hysteresis < 1.0:
            raise ConfigError("tdvs_hysteresis must be within [0, 1)")


# ---------------------------------------------------------------------------
# Traffic
# ---------------------------------------------------------------------------
@dataclass
class TrafficConfig(_Base):
    """Offered traffic for one run.

    Exactly one of three sources must be set: an explicit
    ``offered_load_mbps``, a named ``level`` (``low``/``med``/``high``)
    resolved through the diurnal sampler, or a catalog ``scenario``
    (see :mod:`repro.scenarios`) whose timed segments override the
    single-rate knobs below for the whole run.
    """

    level: Optional[str] = None
    offered_load_mbps: Optional[float] = 1000.0
    scenario: Optional[str] = None
    process: str = "mmpp"
    burst_ratio: float = 4.0
    burst_fraction: float = 0.3
    size_mix: str = "imix"
    num_flows: int = 512
    zipf_s: float = 0.9

    @classmethod
    def for_scenario(cls, name: str, **overrides) -> "TrafficConfig":
        """Convenience constructor selecting a catalog scenario."""
        return cls(scenario=name, offered_load_mbps=None, **overrides)

    def validate(self) -> None:
        sources = dict(
            level=self.level,
            offered_load_mbps=self.offered_load_mbps,
            scenario=self.scenario,
        )
        chosen = {name: value for name, value in sources.items() if value is not None}
        if len(chosen) != 1:
            raise ConfigError(
                "exactly one of level / offered_load_mbps / scenario must "
                f"be set (got {chosen or sources})"
            )
        if self.level is not None and self.level not in ("low", "med", "high"):
            raise ConfigError(f"level must be low/med/high, got {self.level!r}")
        if self.scenario is not None:
            # Imported lazily: repro.scenarios builds on this module.
            from repro.errors import TrafficError
            from repro.scenarios.catalog import get_scenario

            try:
                get_scenario(self.scenario)
            except TrafficError as exc:
                raise ConfigError(str(exc)) from None
        if self.offered_load_mbps is not None:
            _positive(self.offered_load_mbps, "TrafficConfig.offered_load_mbps")
        if self.process not in ("poisson", "cbr", "mmpp"):
            raise ConfigError(f"unknown arrival process {self.process!r}")
        # Imported lazily: keeps `repro.config` import-light.
        from repro.traffic.sizes import SIZE_MIXES

        if self.size_mix not in SIZE_MIXES:
            raise ConfigError(
                f"unknown size mix {self.size_mix!r}; known: {sorted(SIZE_MIXES)}"
            )
        _positive(self.num_flows, "TrafficConfig.num_flows")
        _non_negative(self.zipf_s, "TrafficConfig.zipf_s")


# ---------------------------------------------------------------------------
# Whole-run configuration
# ---------------------------------------------------------------------------
@dataclass
class RunConfig(_Base):
    """Everything one simulation run needs.

    ``duration_cycles`` counts reference-clock (600 MHz) cycles — the
    paper runs 8x10^6 cycles per configuration.  ``benchmark`` selects
    the application model (``ipfwdr``/``url``/``nat``/``md4``).
    """

    benchmark: str = "ipfwdr"
    duration_cycles: int = 8_000_000
    seed: int = 1
    npu: NpuConfig = field(default_factory=NpuConfig)
    power: PowerConfig = field(default_factory=PowerConfig)
    dvs: DvsConfig = field(default_factory=DvsConfig)
    traffic: TrafficConfig = field(default_factory=TrafficConfig)
    #: Publish ``m<k>_pipeline`` events: ``"chunk"`` publishes one per
    #: ``Compute`` step and per missed poll, ``None`` none.  A string,
    #: not a flag, because job ids hash the value.
    pipeline_events: Optional[str] = None

    #: The per-packet application models.
    BENCHMARKS = ("ipfwdr", "url", "nat", "md4")

    def validate(self) -> None:
        if self.benchmark not in self.BENCHMARKS:
            raise ConfigError(f"unknown benchmark {self.benchmark!r}")
        _positive(self.duration_cycles, "RunConfig.duration_cycles")
        if self.pipeline_events not in (None, "chunk"):
            raise ConfigError(
                f"pipeline_events must be None or 'chunk', got {self.pipeline_events!r}"
            )
        self.npu.validate()
        self.power.validate()
        self.dvs.validate()
        self.traffic.validate()


#: Field names per config class, in declaration order (the to_dict walk).
_FIELD_NAMES: Dict[type, Tuple[str, ...]] = {
    cls: tuple(f.name for f in fields(cls))
    for cls in (MemoryConfig, NpuConfig, PowerConfig, DvsConfig, TrafficConfig, RunConfig)
}

#: Nested dataclass fields for from_dict reconstruction.
_NESTED_TYPES: Dict[Tuple[str, str], Any] = {
    ("NpuConfig", "memory"): MemoryConfig,
    ("RunConfig", "npu"): NpuConfig,
    ("RunConfig", "power"): PowerConfig,
    ("RunConfig", "dvs"): DvsConfig,
    ("RunConfig", "traffic"): TrafficConfig,
}
