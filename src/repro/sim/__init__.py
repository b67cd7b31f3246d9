"""Discrete-event simulation kernel.

This subpackage provides the timing substrate every architectural model in
``repro`` is built on:

* :class:`~repro.sim.kernel.Simulator` — an event-driven kernel with an
  integer-picosecond timeline;
* :class:`~repro.sim.clock.ClockDomain` — per-component clocks whose
  frequency may change mid-simulation (the mechanism DVS relies on), with
  exact cycle/time conversion across every frequency change;
* :class:`~repro.sim.rng.RngStreams` — named, independently seeded random
  streams so that changing one stochastic component does not perturb the
  draws of another;
* :mod:`~repro.sim.stats` — counters and time-weighted statistics used by
  the power model and the DVS governors.
"""

from repro.sim.clock import ClockDomain
from repro.sim.kernel import Simulator
from repro.sim.rng import RngStreams
from repro.sim.stats import (
    Counter,
    IntervalAccumulator,
    RateWindow,
)

__all__ = [
    "ClockDomain",
    "Counter",
    "IntervalAccumulator",
    "RateWindow",
    "Simulator",
]
