"""Power estimation: the NePSim power-framework substitute.

Dynamic power follows ``P = C_eff * Vdd^2 * f`` per component.  Each
microengine draws busy or idle power (idle and stalled alike) at its
current VF point; memory controllers and the IX bus charge energy per
access and per byte; a constant ``base_w`` covers the StrongARM, PLLs
and I/O.  The DVS monitor hardware (TDVS's 32-bit adder, EDVS's idle
counters) charges its own — sub-1 % — overhead, as the paper measured.

:class:`~repro.power.model.PowerAccountant` aggregates everything as
exact integer energy, computed from the model's residency and access
counters only when read, and provides the cumulative-energy annotation
the trace recorder stamps on every event (microjoules, so LOC formula
(2) divides out to watts).
"""

from repro.power.model import MePowerModel, PowerAccountant
from repro.power.overhead import DvsOverheadMeter
from repro.power.tables import IXP_FAMILY, IxpDataPoint

__all__ = [
    "DvsOverheadMeter",
    "IXP_FAMILY",
    "IxpDataPoint",
    "MePowerModel",
    "PowerAccountant",
]
