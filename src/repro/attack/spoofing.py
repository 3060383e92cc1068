"""Physical-layer view of a spoofed charging service.

The network simulator only needs the hardware's aggregate rates, but the
testbed experiments, the examples and the Section II reproduction want
the full physical picture of a spoof: the null-steering phases, the
residual RF at the rectenna, the power the pilot detector sees, and the
nonlinear-superposition gap.  :func:`execute_spoof` assembles that report
from the EM substrate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.mc.charger import ChargeMode, ChargingHardware
from repro.utils.geometry import Point

__all__ = ["SpoofReport", "execute_spoof"]


@dataclass(frozen=True)
class SpoofReport:
    """Everything measurable about one spoofed service.

    Attributes
    ----------
    phases_rad:
        The per-element emission phases steering the null.
    rf_at_rectenna_w:
        Residual coherent RF power at the victim's harvesting antenna.
    harvested_w:
        DC power actually delivered (should be ~0).
    pilot_rf_w:
        RF power at the victim's charging-presence pilot antenna.
    pilot_tripped:
        Whether the presence indicator believes charging is under way.
    genuine_harvest_w:
        What an honest beamformed service would have delivered — the
        power the victim *thinks* it is receiving.
    suppression_db:
        How far below the genuine harvest the spoof drives delivery
        (``inf`` for a perfect null).
    """

    phases_rad: tuple[float, ...]
    rf_at_rectenna_w: float
    harvested_w: float
    pilot_rf_w: float
    pilot_tripped: bool
    genuine_harvest_w: float
    suppression_db: float


def execute_spoof(hardware: ChargingHardware) -> SpoofReport:
    """Steer a null at the hardware's standard service geometry and report.

    Uses the same parking geometry the simulator assumes, and reads the
    harvest and pilot power from the hardware itself, so the report's
    ``harvested_w`` and ``pilot_rf_w`` are exactly
    :attr:`ChargingHardware.spoof_rate_w` and
    ``ChargingHardware.pilot_rf_power_w(ChargeMode.SPOOF)``.
    """
    charger = Point(0.0, 0.0)
    victim = Point(hardware.service_distance_m, 0.0)
    array = hardware.array

    phases = array.spoof_phases(charger, victim)
    rf = array.rf_power_at(victim, charger, phases)
    pilot_rf = hardware.pilot_rf_power_w(ChargeMode.SPOOF)
    harvested = hardware.spoof_rate_w
    genuine = hardware.genuine_rate_w

    if harvested <= 0.0:
        suppression_db = math.inf
    else:
        suppression_db = 10.0 * math.log10(genuine / harvested)

    return SpoofReport(
        phases_rad=tuple(phases),
        rf_at_rectenna_w=rf,
        harvested_w=harvested,
        pilot_rf_w=pilot_rf,
        pilot_tripped=pilot_rf >= hardware.presence_threshold_w,
        genuine_harvest_w=genuine,
        suppression_db=suppression_db,
    )
