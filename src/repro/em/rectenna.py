"""Nonlinear rectenna (rectifying antenna) harvesting model.

A rectenna converts incident RF power to DC.  Its conversion efficiency is
*not* constant: below a sensitivity threshold the diode does not turn on
and nothing is harvested; efficiency then rises with input power (the
diode's square-law region rewards concentrated power); finally the output
saturates at the converter's rating.

Two consequences matter for the Charging Spoofing Attack:

1. Because coherent waves add in *field*, not power, the harvested DC from
   several waves differs from the sum of their individual harvests — the
   "nonlinear superposition principle" the paper demonstrates.  A perfect
   destructive null yields **zero** harvest even though each wave alone
   would charge the node.
2. Even an imperfect null is amplified by the diode threshold: once the
   residual RF power falls below the rectifier sensitivity, harvested power
   is exactly zero, so the attacker does not need a perfect null.

The default constants approximate the Powercast P2110 harvester:
sensitivity around -11 dBm, peak efficiency ~55 %, and a soft knee.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.utils.validation import (
    check_non_negative,
    check_non_negative_array,
    check_positive,
    check_probability,
)

__all__ = ["Rectenna"]


@dataclass(frozen=True)
class Rectenna:
    """Nonlinear RF-to-DC harvesting model.

    Parameters
    ----------
    sensitivity_w:
        Minimum incident RF power for the rectifier to turn on; below this
        the harvested power is exactly zero.  Default 80 µW (≈ -11 dBm).
    peak_efficiency:
        Asymptotic RF-to-DC conversion efficiency (0..1].
    knee_power_w:
        Input power at which efficiency reaches half of its peak.  Smaller
        values make the harvester behave linearly sooner.
    saturation_w:
        Maximum DC output power of the converter.
    """

    sensitivity_w: float = 80e-6
    peak_efficiency: float = 0.55
    knee_power_w: float = 5e-3
    saturation_w: float = 0.5

    def __post_init__(self) -> None:
        check_non_negative("sensitivity_w", self.sensitivity_w)
        check_probability("peak_efficiency", self.peak_efficiency)
        if self.peak_efficiency == 0.0:  # reprolint: disable=RL-P001
            raise ValueError("peak_efficiency must be > 0")
        check_positive("knee_power_w", self.knee_power_w)
        check_positive("saturation_w", self.saturation_w)

    def efficiency(self, rf_power_w: float | np.ndarray) -> float | np.ndarray:
        """Conversion efficiency at the given incident RF power.

        Zero below the sensitivity threshold; otherwise a saturating
        rational curve ``eta_max * P / (P + P_knee)`` capturing the diode's
        improving efficiency with drive level.

        Accepts an ndarray of powers and returns per-entry efficiencies
        of the same shape (the path :func:`superposition_sweep` uses).
        """
        if isinstance(rf_power_w, np.ndarray):
            rf = check_non_negative_array("rf_power_w", rf_power_w)
            eta = self.peak_efficiency * rf / (rf + self.knee_power_w)
            return np.where(rf < self.sensitivity_w, 0.0, eta)
        rf_power_w = check_non_negative("rf_power_w", rf_power_w)
        if rf_power_w < self.sensitivity_w:
            return 0.0
        return self.peak_efficiency * rf_power_w / (rf_power_w + self.knee_power_w)

    def harvest(self, rf_power_w: float | np.ndarray) -> float | np.ndarray:
        """Harvested DC power in watts for the given incident RF power.

        Elementwise over an ndarray of powers, one fused pass — the
        array path feeding :func:`superposition_sweep`.
        """
        if isinstance(rf_power_w, np.ndarray):
            rf = check_non_negative_array("rf_power_w", rf_power_w)
            dc = self.efficiency(rf) * rf
            return np.minimum(dc, self.saturation_w)
        rf_power_w = check_non_negative("rf_power_w", rf_power_w)
        dc = self.efficiency(rf_power_w) * rf_power_w
        return min(dc, self.saturation_w)

    def harvest_from_field(self, field: complex) -> float:
        """Harvested DC power for a received field phasor.

        The phasor convention of :mod:`repro.em.waves` makes
        ``|field|**2`` the incident RF power.
        """
        return self.harvest(abs(field) ** 2)

    def superposition_gap(self, phasors: list[complex]) -> float:
        """Nonlinear-superposition gap for a set of coherent waves.

        Returns ``sum_i harvest(|E_i|^2) - harvest(|sum_i E_i|^2)`` — the
        difference between what linear intuition predicts and what the
        rectenna actually delivers.  Positive values mean destructive
        superposition stole harvested power; the spoofing attack maximises
        this gap (driving the second term to zero).
        """
        independent = sum(self.harvest(abs(p) ** 2) for p in phasors)
        coherent = abs(sum(phasors)) ** 2
        return independent - self.harvest(coherent)
