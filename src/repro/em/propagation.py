"""RF propagation models for wireless power transfer.

Two models are provided:

* :class:`FriisModel` — textbook free-space propagation.  Used by the
  phasor-level attack physics, where both the *amplitude* and the *phase*
  accumulated along each antenna-to-victim path matter.
* :class:`EmpiricalChargingModel` — the empirical received-power model
  ``P_r(d) = tx_power * alpha / (d + beta)^2`` calibrated against Powercast
  measurements, which is the de-facto charging model of the WRSN literature
  (including this paper's research group).  Used by the network-level
  simulator, where only delivered power matters.

All powers are in watts, distances in metres, frequencies in hertz.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.utils.validation import check_non_negative, check_positive

__all__ = [
    "POWERCAST_FREQUENCY_HZ",
    "EmpiricalChargingModel",
    "FriisModel",
    "wavelength",
]

SPEED_OF_LIGHT = 299_792_458.0
"""Speed of light in vacuum, m/s."""

POWERCAST_FREQUENCY_HZ = 915e6
"""Centre frequency of the Powercast TX91501 charger (915 MHz ISM band)."""


def wavelength(frequency_hz: float) -> float:
    """Free-space wavelength in metres for the given frequency."""
    frequency_hz = check_positive("frequency_hz", frequency_hz)
    return SPEED_OF_LIGHT / frequency_hz


@dataclass(frozen=True)
class FriisModel:
    """Free-space propagation with explicit path phase.

    The complex field amplitude at distance ``d`` from a transmitter of
    power ``P_t`` is proportional to ``sqrt(P_t G_t G_r) * (lambda / 4 pi d)``
    with accumulated phase ``-2 pi d / lambda``.  Powers follow the Friis
    transmission equation.

    Parameters
    ----------
    frequency_hz:
        Carrier frequency.
    tx_gain, rx_gain:
        Linear (not dB) antenna gains.
    min_distance:
        Distances below this are clamped to it, avoiding the unphysical
        near-field singularity of the far-field formula.
    """

    frequency_hz: float = POWERCAST_FREQUENCY_HZ
    tx_gain: float = 1.0
    rx_gain: float = 1.0
    min_distance: float = 0.1

    def __post_init__(self) -> None:
        check_positive("frequency_hz", self.frequency_hz)
        check_positive("tx_gain", self.tx_gain)
        check_positive("rx_gain", self.rx_gain)
        check_positive("min_distance", self.min_distance)

    @property
    def wavelength(self) -> float:
        """Carrier wavelength in metres."""
        return wavelength(self.frequency_hz)

    def _clamped(self, distance: float) -> float:
        check_non_negative("distance", distance)
        return max(distance, self.min_distance)

    def received_power(self, tx_power: float, distance: float) -> float:
        """Friis received power at ``distance`` for transmit power ``tx_power``."""
        tx_power = check_non_negative("tx_power", tx_power)
        d = self._clamped(distance)
        factor = self.wavelength / (4.0 * math.pi * d)
        return tx_power * self.tx_gain * self.rx_gain * factor * factor

    def field_amplitude(self, tx_power: float, distance: float) -> float:
        """Amplitude of the received field phasor, normalised so that the
        squared amplitude equals the Friis received power."""
        return math.sqrt(self.received_power(tx_power, distance))

    def path_phase(self, distance: float) -> float:
        """Phase accumulated along a path of the given length, in radians.

        Propagation delays phase, so the accumulated phase is negative:
        ``-2 pi d / lambda``.  The *unclamped* distance is used — phase has
        no near-field singularity.
        """
        check_non_negative("distance", distance)
        return -2.0 * math.pi * distance / self.wavelength


@dataclass(frozen=True)
class EmpiricalChargingModel:
    """Empirical Powercast-style charging model.

    Delivered RF power at distance ``d`` from a charger transmitting
    ``tx_power`` watts::

        P_r(d) = tx_power * alpha / (d + beta)^2      for d <= max_distance
        P_r(d) = 0                                     otherwise

    The default constants are calibrated so that a 3 W transmitter delivers
    about 50 mW at 0.6 m (the Powercast TX91501 operating point quoted
    throughout this literature) and the effective charging range is a few
    metres.

    Parameters
    ----------
    alpha:
        Dimensionless gain constant (absorbs antenna gains and rectifier
        coupling).
    beta:
        Distance offset in metres regularising the near field.
    max_distance:
        Radius beyond which no power is delivered.
    """

    alpha: float = 0.012
    beta: float = 0.25
    max_distance: float = 5.0

    def __post_init__(self) -> None:
        check_positive("alpha", self.alpha)
        check_non_negative("beta", self.beta)
        check_positive("max_distance", self.max_distance)

    def received_power(self, tx_power: float, distance: float) -> float:
        """Delivered RF power in watts at the given distance."""
        tx_power = check_non_negative("tx_power", tx_power)
        distance = check_non_negative("distance", distance)
        if distance > self.max_distance:
            return 0.0
        denom = (distance + self.beta) ** 2
        return tx_power * self.alpha / denom

    def efficiency(self, distance: float) -> float:
        """Fraction of transmit power delivered at the given distance."""
        return self.received_power(1.0, distance)

    def charging_range(self) -> float:
        """Maximum distance at which any power is delivered."""
        return self.max_distance
