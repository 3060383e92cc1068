"""Complex-phasor representation of coherent RF waves.

A narrowband wave at the victim's antenna is represented by a single
complex phasor whose squared magnitude is the wave's RF power in watts
(the field amplitude is normalised to a 1-ohm reference so that
``power = |phasor|**2``).  Coherent waves from the same charger's antennas
add as *phasors*; waves from mutually incoherent sources add in *power*.

This distinction is the entire physical basis of the Charging Spoofing
Attack: the superposition of coherent waves is linear in field but
**nonlinear in power**, so a charger that radiates full power from every
antenna can still deliver zero power at a chosen point.
"""

from __future__ import annotations

import cmath
import math
from typing import Iterable

from repro.utils.geometry import Point
from repro.utils.validation import check_non_negative

__all__ = [
    "coherent_power",
    "field_phasor",
    "incoherent_power",
    "superpose",
]


def phasor(amplitude: float, phase: float) -> complex:
    """A phasor with the given amplitude (>= 0) and phase in radians."""
    amplitude = check_non_negative("amplitude", amplitude)
    return amplitude * cmath.exp(1j * phase)


def superpose(phasors: Iterable[complex]) -> complex:
    """Coherent superposition: the phasor sum of the inputs."""
    total = 0j
    for p in phasors:
        total += p
    return total


def coherent_power(phasors: Iterable[complex]) -> float:
    """RF power of the coherent superposition of the inputs, in watts."""
    return abs(superpose(phasors)) ** 2


def incoherent_power(phasors: Iterable[complex]) -> float:
    """Total RF power if the inputs were mutually incoherent, in watts.

    This is the power a *linear-superposition* intuition would predict for
    a multi-antenna charger, and the quantity the paper's Section II
    experiments contrast against the true coherent power.
    """
    return sum(abs(p) ** 2 for p in phasors)


def field_phasor(
    amplitude_at_receiver: float,
    source: Point,
    receiver: Point,
    wavelength: float,
    emitted_phase: float = 0.0,
) -> complex:
    """Phasor of a wave arriving at ``receiver`` from ``source``.

    Parameters
    ----------
    amplitude_at_receiver:
        Field amplitude *after* path loss (i.e. the propagation model has
        already been applied), normalised so its square is RF power.
    source, receiver:
        Positions in metres.
    wavelength:
        Carrier wavelength in metres.
    emitted_phase:
        Phase of the wave as it leaves the source, radians.

    The arriving phase is the emitted phase minus ``2 pi d / lambda``.
    """
    amplitude_at_receiver = check_non_negative(
        "amplitude_at_receiver", amplitude_at_receiver
    )
    if wavelength <= 0.0:
        raise ValueError(f"wavelength must be > 0, got {wavelength!r}")
    d = source.distance_to(receiver)
    path_phase = -2.0 * math.pi * d / wavelength
    return phasor(amplitude_at_receiver, emitted_phase + path_phase)

