"""Electromagnetic substrate for wireless power transfer.

This subpackage models the physical layer the Charging Spoofing Attack
exploits:

* :mod:`repro.em.propagation` — path loss and path phase for RF power
  transfer (free-space Friis and the empirical Powercast-style model used
  throughout the WRSN charging literature).
* :mod:`repro.em.waves` — complex-phasor representation of coherent waves
  and their superposition.
* :mod:`repro.em.rectenna` — the nonlinear rectifying antenna that converts
  incident RF power to DC; the *nonlinear superposition effect* (harvest of
  a sum of fields differs from the sum of harvests) lives here.
* :mod:`repro.em.charger_array` — the mobile charger's multi-antenna front
  end with phase control: constructive beamforming for genuine charging and
  destructive null steering for spoofing.
* :mod:`repro.em.superposition` — the paper's Section II experiment as
  code: sweep relative phase, measure harvested power, fit the cancellation
  model.

Every EM quantity comes from one scalar path.
:class:`~repro.mc.charger.ChargingHardware` evaluates the array at its
fixed service geometry through :meth:`ChargerArray.delivered_power` and
:meth:`ChargerArray.pilot_power` (the genuine and spoof rates are cached
per hardware), the simulator reads only those hardware numbers, and
:func:`~repro.attack.spoofing.execute_spoof` reports the same ones.
Only the Section II sweep is array-valued: :func:`two_wave_rf_power` and
``Rectenna.harvest`` / ``efficiency`` accept ndarrays elementwise so
:func:`superposition_sweep` evaluates its phase grid in one pass.
"""

from repro.em.charger_array import (
    AntennaElement,
    ChargerArray,
    solve_null_phases,
)
from repro.em.propagation import (
    POWERCAST_FREQUENCY_HZ,
    EmpiricalChargingModel,
    FriisModel,
    wavelength,
)
from repro.em.rectenna import Rectenna
from repro.em.superposition import (
    SuperpositionFit,
    cancellation_depth_db,
    fit_two_wave_model,
    superposition_sweep,
    two_wave_rf_power,
)
from repro.em.waves import (
    coherent_power,
    field_phasor,
    incoherent_power,
    superpose,
)

__all__ = [
    "AntennaElement",
    "ChargerArray",
    "EmpiricalChargingModel",
    "FriisModel",
    "POWERCAST_FREQUENCY_HZ",
    "Rectenna",
    "SuperpositionFit",
    "cancellation_depth_db",
    "coherent_power",
    "field_phasor",
    "fit_two_wave_model",
    "incoherent_power",
    "solve_null_phases",
    "superpose",
    "superposition_sweep",
    "two_wave_rf_power",
    "wavelength",
]
