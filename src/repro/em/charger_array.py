"""The mobile charger's multi-antenna front end with phase control.

A charging spoofing attacker drives the same hardware a genuine charger
uses — an array of K coherent transmit antennas — but chooses per-antenna
emission phases adversarially:

* **Beamforming** (genuine charging): each antenna pre-compensates its path
  phase so all waves arrive *in phase* at the victim's rectenna, delivering
  the coherent-gain maximum (K^2 scaling of field power for equal
  amplitudes).
* **Spoofing** (the attack): phases are chosen so the waves arrive in a
  configuration whose phasor sum is (near) zero at the rectenna — a
  destructive null.  Each antenna still radiates full power, the RF field
  around the victim is strong (the victim's *charging-presence pilot
  detector*, a separate antenna a fraction of a wavelength away, still sees
  plenty of power), but the harvested DC power is zero.

The null-phase solver is exact whenever a null is geometrically feasible
(no amplitude exceeds the sum of the others — the polygon inequality) and
otherwise converges to the global minimum residual ``max(a) - sum(others)``.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import Literal, Sequence

import numpy as np

from repro.em.propagation import FriisModel
from repro.em.rectenna import Rectenna
from repro.utils.geometry import Point
from repro.utils.validation import check_non_negative, check_positive

__all__ = [
    "AntennaElement",
    "ChargerArray",
    "solve_null_phases",
]

PhaseMode = Literal["beamform", "spoof"]


def minimum_null_residual(amplitudes: Sequence[float]) -> float:
    """Smallest achievable ``|sum of phasors|`` for the given amplitudes.

    By the polygon inequality a zero sum is achievable iff no amplitude
    exceeds the sum of the others; otherwise the best possible residual is
    ``max(a) - sum(others)``.
    """
    amps = [check_non_negative(f"amplitudes[{i}]", a) for i, a in enumerate(amplitudes)]
    if not amps:
        return 0.0
    largest = max(amps)
    return max(0.0, 2.0 * largest - sum(amps))


def _descend(
    amps: np.ndarray, phases: np.ndarray, tol: float, max_iterations: int
) -> tuple[np.ndarray, np.ndarray]:
    """Cyclic coordinate descent on ``|sum_i a_i exp(j theta_i)|``.

    Operates on ``(m, k)`` ndarrays (:func:`solve_null_phases` passes a
    single ``(1, k)`` row), sweeping elements left to right.  The
    optimal phase for one element, holding the rest fixed, points
    exactly opposite the partial sum of the others; each update can only
    shrink a row's residual.  A row drops out of the active set once its
    residual is below ``tol`` or a full sweep fails to improve it
    meaningfully.  Returns the polished phases ``(m, k)`` and the final
    residuals ``(m,)``.
    """
    phases = np.array(phases, dtype=float)
    phasors = amps * np.exp(1j * phases)
    total = phasors.sum(axis=1)
    active = np.abs(total) > tol
    for _ in range(max_iterations):
        if not active.any():
            break
        before = np.abs(total)
        for i in range(amps.shape[1]):
            others = total - phasors[:, i]
            # Zero amplitudes never move; a zero partial sum means any
            # phase is equivalent, so those rows are left as they are.
            updatable = active & (amps[:, i] > 0.0) & (np.abs(others) > 0.0)
            if not updatable.any():
                continue
            new_phase = np.angle(-others)
            new_phasor = amps[:, i] * np.exp(1j * new_phase)
            phases[updatable, i] = new_phase[updatable]
            phasors[updatable, i] = new_phasor[updatable]
            total = np.where(updatable, others + new_phasor, total)
        resid = np.abs(total)
        active &= (resid > tol) & (resid <= before - tol * 0.5)
    return phases, np.abs(total)


def _clamped_acos(value: float) -> float:
    """acos with the argument clamped into [-1, 1] (float-dust safety)."""
    return math.acos(min(1.0, max(-1.0, value)))


def solve_null_phases(
    amplitudes: Sequence[float],
    tol: float = 1e-12,
    max_iterations: int = 200,
) -> list[float]:
    """Phases making a set of fixed-amplitude phasors sum to (near) zero.

    Exact analytic construction.  Let ``A`` be the largest amplitude and
    greedily split the remaining amplitudes into two groups ``B`` and
    ``C`` of near-equal sums (descending order, always into the lighter
    group; the classic bound gives ``|B - C| <= second-largest <= A``).
    Whenever the null is feasible — ``A <= B + C``, the polygon
    inequality — the three super-vectors ``(A, B, C)`` satisfy the
    triangle inequality, so the triangle closes: place ``A`` at angle 0
    and the two groups at the law-of-cosines angles on either side of
    ``pi``.  Members of a group share its angle.  When the null is
    infeasible the same formulas degenerate (the acos arguments clamp)
    into the collinear split achieving the unavoidable minimum
    ``A - (B + C)``.

    A single cyclic-coordinate-descent polish pass then scrubs floating-
    point dust; it can only reduce the residual.

    Returns phases in radians, one per amplitude.  Amplitudes of zero
    keep phase 0.
    """
    amps = [check_non_negative(f"amplitudes[{i}]", a) for i, a in enumerate(amplitudes)]
    n = len(amps)
    if n == 0:
        return []
    if n == 1:
        return [0.0]

    order = sorted(range(n), key=lambda i: -amps[i])
    dominant = order[0]
    if amps[dominant] <= 0.0:
        return [0.0] * n
    # The optimal phases are scale-invariant; normalising by the largest
    # amplitude keeps the squared terms below well clear of float
    # underflow for subnormal inputs.
    scale = amps[dominant]
    unit = [a / scale for a in amps]
    a_mag = 1.0

    # Greedy balanced partition of the rest into groups B and C.
    group_of: dict[int, int] = {}
    sums = [0.0, 0.0]
    for idx in order[1:]:
        lighter = 0 if sums[0] <= sums[1] else 1
        group_of[idx] = lighter
        sums[lighter] += unit[idx]
    b_mag, c_mag = sums

    # Close the triangle: A e^{i0} + B e^{i beta} + C e^{i gamma} = 0.
    # Denominators can underflow to zero for subnormal amplitudes; the
    # collinear split is the right degenerate answer there too.
    denom_b = 2.0 * a_mag * b_mag
    denom_c = 2.0 * a_mag * c_mag
    # reprolint: disable-next=RL-P001 (exact-zero guards against division by zero)
    if b_mag <= 0.0 or c_mag <= 0.0 or denom_b == 0.0 or denom_c == 0.0:
        beta = gamma = math.pi
    else:
        theta_b = _clamped_acos((a_mag**2 + b_mag**2 - c_mag**2) / denom_b)
        theta_c = _clamped_acos((a_mag**2 + c_mag**2 - b_mag**2) / denom_c)
        beta = math.pi - theta_b
        gamma = math.pi + theta_c

    phases = [0.0] * n
    for i in range(n):
        if i == dominant:
            phases[i] = 0.0
        elif amps[i] == 0.0:  # reprolint: disable=RL-P001 (exact-zero sentinel)
            phases[i] = 0.0
        else:
            phases[i] = beta if group_of[i] == 0 else gamma

    polished, _residuals = _descend(
        np.asarray([amps], dtype=float),
        np.asarray([phases], dtype=float),
        tol,
        max_iterations,
    )
    return [float(p) for p in polished[0]]


@dataclass(frozen=True)
class AntennaElement:
    """One transmit antenna of the charger array.

    Parameters
    ----------
    offset:
        Position of the element relative to the charger's reference point,
        in metres.
    tx_power:
        Radiated power of this element, watts.
    """

    offset: Point
    tx_power: float

    def __post_init__(self) -> None:
        check_positive("tx_power", self.tx_power)


def _uniform_linear_offsets(count: int, spacing: float) -> list[Point]:
    """Element offsets of a uniform linear array centred on the origin."""
    start = -(count - 1) * spacing / 2.0
    return [Point(start + i * spacing, 0.0) for i in range(count)]


@dataclass(frozen=True)
class ChargerArray:
    """A coherent multi-antenna wireless charger.

    Parameters
    ----------
    elements:
        The transmit elements.  At least one is required; spoofing needs at
        least two.
    propagation:
        Far-field propagation model supplying per-path amplitude and phase.
    pilot_offset:
        Displacement, in metres, of the victim's charging-presence pilot
        antenna from its energy-harvesting rectenna.  The spoof null is
        steered at the rectenna; at ``pilot_offset`` away the path lengths
        differ by a fraction of a wavelength, so the null does not hold and
        the pilot detector still reads a strong field.  Default is a
        quarter wavelength at 915 MHz (~8.2 cm), the scale of a separate
        antenna on the same sensor board.
    """

    elements: tuple[AntennaElement, ...]
    propagation: FriisModel = field(default_factory=FriisModel)
    pilot_offset: float = 0.082

    def __post_init__(self) -> None:
        if not self.elements:
            raise ValueError("ChargerArray requires at least one element")
        check_positive("pilot_offset", self.pilot_offset)

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def uniform_linear(
        cls,
        count: int,
        spacing: float = 0.164,
        tx_power_per_element: float = 1.0,
        propagation: FriisModel | None = None,
        pilot_offset: float = 0.082,
    ) -> "ChargerArray":
        """A uniform linear array of ``count`` equal-power elements.

        The default spacing is half a wavelength at 915 MHz.
        """
        if count < 1:
            raise ValueError(f"count must be >= 1, got {count}")
        check_positive("spacing", spacing)
        elements = tuple(
            AntennaElement(offset, tx_power_per_element)
            for offset in _uniform_linear_offsets(count, spacing)
        )
        return cls(
            elements=elements,
            propagation=propagation or FriisModel(),
            pilot_offset=pilot_offset,
        )

    # ------------------------------------------------------------------
    # Geometry and per-path quantities
    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        """Number of transmit elements."""
        return len(self.elements)

    @property
    def total_tx_power(self) -> float:
        """Total radiated power of the array, watts."""
        return sum(e.tx_power for e in self.elements)

    def element_positions(self, charger_position: Point) -> list[Point]:
        """Absolute element positions when the charger sits at the given point."""
        return [
            charger_position.translated(e.offset.x, e.offset.y) for e in self.elements
        ]

    def _path_quantities(
        self, charger_position: Point, observation: Point
    ) -> tuple[list[float], list[float]]:
        """Per-element (amplitude, path phase) at the observation point."""
        amplitudes: list[float] = []
        path_phases: list[float] = []
        for element, pos in zip(self.elements, self.element_positions(charger_position)):
            d = pos.distance_to(observation)
            amplitudes.append(self.propagation.field_amplitude(element.tx_power, d))
            path_phases.append(self.propagation.path_phase(d))
        return amplitudes, path_phases

    # ------------------------------------------------------------------
    # Fields and powers
    # ------------------------------------------------------------------
    def field_at(
        self,
        observation: Point,
        charger_position: Point,
        emitted_phases: Sequence[float],
    ) -> complex:
        """Coherent field phasor at ``observation`` for the given emission phases."""
        if len(emitted_phases) != self.size:
            raise ValueError(
                f"expected {self.size} phases, got {len(emitted_phases)}"
            )
        amplitudes, path_phases = self._path_quantities(charger_position, observation)
        total = 0j
        for amp, path, emitted in zip(amplitudes, path_phases, emitted_phases):
            total += amp * cmath.exp(1j * (emitted + path))
        return total

    def rf_power_at(
        self,
        observation: Point,
        charger_position: Point,
        emitted_phases: Sequence[float],
    ) -> float:
        """Coherent RF power (watts) at the observation point."""
        return abs(self.field_at(observation, charger_position, emitted_phases)) ** 2

    # ------------------------------------------------------------------
    # Phase solvers
    # ------------------------------------------------------------------
    def beamform_phases(self, charger_position: Point, target: Point) -> list[float]:
        """Emission phases aligning every wave in phase at ``target``."""
        _, path_phases = self._path_quantities(charger_position, target)
        return [-p for p in path_phases]

    def spoof_phases(self, charger_position: Point, target: Point) -> list[float]:
        """Emission phases steering a destructive null onto ``target``.

        The arriving phases must null out, so the solver works on the
        amplitudes alone and the path phases are then compensated exactly
        as in beamforming.
        """
        if self.size < 2:
            raise ValueError("spoofing requires an array of at least two elements")
        amplitudes, path_phases = self._path_quantities(charger_position, target)
        arrival_phases = solve_null_phases(amplitudes)
        return [a - p for a, p in zip(arrival_phases, path_phases)]

    def phases_for(
        self, mode: PhaseMode, charger_position: Point, target: Point
    ) -> list[float]:
        """Emission phases for the requested mode at the given geometry."""
        if mode == "beamform":
            return self.beamform_phases(charger_position, target)
        if mode == "spoof":
            return self.spoof_phases(charger_position, target)
        raise ValueError(f"unknown phase mode: {mode!r}")

    # ------------------------------------------------------------------
    # Victim-side observables
    # ------------------------------------------------------------------
    def pilot_point(self, target: Point, charger_position: Point) -> Point:
        """Location of the victim's pilot (charging-presence) antenna.

        Placed ``pilot_offset`` metres from the rectenna, perpendicular to
        the charger-victim axis so the displacement changes the per-element
        path lengths asymmetrically and the null does not carry over.
        """
        dx = target.x - charger_position.x
        dy = target.y - charger_position.y
        norm = math.hypot(dx, dy)
        if norm == 0.0:  # reprolint: disable=RL-P001 (exact-zero sentinel)
            return target.translated(self.pilot_offset, 0.0)
        # Unit vector perpendicular to the line of sight.
        ux, uy = -dy / norm, dx / norm
        return target.translated(ux * self.pilot_offset, uy * self.pilot_offset)

    def delivered_power(
        self,
        mode: PhaseMode,
        charger_position: Point,
        target: Point,
        rectenna: Rectenna,
    ) -> float:
        """Harvested DC power (watts) at the victim's rectenna."""
        phases = self.phases_for(mode, charger_position, target)
        return rectenna.harvest(self.rf_power_at(target, charger_position, phases))

    def pilot_power(
        self,
        mode: PhaseMode,
        charger_position: Point,
        target: Point,
    ) -> float:
        """RF power (watts) seen by the victim's pilot detector."""
        phases = self.phases_for(mode, charger_position, target)
        pilot = self.pilot_point(target, charger_position)
        return self.rf_power_at(pilot, charger_position, phases)
