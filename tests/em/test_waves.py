"""Tests for complex-phasor wave superposition."""

import cmath
import math

import pytest

from repro.em.waves import (
    coherent_power,
    field_phasor,
    incoherent_power,
    phasor,
    superpose,
)
from repro.utils.geometry import Point


class TestPhasor:
    def test_amplitude_and_phase(self):
        p = phasor(2.0, math.pi / 2.0)
        assert abs(p) == pytest.approx(2.0)
        assert cmath.phase(p) == pytest.approx(math.pi / 2.0)

    def test_rejects_negative_amplitude(self):
        with pytest.raises(ValueError):
            phasor(-1.0, 0.0)


class TestSuperposition:
    def test_in_phase_amplitudes_add(self):
        total = superpose([phasor(1.0, 0.0), phasor(2.0, 0.0)])
        assert abs(total) == pytest.approx(3.0)

    def test_anti_phase_cancels(self):
        total = superpose([phasor(1.0, 0.0), phasor(1.0, math.pi)])
        assert abs(total) == pytest.approx(0.0, abs=1e-12)

    def test_coherent_power_constructive_quadruples(self):
        # Two equal waves in phase: 4x one wave's power, not 2x.
        one = coherent_power([phasor(1.0, 0.0)])
        both = coherent_power([phasor(1.0, 0.0), phasor(1.0, 0.0)])
        assert both == pytest.approx(4.0 * one)

    def test_incoherent_power_is_sum(self):
        phasors = [phasor(1.0, 0.0), phasor(1.0, math.pi)]
        assert incoherent_power(phasors) == pytest.approx(2.0)
        # The whole point: coherent differs from incoherent.
        assert coherent_power(phasors) == pytest.approx(0.0, abs=1e-12)

    def test_quadrature_power(self):
        phasors = [phasor(1.0, 0.0), phasor(1.0, math.pi / 2.0)]
        assert coherent_power(phasors) == pytest.approx(2.0)


class TestFieldPhasor:
    def test_power_convention(self):
        p = field_phasor(0.5, Point(0, 0), Point(3, 4), wavelength=0.3)
        assert abs(p) ** 2 == pytest.approx(0.25)

    def test_path_phase_accumulation(self):
        lam = 0.3
        p = field_phasor(1.0, Point(0, 0), Point(lam, 0), wavelength=lam)
        # One full wavelength: phase wraps back to 0.
        assert cmath.phase(p) == pytest.approx(0.0, abs=1e-9)

    def test_half_wavelength_flips_sign(self):
        lam = 0.3
        p = field_phasor(1.0, Point(0, 0), Point(lam / 2.0, 0), wavelength=lam)
        assert cmath.phase(p) == pytest.approx(math.pi, abs=1e-9) or cmath.phase(
            p
        ) == pytest.approx(-math.pi, abs=1e-9)

    def test_rejects_bad_wavelength(self):
        with pytest.raises(ValueError):
            field_phasor(1.0, Point(0, 0), Point(1, 0), wavelength=0.0)
