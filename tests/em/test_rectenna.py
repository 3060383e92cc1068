"""Tests for the nonlinear rectenna harvesting model."""

import math

import numpy as np
import pytest

from repro.em.rectenna import Rectenna
from repro.em.waves import phasor


class TestEfficiencyCurve:
    def test_zero_below_sensitivity(self):
        rect = Rectenna(sensitivity_w=1e-4)
        assert rect.harvest(0.99e-4) == 0.0
        assert rect.efficiency(0.5e-4) == 0.0

    def test_turns_on_at_sensitivity(self):
        rect = Rectenna(sensitivity_w=1e-4)
        assert rect.harvest(1.01e-4) > 0.0

    def test_efficiency_monotone_above_sensitivity(self):
        rect = Rectenna()
        powers = [1e-3, 1e-2, 1e-1, 1.0]
        effs = [rect.efficiency(p) for p in powers]
        assert effs == sorted(effs)

    def test_efficiency_bounded_by_peak(self):
        rect = Rectenna(peak_efficiency=0.55)
        assert rect.efficiency(1e6) <= 0.55

    def test_half_peak_at_knee(self):
        rect = Rectenna(knee_power_w=5e-3, sensitivity_w=0.0)
        assert rect.efficiency(5e-3) == pytest.approx(0.55 / 2.0)

    def test_harvest_never_exceeds_input(self):
        rect = Rectenna()
        for p in (1e-4, 1e-2, 1.0, 100.0):
            assert rect.harvest(p) <= p

    def test_saturation_caps_output(self):
        rect = Rectenna(saturation_w=0.5)
        assert rect.harvest(1e6) == 0.5

    def test_harvest_monotone(self):
        rect = Rectenna()
        harvests = [rect.harvest(p) for p in (1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0)]
        assert harvests == sorted(harvests)

    def test_rejects_negative_power(self):
        with pytest.raises(ValueError):
            Rectenna().harvest(-1.0)

    def test_rejects_zero_peak_efficiency(self):
        with pytest.raises(ValueError):
            Rectenna(peak_efficiency=0.0)


class TestArrayInputs:
    def test_rectenna_array_matches_scalar(self):
        rect = Rectenna()
        powers = np.array([0.0, 1e-6, 80e-6, 1e-3, 0.05, 5.0])
        harvested = rect.harvest(powers)
        efficiencies = rect.efficiency(powers)
        for p, h, eta in zip(powers, harvested, efficiencies):
            assert h == rect.harvest(float(p))
            assert eta == rect.efficiency(float(p))

    def test_rectenna_array_validation(self):
        with pytest.raises(ValueError, match="rf_power_w"):
            Rectenna().harvest(np.array([1e-3, -1e-3]))


class TestFieldInterface:
    def test_harvest_from_field_uses_power_convention(self):
        rect = Rectenna()
        field = phasor(0.1, 1.2)  # power 0.01 W
        assert rect.harvest_from_field(field) == pytest.approx(rect.harvest(0.01))


class TestNonlinearSuperposition:
    """The effect the paper's Section II demonstrates."""

    def test_destructive_pair_forfeits_all_harvest(self):
        rect = Rectenna()
        waves = [phasor(0.1, 0.0), phasor(0.1, math.pi)]
        gap = rect.superposition_gap(waves)
        individual = 2.0 * rect.harvest(0.01)
        assert gap == pytest.approx(individual)

    def test_constructive_pair_gains_over_independent(self):
        rect = Rectenna()
        waves = [phasor(0.05, 0.0), phasor(0.05, 0.0)]
        # Constructive: harvest(4 P) with rising efficiency beats 2*harvest(P).
        assert rect.superposition_gap(waves) < 0.0

    def test_gap_zero_for_single_wave(self):
        rect = Rectenna()
        assert rect.superposition_gap([phasor(0.1, 0.3)]) == pytest.approx(0.0)

    def test_sub_sensitivity_residual_harvests_nothing(self):
        # An imperfect null whose residual is below the diode threshold
        # still yields exactly zero — the attacker's margin of error.
        rect = Rectenna(sensitivity_w=80e-6)
        residual_amplitude = math.sqrt(50e-6)
        waves = [
            phasor(0.1, 0.0),
            phasor(0.1 - residual_amplitude, math.pi),
        ]
        coherent = abs(sum(waves)) ** 2
        assert coherent < rect.sensitivity_w
        assert rect.harvest(coherent) == 0.0
