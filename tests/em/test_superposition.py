"""Tests for the Section II superposition experiment (EXP-01's engine)."""

import math

import numpy as np
import pytest

from repro.em.rectenna import Rectenna
from repro.em.superposition import (
    cancellation_depth_db,
    fit_two_wave_model,
    superposition_sweep,
    two_wave_rf_power,
)
from repro.utils.rng import make_rng


def full_sweep(points=73, **kwargs):
    offsets = [i * 2.0 * math.pi / (points - 1) for i in range(points)]
    return superposition_sweep(offsets, **kwargs)


class TestTwoWaveRfPower:
    def test_constructive(self):
        assert two_wave_rf_power(1.0, 1.0, 0.0) == pytest.approx(4.0)

    def test_destructive(self):
        assert two_wave_rf_power(1.0, 1.0, math.pi) == pytest.approx(0.0, abs=1e-12)

    def test_quadrature(self):
        assert two_wave_rf_power(1.0, 1.0, math.pi / 2.0) == pytest.approx(2.0)

    def test_unequal_waves_leave_residual(self):
        p = two_wave_rf_power(1.0, 0.25, math.pi)
        assert p == pytest.approx((1.0 - 0.5) ** 2)

    def test_never_negative(self):
        for dphi in np.linspace(0, 2 * math.pi, 100):
            assert two_wave_rf_power(0.7, 0.7, float(dphi)) >= 0.0

    def test_two_wave_rf_power_array_matches_scalar(self):
        offsets = np.linspace(0.0, 2.0 * math.pi, 33)
        batch = two_wave_rf_power(0.01, 0.004, offsets)
        for d, p in zip(offsets, batch):
            assert p == pytest.approx(
                two_wave_rf_power(0.01, 0.004, float(d)), rel=1e-15, abs=0.0
            )
        assert batch.min() >= 0.0


class TestSweep:
    def test_shapes_and_keys(self):
        sweep = full_sweep()
        assert set(sweep) == {"phase_offsets", "rf_power", "harvested", "incoherent_rf"}
        assert all(len(v) == 73 for v in sweep.values())

    def test_incoherent_is_constant(self):
        sweep = full_sweep(wave_power_w=0.01)
        assert np.allclose(sweep["incoherent_rf"], 0.02)

    def test_null_at_pi(self):
        sweep = full_sweep()
        idx = np.argmin(np.abs(sweep["phase_offsets"] - math.pi))
        assert sweep["rf_power"][idx] == pytest.approx(0.0, abs=1e-12)
        assert sweep["harvested"][idx] == 0.0

    def test_peak_at_zero(self):
        sweep = full_sweep(wave_power_w=0.01)
        assert sweep["rf_power"][0] == pytest.approx(0.04)

    def test_coherent_oscillates_about_incoherent(self):
        sweep = full_sweep()
        assert sweep["rf_power"].max() > sweep["incoherent_rf"][0]
        assert sweep["rf_power"].min() < sweep["incoherent_rf"][0]

    def test_harvested_uses_rectenna(self):
        rect = Rectenna(saturation_w=1e-6)
        sweep = full_sweep(rectenna=rect)
        assert sweep["harvested"].max() <= 1e-6

    def test_noise_requires_rng(self):
        with pytest.raises(ValueError):
            full_sweep(noise_std_w=1e-4)

    def test_negative_noise_std_rejected(self):
        # Regression: a negative noise_std_w used to be silently accepted
        # (it slipped past the "> 0 requires an rng" guard) and then fed
        # to rng.normal as a negative scale.
        with pytest.raises(ValueError, match="noise_std_w"):
            full_sweep(noise_std_w=-1e-4)
        with pytest.raises(ValueError, match="noise_std_w"):
            full_sweep(noise_std_w=-1e-4, rng=make_rng(3, "neg-noise"))

    def test_noise_is_applied_and_non_negative(self):
        rng = make_rng(3, "sweep-noise")
        noisy = full_sweep(noise_std_w=1e-3, rng=rng)
        clean = full_sweep()
        assert not np.allclose(noisy["harvested"], clean["harvested"])
        assert (noisy["harvested"] >= 0.0).all()

    def test_unequal_amplitude_ratio(self):
        sweep = full_sweep(amplitude_ratio=0.5)
        # Residual at pi: (1 - 0.5)^2 * P1.
        idx = np.argmin(np.abs(sweep["phase_offsets"] - math.pi))
        assert sweep["rf_power"][idx] == pytest.approx(0.25 * 0.01, rel=1e-6)


class TestDepthAndFit:
    def test_depth_infinite_for_perfect_null(self):
        assert cancellation_depth_db(full_sweep()) == math.inf

    def test_depth_finite_for_unequal_waves(self):
        depth = cancellation_depth_db(full_sweep(amplitude_ratio=0.5))
        expected = 10.0 * math.log10((1.5**2) / (0.5**2))
        assert depth == pytest.approx(expected, rel=1e-6)

    def test_depth_rejects_empty(self):
        with pytest.raises(ValueError):
            cancellation_depth_db({"rf_power": np.array([])})

    def test_fit_recovers_model(self):
        sweep = full_sweep(wave_power_w=0.01)
        fit = fit_two_wave_model(sweep["phase_offsets"], sweep["rf_power"])
        assert fit.p_sum == pytest.approx(0.02, rel=1e-6)
        assert fit.p_cross == pytest.approx(0.02, rel=1e-6)
        assert fit.r_squared == pytest.approx(1.0)
        assert fit.modulation_index == pytest.approx(1.0, rel=1e-6)

    def test_fit_modulation_below_one_for_unequal(self):
        sweep = full_sweep(amplitude_ratio=0.5)
        fit = fit_two_wave_model(sweep["phase_offsets"], sweep["rf_power"])
        assert 0.0 < fit.modulation_index < 1.0

    def test_fit_requires_three_points(self):
        with pytest.raises(ValueError):
            fit_two_wave_model([0.0, 1.0], [1.0, 2.0])

    def test_fit_tolerates_noise(self):
        rng = make_rng(11, "fit-noise")
        offsets = np.linspace(0, 2 * math.pi, 100)
        clean = np.array([two_wave_rf_power(0.01, 0.01, d) for d in offsets])
        noisy = clean + rng.normal(0.0, 5e-4, clean.shape)
        fit = fit_two_wave_model(offsets, noisy)
        assert fit.p_sum == pytest.approx(0.02, rel=0.1)
        assert fit.r_squared > 0.9
