"""Tests for the physical-layer spoof report."""

import math

import pytest

from repro.attack.spoofing import execute_spoof
from repro.em.charger_array import ChargerArray
from repro.em.rectenna import Rectenna
from repro.mc.charger import ChargeMode, ChargingHardware, default_charging_hardware


@pytest.fixture(scope="module")
def report():
    return execute_spoof(default_charging_hardware())


class TestSpoofReport:
    def test_harvest_is_nulled(self, report):
        assert report.harvested_w == 0.0

    def test_matches_simulator_rate(self, report):
        hardware = default_charging_hardware()
        assert report.harvested_w == pytest.approx(hardware.spoof_rate_w)

    def test_pilot_still_trips(self, report):
        assert report.pilot_tripped
        assert report.pilot_rf_w >= default_charging_hardware().presence_threshold_w

    def test_rectenna_rf_far_below_pilot(self, report):
        assert report.rf_at_rectenna_w < report.pilot_rf_w / 100.0

    def test_suppression_infinite_for_perfect_null(self, report):
        assert math.isinf(report.suppression_db)

    def test_genuine_reference_positive(self, report):
        assert report.genuine_harvest_w > 1.0

    def test_one_phase_per_element(self, report):
        assert len(report.phases_rad) == default_charging_hardware().array.size


def exp02_hardware(k: int) -> ChargingHardware:
    """The EXP-02 null-steering hardware with ``k`` antennas."""
    array = ChargerArray.uniform_linear(k, spacing=0.06, tx_power_per_element=3.0)
    rectenna = Rectenna(
        sensitivity_w=80e-6, peak_efficiency=0.55, knee_power_w=0.05,
        saturation_w=5.0,
    )
    return ChargingHardware(array=array, rectenna=rectenna, service_distance_m=0.1)


class TestReportReadsHardware:
    """The report and the simulator read the very same numbers, bit for bit."""

    @pytest.mark.parametrize(
        "k", [None, 2, 4, 6, 8], ids=lambda k: "default" if k is None else f"exp02-k{k}"
    )
    def test_pilot_and_harvest_equal_hardware(self, k):
        hardware = default_charging_hardware() if k is None else exp02_hardware(k)
        report = execute_spoof(hardware)
        assert report.pilot_rf_w == hardware.pilot_rf_power_w(ChargeMode.SPOOF)
        assert report.harvested_w == hardware.spoof_rate_w
