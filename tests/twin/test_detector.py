"""End-to-end tests for the streaming twin detector.

The three residual families against the three chargers they exist for:
benign (no alarms, zero residuals), CSA (death divergence — victims die
on paper-full batteries), and command spoofing (telemetry divergence —
each truncated session leaves a sub-tolerance gap the CUSUM accumulates).
"""

import pytest

from repro.attack.attacker import CsaAttacker
from repro.attack.command_spoof import CommandSpoofAttacker
from repro.sim.benign import BenignController
from repro.sim.scenario import ScenarioConfig
from repro.sim.wrsn_sim import WrsnSimulation
from repro.twin.detector import TwinDetector
from repro.twin.feed import SimStreamPublisher
from repro.twin.stream import (
    AuditObservation,
    ChargeCommitment,
    DeathObservation,
    NetworkSnapshot,
    ObservationStream,
    RequestObservation,
)

CFG = ScenarioConfig(node_count=60, key_count=6, horizon_days=40.0)


def run_with_twin(controller, cfg=CFG, seed=3):
    twin = TwinDetector()
    sim = WrsnSimulation(
        cfg.build_network(seed=seed),
        cfg.build_charger(),
        controller,
        detectors=[twin],
        horizon_s=cfg.horizon_s,
        hooks=[SimStreamPublisher(twin.stream)],
    )
    return sim.run(), twin


class TestEndToEnd:
    def test_benign_run_stays_clean(self):
        result, twin = run_with_twin(BenignController())
        assert not twin.detected
        assert result.detections == []
        # An honest feed produces (numerically) zero divergence.
        assert all(s.residual <= 1e-9 for s in twin.scores)

    def test_csa_detected_via_death_divergence(self):
        result, twin = run_with_twin(CsaAttacker(key_count=CFG.key_count))
        assert twin.detected
        twin_alarms = [d for d in result.detections if d.detector == "twin"]
        assert twin_alarms
        assert twin.first_alarm is not None
        assert twin.first_alarm.kind == "death"
        # The signature: the victim died holding most of a battery on paper.
        assert twin.first_alarm.residual > 0.5
        # CSA fools the victim's own belief, so telemetry agrees with the
        # claim: no telemetry residual ever fires.
        telemetry = [s for s in twin.scores if s.kind == "telemetry"]
        assert all(s.residual <= 1e-9 for s in telemetry)

    def test_csa_alarm_surfaces_at_observation_time(self):
        # Hooks run before detectors for the same event, so the alarm's
        # trace record carries the triggering observation's timestamp.
        result, twin = run_with_twin(CsaAttacker(key_count=CFG.key_count))
        twin_alarms = [d for d in result.detections if d.detector == "twin"]
        assert twin_alarms[0].time == twin.first_alarm.time

    def test_command_spoof_detected_via_telemetry_cusum(self):
        result, twin = run_with_twin(
            CommandSpoofAttacker(key_count=CFG.key_count, stop_fraction=0.8)
        )
        assert twin.detected
        assert twin.first_alarm.kind == "telemetry"
        # Each individual session's shortfall sits under the trajectory
        # detector's 25% tolerance — only accumulation catches it.
        assert twin.first_alarm.residual < 0.25
        assert twin.first_alarm.cusum >= twin.scorer.cusum_h

    def test_detection_latency_is_reported_not_just_detected(self):
        _, twin = run_with_twin(CsaAttacker(key_count=CFG.key_count))
        assert twin.detection_time is not None
        assert 0.0 < twin.detection_time < CFG.horizon_s


class TestObservationHandling:
    def make_started(self):
        twin = TwinDetector()
        twin.stream.publish(
            NetworkSnapshot(
                time=0.0,
                capacity_j=(100.0, 100.0),
                believed_j=(100.0, 100.0),
                consumption_w=(0.1, 0.1),
                alive=(True, True),
            )
        )
        return twin

    def test_without_snapshot_observations_pass_unjudged(self):
        twin = TwinDetector()
        twin.stream.publish(DeathObservation(time=10.0, node_id=0))
        assert twin.scores == []
        assert not twin.detected

    def test_charge_commitment_scores_telemetry_gap(self):
        twin = self.make_started()
        twin.stream.publish(
            ChargeCommitment(
                time=100.0, node_id=0, claimed_j=50.0,
                telemetry_energy_j=70.0, capacity_j=100.0,
            )
        )
        (score,) = twin.scores
        assert score.kind == "telemetry"
        # predicted after credit: min(100, 100 - 0.1*100 + 50) = 100
        assert score.residual == pytest.approx(0.3)

    def test_audit_scores_then_recalibrates(self):
        twin = self.make_started()
        twin.stream.publish(AuditObservation(time=0.0, node_id=1,
                                             true_energy_j=60.0))
        (score,) = twin.scores
        assert score.kind == "audit"
        assert score.residual == pytest.approx(0.4)
        assert twin.predictor.predicted_energy_j(1) == pytest.approx(60.0)

    def test_requests_advance_clock_without_scoring(self):
        twin = self.make_started()
        twin.stream.publish(
            RequestObservation(time=200.0, node_id=0, energy_needed_j=30.0)
        )
        assert twin.scores == []
        assert twin.predictor.predicted_energy_j(0) == pytest.approx(80.0)

    def test_external_stream_is_honoured(self):
        stream = ObservationStream()
        twin = TwinDetector(stream=stream)
        assert twin.stream is stream
