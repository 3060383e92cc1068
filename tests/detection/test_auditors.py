"""Unit tests for the base-station detectors (no full simulation).

Detectors only need the event objects and a ``sim``-shaped accessor for
nodes, so a minimal stub keeps these tests fast and surgical.
"""

import numpy as np

from repro.detection.auditors import (
    DeathAfterChargeAuditor,
    NeglectMonitor,
    RandomVoltageAuditor,
    TrajectoryAnomalyDetector,
    default_detector_suite,
)
from repro.mc.charger import ChargeMode
from repro.network.node import SensorNode
from repro.sim.events import NodeDied, RequestIssued, ServiceCompleted
from repro.utils.geometry import Point


class StubTree:
    def __init__(self, connected=None):
        self._connected = connected

    def is_connected(self, node_id):
        return True if self._connected is None else node_id in self._connected


class StubNetwork:
    def __init__(self, nodes, connected=None):
        self.nodes = nodes
        self.routing_tree = StubTree(connected)

    def alive_mask(self):
        size = max(self.nodes, default=-1) + 1
        mask = np.zeros(size, dtype=bool)
        for node_id, node in self.nodes.items():
            mask[node_id] = node.alive
        return mask


class StubSim:
    def __init__(self, nodes=None, connected=None):
        self.network = StubNetwork(nodes or {}, connected)


def service_event(node_id=1, time=100.0, mode=ChargeMode.GENUINE,
                  claimed=8000.0, believed_after=10_000.0, capacity=10_800.0):
    return ServiceCompleted(
        time=time, node_id=node_id, start_time=time - 100.0, mode=mode,
        delivered_j=claimed if mode == ChargeMode.GENUINE else 0.0,
        believed_j=claimed, claimed_j=claimed, emission_j=2400.0,
        is_key=False, believed_energy_after_j=believed_after,
        battery_capacity_j=capacity,
    )


def death_event(node_id=1, time=200.0):
    return NodeDied(time=time, node_id=node_id, is_key=False,
                    was_spoofed=False, stranded_count=0)


def request_event(node_id=1, time=50.0):
    return RequestIssued(time=time, node_id=node_id, deadline=time + 1000.0,
                         energy_needed_j=100.0, is_key=False)


class TestDeathAfterCharge:
    def test_death_within_grace_detects(self):
        detector = DeathAfterChargeAuditor(grace_s=3600.0)
        sim = StubSim()
        assert detector.observe_service(service_event(time=100.0), sim) is None
        alarm = detector.observe_death(death_event(time=2000.0), sim)
        assert alarm is not None
        assert detector.detected

    def test_death_after_grace_is_fine(self):
        detector = DeathAfterChargeAuditor(grace_s=3600.0)
        sim = StubSim()
        detector.observe_service(service_event(time=100.0), sim)
        assert detector.observe_death(death_event(time=10_000.0), sim) is None
        assert not detector.detected

    def test_uncharged_death_ignored(self):
        detector = DeathAfterChargeAuditor()
        assert detector.observe_death(death_event(node_id=9), StubSim()) is None

    def test_threshold_tolerates_flags(self):
        detector = DeathAfterChargeAuditor(grace_s=3600.0, flag_threshold=2)
        sim = StubSim()
        detector.observe_service(service_event(node_id=1, time=100.0), sim)
        assert detector.observe_death(death_event(node_id=1, time=200.0), sim) is None
        detector.observe_service(service_event(node_id=2, time=300.0), sim)
        alarm = detector.observe_death(death_event(node_id=2, time=400.0), sim)
        assert alarm is not None

    def test_latest_service_counts(self):
        detector = DeathAfterChargeAuditor(grace_s=100.0)
        sim = StubSim()
        detector.observe_service(service_event(time=100.0), sim)
        detector.observe_service(service_event(time=5000.0), sim)
        alarm = detector.observe_death(death_event(time=5050.0), sim)
        assert alarm is not None


class TestTrajectoryAnomaly:
    def test_honest_claim_passes(self):
        detector = TrajectoryAnomalyDetector()
        event = service_event(claimed=8000.0, believed_after=10_000.0)
        assert detector.observe_service(event, StubSim()) is None

    def test_false_claim_detected(self):
        detector = TrajectoryAnomalyDetector()
        event = service_event(
            mode=ChargeMode.PRETEND, claimed=8000.0, believed_after=2000.0
        )
        alarm = detector.observe_service(event, StubSim())
        assert alarm is not None
        assert "claimed" in alarm.reason

    def test_spoof_passes_because_victim_is_fooled(self):
        # The victim credited itself the claim -> telemetry agrees.
        detector = TrajectoryAnomalyDetector()
        event = service_event(
            mode=ChargeMode.SPOOF, claimed=8000.0, believed_after=9_500.0
        )
        assert detector.observe_service(event, StubSim()) is None

    def test_capacity_clamp_not_penalised(self):
        detector = TrajectoryAnomalyDetector()
        # Claim exceeds capacity; telemetry capped at capacity: fine.
        event = service_event(
            claimed=12_000.0, believed_after=10_800.0, capacity=10_800.0
        )
        assert detector.observe_service(event, StubSim()) is None

    def test_tolerance_respected(self):
        detector = TrajectoryAnomalyDetector(tolerance=0.5)
        event = service_event(claimed=8000.0, believed_after=4100.0)
        assert detector.observe_service(event, StubSim()) is None

    def test_zero_claim_ignored(self):
        detector = TrajectoryAnomalyDetector()
        event = service_event(claimed=0.0, believed_after=0.0)
        assert detector.observe_service(event, StubSim()) is None


class TestRandomVoltageAuditor:
    def make_node(self, node_id, true_j, believed_j):
        node = SensorNode(node_id, Point(0, 0), battery_capacity_j=10_800.0)
        node.set_initial_energy(true_j / 10_800.0)
        node.receive_charge(0.0, max(believed_j - true_j, 0.0))
        return node

    def test_audit_catches_belief_gap(self):
        auditor = RandomVoltageAuditor(seed=1)
        node = self.make_node(3, true_j=2000.0, believed_j=10_000.0)
        sim = StubSim({3: node})
        auditor.observe_service(service_event(node_id=3, time=10.0), sim)
        outcome = auditor.perform_audit(100.0, sim)
        assert outcome.audit is not None
        assert outcome.audit.mismatch
        assert outcome.detection is not None

    def test_honest_node_passes_audit(self):
        auditor = RandomVoltageAuditor(seed=1)
        node = self.make_node(3, true_j=9000.0, believed_j=9000.0)
        sim = StubSim({3: node})
        auditor.observe_service(service_event(node_id=3, time=10.0), sim)
        outcome = auditor.perform_audit(100.0, sim)
        assert outcome.audit is not None
        assert not outcome.audit.mismatch
        assert outcome.detection is None

    def test_no_candidates_no_audit(self):
        auditor = RandomVoltageAuditor(seed=1)
        outcome = auditor.perform_audit(100.0, StubSim({}))
        assert outcome.audit is None

    def test_stranded_nodes_not_auditable(self):
        auditor = RandomVoltageAuditor(seed=1)
        node = self.make_node(3, true_j=2000.0, believed_j=10_000.0)
        sim = StubSim({3: node}, connected=set())  # nobody reachable
        auditor.observe_service(service_event(node_id=3, time=10.0), sim)
        assert auditor.perform_audit(100.0, sim).audit is None

    def test_lookback_expires_candidates(self):
        auditor = RandomVoltageAuditor(seed=1, lookback_s=1000.0)
        node = self.make_node(3, true_j=2000.0, believed_j=10_000.0)
        sim = StubSim({3: node})
        auditor.observe_service(service_event(node_id=3, time=10.0), sim)
        assert auditor.perform_audit(5000.0, sim).audit is None

    def test_dead_nodes_not_auditable(self):
        auditor = RandomVoltageAuditor(seed=1)
        node = self.make_node(3, true_j=2000.0, believed_j=10_000.0)
        node.set_consumption(1e9)
        node.advance_to(50.0)
        sim = StubSim({3: node})
        auditor.observe_service(service_event(node_id=3, time=10.0), sim)
        assert auditor.perform_audit(100.0, sim).audit is None

    def test_audit_times_are_exponential(self):
        auditor = RandomVoltageAuditor(seed=2, mean_interval_s=3600.0)
        times = [auditor.next_audit_time(0.0) for _ in range(200)]
        assert all(t > 0.0 for t in times)
        mean = sum(times) / len(times)
        assert 2500.0 < mean < 4700.0  # loose CLT check


class TestNeglectMonitor:
    def test_expired_requests_trigger(self):
        monitor = NeglectMonitor(expiry_threshold=0.3, min_requests=2)
        sim = StubSim()
        for node_id in (1, 2):
            monitor.observe_request(request_event(node_id=node_id), sim)
        assert monitor.observe_death(death_event(node_id=1), sim) is not None

    def test_served_requests_do_not_count(self):
        monitor = NeglectMonitor(expiry_threshold=0.3, min_requests=2)
        sim = StubSim()
        for node_id in (1, 2, 3):
            monitor.observe_request(request_event(node_id=node_id), sim)
        monitor.observe_service(service_event(node_id=1), sim)
        assert monitor.observe_death(death_event(node_id=1), sim) is None

    def test_min_requests_suppresses_early_alarm(self):
        monitor = NeglectMonitor(expiry_threshold=0.1, min_requests=50)
        sim = StubSim()
        monitor.observe_request(request_event(node_id=1), sim)
        assert monitor.observe_death(death_event(node_id=1), sim) is None

    def test_ratio_below_threshold_quiet(self):
        monitor = NeglectMonitor(expiry_threshold=0.5, min_requests=2)
        sim = StubSim()
        for node_id in range(1, 6):
            monitor.observe_request(request_event(node_id=node_id), sim)
            monitor.observe_service(service_event(node_id=node_id), sim)
        monitor.observe_request(request_event(node_id=99), sim)
        assert monitor.observe_death(death_event(node_id=99), sim) is None

    def test_duplicate_requests_counted_once(self):
        monitor = NeglectMonitor()
        sim = StubSim()
        monitor.observe_request(request_event(node_id=1), sim)
        monitor.observe_request(request_event(node_id=1), sim)
        assert monitor.total_requests == 1


class TestSuite:
    def test_default_suite_composition(self):
        names = {d.name for d in default_detector_suite()}
        assert names == {
            "death-after-charge",
            "voltage-audit",
            "trajectory-anomaly",
            "neglect",
        }

    def test_audit_interval_override(self):
        suite = default_detector_suite(seed=3, audit_interval_s=7200.0)
        auditor = next(d for d in suite if d.name == "voltage-audit")
        assert auditor.mean_interval_s == 7200.0

    def test_audit_interval_default_untouched(self):
        default = next(
            d for d in default_detector_suite() if d.name == "voltage-audit"
        )
        overridden = next(
            d
            for d in default_detector_suite(audit_interval_s=123.0)
            if d.name == "voltage-audit"
        )
        assert default.mean_interval_s != 123.0
        assert overridden.mean_interval_s == 123.0

    def test_audit_interval_override_matches_mutation(self):
        # The constructor path must give the same RNG stream as the old
        # post-construction mutation (benchmarks rely on byte-stable
        # tables across this refactor).
        ctor = next(
            d
            for d in default_detector_suite(seed=5, audit_interval_s=43200.0)
            if d.name == "voltage-audit"
        )
        mutated = next(
            d for d in default_detector_suite(seed=5) if d.name == "voltage-audit"
        )
        mutated.mean_interval_s = 43200.0
        assert ctor.next_audit_time(0.0) == mutated.next_audit_time(0.0)

    def test_detection_latches(self):
        detector = DeathAfterChargeAuditor(grace_s=3600.0)
        sim = StubSim()
        detector.observe_service(service_event(time=100.0), sim)
        detector.observe_death(death_event(time=200.0), sim)
        first_time = detector.detection_time
        detector.observe_service(service_event(time=5000.0), sim)
        detector.observe_death(death_event(time=5100.0), sim)
        assert detector.detection_time == first_time


class TestIncludeTwin:
    def test_default_excludes_twin(self):
        assert "twin" not in {d.name for d in default_detector_suite(seed=1)}
