"""The concrete base-station detectors.

Each detector captures one natural defence and one reason a naive attack
fails; together they define the stealth envelope CSA plans inside:

========================  =============================================
Detector                  What defeats a naive attacker
========================  =============================================
DeathAfterChargeAuditor   killing victims too close to the fake charge
RandomVoltageAuditor      leaving victims spoofed-but-alive too long
TrajectoryAnomalyDetector claiming charges the victim never noticed
NeglectMonitor            abandoning the charging duty altogether
========================  =============================================
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.detection.monitors import AuditOutcome, Detector
from repro.sim.events import (
    AuditPerformed,
    DetectionRaised,
    NodeDied,
    RequestIssued,
    ServiceCompleted,
)
from repro.utils.rng import coerce_rng
from repro.utils.validation import (
    check_positive,
    check_probability,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.wrsn_sim import WrsnSimulation

__all__ = [
    "DeathAfterChargeAuditor",
    "NeglectMonitor",
    "RandomVoltageAuditor",
    "TrajectoryAnomalyDetector",
    "default_detector_suite",
]


class DeathAfterChargeAuditor(Detector):
    """Flags nodes that die during or shortly after a completed charge.

    A genuinely charged node has a full battery; it should live for its
    whole discharge cycle and re-request long before dying.  A node that
    drops dead within ``grace_s`` of a charge is therefore either broken
    hardware or evidence of a fake charge.  The auditor tolerates
    ``flag_threshold - 1`` such deaths (sporadic hardware failures exist)
    before raising the alarm.

    Parameters
    ----------
    grace_s:
        The suspicious-death window after a service ends.  Default 2 h.
    flag_threshold:
        Number of suspicious deaths required to conclude malice.
    """

    name = "death-after-charge"

    def __init__(self, grace_s: float = 7_200.0, flag_threshold: int = 1) -> None:
        super().__init__()
        self.grace_s = check_positive("grace_s", grace_s)
        if flag_threshold < 1:
            raise ValueError(f"flag_threshold must be >= 1, got {flag_threshold}")
        self.flag_threshold = flag_threshold
        self.flags: list[tuple[float, int]] = []
        self._last_service_end: dict[int, float] = {}

    def observe_service(
        self, event: ServiceCompleted, sim: "WrsnSimulation"
    ) -> DetectionRaised | None:
        self._last_service_end[event.node_id] = event.time
        return None

    def observe_death(
        self, event: NodeDied, sim: "WrsnSimulation"
    ) -> DetectionRaised | None:
        last_end = self._last_service_end.get(event.node_id)
        if last_end is None:
            return None
        if event.time - last_end <= self.grace_s:
            self.flags.append((event.time, event.node_id))
            if len(self.flags) >= self.flag_threshold:
                return self._raise(
                    event.time,
                    f"{len(self.flags)} node(s) died within {self.grace_s:.0f}s "
                    "of a completed charge",
                    node_id=event.node_id,
                )
        return None


class RandomVoltageAuditor(Detector):
    """Poisson spot-audits of recently charged nodes' true voltage.

    Telemetry is cheap but spoofable (the node itself is fooled); a
    calibrated voltage read-out is trustworthy but expensive, so the base
    station samples: at exponential intervals it picks one alive node
    charged within the lookback window and compares true energy against
    the node's belief.  A spoofed node fails the comparison instantly.

    This detector is why CSA caps each victim's *exposure* — the time it
    spends spoofed-but-alive.

    Parameters
    ----------
    mean_interval_s:
        Mean seconds between audits.  Default 2 days — calibrated voltage
        read-outs are expensive maintenance operations, not telemetry.
    lookback_s:
        Only nodes charged within this window are audit candidates.
    mismatch_ratio:
        Alarm when true energy < ``mismatch_ratio`` × believed energy.
    seed:
        Audit-timing and target-choice randomness.
    """

    name = "voltage-audit"

    def __init__(
        self,
        mean_interval_s: float = 172_800.0,
        lookback_s: float = 604_800.0,
        mismatch_ratio: float = 0.5,
        seed: int | np.random.Generator = 0,
    ) -> None:
        super().__init__()
        self.mean_interval_s = check_positive("mean_interval_s", mean_interval_s)
        self.lookback_s = check_positive("lookback_s", lookback_s)
        self.mismatch_ratio = check_probability("mismatch_ratio", mismatch_ratio)
        self._rng = coerce_rng(seed, "voltage-auditor")
        self._recent_services: dict[int, float] = {}
        self.audits_performed = 0

    def observe_service(
        self, event: ServiceCompleted, sim: "WrsnSimulation"
    ) -> DetectionRaised | None:
        self._recent_services[event.node_id] = event.time
        return None

    def next_audit_time(self, now: float) -> float | None:
        return now + float(self._rng.exponential(self.mean_interval_s))

    def perform_audit(self, now: float, sim: "WrsnSimulation") -> AuditOutcome:
        # Only alive, *reachable* nodes can answer an audit query: a node
        # stranded from the base station is out of contact entirely.
        # Liveness comes straight off the ledger's alive array, not a
        # per-node object walk.
        tree = sim.network.routing_tree
        alive = sim.network.alive_mask()
        candidates = sorted(
            node_id
            for node_id, when in self._recent_services.items()
            if now - when <= self.lookback_s
            and alive[node_id]
            and tree.is_connected(node_id)
        )
        if not candidates:
            return AuditOutcome()
        node_id = int(candidates[self._rng.integers(0, len(candidates))])
        node = sim.network.nodes[node_id]
        self.audits_performed += 1
        mismatch = node.energy_j < self.mismatch_ratio * node.believed_energy_j
        audit = AuditPerformed(
            time=now,
            detector=self.name,
            node_id=node_id,
            true_energy_j=node.energy_j,
            believed_energy_j=node.believed_energy_j,
            mismatch=mismatch,
        )
        detection = None
        if mismatch:
            detection = self._raise(
                now,
                f"audited node {node_id} holds {node.energy_j:.0f} J but "
                f"believes {node.believed_energy_j:.0f} J",
                node_id=node_id,
            )
        return AuditOutcome(audit=audit, detection=detection)


class TrajectoryAnomalyDetector(Detector):
    """Cross-checks the charger's claims against node telemetry.

    After every claimed service the base station reads the victim's own
    (believed) energy report.  A claim of delivering ``claimed_j`` joules
    that leaves the victim reporting far less than that is a lie the
    victim itself exposes — which is exactly why a competent spoofer must
    radiate and fool the victim's indicator, not merely park and log.

    Parameters
    ----------
    tolerance:
        Fraction of the claim the telemetry may fall short by before the
        alarm fires.  Default 0.25.
    """

    name = "trajectory-anomaly"

    def __init__(self, tolerance: float = 0.25) -> None:
        super().__init__()
        self.tolerance = check_probability("tolerance", tolerance)

    def observe_service(
        self, event: ServiceCompleted, sim: "WrsnSimulation"
    ) -> DetectionRaised | None:
        if event.claimed_j <= 0.0:
            return None
        expected = min(event.battery_capacity_j, event.claimed_j)
        if event.believed_energy_after_j < expected * (1.0 - self.tolerance):
            return self._raise(
                event.time,
                f"charger claimed {event.claimed_j:.0f} J to node "
                f"{event.node_id} but its telemetry reports only "
                f"{event.believed_energy_after_j:.0f} J",
                node_id=event.node_id,
            )
        return None


class NeglectMonitor(Detector):
    """Alarms when too many requesters die unserved.

    Even a charger that spoofs flawlessly must still *behave* like a
    charger.  This monitor tracks the fraction of charging requests whose
    node died before any service arrived; past ``expiry_threshold`` (with
    at least ``min_requests`` observed) the base station concludes the
    charger has abandoned its duty.

    Parameters
    ----------
    expiry_threshold:
        Tolerated fraction of expired (died-unserved) requests.
    min_requests:
        Minimum requests observed before the ratio is meaningful.
    """

    name = "neglect"

    def __init__(self, expiry_threshold: float = 0.3, min_requests: int = 10) -> None:
        super().__init__()
        self.expiry_threshold = check_probability(
            "expiry_threshold", expiry_threshold
        )
        if min_requests < 1:
            raise ValueError(f"min_requests must be >= 1, got {min_requests}")
        self.min_requests = min_requests
        self.total_requests = 0
        self.expired_requests = 0
        self._outstanding: set[int] = set()

    def observe_request(
        self, event: RequestIssued, sim: "WrsnSimulation"
    ) -> DetectionRaised | None:
        if event.node_id not in self._outstanding:
            self.total_requests += 1
            self._outstanding.add(event.node_id)
        return None

    def observe_service(
        self, event: ServiceCompleted, sim: "WrsnSimulation"
    ) -> DetectionRaised | None:
        self._outstanding.discard(event.node_id)
        return None

    def observe_death(
        self, event: NodeDied, sim: "WrsnSimulation"
    ) -> DetectionRaised | None:
        if event.node_id not in self._outstanding:
            return None
        self._outstanding.discard(event.node_id)
        self.expired_requests += 1
        if self.total_requests < self.min_requests:
            return None
        ratio = self.expired_requests / self.total_requests
        if ratio > self.expiry_threshold:
            return self._raise(
                event.time,
                f"{self.expired_requests}/{self.total_requests} charging "
                f"requests expired unserved ({ratio:.0%})",
                node_id=event.node_id,
            )
        return None


def default_detector_suite(
    seed: int = 0,
    *,
    audit_interval_s: float | None = None,
) -> list[Detector]:
    """The full defender loadout with default thresholds.

    ``audit_interval_s`` overrides the voltage auditor's mean audit
    interval through its constructor — the supported way to sweep audit
    intensity (EXP-07), rather than locating the auditor by name in the
    returned list and mutating it in place.

    The streaming twin is not part of this suite: it needs an
    observation feed wired into the simulation, which
    ``run_attack(..., twin=True)`` builds alongside it.
    """
    if audit_interval_s is None:
        voltage_auditor = RandomVoltageAuditor(seed=seed)
    else:
        voltage_auditor = RandomVoltageAuditor(
            mean_interval_s=audit_interval_s, seed=seed
        )
    return [
        DeathAfterChargeAuditor(),
        voltage_auditor,
        TrajectoryAnomalyDetector(),
        NeglectMonitor(),
    ]
