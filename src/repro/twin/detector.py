"""The twin detector: streaming divergence, Detector-compatible surface.

:class:`TwinDetector` subscribes to an :class:`~repro.twin.stream.ObservationStream`,
drives a :class:`~repro.twin.predictor.TwinPredictor` along it, and scores
three residual families through one :class:`~repro.twin.anomaly.AnomalyScorer`:

* **death divergence** — predicted energy still on the books when a node
  is observed dead, as a fraction of its capacity.  The CSA signature:
  spoofed victims die holding ~0.8 of a battery on paper.
* **telemetry divergence** — claimed-versus-reported residual after each
  service.  Zero under CSA (the victim is fooled too), but it catches
  command spoofing, where the victim's own telemetry undercuts the claim.
* **audit divergence** — predicted-versus-measured truth when a spot
  audit happens to run; the twin then recalibrates to the measurement.

Request observations advance the twin's clock but deliberately contribute
no residual: under probabilistic arrival lag, request timing is noisy in
a way energy accounting is not, and scoring it would buy false alarms for
no detection power.

The class satisfies the :class:`~repro.detection.monitors.Detector` ABC so
it slots into the existing suite unchanged.  Because simulation hooks run
before detectors for every emitted event, an alarm triggered by an
observation is surfaced by the very same event's ``observe_*`` call — the
detection timestamp equals the observation that caused it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.detection.monitors import Detector
from repro.sim.events import DetectionRaised, NodeDied, RequestIssued, ServiceCompleted
from repro.twin.anomaly import AnomalyScore, AnomalyScorer
from repro.twin.predictor import TwinPredictor
from repro.twin.stream import (
    AuditObservation,
    ChargeCommitment,
    ConsumptionUpdate,
    DeathObservation,
    NetworkSnapshot,
    Observation,
    ObservationStream,
    RequestObservation,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.wrsn_sim import WrsnSimulation

__all__ = ["TwinDetector"]


class TwinDetector(Detector):
    """Always-on divergence detector fed by the observation stream.

    Parameters
    ----------
    scorer:
        The change detector; defaults to :class:`AnomalyScorer` with its
        documented defaults.
    stream:
        The observation channel to subscribe to; a fresh private stream
        is created when omitted (wire a
        :class:`~repro.twin.feed.SimStreamPublisher` to ``.stream``).
    """

    name = "twin"

    def __init__(
        self,
        scorer: AnomalyScorer | None = None,
        stream: ObservationStream | None = None,
    ) -> None:
        super().__init__()
        self.scorer = scorer or AnomalyScorer()
        self.stream = stream or ObservationStream()
        self.stream.subscribe(self._on_observation)
        self.predictor = TwinPredictor()
        self.scores: list[AnomalyScore] = []
        self.first_alarm: AnomalyScore | None = None
        self._pending: AnomalyScore | None = None

    # ------------------------------------------------------------------
    # Stream consumption
    # ------------------------------------------------------------------
    def _on_observation(self, obs: Observation) -> None:
        if isinstance(obs, NetworkSnapshot):
            self.predictor.start(obs)
            return
        if not self.predictor.started:
            # Switched on mid-run without a snapshot: nothing to compare
            # against, so observations pass through unjudged.
            return
        self.predictor.advance_to(obs.time)
        if isinstance(obs, ConsumptionUpdate):
            self.predictor.set_consumption(obs.consumption_w)
        elif isinstance(obs, ChargeCommitment):
            predicted_after = self.predictor.apply_charge(obs.node_id, obs.claimed_j)
            if obs.capacity_j > 0.0:
                residual = abs(predicted_after - obs.telemetry_energy_j) / obs.capacity_j
                self._score(obs.time, obs.node_id, "telemetry", residual)
        elif isinstance(obs, DeathObservation):
            stranded = self.predictor.mark_dead(obs.node_id, obs.time)
            capacity = self.predictor.capacity_j(obs.node_id)
            if capacity > 0.0:
                self._score(obs.time, obs.node_id, "death", stranded / capacity)
        elif isinstance(obs, AuditObservation):
            capacity = self.predictor.capacity_j(obs.node_id)
            if capacity > 0.0:
                predicted = self.predictor.predicted_energy_j(obs.node_id)
                residual = abs(predicted - obs.true_energy_j) / capacity
                self._score(obs.time, obs.node_id, "audit", residual)
            self.predictor.calibrate(obs.node_id, obs.true_energy_j)
        elif isinstance(obs, RequestObservation):
            pass  # clock already advanced; no residual by design

    def _score(self, time: float, node_id: int, kind: str, residual: float) -> None:
        score = self.scorer.update(time, residual, node_id=node_id, kind=kind)
        self.scores.append(score)
        if score.alarmed and self.first_alarm is None:
            self.first_alarm = score
            self._pending = score

    def _surface(self, time: float) -> DetectionRaised | None:
        """Turn a pending alarm into a trace-level detection, once."""
        if self._pending is None or self.detected:
            return None
        score = self._pending
        self._pending = None
        return self._raise(
            time,
            reason=(
                f"{score.kind} divergence: residual {score.residual:.3f} of "
                f"capacity drove CUSUM to {score.cusum:.3f} "
                f"(threshold {self.scorer.cusum_h:g})"
            ),
            node_id=score.node_id,
        )

    # ------------------------------------------------------------------
    # Detector interface
    # ------------------------------------------------------------------
    def observe_request(
        self, event: RequestIssued, sim: "WrsnSimulation"
    ) -> DetectionRaised | None:
        return self._surface(event.time)

    def observe_service(
        self, event: ServiceCompleted, sim: "WrsnSimulation"
    ) -> DetectionRaised | None:
        return self._surface(event.time)

    def observe_death(
        self, event: NodeDied, sim: "WrsnSimulation"
    ) -> DetectionRaised | None:
        return self._surface(event.time)
