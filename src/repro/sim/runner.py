"""The shared attack-trial kernel.

One simulation with the standard experiment wiring — the unit of work
every benchmark sweep and campaign trial dispatches.  Previously each
benchmark hand-rolled this; it lives in the library so campaign worker
processes (and downstream users) can import it.
"""

from __future__ import annotations

from repro.attack.attacker import CsaAttacker
from repro.detection.auditors import default_detector_suite
from repro.sim.actions import MissionController
from repro.sim.benign import BenignController
from repro.sim.hooks import SimulationHook
from repro.sim.scenario import ScenarioConfig
from repro.sim.wrsn_sim import SimulationResult, WrsnSimulation

__all__ = ["run_attack"]


def run_attack(
    cfg: ScenarioConfig,
    seed: int,
    controller: MissionController | None = None,
    detectors: bool = True,
    audit_interval_s: float | None = None,
    twin: bool = False,
) -> SimulationResult:
    """One attack (or benign) simulation with the standard wiring.

    Parameters
    ----------
    cfg:
        Scenario parameters; network and charger are built fresh.  When
        ``cfg.request_delay_mean_s > 0`` the corresponding probabilistic
        arrival model is built and wired in automatically, and each of
        ``cfg.honest_chargers`` adds a benign co-charger to the fleet.
    seed:
        Topology/traffic/detector randomness.
    controller:
        The charger's mission controller; defaults to a fresh
        :class:`~repro.attack.attacker.CsaAttacker` (controllers are
        single-use, so callers pass a new one per trial).
    detectors:
        Whether to deploy the default base-station detector suite.
    audit_interval_s:
        Optional override for the voltage auditor's mean audit interval.
    twin:
        Deploy a streaming :class:`~repro.twin.detector.TwinDetector`
        alongside the other detectors (works with ``detectors=False``
        too, giving a twin-only defence), with its observation feed
        published from the live engine.
    """
    network = cfg.build_network(seed=seed)
    charger = cfg.build_charger()
    if controller is None:
        controller = CsaAttacker(key_count=cfg.key_count)
    suite = (
        default_detector_suite(seed, audit_interval_s=audit_interval_s)
        if detectors
        else []
    )
    hooks: list[SimulationHook] = []
    if twin:
        # Imported lazily: sim is a lower layer than twin.
        from repro.twin.detector import TwinDetector
        from repro.twin.feed import SimStreamPublisher

        twin_detector = TwinDetector()
        suite = suite + [twin_detector]
        hooks.append(SimStreamPublisher(twin_detector.stream))
    honest = [
        (cfg.build_charger(), BenignController())
        for _ in range(cfg.honest_chargers)
    ]
    sim = WrsnSimulation(
        network,
        charger,
        controller,
        detectors=suite,
        horizon_s=cfg.horizon_s,
        extra_units=honest,
        hooks=hooks,
        arrival_model=cfg.build_arrival_model(seed),
    )
    return sim.run()
