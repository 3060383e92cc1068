"""Outcome metrics computed from simulation results.

Every number a benchmark table reports is computed here, from the trace
and final network state alone, so the same definitions apply to every
controller and experiment.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.mc.charger import ChargeMode
from repro.sim.events import NodeDied, RoutingRecomputed
from repro.sim.wrsn_sim import SimulationResult

__all__ = [
    "AttackMetrics",
    "attack_metrics",
    "lifetime_metrics",
    "network_lifetime_s",
]


@dataclass(frozen=True)
class AttackMetrics:
    """Attack-side outcome of one run.

    Attributes
    ----------
    exhausted_key_ratio:
        Fraction of the initially annotated key nodes dead at the end —
        the paper's headline metric.
    attack_utility:
        Total criticality weight of the exhausted key nodes.
    spoof_services, genuine_services:
        Service counts by mode.
    detected:
        Whether any detector fired.
    detection_time_s:
        First alarm time (``None`` if undetected).
    mc_energy_spent_j:
        Charger energy consumed (travel + emission) over the run,
        counting depot refills.
    stranded_nodes:
        Alive nodes without a base-station route at the end.
    """

    exhausted_key_ratio: float
    exhausted_key_count: int
    key_count: int
    attack_utility: float
    spoof_services: int
    genuine_services: int
    detected: bool
    detection_time_s: float | None
    mc_energy_spent_j: float
    stranded_nodes: int


def attack_metrics(result: SimulationResult) -> AttackMetrics:
    """Summarise one run from the attacker's scoreboard."""
    network = result.network
    exhausted = result.exhausted_key_ids()
    utility = sum(network.nodes[node_id].weight for node_id in exhausted)
    services = result.trace.services()
    spoof = sum(
        1
        for s in services
        if s.mode in (ChargeMode.SPOOF, ChargeMode.PRETEND)
    )
    genuine = sum(1 for s in services if s.mode == ChargeMode.GENUINE)

    # Every depot refill restores a full battery, so a charger's total
    # consumption is initial charge + refills - what is left; sum over
    # the fleet (single-charger runs have exactly one).
    from repro.sim.events import DepotRecharged

    refills_by_unit: dict[int, int] = {}
    for event in result.trace.of_type(DepotRecharged):
        refills_by_unit[event.charger_index] = (
            refills_by_unit.get(event.charger_index, 0) + 1
        )
    spent = sum(
        mc.battery_capacity_j * (1 + refills_by_unit.get(unit, 0)) - mc.energy_j
        for unit, mc in enumerate(result.chargers)
    )

    return AttackMetrics(
        exhausted_key_ratio=result.exhausted_key_ratio(),
        exhausted_key_count=len(exhausted),
        key_count=len(result.initial_key_ids),
        attack_utility=utility,
        spoof_services=spoof,
        genuine_services=genuine,
        detected=result.detected,
        detection_time_s=result.trace.first_detection_time(),
        mc_energy_spent_j=spent,
        stranded_nodes=len(network.stranded_ids()),
    )


@dataclass(frozen=True)
class LifetimeMetrics:
    """Network-health outcome of one run.

    Attributes
    ----------
    first_death_s:
        Time of the first node death (``None`` if none died) — the
        strictest classical definition of network lifetime.
    first_key_death_s:
        Time of the first *key node* death.
    first_partition_s:
        First time any alive node lost its base-station route.
    dead_count:
        Nodes dead at the end of the run.
    alive_connected_ratio:
        Fraction of all nodes alive *and* connected at the end.
    coverage_ratio:
        Fraction of the field still observed by alive, connected
        sensors at the end (see :mod:`repro.network.coverage`).
    """

    first_death_s: float | None
    first_key_death_s: float | None
    first_partition_s: float | None
    dead_count: int
    alive_connected_ratio: float
    coverage_ratio: float


def network_lifetime_s(result: SimulationResult) -> float:
    """Network lifetime: time of first death, or the horizon if none."""
    deaths = result.trace.deaths()
    return deaths[0].time if deaths else result.horizon_s


def lifetime_metrics(result: SimulationResult) -> LifetimeMetrics:
    """Summarise one run from the network's point of view."""
    deaths = result.trace.deaths()
    first_death = deaths[0].time if deaths else None
    key_deaths = [d for d in deaths if d.is_key]
    first_key_death = key_deaths[0].time if key_deaths else None

    first_partition = None
    for event in result.trace.of_type(RoutingRecomputed):
        if event.stranded_count > 0:
            first_partition = event.time
            break
    # A death that directly strands nodes also counts.
    for event in result.trace.of_type(NodeDied):
        if event.stranded_count > 0:
            if first_partition is None or event.time < first_partition:
                first_partition = event.time
            break

    network = result.network
    total = len(network.nodes)
    connected = sum(
        1
        for node_id in network.alive_ids()
        if network.routing_tree.is_connected(node_id)
    )
    from repro.network.coverage import coverage_ratio

    return LifetimeMetrics(
        first_death_s=first_death,
        first_key_death_s=first_key_death,
        first_partition_s=first_partition,
        dead_count=len(network.dead_ids()),
        alive_connected_ratio=connected / total if total else 0.0,
        coverage_ratio=coverage_ratio(network),
    )
