"""Attack-planning baselines CSA is compared against.

Every baseline honours the same feasibility rules as CSA (it still wants
to stay undetected); what varies is *how it chooses and orders targets*:

* :class:`RandomPlanner` — random order, keep what fits.
* :class:`GreedyWeightPlanner` — heaviest key nodes first, cost-blind.
* :class:`NearestFirstPlanner` — always drive to the closest serviceable
  target (the attack analogue of NJNP).
* :class:`EdfPlanner` — most urgent window first.
* :class:`TspPlanner` — shortest tour over all targets, serve what fits.

These are the conventional strawmen of the charging-scheduling
literature; the evaluation's claim is that CSA dominates all of them.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Iterable, Sequence

import numpy as np

from repro.core.tide import (
    RouteEvaluation,
    TideInstance,
    TidePlan,
    TideTarget,
    evaluate_route,
)
from repro.mc.tour import nearest_neighbour_tour, two_opt
from repro.utils.rng import coerce_rng

__all__ = [
    "EdfPlanner",
    "GreedyWeightPlanner",
    "NearestFirstPlanner",
    "Planner",
    "RandomPlanner",
    "TspPlanner",
]


class Planner(ABC):
    """Common interface of all TIDE planners (CSA included)."""

    name = "planner"

    @abstractmethod
    def plan(self, instance: TideInstance) -> TidePlan:
        """Produce a feasible plan for the instance."""


def append_feasible(
    instance: TideInstance, order: Iterable[int]
) -> tuple[list[int], RouteEvaluation]:
    """Walk ``order``, appending each target to the route end if feasible.

    The workhorse of the order-based baselines: it never reorders, only
    skips targets that would break a window or the budget.
    """
    route: list[int] = []
    evaluation = evaluate_route(instance, route)
    for node_id in order:
        trial = route + [node_id]
        trial_eval = evaluate_route(instance, trial)
        if trial_eval.feasible:
            route = trial
            evaluation = trial_eval
    return route, evaluation


class RandomPlanner(Planner):
    """Visit targets in a uniformly random order, keeping what fits.

    Deterministic given its seed, so experiments stay reproducible.
    """

    name = "Random"

    def __init__(self, seed: int | np.random.Generator = 0) -> None:
        self._rng = coerce_rng(seed, "random-planner")

    def plan(self, instance: TideInstance) -> TidePlan:
        ids = list(instance.target_ids())
        order = [ids[i] for i in self._rng.permutation(len(ids))]
        route, evaluation = append_feasible(instance, order)
        return TidePlan(tuple(route), evaluation, self.name)


class GreedyWeightPlanner(Planner):
    """Serve the heaviest targets first, ignoring geometry and cost."""

    name = "Greedy-Weight"

    def plan(self, instance: TideInstance) -> TidePlan:
        order = sorted(
            instance.target_ids(),
            key=lambda nid: (-instance.target(nid).weight, nid),
        )
        route, evaluation = append_feasible(instance, order)
        return TidePlan(tuple(route), evaluation, self.name)


class EdfPlanner(Planner):
    """Serve the target whose window closes soonest, first."""

    name = "EDF"

    def plan(self, instance: TideInstance) -> TidePlan:
        order = sorted(
            instance.target_ids(),
            key=lambda nid: (instance.target(nid).window_end, nid),
        )
        route, evaluation = append_feasible(instance, order)
        return TidePlan(tuple(route), evaluation, self.name)


class NearestFirstPlanner(Planner):
    """Repeatedly drive to the geographically closest appendable target."""

    name = "Nearest-First"

    def plan(self, instance: TideInstance) -> TidePlan:
        route: list[int] = []
        evaluation = evaluate_route(instance, route)
        remaining = set(instance.target_ids())
        position = instance.start_position
        while remaining:
            ranked = sorted(
                remaining,
                key=lambda nid: (
                    position.distance_to(instance.target(nid).position),
                    nid,
                ),
            )
            appended = False
            for node_id in ranked:
                trial = route + [node_id]
                trial_eval = evaluate_route(instance, trial)
                if trial_eval.feasible:
                    route = trial
                    evaluation = trial_eval
                    position = instance.target(node_id).position
                    remaining.discard(node_id)
                    appended = True
                    break
            if not appended:
                break
        return TidePlan(tuple(route), evaluation, self.name)


class TspPlanner(Planner):
    """Shortest open tour over all targets; serve what stays feasible.

    Builds a nearest-neighbour + 2-opt route over the target positions
    (anchored at the charger's start), then appends targets in tour order.
    Good travel economy, completely window-blind.
    """

    name = "TSP"

    def plan(self, instance: TideInstance) -> TidePlan:
        targets: Sequence[TideTarget] = instance.targets
        if not targets:
            return TidePlan((), evaluate_route(instance, []), self.name)
        # Index 0 is the charger start; 1..n are targets.
        points = [instance.start_position] + [t.position for t in targets]
        order = nearest_neighbour_tour(points, start_index=0)
        order = two_opt(points, order, closed=False)
        # Rotate so the route begins at the charger start, then drop it.
        start_at = order.index(0)
        rotated = order[start_at:] + order[:start_at]
        visit_ids = [targets[i - 1].node_id for i in rotated if i != 0]
        route, evaluation = append_feasible(instance, visit_ids)
        return TidePlan(tuple(route), evaluation, self.name)
