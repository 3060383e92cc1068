"""Traffic model: who generates how much data, who relays it.

Each alive, connected sensor node generates data at its own rate; the
routing tree determines how much each node relays for its descendants.
Together with the radio energy model this fixes every node's steady-state
power draw.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.network.routing import RoutingTree, descendants_by_node
from repro.network.topology import BASE_STATION_ID
from repro.utils.validation import check_non_negative

__all__ = ["TrafficModel", "relay_loads"]


@dataclass(frozen=True)
class TrafficModel:
    """Per-node data-generation rates.

    Parameters
    ----------
    rates_bps:
        Generation rate of each node, indexed by node id.
    """

    rates_bps: tuple[float, ...]

    def __post_init__(self) -> None:
        for i, rate in enumerate(self.rates_bps):
            check_non_negative(f"rates_bps[{i}]", rate)

    @classmethod
    def homogeneous(cls, node_count: int, rate_bps: float = 3_000.0) -> "TrafficModel":
        """Every node generates at the same rate."""
        check_non_negative("rate_bps", rate_bps)
        return cls(tuple(rate_bps for _ in range(node_count)))

    @classmethod
    def heterogeneous(
        cls,
        node_count: int,
        rng: np.random.Generator,
        low_bps: float = 1_000.0,
        high_bps: float = 5_000.0,
    ) -> "TrafficModel":
        """Rates drawn uniformly from ``[low_bps, high_bps]``."""
        check_non_negative("low_bps", low_bps)
        check_non_negative("high_bps", high_bps)
        if high_bps < low_bps:
            raise ValueError("high_bps must be >= low_bps")
        rates = rng.uniform(low_bps, high_bps, size=node_count)
        return cls(tuple(float(r) for r in rates))

    def rate(self, node_id: int) -> float:
        """Generation rate of a node in bits per second."""
        return self.rates_bps[node_id]

    @property
    def node_count(self) -> int:
        """Number of nodes covered by this model."""
        return len(self.rates_bps)


def relay_loads(
    tree: RoutingTree, traffic: TrafficModel, alive: set[int] | None = None
) -> dict[int, float]:
    """Traffic (bps) each connected node relays for its descendants.

    Only alive, connected descendants contribute.  Nodes not in the tree
    relay nothing.
    """
    descendants = descendants_by_node(tree)
    loads: dict[int, float] = {}
    for node_id in tree.connected_nodes():
        relay = 0.0
        for desc in descendants.get(node_id, frozenset()):
            if desc == BASE_STATION_ID:
                continue
            if alive is not None and desc not in alive:
                continue
            relay += traffic.rate(desc)
        loads[node_id] = relay
    return loads
