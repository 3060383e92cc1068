"""The ``Network`` façade: deployment + nodes + routing + consumption.

Ties the substrate together: owns the sensor nodes, rebuilds the routing
tree over the alive subgraph whenever membership changes, derives every
node's steady-state power draw from the traffic it carries, and annotates
the key nodes the attack will target.
"""

from __future__ import annotations

import numpy as np

from repro.network.energy import RadioEnergyModel, node_power_w
from repro.network.energy_ledger import EnergyLedger
from repro.network.keynodes import KeyNodeInfo, identify_key_nodes
from repro.network.node import SensorNode
from repro.network.routing import RoutingTree, build_routing_tree
from repro.network.topology import BASE_STATION_ID, Deployment, deploy_uniform
from repro.network.traffic import TrafficModel, relay_loads
from repro.utils.rng import coerce_rng
from repro.utils.validation import check_positive, check_probability

__all__ = ["Network", "build_network"]


class Network:
    """A live wireless rechargeable sensor network.

    Parameters
    ----------
    deployment:
        Node and base-station placement.
    traffic:
        Per-node data-generation rates.
    radio:
        Radio energy model pricing transmission and reception.
    battery_capacity_j, request_threshold_frac, initial_energy_frac:
        Node battery parameters, applied uniformly.

    After construction, call :meth:`refresh_key_nodes` to annotate targets
    and keep driving :meth:`advance_to` / :meth:`handle_death` from the
    simulation loop.
    """

    def __init__(
        self,
        deployment: Deployment,
        traffic: TrafficModel,
        radio: RadioEnergyModel | None = None,
        battery_capacity_j: float = 10_800.0,
        request_threshold_frac: float = 0.2,
        initial_energy_frac: float = 1.0,
    ) -> None:
        if traffic.node_count != deployment.node_count:
            raise ValueError(
                f"traffic covers {traffic.node_count} nodes but the "
                f"deployment has {deployment.node_count}"
            )
        battery_capacity_j = check_positive("battery_capacity_j", battery_capacity_j)
        request_threshold_frac = check_probability(
            "request_threshold_frac", request_threshold_frac
        )
        initial_energy_frac = check_probability(
            "initial_energy_frac", initial_energy_frac
        )
        self.deployment = deployment
        self.traffic = traffic
        self.radio = radio or RadioEnergyModel()
        self.graph = deployment.graph()
        # All node batteries share one structure-of-arrays ledger, so the
        # event loop's advance is a vectorized pass instead of an O(N)
        # Python loop; each SensorNode is a view onto its slot.
        self.ledger = EnergyLedger(deployment.node_count)
        self.nodes: dict[int, SensorNode] = {
            i: SensorNode(
                node_id=i,
                position=pos,
                battery_capacity_j=battery_capacity_j,
                initial_energy_frac=initial_energy_frac,
                request_threshold_frac=request_threshold_frac,
                generation_rate_bps=traffic.rate(i),
                ledger=self.ledger,
                slot=i,
            )
            for i, pos in enumerate(deployment.positions)
        }
        self.positions_xy = np.array(
            [(p.x, p.y) for p in deployment.positions], dtype=float
        ).reshape(-1, 2)
        self.key_nodes: list[KeyNodeInfo] = []
        self._tree: RoutingTree | None = None
        self.recompute_consumption()

    # ------------------------------------------------------------------
    # Topology and routing
    # ------------------------------------------------------------------
    @property
    def base_station(self):
        """Base station position."""
        return self.deployment.base_station

    @property
    def routing_tree(self) -> RoutingTree:
        """The current routing tree over alive nodes."""
        assert self._tree is not None
        return self._tree

    def alive_ids(self) -> set[int]:
        """Ids of nodes still operating."""
        return set(self.ledger.alive_ids())

    def dead_ids(self) -> set[int]:
        """Ids of exhausted nodes."""
        return set(self.ledger.dead_ids())

    def alive_mask(self) -> np.ndarray:
        """Boolean liveness array indexed by node id (a live view)."""
        return self.ledger.alive

    def alive_graph(self):
        """Communication graph restricted to alive nodes (plus the BS)."""
        keep = self.alive_ids() | {BASE_STATION_ID}
        return self.graph.subgraph(keep)

    def recompute_consumption(self) -> None:
        """Rebuild routing over alive nodes and reset every node's draw.

        Connected nodes pay baseline + relay + uplink transmission;
        stranded-but-alive nodes pay only the baseline (their radio idles
        with no route).  Dead nodes pay nothing.
        """
        alive = self.alive_ids()
        self._tree = build_routing_tree(self.graph, alive)
        relays = relay_loads(self._tree, self.traffic, alive)
        for node_id, node in self.nodes.items():
            if not node.alive:
                node.set_consumption(0.0)
                continue
            if self._tree.is_connected(node_id):
                power = node_power_w(
                    self.radio,
                    own_rate_bps=self.traffic.rate(node_id),
                    relay_rate_bps=relays.get(node_id, 0.0),
                    uplink_distance_m=self._tree.uplink_distance[node_id],
                )
            else:
                power = self.radio.baseline_w
            node.set_consumption(power)

    # ------------------------------------------------------------------
    # Key nodes
    # ------------------------------------------------------------------
    def refresh_key_nodes(self, count: int) -> list[KeyNodeInfo]:
        """Identify the ``count`` most critical alive nodes and annotate them.

        Clears previous annotations, so the returned list is always the
        current target set.
        """
        for node in self.nodes.values():
            node.is_key = False
            node.weight = 0.0
        infos = identify_key_nodes(
            self.alive_graph(),
            self.routing_tree,
            self.traffic,
            count,
            exclude=frozenset(self.dead_ids()),
        )
        for info in infos:
            node = self.nodes[info.node_id]
            node.is_key = True
            node.weight = info.weight
        self.key_nodes = infos
        return infos

    def key_ids(self) -> set[int]:
        """Ids of the currently annotated key nodes."""
        return {info.node_id for info in self.key_nodes}

    # ------------------------------------------------------------------
    # Time evolution
    # ------------------------------------------------------------------
    def advance_to(self, time: float) -> list[int]:
        """Advance every node to ``time``; return ids of nodes that died.

        One vectorized ledger pass; the death list is ascending by node
        id, matching the historical per-node-loop contract.  Does *not*
        recompute routing — the caller decides when (typically
        immediately, via :meth:`recompute_consumption`).
        """
        return self.ledger.advance_all_to(time)

    def next_death_time(self) -> float:
        """Earliest predicted node death at current draws (``inf`` if none)."""
        return self.ledger.next_death_time()

    # ------------------------------------------------------------------
    # Aggregate views
    # ------------------------------------------------------------------
    def total_true_energy(self) -> float:
        """Sum of true residual energies over alive nodes, joules."""
        return self.ledger.total_alive_energy()

    def stranded_ids(self) -> set[int]:
        """Alive nodes currently without a route to the base station."""
        return {
            i
            for i in self.alive_ids()
            if not self.routing_tree.is_connected(i)
        }

    def __repr__(self) -> str:
        return (
            f"Network(n={len(self.nodes)}, alive={len(self.alive_ids())}, "
            f"key={len(self.key_nodes)})"
        )


def build_network(
    node_count: int,
    seed: int | np.random.Generator,
    width: float = 100.0,
    height: float = 100.0,
    comm_range: float = 20.0,
    battery_capacity_j: float = 10_800.0,
    request_threshold_frac: float = 0.2,
    initial_energy_frac: float = 1.0,
    homogeneous_rate_bps: float | None = None,
    radio: RadioEnergyModel | None = None,
) -> Network:
    """Convenience constructor: uniform deployment + heterogeneous traffic.

    ``seed`` may be an integer (a fresh generator is derived) or an
    existing :class:`numpy.random.Generator`.
    """
    rng = coerce_rng(seed, "network")
    deployment = deploy_uniform(
        node_count, rng, width=width, height=height, comm_range=comm_range
    )
    if homogeneous_rate_bps is not None:
        traffic = TrafficModel.homogeneous(node_count, homogeneous_rate_bps)
    else:
        traffic = TrafficModel.heterogeneous(node_count, rng)
    return Network(
        deployment,
        traffic,
        radio=radio,
        battery_capacity_j=battery_capacity_j,
        request_threshold_frac=request_threshold_frac,
        initial_energy_frac=initial_energy_frac,
    )
