"""Named scenario configurations.

One place holding every default the experiments share (EXP-12's parameter
table is printed from here).  A :class:`ScenarioConfig` is a frozen bag of
parameters plus factory methods building the concrete simulation pieces,
so an experiment that varies one knob copies the default config with that
knob replaced and everything else pinned.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

from repro.mc.charger import ChargingHardware, MobileCharger, default_charging_hardware
from repro.network.energy import RadioEnergyModel
from repro.network.network import Network
from repro.network.topology import Deployment, deploy_clustered, deploy_uniform
from repro.network.traffic import TrafficModel
from repro.sim.arrivals import ArrivalModel, ExponentialArrivals
from repro.utils.geometry import Point
from repro.utils.rng import RngFactory

__all__ = ["ScenarioConfig"]


@dataclass(frozen=True)
class ScenarioConfig:
    """Simulation defaults (reconstruction R6 in DESIGN.md).

    Field sizes, battery capacities, charger parameters and traffic rates
    follow the values this research group's WRSN papers conventionally
    use; everything is overridable per experiment via
    :func:`dataclasses.replace` or :meth:`with_`.
    """

    # Field and deployment
    node_count: int = 200
    field_width_m: float = 100.0
    field_height_m: float = 100.0
    comm_range_m: float = 20.0
    clustered: bool = False
    cluster_count: int = 5

    # Node energy
    battery_capacity_j: float = 10_800.0
    request_threshold_frac: float = 0.2
    initial_energy_frac: float = 1.0
    rate_low_bps: float = 1_000.0
    rate_high_bps: float = 5_000.0

    # Mobile charger
    mc_battery_j: float = 2_000_000.0
    mc_speed_m_s: float = 5.0
    mc_travel_cost_j_per_m: float = 50.0
    mc_depot_recharge_s: float = 1_800.0

    # Attack / experiment
    key_count: int = 15
    horizon_days: float = 45.0

    # Fleet: honest (benign) chargers deployed beside the mission
    # controller's own charger.  0 is the paper's single-charger setting.
    honest_chargers: int = 0

    # Control plane: mean reporting lag between a node crossing its
    # request threshold and the base station receiving the request.
    # 0.0 (the seed default) keeps arrivals instantaneous/deterministic.
    request_delay_mean_s: float = 0.0

    def with_(self, **changes) -> "ScenarioConfig":
        """A copy of this config with the given fields replaced."""
        return replace(self, **changes)

    @property
    def horizon_s(self) -> float:
        """Simulation horizon in seconds."""
        return self.horizon_days * 86_400.0

    @property
    def depot(self) -> Point:
        """Mobile charger depot: the field centre (next to the BS)."""
        return Point(self.field_width_m / 2.0, self.field_height_m / 2.0)

    # ------------------------------------------------------------------
    # Factories
    # ------------------------------------------------------------------
    def build_deployment(self, rng_factory: RngFactory) -> Deployment:
        """Place the nodes (uniform or clustered per config)."""
        rng = rng_factory.stream("topology")
        if self.clustered:
            return deploy_clustered(
                self.node_count,
                self.cluster_count,
                rng,
                width=self.field_width_m,
                height=self.field_height_m,
                comm_range=self.comm_range_m,
            )
        return deploy_uniform(
            self.node_count,
            rng,
            width=self.field_width_m,
            height=self.field_height_m,
            comm_range=self.comm_range_m,
        )

    def build_network(self, seed: int) -> Network:
        """Deploy and wire up a network for the given seed."""
        factory = RngFactory(seed)
        deployment = self.build_deployment(factory)
        traffic = TrafficModel.heterogeneous(
            self.node_count,
            factory.stream("traffic"),
            low_bps=self.rate_low_bps,
            high_bps=self.rate_high_bps,
        )
        return Network(
            deployment,
            traffic,
            radio=RadioEnergyModel(),
            battery_capacity_j=self.battery_capacity_j,
            request_threshold_frac=self.request_threshold_frac,
            initial_energy_frac=self.initial_energy_frac,
        )

    def build_charger(self, hardware: ChargingHardware | None = None) -> MobileCharger:
        """The mobile charger, parked at the depot."""
        return MobileCharger(
            depot=self.depot,
            battery_capacity_j=self.mc_battery_j,
            speed_m_s=self.mc_speed_m_s,
            travel_cost_j_per_m=self.mc_travel_cost_j_per_m,
            hardware=hardware or default_charging_hardware(),
            depot_recharge_s=self.mc_depot_recharge_s,
        )

    def build_arrival_model(self, seed: int) -> ArrivalModel | None:
        """The request-arrival model for this config, or ``None``.

        ``None`` (when ``request_delay_mean_s == 0``) means instantaneous
        arrivals — the seed behaviour, bit-for-bit.  The model draws from
        its own dedicated RNG stream so enabling it perturbs no other
        stream under the same seed.
        """
        if self.request_delay_mean_s <= 0.0:
            return None
        return ExponentialArrivals(
            self.request_delay_mean_s, RngFactory(seed).stream("arrivals")
        )

    def parameter_rows(self) -> Sequence[tuple[str, str]]:
        """Human-readable (name, value) rows for the parameter table."""
        return (
            ("Number of nodes", str(self.node_count)),
            ("Field size", f"{self.field_width_m:.0f} m x {self.field_height_m:.0f} m"),
            ("Communication range", f"{self.comm_range_m:.0f} m"),
            ("Node battery capacity", f"{self.battery_capacity_j / 1000:.1f} kJ"),
            ("Charging request threshold", f"{self.request_threshold_frac:.0%}"),
            (
                "Data generation rate",
                f"{self.rate_low_bps / 1000:.0f}-{self.rate_high_bps / 1000:.0f} kbps",
            ),
            ("MC battery capacity", f"{self.mc_battery_j / 1e6:.1f} MJ"),
            ("MC speed", f"{self.mc_speed_m_s:.0f} m/s"),
            ("MC travel cost", f"{self.mc_travel_cost_j_per_m:.0f} J/m"),
            ("Key nodes targeted", str(self.key_count)),
            ("Simulation horizon", f"{self.horizon_days:.0f} days"),
        )
