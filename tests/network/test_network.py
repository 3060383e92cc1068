"""Tests for the Network façade."""

import pytest

from repro.network.energy import RadioEnergyModel
from repro.network.network import Network, build_network
from repro.network.topology import deploy_grid
from repro.network.traffic import TrafficModel


@pytest.fixture()
def grid_network():
    dep = deploy_grid(2, 4, spacing=10.0, comm_range=15.0)
    traffic = TrafficModel.homogeneous(8, 1000.0)
    return Network(dep, traffic, battery_capacity_j=1000.0)


class TestConstruction:
    def test_build_network_convenience(self):
        net = build_network(30, seed=11)
        assert len(net.nodes) == 30
        assert len(net.alive_ids()) == 30

    def test_traffic_size_mismatch_rejected(self):
        dep = deploy_grid(2, 2, spacing=10.0)
        with pytest.raises(ValueError):
            Network(dep, TrafficModel.homogeneous(5, 100.0))

    def test_consumption_assigned_on_construction(self, grid_network):
        for node in grid_network.nodes.values():
            assert node.consumption_w > 0.0

    def test_relays_draw_more_than_leaves(self):
        net = build_network(60, seed=3)
        tree = net.routing_tree
        depths = {i: tree.depth(i) for i in tree.connected_nodes()}
        near = [net.nodes[i].consumption_w for i, d in depths.items() if d == 1]
        far = [net.nodes[i].consumption_w for i, d in depths.items() if d >= 3]
        assert max(near) > max(far)


class TestKeyNodes:
    def test_refresh_annotates(self, grid_network):
        infos = grid_network.refresh_key_nodes(3)
        assert len(infos) == 3
        for info in infos:
            node = grid_network.nodes[info.node_id]
            assert node.is_key
            assert node.weight == info.weight
        assert grid_network.key_ids() == {i.node_id for i in infos}

    def test_refresh_clears_previous(self, grid_network):
        first = grid_network.refresh_key_nodes(5)
        grid_network.refresh_key_nodes(1)
        flagged = [i for i, n in grid_network.nodes.items() if n.is_key]
        assert len(flagged) == 1

    def test_dead_nodes_excluded(self, grid_network):
        victim = grid_network.refresh_key_nodes(1)[0].node_id
        node = grid_network.nodes[victim]
        node.set_consumption(1e9)
        node.advance_to(1.0)
        grid_network.recompute_consumption()
        infos = grid_network.refresh_key_nodes(3)
        assert all(i.node_id != victim for i in infos)


class TestDynamics:
    def test_advance_reports_deaths(self, grid_network):
        doomed = 0
        grid_network.nodes[doomed].set_consumption(1000.0)
        died = grid_network.advance_to(2.0)
        assert died == [doomed]
        assert doomed in grid_network.dead_ids()

    def test_recompute_zeroes_dead_consumption(self, grid_network):
        grid_network.nodes[0].set_consumption(1000.0)
        grid_network.advance_to(2.0)
        grid_network.recompute_consumption()
        assert grid_network.nodes[0].consumption_w == 0.0

    def test_stranded_nodes_fall_to_baseline(self):
        # A 1x3 chain: killing the middle strands the far node.
        from repro.network.topology import Deployment
        from repro.utils.geometry import Point

        dep = Deployment(
            positions=(Point(10, 0), Point(20, 0), Point(30, 0)),
            base_station=Point(0, 0),
            width=40.0,
            height=10.0,
            comm_range=11.0,
        )
        net = Network(dep, TrafficModel.homogeneous(3, 1000.0))
        net.nodes[1].set_consumption(1e9)
        net.advance_to(1.0)
        net.recompute_consumption()
        assert net.stranded_ids() == {2}
        assert net.nodes[2].consumption_w == pytest.approx(
            RadioEnergyModel().baseline_w
        )

    def test_next_death_time(self, grid_network):
        expected = min(
            n.predicted_death_time() for n in grid_network.nodes.values()
        )
        assert grid_network.next_death_time() == pytest.approx(expected)

    def test_total_true_energy_decreases(self, grid_network):
        before = grid_network.total_true_energy()
        grid_network.advance_to(100.0)
        assert grid_network.total_true_energy() < before

    def test_repr(self, grid_network):
        assert "n=8" in repr(grid_network)
