"""Tests for the traffic model and relay-load computation."""

import pytest

from repro.network.routing import build_routing_tree
from repro.network.topology import communication_graph
from repro.network.traffic import TrafficModel, relay_loads
from repro.utils.geometry import Point
from repro.utils.rng import make_rng


def chain_graph():
    positions = [Point(10, 0), Point(20, 0), Point(30, 0)]
    return communication_graph(positions, Point(0, 0), comm_range=11.0)


class TestTrafficModel:
    def test_homogeneous(self):
        model = TrafficModel.homogeneous(4, 2000.0)
        assert model.node_count == 4
        assert all(model.rate(i) == 2000.0 for i in range(4))

    def test_heterogeneous_within_bounds(self):
        rng = make_rng(1, "traffic")
        model = TrafficModel.heterogeneous(50, rng, low_bps=1000.0, high_bps=5000.0)
        assert all(1000.0 <= model.rate(i) <= 5000.0 for i in range(50))

    def test_heterogeneous_reproducible(self):
        a = TrafficModel.heterogeneous(10, make_rng(2, "t"))
        b = TrafficModel.heterogeneous(10, make_rng(2, "t"))
        assert a.rates_bps == b.rates_bps

    def test_rejects_inverted_bounds(self):
        with pytest.raises(ValueError):
            TrafficModel.heterogeneous(5, make_rng(0, "t"), low_bps=10.0, high_bps=5.0)

    def test_rejects_negative_rate(self):
        with pytest.raises(ValueError):
            TrafficModel((-1.0,))


class TestRelayLoads:
    def test_chain_relays_accumulate(self):
        tree = build_routing_tree(chain_graph())
        traffic = TrafficModel.homogeneous(3, 100.0)
        loads = relay_loads(tree, traffic)
        assert loads[2] == pytest.approx(0.0)
        assert loads[1] == pytest.approx(100.0)
        assert loads[0] == pytest.approx(200.0)

    def test_dead_descendants_stop_contributing(self):
        graph = chain_graph()
        tree = build_routing_tree(graph, alive={0, 1})
        traffic = TrafficModel.homogeneous(3, 100.0)
        loads = relay_loads(tree, traffic, alive={0, 1})
        assert loads[0] == pytest.approx(100.0)

    def test_heterogeneous_rates_respected(self):
        tree = build_routing_tree(chain_graph())
        traffic = TrafficModel((10.0, 20.0, 40.0))
        loads = relay_loads(tree, traffic)
        assert loads[0] == pytest.approx(60.0)
        assert loads[1] == pytest.approx(40.0)
