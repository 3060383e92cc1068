"""Tests for the uniform spatial grid index.

The index is a pure pre-filter: every query must return *bitwise* the
same answer as the dense O(N^2) scan it replaced.  These tests pin that
equivalence against brute force across randomized deployments, regular
lattices (the worst case for on-boundary distances), duplicate points,
and the degenerate empty / single-point inputs.
"""

import numpy as np
import pytest

from repro.network.spatial import SpatialGridIndex
from repro.network.topology import BASE_STATION_ID, communication_graph
from repro.utils.geometry import Point
from repro.utils.rng import make_rng


def brute_pairs(points: np.ndarray, radius: float):
    """Reference all-pairs join: the seed's double loop, verbatim order.

    ``dx * dx`` rather than ``dx**2``: the scalar float64 power routes
    through ``pow()`` and can land one ulp off the multiply that numpy
    lowers the seed's vectorized ``deltas**2`` to.
    """
    i_out, j_out, d_out = [], [], []
    for i in range(len(points)):
        for j in range(i + 1, len(points)):
            dx = points[i, 0] - points[j, 0]
            dy = points[i, 1] - points[j, 1]
            d = np.sqrt(dx * dx + dy * dy)
            if d <= radius:
                i_out.append(i)
                j_out.append(j)
                d_out.append(d)
    return i_out, j_out, d_out


def brute_query(points: np.ndarray, x: float, y: float, radius: float):
    deltas = points - (x, y)
    dist = np.sqrt(deltas[:, 0] ** 2 + deltas[:, 1] ** 2)
    return np.flatnonzero(dist <= radius)


@pytest.fixture()
def rng():
    return make_rng(29, "spatial-tests")


class TestPairsWithin:
    @pytest.mark.parametrize("cell_factor", [0.5, 1.0, 2.5])
    def test_matches_brute_force_randomized(self, rng, cell_factor):
        for _ in range(15):
            n = int(rng.integers(2, 120))
            side = float(rng.uniform(20.0, 300.0))
            radius = float(rng.uniform(5.0, 60.0))
            points = rng.uniform(0.0, side, size=(n, 2))
            index = SpatialGridIndex(points, cell_size=radius * cell_factor)
            i, j, d = index.pairs_within(radius)
            bi, bj, bd = brute_pairs(points, radius)
            assert i.tolist() == bi
            assert j.tolist() == bj
            assert d.tolist() == bd  # bitwise, not approx

    def test_no_duplicate_pairs_when_radius_spans_cells(self, rng):
        # radius >> cell: the half-neighbourhood join touches offsets with
        # |dx|, |dy| > 1 where naive composite-key arithmetic aliased
        # across grid columns and double-counted cell pairs.
        points = rng.uniform(0.0, 50.0, size=(120, 2))
        index = SpatialGridIndex(points, cell_size=4.0)
        i, j, _ = index.pairs_within(22.0)
        pairs = list(zip(i.tolist(), j.tolist()))
        assert len(pairs) == len(set(pairs))
        assert all(a < b for a, b in pairs)

    def test_lattice_points_on_exact_boundaries(self):
        # Integer lattice with radius exactly the lattice pitch: every
        # axis-neighbour distance equals the radius, the hardest case for
        # a <= comparison to reproduce bit for bit.
        xs, ys = np.meshgrid(np.arange(8.0), np.arange(8.0))
        points = np.column_stack([xs.ravel(), ys.ravel()])
        index = SpatialGridIndex(points, cell_size=1.0)
        i, j, d = index.pairs_within(1.0)
        bi, bj, bd = brute_pairs(points, 1.0)
        assert i.tolist() == bi
        assert j.tolist() == bj
        assert d.tolist() == bd

    def test_duplicate_points_pair_at_distance_zero(self):
        points = np.array([[5.0, 5.0], [5.0, 5.0], [5.0, 5.0]])
        i, j, d = SpatialGridIndex(points, cell_size=2.0).pairs_within(1.0)
        assert list(zip(i.tolist(), j.tolist())) == [(0, 1), (0, 2), (1, 2)]
        assert d.tolist() == [0.0, 0.0, 0.0]

    def test_empty_and_single_point(self):
        empty = SpatialGridIndex(np.zeros((0, 2)), cell_size=1.0)
        i, j, d = empty.pairs_within(10.0)
        assert len(i) == len(j) == len(d) == 0
        single = SpatialGridIndex(np.array([[3.0, 4.0]]), cell_size=1.0)
        i, j, d = single.pairs_within(10.0)
        assert len(i) == len(j) == len(d) == 0


class TestQueryRadius:
    def test_matches_brute_force_randomized(self, rng):
        for _ in range(20):
            n = int(rng.integers(1, 150))
            points = rng.uniform(0.0, 100.0, size=(n, 2))
            radius = float(rng.uniform(3.0, 40.0))
            index = SpatialGridIndex(points, cell_size=radius)
            x, y = (float(v) for v in rng.uniform(-10.0, 110.0, size=2))
            assert (
                index.query_radius(x, y, radius).tolist()
                == brute_query(points, x, y, radius).tolist()
            )

    def test_far_outside_occupied_territory(self):
        points = np.array([[0.0, 0.0], [1.0, 1.0]])
        index = SpatialGridIndex(points, cell_size=1.0)
        assert index.query_radius(500.0, 500.0, 2.0).tolist() == []

    def test_empty_index(self):
        index = SpatialGridIndex(np.zeros((0, 2)), cell_size=1.0)
        assert index.query_radius(0.0, 0.0, 5.0).tolist() == []


class TestAnyWithin:
    def test_matches_dense_predicate(self, rng):
        for _ in range(10):
            sensors = rng.uniform(0.0, 80.0, size=(int(rng.integers(1, 90)), 2))
            queries = rng.uniform(0.0, 80.0, size=(40, 2))
            radius = float(rng.uniform(2.0, 25.0))
            index = SpatialGridIndex(sensors, cell_size=radius)
            mask = index.any_within(queries, radius**2)
            deltas = queries[:, None, :] - sensors[None, :, :]
            dense = ((deltas**2).sum(axis=-1) <= radius**2).any(axis=1)
            assert np.array_equal(mask, dense)

    def test_empty_index_covers_nothing(self):
        index = SpatialGridIndex(np.zeros((0, 2)), cell_size=1.0)
        assert not index.any_within(np.array([[0.0, 0.0]]), 100.0).any()


class TestCommunicationGraphEquivalence:
    def _brute_graph(self, positions, base_station, comm_range):
        import networkx as nx

        all_points = list(positions) + [base_station]
        ids = list(range(len(positions))) + [BASE_STATION_ID]
        graph = nx.Graph()
        graph.add_nodes_from(ids)
        coords = np.array([(p.x, p.y) for p in all_points], dtype=float)
        for a in range(len(all_points)):
            for b in range(a + 1, len(all_points)):
                dx = coords[a, 0] - coords[b, 0]
                dy = coords[a, 1] - coords[b, 1]
                d = float(np.sqrt(dx * dx + dy * dy))
                if d <= comm_range:
                    graph.add_edge(ids[a], ids[b], distance=d)
        return graph

    def test_identical_to_dense_double_loop(self, rng):
        for _ in range(8):
            n = int(rng.integers(2, 80))
            positions = [
                Point(float(x), float(y))
                for x, y in rng.uniform(0.0, 120.0, size=(n, 2))
            ]
            bs = Point(60.0, 60.0)
            r = float(rng.uniform(10.0, 40.0))
            fast = communication_graph(positions, bs, r)
            brute = self._brute_graph(positions, bs, r)
            # Same edges, same float64 lengths, same insertion order —
            # downstream Dijkstra tie-breaking depends on all three.
            assert list(fast.edges(data="distance")) == list(
                brute.edges(data="distance")
            )
            assert list(fast.nodes) == list(brute.nodes)


class TestIndexDtypes:
    def test_same_cell_join_positions_are_int64(self):
        # Regression: the (0, 0) offset used np.arange's platform-int
        # default while every other join path produced int64; composite
        # key math must stay int64 on every path.
        rng = make_rng(5)
        pts = rng.uniform(0.0, 50.0, size=(64, 2))
        index = SpatialGridIndex(pts, cell_size=10.0)
        a_pos, b_pos = index._join_offset(0, 0)
        assert a_pos.dtype == np.int64
        assert b_pos.dtype == np.int64

    def test_pair_indices_are_int64(self):
        rng = make_rng(6)
        pts = rng.uniform(0.0, 50.0, size=(64, 2))
        i, j, dist = SpatialGridIndex(pts, cell_size=10.0).pairs_within(12.0)
        assert i.dtype == np.int64
        assert j.dtype == np.int64
        assert dist.dtype == np.float64
