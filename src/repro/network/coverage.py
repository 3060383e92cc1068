"""Sensing-coverage metrics.

A WRSN's purpose is to observe its field; "the network still has alive
nodes" understates the damage when those nodes cluster in one corner.
Coverage is measured on a regular grid: a grid point is covered when at
least one *alive, base-station-connected* node senses it (Euclidean
sensing radius).  The attack's endgame — killing articulation nodes —
shows up here twice: dead sensors lose their own disks, and stranded
subtrees stop counting even though their nodes still live.
"""

from __future__ import annotations

import numpy as np

from repro.network.network import Network
from repro.network.spatial import SpatialGridIndex
from repro.utils.validation import check_positive

__all__ = ["coverage_ratio"]

DEFAULT_SENSING_RADIUS_M = 12.0
"""Default sensing radius: slightly over half the communication range."""

_POINT_BLOCK = 512
"""Grid points per evaluation block."""

_SENSOR_BLOCK = 2048
"""Sensors per evaluation block; peak scratch is POINT x SENSOR x 2
float64 (~16 MB), independent of the network size."""

_INDEX_THRESHOLD = 4096
"""Sensor count beyond which coverage routes through the spatial index
instead of blocked scans (each grid point then only tests the sensors in
its own grid neighbourhood)."""


def covered_fraction_of_points(
    points: np.ndarray,
    sensor_positions: np.ndarray,
    sensing_radius_m: float,
) -> float:
    """Fraction of ``points`` within the radius of any sensor.

    ``points`` is (m, 2), ``sensor_positions`` (n, 2); an empty sensor
    set covers nothing.

    The evaluation is blocked: the seed's single ``(m, n, 2)`` broadcast
    peaked at ~1 GB for a 25x25 grid over 10^5 sensors, where the blocked
    sweep holds at most a ``_POINT_BLOCK x _SENSOR_BLOCK`` slab at a time
    — bounded memory regardless of N.  Large sensor sets instead go
    through :class:`~repro.network.spatial.SpatialGridIndex`, which tests
    each point only against its grid neighbourhood.  Both paths apply the
    identical ``dx**2 + dy**2 <= r**2`` predicate per (point, sensor)
    pair, so the result is bitwise the same as the dense scan's.
    """
    check_positive("sensing_radius_m", sensing_radius_m)
    points = np.asarray(points, dtype=float).reshape(-1, 2)
    sensor_positions = np.asarray(sensor_positions, dtype=float).reshape(-1, 2)
    if len(points) == 0:
        raise ValueError("no points to measure coverage over")
    if len(sensor_positions) == 0:
        return 0.0
    radius_sq = sensing_radius_m**2
    if len(sensor_positions) > _INDEX_THRESHOLD:
        index = SpatialGridIndex(sensor_positions, cell_size=sensing_radius_m)
        return float(index.any_within(points, radius_sq).mean())
    covered = np.zeros(len(points), dtype=bool)
    for p0 in range(0, len(points), _POINT_BLOCK):
        block = points[p0 : p0 + _POINT_BLOCK]
        block_covered = covered[p0 : p0 + _POINT_BLOCK]
        for s0 in range(0, len(sensor_positions), _SENSOR_BLOCK):
            todo = np.flatnonzero(~block_covered)
            if len(todo) == 0:
                break
            sensors = sensor_positions[s0 : s0 + _SENSOR_BLOCK]
            deltas = block[todo, None, :] - sensors[None, :, :]
            dist_sq = (deltas**2).sum(axis=-1)
            # Writing through the view IS the point: block_covered is a
            # window into `covered`, so the slab results land in place.
            block_covered[todo] |= (  # reprolint: ignore[RL-N003]
                dist_sq <= radius_sq
            ).any(axis=1)
    return float(covered.mean())


def coverage_ratio(
    network: Network,
    sensing_radius_m: float = DEFAULT_SENSING_RADIUS_M,
    grid_resolution: int = 25,
) -> float:
    """Field fraction observed by alive, connected sensors.

    Evaluated on a ``grid_resolution`` × ``grid_resolution`` lattice over
    the deployment field.  Only nodes that are alive *and* can deliver
    their readings to the base station count.
    """
    if grid_resolution < 2:
        raise ValueError(f"grid_resolution must be >= 2, got {grid_resolution}")
    deployment = network.deployment
    xs = np.linspace(0.0, deployment.width, grid_resolution)
    ys = np.linspace(0.0, deployment.height, grid_resolution)
    grid_x, grid_y = np.meshgrid(xs, ys)
    points = np.column_stack([grid_x.ravel(), grid_y.ravel()])

    tree = network.routing_tree
    active = [
        network.nodes[node_id].position
        for node_id in sorted(network.alive_ids())
        if tree.is_connected(node_id)
    ]
    sensors = np.array([(p.x, p.y) for p in active], dtype=float).reshape(-1, 2)
    return covered_fraction_of_points(points, sensors, sensing_radius_m)
