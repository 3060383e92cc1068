"""Uniform spatial grid index over 2-D positions.

Topology construction, coverage evaluation and candidate scoring all ask
the same two questions — "which nodes sit within range ``r`` of this
point?" and "which *pairs* of nodes sit within ``r`` of each other?" —
and the seed answered both with dense O(N²) scans (a full pairwise
distance matrix in :func:`~repro.network.topology.communication_graph`,
an ``(m, n, 2)`` broadcast in coverage).  Neither survives 10^5 nodes:
the pairwise matrix alone is 80 GB at N = 10^5.

:class:`SpatialGridIndex` buckets points into a uniform grid of
``cell_size``-sided cells.  Radius queries inspect only the O(1) cells
overlapping the query disk, and the all-pairs sweep joins each occupied
cell against its half-neighbourhood, so both costs scale with the number
of *candidates* (points per disk), not with N.  All bucket bookkeeping is
vectorized NumPy — there is no per-point Python loop anywhere on the
build or all-pairs paths.

Exactness: the grid only *pre-filters*; every candidate is confirmed
with the same float64 arithmetic the dense scans used (``dx**2 + dy**2``
then ``sqrt``), so results are bitwise identical to brute force — a
property the equivalence tests in ``tests/network/test_spatial.py`` and
``tests/properties/`` pin down.
"""

from __future__ import annotations

import numpy as np

from repro.utils.validation import check_positive

__all__ = ["SpatialGridIndex"]


def _ragged_arange(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenation of ``arange(s, s + c)`` for each (s, c) pair."""
    total = int(counts.sum())
    if total == 0:
        return np.zeros(0, dtype=np.int64)
    ends = np.cumsum(counts)
    # Position within the flat output minus the start of its own block,
    # shifted by the block's range start.
    flat = np.arange(total, dtype=np.int64)
    block_offset = np.repeat(ends - counts, counts)
    return flat - block_offset + np.repeat(starts, counts)


class SpatialGridIndex:
    """A uniform-grid bucket index over ``(n, 2)`` planar positions.

    Parameters
    ----------
    points:
        Array-like of shape ``(n, 2)``; kept by reference as float64.
    cell_size:
        Grid cell side in the same unit as the coordinates.  The natural
        choice is the dominant query radius (communication range,
        sensing radius): radius-``cell_size`` queries then touch at most
        a 3x3 block of cells.
    """

    def __init__(self, points: np.ndarray, cell_size: float) -> None:
        check_positive("cell_size", cell_size)
        pts = np.asarray(points, dtype=float).reshape(-1, 2)
        self._points = pts
        self._cell = float(cell_size)
        n = len(pts)
        if n == 0:
            self._origin = np.zeros(2)
            self._max_cell = np.zeros(2, dtype=np.int64)
            self._stride = np.int64(1)
            self._order = np.zeros(0, dtype=np.int64)
            self._keys = np.zeros(0, dtype=np.int64)
            self._starts = np.zeros(0, dtype=np.int64)
            self._counts = np.zeros(0, dtype=np.int64)
            return
        self._origin = pts.min(axis=0)
        cells = np.floor((pts - self._origin) / self._cell).astype(np.int64)
        self._max_cell = cells.max(axis=0)
        # Composite key c_x * stride + c_y is collision-free for every
        # occupied cell because 0 <= c_y <= max_cy < stride.
        self._stride = self._max_cell[1] + np.int64(2)
        key = cells[:, 0] * self._stride + cells[:, 1]
        self._order = np.argsort(key, kind="stable")
        sorted_keys = key[self._order]
        uniq, starts = np.unique(sorted_keys, return_index=True)
        self._keys = uniq
        self._starts = starts.astype(np.int64)
        self._counts = np.diff(np.append(self._starts, n)).astype(np.int64)

    def __len__(self) -> int:
        return len(self._points)

    @property
    def points(self) -> np.ndarray:
        """The indexed positions, shape ``(n, 2)``."""
        return self._points

    @property
    def cell_size(self) -> float:
        """Grid cell side, metres."""
        return self._cell

    # ------------------------------------------------------------------
    # Candidate gathering
    # ------------------------------------------------------------------
    def _block(self, key: np.int64) -> np.ndarray:
        """Original point indices bucketed under one cell key."""
        pos = np.searchsorted(self._keys, key)
        if pos >= len(self._keys) or self._keys[pos] != key:
            return np.zeros(0, dtype=np.int64)
        start = self._starts[pos]
        return self._order[start : start + self._counts[pos]]

    def _candidates(self, x: float, y: float, radius: float) -> np.ndarray:
        """Indices of points in every cell overlapping the query disk."""
        if len(self._points) == 0:
            return np.zeros(0, dtype=np.int64)
        # Pad the window by a sliver so an ulp of rounding in the cell
        # arithmetic can never exclude a boundary point; candidates are
        # distance-filtered afterwards, so padding only costs time.
        reach = radius + self._cell * 1e-9
        lo = np.floor((np.array([x, y]) - self._origin - reach) / self._cell)
        hi = np.floor((np.array([x, y]) - self._origin + reach) / self._cell)
        # Clamp to occupied territory: cells outside it are empty anyway,
        # and clamping keeps composite keys collision-free.
        lo = np.maximum(lo, 0).astype(np.int64)
        hi = np.minimum(hi, self._max_cell).astype(np.int64)
        if np.any(hi < lo):
            return np.zeros(0, dtype=np.int64)
        blocks = [
            self._block(cx * self._stride + cy)
            for cx in range(int(lo[0]), int(hi[0]) + 1)
            for cy in range(int(lo[1]), int(hi[1]) + 1)
        ]
        return np.concatenate(blocks) if blocks else np.zeros(0, dtype=np.int64)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def query_radius(self, x: float, y: float, radius: float) -> np.ndarray:
        """Indices of points with ``distance <= radius`` of ``(x, y)``.

        The comparison is on the square root (``hypot <= radius``),
        matching the communication-graph predicate bit for bit.  Returned
        indices are sorted ascending.
        """
        check_positive("radius", radius)
        cand = self._candidates(x, y, radius)
        if len(cand) == 0:
            return cand
        deltas = self._points[cand] - (x, y)
        dist = np.sqrt(deltas[:, 0] ** 2 + deltas[:, 1] ** 2)
        return np.sort(cand[dist <= radius])

    def any_within(self, queries: np.ndarray, radius_sq: float) -> np.ndarray:
        """Boolean mask: does any indexed point fall within each query disk?

        ``queries`` is ``(m, 2)``; ``radius_sq`` is the *squared* radius,
        compared as ``dx**2 + dy**2 <= radius_sq`` — exactly the coverage
        predicate, so the mask is bitwise identical to the dense scan.
        """
        qs = np.asarray(queries, dtype=float).reshape(-1, 2)
        out = np.zeros(len(qs), dtype=bool)
        if len(self._points) == 0:
            return out
        radius = float(np.sqrt(radius_sq))
        for i, (x, y) in enumerate(qs):
            cand = self._candidates(float(x), float(y), radius)
            if len(cand) == 0:
                continue
            deltas = self._points[cand] - (x, y)
            dist_sq = deltas[:, 0] ** 2 + deltas[:, 1] ** 2
            out[i] = bool(np.any(dist_sq <= radius_sq))
        return out

    def pairs_within(
        self, radius: float
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """All unordered pairs ``(i, j)``, ``i < j``, with distance <= radius.

        Returns ``(i, j, dist)`` arrays sorted lexicographically by
        ``(i, j)``.  Distances are computed as ``sqrt(dx**2 + dy**2)`` in
        float64 and compared on the root — bitwise the same edges and
        edge lengths the dense pairwise matrix produced.
        """
        check_positive("radius", radius)
        n = len(self._points)
        empty = np.zeros(0, dtype=np.int64)
        if n < 2:
            return empty, empty, np.zeros(0)
        reach = int(np.ceil(radius / self._cell))
        # Half-neighbourhood: (0, 0) pairs within a cell, plus every
        # offset with dx > 0 or (dx == 0 and dy > 0) — each unordered
        # cell pair is visited exactly once.
        offsets = [(0, 0)] + [
            (dx, dy)
            for dx in range(0, reach + 1)
            for dy in range(-reach, reach + 1)
            if dx > 0 or (dx == 0 and dy > 0)
        ]
        a_parts: list[np.ndarray] = []
        b_parts: list[np.ndarray] = []
        for dx, dy in offsets:
            a_sorted, b_sorted = self._join_offset(dx, dy)
            if len(a_sorted) == 0:
                continue
            if dx == 0 and dy == 0:
                keep = a_sorted < b_sorted  # dedupe within-cell pairs
                a_sorted, b_sorted = a_sorted[keep], b_sorted[keep]
            a_parts.append(self._order[a_sorted])
            b_parts.append(self._order[b_sorted])
        if not a_parts:
            return empty, empty, np.zeros(0)
        a = np.concatenate(a_parts)
        b = np.concatenate(b_parts)
        i = np.minimum(a, b)
        j = np.maximum(a, b)
        deltas = self._points[i] - self._points[j]
        dist = np.sqrt(deltas[:, 0] ** 2 + deltas[:, 1] ** 2)
        keep = dist <= radius
        i, j, dist = i[keep], j[keep], dist[keep]
        order = np.lexsort((j, i))
        return i[order], j[order], dist[order]

    def _join_offset(self, dx: int, dy: int) -> tuple[np.ndarray, np.ndarray]:
        """Cross-join every occupied cell with its ``(dx, dy)`` neighbour.

        Returns parallel arrays of *sorted-order* positions (indices into
        ``self._order``), one entry per candidate pair.
        """
        empty = np.zeros(0, dtype=np.int64)
        if dx == 0 and dy == 0:
            # Explicit int64: np.arange defaults to the *platform* int,
            # and every other position array in the index is int64.
            valid = np.arange(len(self._keys), dtype=np.int64)
            b_pos = valid
        else:
            # Decompose keys so out-of-range neighbour coordinates are
            # dropped *before* re-keying — a raw key offset would alias
            # across grid columns whenever cy + dy overflows the stride.
            cx = self._keys // self._stride
            cy = self._keys % self._stride
            ncx = cx + np.int64(dx)
            ncy = cy + np.int64(dy)
            in_range = np.flatnonzero(
                (ncx <= self._max_cell[0])
                & (ncy >= 0)
                & (ncy <= self._max_cell[1])
            )
            neighbour = ncx[in_range] * self._stride + ncy[in_range]
            b_pos = np.searchsorted(self._keys, neighbour)
            found = (b_pos < len(self._keys)) & (
                self._keys[np.minimum(b_pos, len(self._keys) - 1)] == neighbour
            )
            valid = in_range[found]
            b_pos = b_pos[found]
        if len(valid) == 0:
            return empty, empty
        starts_a = self._starts[valid]
        counts_a = self._counts[valid]
        starts_b = self._starts[b_pos]
        counts_b = self._counts[b_pos]
        # Expand the ragged cross products: each element of block A pairs
        # with every element of block B.
        a_elems = _ragged_arange(starts_a, counts_a)
        per_elem_b = np.repeat(counts_b, counts_a)
        a_out = np.repeat(a_elems, per_elem_b)
        b_start_per_elem = np.repeat(starts_b, counts_a)
        b_out = _ragged_arange(b_start_per_elem, per_elem_b)
        return a_out, b_out
