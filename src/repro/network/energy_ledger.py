"""Structure-of-arrays energy ledger backing every sensor node.

The discrete-event loop advances *all* nodes to the popped event's time
before handling it, so the energy bookkeeping is the hottest code in the
simulator: at ``N`` nodes and ``E`` events the per-node-object loop costs
``O(N * E)`` Python interpreter dispatches.  The ledger keeps the battery
state of the whole network in parallel NumPy arrays — one slot per node —
so the advance becomes a handful of vectorized array operations while
:class:`repro.network.node.SensorNode` objects stay around as thin views
onto their slot (the scalar API every call site already uses).

Both code paths live here, side by side, and implement the *same*
piecewise-linear drain semantics with identical IEEE-754 operation
order:

* :meth:`EnergyLedger.advance_slot_to` — the scalar per-node path, used
  by standalone nodes and kept as the reference implementation.
* :meth:`EnergyLedger.advance_all_to` — the vectorized whole-network
  path driven by :meth:`repro.network.network.Network.advance_to`.

``tests/network/test_energy_ledger.py`` holds a property-style test
pinning the two paths to bitwise-equal results on random schedules.
"""

from __future__ import annotations

import math

import numpy as np

from repro.utils.validation import require_float64

__all__ = ["EnergyLedger"]

#: Tolerance realising deaths scheduled at the exact predicted depletion
#: instant despite float rounding (see ``advance_slot_to``).
_DEATH_TOL = 1e-7

#: Slack allowed on the "time never flows backwards" check.
_CLOCK_TOL = 1e-9


class EnergyLedger:
    """Battery state for ``count`` nodes, stored as parallel arrays.

    Attributes (all ndarrays of length ``count``)
    ----------
    capacity_j:
        Full battery energy per node, joules.
    energy_j:
        True residual energy per node.
    believed_j:
        The node's own (spoofable) energy estimate.
    consumption_w:
        Current steady-state power draw per node.
    clock:
        Simulation time each slot's energy state is valid at.
    death_time:
        Exact depletion instant per node; ``nan`` while alive.
    alive:
        Boolean liveness flags.
    """

    __slots__ = (
        "capacity_j",
        "energy_j",
        "believed_j",
        "consumption_w",
        "clock",
        "death_time",
        "alive",
    )

    def __init__(self, count: int) -> None:
        if count < 1:
            raise ValueError(f"ledger needs at least one slot, got {count}")
        self.capacity_j = np.zeros(count, dtype=float)
        self.energy_j = np.zeros(count, dtype=float)
        self.believed_j = np.zeros(count, dtype=float)
        self.consumption_w = np.zeros(count, dtype=float)
        self.clock = np.zeros(count, dtype=float)
        self.death_time = np.full(count, np.nan, dtype=float)
        self.alive = np.ones(count, dtype=bool)

    def __len__(self) -> int:
        return self.energy_j.shape[0]

    # ------------------------------------------------------------------
    # Slot lifecycle
    # ------------------------------------------------------------------
    def init_slot(self, slot: int, capacity_j: float, initial_frac: float) -> None:
        """Initialise one slot to a fresh battery at ``t = 0``."""
        self.capacity_j[slot] = capacity_j
        self.energy_j[slot] = capacity_j * initial_frac
        self.believed_j[slot] = self.energy_j[slot]
        self.consumption_w[slot] = 0.0
        self.clock[slot] = 0.0
        self.death_time[slot] = np.nan
        self.alive[slot] = True

    def load_arrays(
        self,
        *,
        capacity_j: "np.ndarray | object",
        energy_j: "np.ndarray | object",
        believed_j: "np.ndarray | object",
        consumption_w: "np.ndarray | object",
        clock: "float | np.ndarray | object",
        alive: "np.ndarray | object",
    ) -> None:
        """Bulk-initialise every slot from parallel arrays.

        The public array entry point (the digital twin seeds its replica
        from a run-start snapshot through here): each array must cover
        every slot, and externally supplied data cannot smuggle narrowed
        floats into the bit-for-bit drain arithmetic —
        :func:`~repro.utils.validation.require_float64` rejects them at
        the boundary.  ``clock`` may be a scalar (one shared start time)
        or a per-slot array.
        """
        count = len(self)
        fields = {
            "capacity_j": require_float64(capacity_j, "capacity_j"),
            "energy_j": require_float64(energy_j, "energy_j"),
            "believed_j": require_float64(believed_j, "believed_j"),
            "consumption_w": require_float64(consumption_w, "consumption_w"),
        }
        for name, values in fields.items():
            if values.shape != (count,):
                raise ValueError(
                    f"{name} must have shape ({count},), got {values.shape}"
                )
        alive_mask = np.asarray(alive, dtype=bool)
        if alive_mask.shape != (count,):
            raise ValueError(
                f"alive must have shape ({count},), got {alive_mask.shape}"
            )
        self.capacity_j[:] = fields["capacity_j"]
        self.energy_j[:] = fields["energy_j"]
        self.believed_j[:] = fields["believed_j"]
        self.consumption_w[:] = fields["consumption_w"]
        self.clock[:] = require_float64(clock, "clock")
        self.alive[:] = alive_mask

    # ------------------------------------------------------------------
    # Scalar (per-slot) path — the reference semantics
    # ------------------------------------------------------------------
    def advance_slot_to(self, slot: int, time: float) -> bool:
        """Drain one slot's battery up to ``time``; True if the node died.

        Time never flows backwards for a node; callers advance slots
        monotonically.  If the battery empties en route, the node dies at
        the exact depletion instant.
        """
        clock = float(self.clock[slot])
        if time < clock - _CLOCK_TOL:
            raise ValueError(
                f"cannot advance slot {slot} to {time} "
                f"(clock already at {clock})"
            )
        dt = max(0.0, time - clock)
        if not self.alive[slot]:
            self.clock[slot] = time
            return False
        energy = float(self.energy_j[slot])
        consumption = float(self.consumption_w[slot])
        drained = consumption * dt
        died = False
        # The small tolerance realises deaths scheduled at the exact
        # predicted depletion instant despite float rounding.
        if drained >= energy - _DEATH_TOL and consumption > 0.0:
            self.death_time[slot] = min(clock + energy / consumption, time)
            self.energy_j[slot] = 0.0
            self.believed_j[slot] = 0.0
            self.alive[slot] = False
            died = True
        else:
            self.energy_j[slot] = energy - drained
            self.believed_j[slot] = max(0.0, float(self.believed_j[slot]) - drained)
        self.clock[slot] = time
        return died

    def charge_slot(self, slot: int, delivered_j: float, believed_j: float) -> None:
        """Apply a completed charging service to one slot.

        Both credits clamp at capacity.  Dead nodes cannot be revived.
        """
        if not self.alive[slot]:
            return
        capacity = float(self.capacity_j[slot])
        self.energy_j[slot] = min(capacity, float(self.energy_j[slot]) + delivered_j)
        self.believed_j[slot] = min(
            capacity, float(self.believed_j[slot]) + believed_j
        )

    def reset_slot_energy(self, slot: int, fraction: float) -> None:
        """Reset one slot's true and believed energy (pre-run calibration)."""
        self.energy_j[slot] = float(self.capacity_j[slot]) * fraction
        self.believed_j[slot] = self.energy_j[slot]

    # ------------------------------------------------------------------
    # Vectorized (whole-ledger) path — the hot loop
    # ------------------------------------------------------------------
    def advance_all_to(self, time: float) -> list[int]:
        """Advance every slot to ``time``; return the ids that died.

        Semantically identical to calling :meth:`advance_slot_to` on each
        slot in ascending id order — the returned death list is ascending
        and each id appears exactly once across a run.  One fused pass
        over the arrays replaces the per-node Python loop.
        """
        clock = self.clock
        # The ledger always holds >= 1 slot (enforced in __init__), so
        # these reductions can never see an empty array.
        max_clock = float(clock.max())
        if time < max_clock - _CLOCK_TOL:
            slot = int(clock.argmax())
            raise ValueError(
                f"cannot advance slot {slot} to {time} "
                f"(clock already at {float(clock[slot])})"
            )
        alive = self.alive
        dt = np.maximum(0.0, time - clock)
        drained = self.consumption_w * dt
        dying = alive & (drained >= self.energy_j - _DEATH_TOL) & (
            self.consumption_w > 0.0
        )
        if dying.any():
            surviving = alive & ~dying
            self.energy_j[surviving] -= drained[surviving]
            self.believed_j[surviving] = np.maximum(
                0.0, self.believed_j[surviving] - drained[surviving]
            )
            self.death_time[dying] = np.minimum(
                clock[dying] + self.energy_j[dying] / self.consumption_w[dying],
                time,
            )
            self.energy_j[dying] = 0.0
            self.believed_j[dying] = 0.0
            self.alive[dying] = False
            died = np.flatnonzero(dying).tolist()
        else:
            self.energy_j[alive] -= drained[alive]
            self.believed_j[alive] = np.maximum(
                0.0, self.believed_j[alive] - drained[alive]
            )
            died = []
        self.clock[:] = time
        return died

    # ------------------------------------------------------------------
    # Reductions (all O(N) single ndarray passes)
    # ------------------------------------------------------------------
    def next_death_time(self) -> float:
        """Earliest predicted depletion at current draws (``inf`` if none)."""
        draining = self.alive & (self.consumption_w > 0.0)
        if not draining.any():
            return math.inf
        times = (
            self.clock[draining]
            + self.energy_j[draining] / self.consumption_w[draining]
        )
        return float(times.min())

    def total_alive_energy(self) -> float:
        """Sum of true residual energies over alive slots, joules."""
        return float(self.energy_j[self.alive].sum())

    def alive_ids(self) -> list[int]:
        """Ids of alive slots, ascending."""
        return np.flatnonzero(self.alive).tolist()

    def dead_ids(self) -> list[int]:
        """Ids of dead slots, ascending."""
        return np.flatnonzero(~self.alive).tolist()

    def alive_count(self) -> int:
        """Number of alive slots."""
        return int(self.alive.sum())
