"""Invariants of the structure-of-arrays energy ledger.

The vectorized :meth:`EnergyLedger.advance_all_to` carries the whole
event loop, so it must be indistinguishable from the scalar reference
path :meth:`EnergyLedger.advance_slot_to`: same drains bit for bit, the
same deaths at the same instants, and the historical death-id contract
(ascending order, each id exactly once per run).
"""

import math

import numpy as np
import pytest

from repro.network import build_network
from repro.network.energy_ledger import EnergyLedger


def clone_ledger(ledger: EnergyLedger) -> EnergyLedger:
    clone = EnergyLedger(len(ledger))
    clone.capacity_j[:] = ledger.capacity_j
    clone.energy_j[:] = ledger.energy_j
    clone.believed_j[:] = ledger.believed_j
    clone.consumption_w[:] = ledger.consumption_w
    clone.clock[:] = ledger.clock
    clone.death_time[:] = ledger.death_time
    clone.alive[:] = ledger.alive
    return clone


def assert_ledgers_bitwise_equal(actual: EnergyLedger, expected: EnergyLedger):
    np.testing.assert_array_equal(actual.energy_j, expected.energy_j)
    np.testing.assert_array_equal(actual.believed_j, expected.believed_j)
    np.testing.assert_array_equal(actual.clock, expected.clock)
    np.testing.assert_array_equal(actual.alive, expected.alive)
    np.testing.assert_array_equal(actual.death_time, expected.death_time)


def random_ledger(count: int, rng: np.random.Generator) -> EnergyLedger:
    ledger = EnergyLedger(count)
    for slot in range(count):
        ledger.init_slot(
            slot,
            capacity_j=float(rng.uniform(50.0, 200.0)),
            initial_frac=float(rng.uniform(0.05, 1.0)),
        )
        ledger.consumption_w[slot] = float(rng.uniform(0.0, 3.0))
    return ledger


class TestLedgerBasics:
    def test_rejects_empty_ledger(self):
        with pytest.raises(ValueError, match="at least one slot"):
            EnergyLedger(0)

    def test_backwards_advance_rejected(self):
        ledger = EnergyLedger(3)
        for slot in range(3):
            ledger.init_slot(slot, capacity_j=100.0, initial_frac=1.0)
        ledger.advance_all_to(5.0)
        with pytest.raises(ValueError, match="cannot advance"):
            ledger.advance_all_to(4.0)


class TestDeadNodesStayDead:
    def test_dead_nodes_never_regain_energy_on_advance(self):
        ledger = EnergyLedger(2)
        for slot in range(2):
            ledger.init_slot(slot, capacity_j=100.0, initial_frac=1.0)
        ledger.consumption_w[:] = [50.0, 1.0]

        assert ledger.advance_all_to(3.0) == [0]
        assert ledger.alive.tolist() == [False, True]
        assert ledger.energy_j[0] == 0.0
        assert ledger.death_time[0] == 2.0  # 100 J / 50 W

        # Charging a dead slot is a no-op...
        ledger.charge_slot(0, 1_000.0, 1_000.0)
        assert ledger.energy_j[0] == 0.0
        assert ledger.believed_j[0] == 0.0

        # ...and no later advance resurrects it or moves its death time.
        for time in (5.0, 8.0, 21.0):
            died = ledger.advance_all_to(time)
            assert 0 not in died
            assert ledger.energy_j[0] == 0.0
            assert not ledger.alive[0]
            assert ledger.death_time[0] == 2.0


class TestDeathIdContract:
    def test_death_ids_ascending_and_exactly_once(self):
        ledger = EnergyLedger(6)
        for slot in range(6):
            ledger.init_slot(slot, capacity_j=100.0, initial_frac=1.0)
        # Slots 1, 3, 4 die within the first advance; slot 0 in the
        # second; slot 5 much later; slot 2 draws nothing and never dies.
        ledger.consumption_w[:] = [10.0, 200.0, 0.0, 150.0, 400.0, 1.0]

        assert ledger.advance_all_to(1.0) == [1, 3, 4]
        assert ledger.advance_all_to(11.0) == [0]
        assert ledger.advance_all_to(100.0) == [5]
        assert ledger.advance_all_to(1_000.0) == []
        assert ledger.alive_ids() == [2]
        assert ledger.dead_ids() == [0, 1, 3, 4, 5]


class TestScalarVectorEquivalence:
    def test_vectorized_advance_matches_scalar_path_on_random_schedules(self):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            count = int(rng.integers(1, 9))
            vec = random_ledger(count, rng)
            ref = clone_ledger(vec)

            time = 0.0
            for _ in range(40):
                time += float(rng.uniform(0.0, 40.0))
                died_vec = vec.advance_all_to(time)
                died_ref = [
                    slot
                    for slot in range(count)
                    if ref.advance_slot_to(slot, time)
                ]
                assert died_vec == died_ref, f"seed {seed} @ t={time}"
                assert_ledgers_bitwise_equal(vec, ref)
                # Occasionally recharge a slot (both paths identically).
                if rng.random() < 0.3:
                    slot = int(rng.integers(0, count))
                    delivered = float(rng.uniform(0.0, 150.0))
                    vec.charge_slot(slot, delivered, delivered)
                    ref.charge_slot(slot, delivered, delivered)
                    assert_ledgers_bitwise_equal(vec, ref)

    def test_network_advance_matches_per_node_scalar_path(self):
        for seed in (0, 1, 2):
            net = build_network(
                25, seed=seed, width=60.0, height=60.0, battery_capacity_j=500.0
            )
            mirror = clone_ledger(net.ledger)
            rng = np.random.default_rng(seed + 100)

            time = 0.0
            seen_deaths: list[int] = []
            for _ in range(60):
                time += float(rng.uniform(100.0, 20_000.0))
                died = net.advance_to(time)
                died_ref = [
                    slot
                    for slot in range(len(mirror))
                    if mirror.advance_slot_to(slot, time)
                ]
                assert died == died_ref
                assert died == sorted(died)
                assert not set(died) & set(seen_deaths)
                seen_deaths.extend(died)
                assert_ledgers_bitwise_equal(net.ledger, mirror)
                if died:
                    # Routing (and hence every draw) changes after deaths;
                    # mirror the new consumption so the paths stay paired.
                    net.recompute_consumption()
                    mirror.consumption_w[:] = net.ledger.consumption_w
                if net.ledger.alive_count() == 0:
                    break


class TestNextDeathTime:
    def test_infinite_when_no_slot_drains(self):
        ledger = EnergyLedger(3)
        for slot in range(3):
            ledger.init_slot(slot, capacity_j=100.0, initial_frac=1.0)
        assert ledger.next_death_time() == math.inf

    def test_per_slot_clocks_pair_with_their_own_slot(self):
        # Slot 0 dies at 0 + 50/1 = 50 s, slot 1 at 10 + 5/1 = 15 s.  A
        # clock column broadcast against the energy row would pair slot
        # 0's clock with slot 1's energy and report 5 s.
        ledger = EnergyLedger(2)
        ledger.load_arrays(
            capacity_j=np.full(2, 100.0),
            energy_j=np.array([50.0, 5.0]),
            believed_j=np.array([50.0, 5.0]),
            consumption_w=np.array([1.0, 1.0]),
            clock=np.array([0.0, 10.0]),
            alive=np.ones(2, dtype=bool),
        )
        assert ledger.next_death_time() == 15.0


class TestLoadArrays:
    def test_round_trip_matches_per_slot_fills(self):
        rng = np.random.default_rng(7)
        reference = random_ledger(16, rng)
        loaded = EnergyLedger(16)
        loaded.load_arrays(
            capacity_j=reference.capacity_j,
            energy_j=reference.energy_j,
            believed_j=reference.believed_j,
            consumption_w=reference.consumption_w,
            clock=reference.clock,
            alive=reference.alive,
        )
        assert_ledgers_bitwise_equal(loaded, reference)

    def test_scalar_clock_broadcasts(self):
        ledger = EnergyLedger(3)
        ledger.load_arrays(
            capacity_j=np.full(3, 100.0),
            energy_j=np.full(3, 50.0),
            believed_j=np.full(3, 50.0),
            consumption_w=np.zeros(3),
            clock=4.5,
            alive=np.ones(3, dtype=bool),
        )
        np.testing.assert_array_equal(ledger.clock, np.full(3, 4.5))

    def test_float32_arrays_rejected_at_the_boundary(self):
        ledger = EnergyLedger(3)
        with pytest.raises(TypeError, match="capacity_j must be float64"):
            ledger.load_arrays(
                capacity_j=np.full(3, 100.0, dtype=np.float32),
                energy_j=np.full(3, 50.0),
                believed_j=np.full(3, 50.0),
                consumption_w=np.zeros(3),
                clock=0.0,
                alive=np.ones(3, dtype=bool),
            )

    def test_shape_mismatch_rejected(self):
        ledger = EnergyLedger(3)
        with pytest.raises(ValueError, match=r"energy_j must have shape \(3,\)"):
            ledger.load_arrays(
                capacity_j=np.full(3, 100.0),
                energy_j=np.full(4, 50.0),
                believed_j=np.full(3, 50.0),
                consumption_w=np.zeros(3),
                clock=0.0,
                alive=np.ones(3, dtype=bool),
            )
