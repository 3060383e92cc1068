"""Tests for the versioned event queue."""

import pytest

from repro.sim.engine import EventQueue


class TestOrdering:
    def test_time_order(self):
        q = EventQueue()
        q.schedule(5.0, "b")
        q.schedule(1.0, "a")
        q.schedule(3.0, "c")
        kinds = [q.pop().kind for _ in range(3)]
        assert kinds == ["a", "c", "b"]

    def test_fifo_on_ties(self):
        q = EventQueue()
        q.schedule(1.0, "first")
        q.schedule(1.0, "second")
        assert q.pop().kind == "first"
        assert q.pop().kind == "second"

    def test_empty_pop_returns_none(self):
        assert EventQueue().pop() is None

    def test_len(self):
        q = EventQueue()
        q.schedule(1.0, "x")
        q.schedule(2.0, "y")
        assert len(q) == 2


class TestVersioning:
    def test_stale_events_skipped(self):
        q = EventQueue()
        q.schedule(1.0, "old", version_key="node1")
        q.invalidate("node1")
        q.schedule(2.0, "new", version_key="node1")
        event = q.pop()
        assert event.kind == "new"
        assert q.pop() is None

    def test_unkeyed_events_never_stale(self):
        q = EventQueue()
        q.schedule(1.0, "free")
        q.invalidate("whatever")
        assert q.pop().kind == "free"

    def test_independent_keys(self):
        q = EventQueue()
        q.schedule(1.0, "a", version_key="ka")
        q.schedule(2.0, "b", version_key="kb")
        q.invalidate("ka")
        assert q.pop().kind == "b"

    def test_current_version_tracks(self):
        q = EventQueue()
        assert q.current_version("k") == 0
        q.invalidate("k")
        q.invalidate("k")
        assert q.current_version("k") == 2


class TestValidation:
    def test_rejects_infinite_time(self):
        with pytest.raises(ValueError):
            EventQueue().schedule(float("inf"), "never")

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            EventQueue().schedule(float("nan"), "confused")

    def test_rejects_negative_infinite_time(self):
        # Regression: -inf used to slip past the finiteness check and
        # would sort before every real event in the heap.
        with pytest.raises(ValueError):
            EventQueue().schedule(float("-inf"), "before-time-itself")

    def test_payload_carried(self):
        q = EventQueue()
        q.schedule(1.0, "x", payload={"data": 42})
        assert q.pop().payload == {"data": 42}


class TestForget:
    def test_forget_shrinks_version_table(self):
        q = EventQueue()
        for i in range(5):
            q.schedule(float(i), "request", version_key=("node", i))
        assert q.tracked_keys() == 5
        q.forget(("node", 2))
        q.forget(("node", 4))
        assert q.tracked_keys() == 3

    def test_stale_events_discarded_after_forget(self):
        q = EventQueue()
        q.schedule(1.0, "death", version_key="n")
        q.schedule(2.0, "death", version_key="n")
        q.schedule(3.0, "other")
        q.forget("n")
        # Both stamped events are stale (stamp >= 1 vs fallback 0).
        event = q.pop()
        assert event is not None and event.kind == "other"
        assert q.pop() is None

    def test_forget_after_invalidations_still_stales(self):
        q = EventQueue()
        q.schedule(1.0, "death", version_key="n")
        q.invalidate("n")
        q.schedule(2.0, "death", version_key="n")
        q.forget("n")
        assert q.pop() is None

    def test_forget_unknown_key_is_noop(self):
        q = EventQueue()
        q.forget("never-seen")
        assert q.tracked_keys() == 0

    def test_first_schedule_registers_at_version_one(self):
        # forget() relies on stamped versions never being 0: a key's very
        # first schedule must register it at version 1.
        q = EventQueue()
        event = q.schedule(1.0, "death", version_key="n")
        assert event.version == 1
        assert q.current_version("n") == 1
        assert q.pop().kind == "death"

    def test_schedule_after_forget_reregisters(self):
        # The documented caveat: forget is terminal.  Scheduling the key
        # again re-registers it at version 1, which also revives any
        # version-1 stragglers still sitting in the heap.
        q = EventQueue()
        q.schedule(1.0, "death", version_key="n")
        q.forget("n")
        q.schedule(2.0, "death", version_key="n")
        assert q.current_version("n") == 1
        assert [e.time for e in (q.pop(), q.pop())] == [1.0, 2.0]
