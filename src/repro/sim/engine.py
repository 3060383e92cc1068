"""The discrete-event engine: a versioned priority queue of events.

Node-related events (requests, deaths) are *predictions* that become stale
whenever a node's consumption changes or it receives charge.  Rather than
hunting stale entries out of the heap, every scheduled event carries the
version stamp of the entity it concerns; pops with an outdated stamp are
silently discarded.  Ties on time break by insertion order, making runs
fully deterministic.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass, field
from typing import Any

__all__ = ["EventQueue"]


@dataclass(frozen=True, order=True)
class ScheduledEvent:
    """One queue entry.

    Ordering is by (time, sequence); the payload never participates in
    comparisons.
    """

    time: float
    sequence: int
    kind: str = field(compare=False)
    payload: Any = field(compare=False, default=None)
    version_key: Any = field(compare=False, default=None)
    version: int = field(compare=False, default=0)


class EventQueue:
    """Deterministic min-heap of :class:`ScheduledEvent` with versioning."""

    def __init__(self) -> None:
        self._heap: list[ScheduledEvent] = []
        self._counter = itertools.count()
        self._versions: dict[Any, int] = {}

    def __len__(self) -> int:
        return len(self._heap)

    def current_version(self, key: Any) -> int:
        """Current version stamp of the given entity key."""
        return self._versions.get(key, 0)

    def invalidate(self, key: Any) -> int:
        """Bump the entity's version, implicitly cancelling its events."""
        self._versions[key] = self._versions.get(key, 0) + 1
        return self._versions[key]

    def forget(self, key: Any) -> None:
        """Drop the entity's version entry; its outstanding events go stale.

        The version table otherwise grows monotonically — entries for dead
        nodes would linger for the whole horizon.  Scheduled events are
        always stamped with a version >= 1 (see :meth:`schedule`), so once
        the entry is gone ``current_version`` falls back to 0 and every
        outstanding event for the key is discarded on pop.

        ``forget`` is terminal: only call it for entities that will never
        be scheduled or invalidated again (a dead node).  Scheduling the
        key afterwards re-registers it at version 1, which would revive
        any version-1 stragglers from before the forget.
        """
        self._versions.pop(key, None)

    def tracked_keys(self) -> int:
        """Number of entity keys currently holding a version entry."""
        return len(self._versions)

    def schedule(
        self,
        time: float,
        kind: str,
        payload: Any = None,
        version_key: Any = None,
    ) -> ScheduledEvent:
        """Enqueue an event; stamps it with the entity's current version.

        A key's first schedule registers it at version 1 (never 0), so a
        later :meth:`forget` reliably stales every stamped event.
        """
        # NaN, "never" (+inf) and -inf are all rejected: a -inf entry
        # would silently sort before every real event in the heap.
        if not math.isfinite(time):
            raise ValueError(f"cannot schedule event at time {time!r}")
        event = ScheduledEvent(
            time=time,
            sequence=next(self._counter),
            kind=kind,
            payload=payload,
            version_key=version_key,
            version=self._versions.setdefault(version_key, 1) if version_key is not None else 0,
        )
        heapq.heappush(self._heap, event)
        return event

    def pop(self) -> ScheduledEvent | None:
        """Next live event, skipping stale ones; ``None`` when empty."""
        while self._heap:
            event = heapq.heappop(self._heap)
            if event.version_key is not None:
                if self._versions.get(event.version_key, 0) != event.version:
                    continue
            return event
        return None
