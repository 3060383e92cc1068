"""Crash-safe persistent job queue for distributed campaign execution.

One SQLite database holds every campaign submitted to the service,
decomposed into individually leasable trial jobs.  The state machine per
job is strict and append-only logged::

    pending -> leased -> done | failed | quarantined
                  \\-> pending        (lease expired / transient failure,
                                       within the requeue budget)

Every transition is recorded in an append-only ``transitions`` table
(monotonic ``seq``), which doubles as the progress stream served over
HTTP.  Completed trials are persisted through the existing
:class:`~repro.campaign.store.CampaignStore` — same content-addressed
keys, same JSONL log — so service campaigns and in-process campaigns
share one cache and one exactly-once guarantee: the first transition of
a job to ``done`` writes the record; any later completion of the same
key (a worker that lost its lease but finished anyway) is a no-op.

Durability posture: SQLite in WAL mode with ``synchronous=NORMAL``; a
``kill -9`` of a worker leaves its jobs ``leased`` until the TTL lapses,
after which :meth:`JobQueue.requeue_expired` (run by every lease call)
returns them to ``pending`` — or ``quarantined`` once the bounded
requeue budget is spent, so a poison trial cannot cycle forever.

:class:`JobQueue` instances wrap one SQLite connection and are *not*
thread-safe; open one per thread (they are cheap).
"""

from __future__ import annotations

import json
import sqlite3
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterator, Mapping

from repro.campaign.spec import CampaignSpec
from repro.campaign.store import CampaignStore

__all__ = [
    "DEFAULT_LEASE_TTL_S",
    "DEFAULT_REQUEUE_BUDGET",
    "JobQueue",
    "LeasedJob",
    "SpecConflictError",
    "UnknownCampaignError",
]

#: Default seconds a lease stays valid without a heartbeat.
DEFAULT_LEASE_TTL_S = 30.0

#: Default times a job may return to ``pending`` before quarantine.
DEFAULT_REQUEUE_BUDGET = 3

#: Schema version stamped into the database (PRAGMA user_version).
_SCHEMA_VERSION = 1

_SCHEMA = """
CREATE TABLE IF NOT EXISTS campaigns (
    campaign_id   TEXT PRIMARY KEY,
    spec_json     TEXT NOT NULL,
    spec_digest   TEXT NOT NULL,
    state         TEXT NOT NULL DEFAULT 'active',
    timeout_s     REAL,
    submitted_at  REAL NOT NULL,
    total_trials  INTEGER NOT NULL
);
CREATE TABLE IF NOT EXISTS jobs (
    campaign_id      TEXT NOT NULL,
    key              TEXT NOT NULL,
    trial_id         TEXT NOT NULL,
    trial_ref        TEXT NOT NULL,
    params_json      TEXT NOT NULL,
    timeout_s        REAL,
    state            TEXT NOT NULL,
    worker_id        TEXT,
    lease_expires_at REAL,
    requeues         INTEGER NOT NULL DEFAULT 0,
    attempts         INTEGER NOT NULL DEFAULT 0,
    cached           INTEGER NOT NULL DEFAULT 0,
    result_json      TEXT,
    error            TEXT,
    updated_at       REAL NOT NULL,
    PRIMARY KEY (campaign_id, key)
);
CREATE INDEX IF NOT EXISTS jobs_by_state
    ON jobs (state, campaign_id, trial_id);
CREATE TABLE IF NOT EXISTS transitions (
    seq          INTEGER PRIMARY KEY AUTOINCREMENT,
    campaign_id  TEXT NOT NULL,
    key          TEXT NOT NULL,
    trial_id     TEXT NOT NULL,
    from_state   TEXT,
    to_state     TEXT NOT NULL,
    worker_id    TEXT,
    at           REAL NOT NULL,
    detail       TEXT
);
CREATE INDEX IF NOT EXISTS transitions_by_campaign
    ON transitions (campaign_id, seq);
CREATE TABLE IF NOT EXISTS usage (
    campaign_id      TEXT PRIMARY KEY,
    trials_executed  INTEGER NOT NULL DEFAULT 0,
    trials_completed INTEGER NOT NULL DEFAULT 0,
    trials_failed    INTEGER NOT NULL DEFAULT 0,
    cache_hits       INTEGER NOT NULL DEFAULT 0,
    requeues         INTEGER NOT NULL DEFAULT 0,
    quarantined      INTEGER NOT NULL DEFAULT 0,
    cpu_seconds      REAL NOT NULL DEFAULT 0.0
);
"""

#: Job states that will never change again.
_TERMINAL_STATES = ("done", "failed", "quarantined")


class UnknownCampaignError(KeyError):
    """Raised for operations on a campaign the queue has never seen."""


class SpecConflictError(ValueError):
    """Raised when a campaign name is resubmitted with a different spec."""


@dataclass(frozen=True)
class LeasedJob:
    """One trial a worker currently holds a lease on."""

    campaign_id: str
    key: str
    trial_id: str
    trial_ref: str
    params: Mapping[str, Any]
    timeout_s: float | None
    lease_expires_at: float
    attempts: int


class JobQueue:
    """SQLite-backed persistent trial-job queue (one connection, one thread)."""

    def __init__(
        self,
        db_path: str | Path,
        store: CampaignStore,
        *,
        requeue_budget: int = DEFAULT_REQUEUE_BUDGET,
        clock: Callable[[], float] = time.time,
    ) -> None:
        if requeue_budget < 0:
            raise ValueError(
                f"requeue_budget must be >= 0, got {requeue_budget}"
            )
        self.db_path = Path(db_path)
        self.store = store
        self.requeue_budget = requeue_budget
        self.clock = clock
        self.db_path.parent.mkdir(parents=True, exist_ok=True)
        self._conn = sqlite3.connect(self.db_path, timeout=30.0)
        try:
            self._conn.row_factory = sqlite3.Row
            self._conn.isolation_level = None  # explicit BEGIN/COMMIT below
            self._conn.execute("PRAGMA journal_mode=WAL")
            self._conn.execute("PRAGMA synchronous=NORMAL")
            self._conn.execute("PRAGMA busy_timeout=30000")
            # executescript manages its own transaction; DDL is idempotent.
            self._conn.executescript(_SCHEMA)
            self._conn.execute(f"PRAGMA user_version={_SCHEMA_VERSION}")
        except BaseException:
            # A corrupt or incompatible database must not leak the
            # just-opened connection (WAL files would stay pinned).
            self._conn.close()
            raise

    def close(self) -> None:
        """Release the underlying SQLite connection."""
        self._conn.close()

    def __enter__(self) -> "JobQueue":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    @contextmanager
    def _tx(self) -> Iterator[sqlite3.Connection]:
        """One write transaction; IMMEDIATE so lock conflicts fail early."""
        self._conn.execute("BEGIN IMMEDIATE")
        try:
            yield self._conn
        except BaseException:
            self._conn.execute("ROLLBACK")
            raise
        self._conn.execute("COMMIT")

    def _log_transition(
        self,
        campaign_id: str,
        key: str,
        trial_id: str,
        from_state: str | None,
        to_state: str,
        worker_id: str | None = None,
        detail: str | None = None,
    ) -> None:
        self._conn.execute(
            "INSERT INTO transitions "
            "(campaign_id, key, trial_id, from_state, to_state, worker_id,"
            " at, detail) VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
            (
                campaign_id, key, trial_id, from_state, to_state,
                worker_id, self.clock(), detail,
            ),
        )

    def _bump_usage(self, campaign_id: str, **deltas: float) -> None:
        sets = ", ".join(f"{column} = {column} + ?" for column in deltas)
        self._conn.execute(
            f"UPDATE usage SET {sets} WHERE campaign_id = ?",
            (*deltas.values(), campaign_id),
        )

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def submit(
        self, spec: CampaignSpec, *, timeout_s: float | None = None
    ) -> dict[str, Any]:
        """Enqueue a campaign's trials; idempotent for an identical spec.

        Trials already completed in the shared :class:`CampaignStore`
        are enqueued directly as ``done`` (counted as cache hits in the
        usage ledger), so a resubmitted or restarted campaign only
        executes its delta — the same semantics as the in-process
        runner.  Resubmitting the same name with a *different* spec is
        rejected: names identify campaigns for status/cancel routing.
        """
        digest = spec.key_for({"__spec__": [dict(p) for p in spec.grid]})
        now = self.clock()
        with self._tx():
            row = self._conn.execute(
                "SELECT spec_digest FROM campaigns WHERE campaign_id = ?",
                (spec.name,),
            ).fetchone()
            if row is not None:
                if row["spec_digest"] != digest:
                    raise SpecConflictError(
                        f"campaign {spec.name!r} already exists with a "
                        "different spec; clean it or bump the name/version"
                    )
                return self.campaign_status(spec.name)
            self._conn.execute(
                "INSERT INTO campaigns (campaign_id, spec_json, spec_digest,"
                " state, timeout_s, submitted_at, total_trials)"
                " VALUES (?, ?, ?, 'active', ?, ?, ?)",
                (
                    spec.name,
                    json.dumps(spec.to_dict(), sort_keys=True),
                    digest,
                    timeout_s,
                    now,
                    spec.trial_count,
                ),
            )
            self._conn.execute(
                "INSERT INTO usage (campaign_id) VALUES (?)", (spec.name,)
            )
            cache_hits = 0
            for trial in spec.trials():
                cached = self.store.load(spec.name, trial.key)
                state = "pending" if cached is None else "done"
                result_json = None
                if cached is not None:
                    cache_hits += 1
                    result_json = json.dumps(cached, sort_keys=True)
                self._conn.execute(
                    "INSERT INTO jobs (campaign_id, key, trial_id, trial_ref,"
                    " params_json, timeout_s, state, cached, result_json,"
                    " attempts, updated_at)"
                    " VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
                    (
                        spec.name,
                        trial.key,
                        trial.trial_id,
                        spec.trial,
                        json.dumps(dict(trial.params), sort_keys=True),
                        timeout_s,
                        state,
                        int(cached is not None),
                        result_json,
                        int(cached is not None and int(cached.get("attempts", 1))),
                        now,
                    ),
                )
                self._log_transition(
                    spec.name, trial.key, trial.trial_id, None, state,
                    detail="cache hit" if cached is not None else "submitted",
                )
            if cache_hits:
                self._bump_usage(spec.name, cache_hits=cache_hits)
        return self.campaign_status(spec.name)

    # ------------------------------------------------------------------
    # Leasing and heartbeats
    # ------------------------------------------------------------------
    def lease(
        self,
        worker_id: str,
        *,
        limit: int = 1,
        ttl_s: float = DEFAULT_LEASE_TTL_S,
    ) -> list[LeasedJob]:
        """Atomically claim up to ``limit`` pending jobs for ``ttl_s``.

        Expired leases are swept first, so a queue whose workers died
        heals on the next lease attempt by any surviving worker.
        """
        if limit < 1:
            raise ValueError(f"lease limit must be >= 1, got {limit}")
        if ttl_s <= 0:
            raise ValueError(f"lease ttl must be > 0, got {ttl_s}")
        self.requeue_expired()
        now = self.clock()
        leased: list[LeasedJob] = []
        with self._tx():
            rows = self._conn.execute(
                "SELECT j.* FROM jobs j"
                " JOIN campaigns c ON c.campaign_id = j.campaign_id"
                " WHERE j.state = 'pending' AND c.state = 'active'"
                " ORDER BY j.campaign_id, j.trial_id LIMIT ?",
                (limit,),
            ).fetchall()
            for row in rows:
                self._conn.execute(
                    "UPDATE jobs SET state = 'leased', worker_id = ?,"
                    " lease_expires_at = ?, attempts = attempts + 1,"
                    " updated_at = ?"
                    " WHERE campaign_id = ? AND key = ?",
                    (worker_id, now + ttl_s, now, row["campaign_id"], row["key"]),
                )
                self._log_transition(
                    row["campaign_id"], row["key"], row["trial_id"],
                    "pending", "leased", worker_id,
                )
                leased.append(
                    LeasedJob(
                        campaign_id=row["campaign_id"],
                        key=row["key"],
                        trial_id=row["trial_id"],
                        trial_ref=row["trial_ref"],
                        params=json.loads(row["params_json"]),
                        timeout_s=row["timeout_s"],
                        lease_expires_at=now + ttl_s,
                        attempts=row["attempts"] + 1,
                    )
                )
        return leased

    def heartbeat(
        self, worker_id: str, *, ttl_s: float = DEFAULT_LEASE_TTL_S
    ) -> list[tuple[str, str]]:
        """Renew every lease ``worker_id`` still holds; returns them.

        A job absent from the returned list was lost — its lease
        expired and another worker may already own it.  The worker
        should keep running its current trial anyway: completion is
        first-write-wins, so the race costs at most one duplicate
        execution, never a duplicate record.
        """
        now = self.clock()
        with self._tx():
            rows = self._conn.execute(
                "SELECT campaign_id, key FROM jobs"
                " WHERE state = 'leased' AND worker_id = ?"
                "   AND lease_expires_at >= ?",
                (worker_id, now),
            ).fetchall()
            held = [(row["campaign_id"], row["key"]) for row in rows]
            self._conn.execute(
                "UPDATE jobs SET lease_expires_at = ?, updated_at = ?"
                " WHERE state = 'leased' AND worker_id = ?"
                "   AND lease_expires_at >= ?",
                (now + ttl_s, now, worker_id, now),
            )
        return held

    def requeue_expired(self) -> int:
        """Return expired leases to ``pending`` (or quarantine them).

        Jobs whose requeue budget is spent go to ``quarantined``
        instead, so a trial that reliably kills its worker cannot cycle
        through the fleet forever.  Returns the number of jobs moved.
        """
        now = self.clock()
        moved = 0
        with self._tx():
            rows = self._conn.execute(
                "SELECT campaign_id, key, trial_id, worker_id, requeues"
                " FROM jobs WHERE state = 'leased' AND lease_expires_at < ?",
                (now,),
            ).fetchall()
            for row in rows:
                exhausted = row["requeues"] >= self.requeue_budget
                new_state = "quarantined" if exhausted else "pending"
                detail = (
                    f"lease expired; requeue budget ({self.requeue_budget}) spent"
                    if exhausted
                    else f"lease expired (requeue {row['requeues'] + 1})"
                )
                self._conn.execute(
                    "UPDATE jobs SET state = ?, worker_id = NULL,"
                    " lease_expires_at = NULL, requeues = requeues + 1,"
                    " error = CASE WHEN ? = 'quarantined' THEN ? ELSE error END,"
                    " updated_at = ?"
                    " WHERE campaign_id = ? AND key = ? AND state = 'leased'",
                    (
                        new_state, new_state, detail, now,
                        row["campaign_id"], row["key"],
                    ),
                )
                self._log_transition(
                    row["campaign_id"], row["key"], row["trial_id"],
                    "leased", new_state, row["worker_id"], detail,
                )
                self._bump_usage(
                    row["campaign_id"],
                    requeues=1,
                    **({"quarantined": 1} if exhausted else {}),
                )
                moved += 1
        return moved

    # ------------------------------------------------------------------
    # Completion
    # ------------------------------------------------------------------
    def complete(
        self,
        worker_id: str,
        campaign_id: str,
        key: str,
        report: Mapping[str, Any],
    ) -> str:
        """Record one executed trial; first write wins, duplicates no-op.

        ``report`` is an :func:`~repro.campaign.executor.execute_trial`
        report.  Returns the job's resulting state: ``done``,
        ``failed``, ``pending`` (transient failure requeued) — or
        ``ignored`` if the job was already terminal, in which case
        nothing is written anywhere (the exactly-once guarantee).
        """
        now = self.clock()
        with self._tx():
            row = self._conn.execute(
                "SELECT * FROM jobs WHERE campaign_id = ? AND key = ?",
                (campaign_id, key),
            ).fetchone()
            if row is None:
                raise UnknownCampaignError(
                    f"no job {key!r} in campaign {campaign_id!r}"
                )
            if row["state"] in _TERMINAL_STATES:
                return "ignored"
            outcome = str(report.get("outcome", "failed"))
            retryable = bool(report.get("retryable", False))
            error = report.get("error")
            stored = {
                "schema": 1,
                "campaign": campaign_id,
                "trial_id": row["trial_id"],
                "key": key,
                "params": json.loads(row["params_json"]),
                "outcome": outcome,
                "metrics": report.get("metrics"),
                "error": error,
                "attempts": int(row["attempts"]),
                "wall_time_s": float(report.get("wall_time_s", 0.0)),
                "worker_id": worker_id,
            }
            if outcome == "completed":
                new_state = "done"
            elif retryable and row["requeues"] < self.requeue_budget:
                new_state = "pending"
            else:
                new_state = "failed"
            self._conn.execute(
                "UPDATE jobs SET state = ?, worker_id = ?,"
                " lease_expires_at = NULL,"
                " requeues = requeues + (? = 'pending'),"
                " result_json = CASE WHEN ? = 'pending' THEN NULL ELSE ? END,"
                " error = ?, updated_at = ?"
                " WHERE campaign_id = ? AND key = ?",
                (
                    new_state,
                    None if new_state == "pending" else worker_id,
                    new_state,
                    new_state,
                    json.dumps(stored, sort_keys=True),
                    None if outcome == "completed" else str(error or ""),
                    now,
                    campaign_id,
                    key,
                ),
            )
            self._log_transition(
                campaign_id, key, row["trial_id"], row["state"], new_state,
                worker_id, None if outcome == "completed" else str(error or ""),
            )
            self._bump_usage(
                campaign_id,
                trials_executed=1,
                cpu_seconds=float(report.get("wall_time_s", 0.0)),
                **(
                    {"trials_completed": 1}
                    if new_state == "done"
                    else {"requeues": 1}
                    if new_state == "pending"
                    else {"trials_failed": 1}
                ),
            )
        # Persist outside the queue transaction: the store write is
        # atomic on its own (temp file + rename) and idempotent, and a
        # crash between COMMIT and save() at worst loses a cache entry,
        # never creates a duplicate or an inconsistent one.
        if outcome == "completed":
            self.store.append_log(campaign_id, stored)
            self.store.save(campaign_id, key, stored)
        elif new_state == "failed":
            self.store.append_log(campaign_id, stored)
        return new_state

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def _campaign_row(self, campaign_id: str) -> sqlite3.Row:
        row = self._conn.execute(
            "SELECT * FROM campaigns WHERE campaign_id = ?", (campaign_id,)
        ).fetchone()
        if row is None:
            raise UnknownCampaignError(f"unknown campaign {campaign_id!r}")
        return row

    def campaign_status(self, campaign_id: str) -> dict[str, Any]:
        """Queue-side status: per-state job counts and liveness."""
        row = self._campaign_row(campaign_id)
        counts = {
            state: 0
            for state in ("pending", "leased", "done", "failed", "quarantined")
        }
        for state_row in self._conn.execute(
            "SELECT state, COUNT(*) AS n FROM jobs"
            " WHERE campaign_id = ? GROUP BY state",
            (campaign_id,),
        ):
            counts[state_row["state"]] = state_row["n"]
        remaining = counts["pending"] + counts["leased"]
        return {
            "campaign": campaign_id,
            "state": row["state"],
            "submitted_at": row["submitted_at"],
            "total_trials": row["total_trials"],
            "job_counts": counts,
            "finished": row["state"] == "cancelled" or remaining == 0,
        }

    def list_campaigns(self) -> list[dict[str, Any]]:
        """Status of every campaign, oldest submission first."""
        names = [
            row["campaign_id"]
            for row in self._conn.execute(
                "SELECT campaign_id FROM campaigns ORDER BY submitted_at"
            )
        ]
        return [self.campaign_status(name) for name in names]

    def cancel(self, campaign_id: str) -> dict[str, Any]:
        """Stop leasing a campaign's jobs; running leases finish or expire."""
        self._campaign_row(campaign_id)
        with self._tx():
            self._conn.execute(
                "UPDATE campaigns SET state = 'cancelled' WHERE campaign_id = ?",
                (campaign_id,),
            )
        return self.campaign_status(campaign_id)

    def events_since(
        self, campaign_id: str, after_seq: int = 0, *, limit: int = 1000
    ) -> list[dict[str, Any]]:
        """Append-only transition records with ``seq > after_seq``."""
        self._campaign_row(campaign_id)
        rows = self._conn.execute(
            "SELECT * FROM transitions WHERE campaign_id = ? AND seq > ?"
            " ORDER BY seq LIMIT ?",
            (campaign_id, after_seq, limit),
        ).fetchall()
        return [dict(row) for row in rows]

    def usage(self, campaign_id: str) -> dict[str, Any]:
        """The campaign's compute-accounting ledger."""
        self._campaign_row(campaign_id)
        row = self._conn.execute(
            "SELECT * FROM usage WHERE campaign_id = ?", (campaign_id,)
        ).fetchone()
        return dict(row)

    def results(self, campaign_id: str) -> list[dict[str, Any]]:
        """Final per-trial records (terminal jobs only), by trial id."""
        self._campaign_row(campaign_id)
        rows = self._conn.execute(
            "SELECT trial_id, key, state, cached, requeues, attempts,"
            " result_json, error FROM jobs"
            " WHERE campaign_id = ? ORDER BY trial_id",
            (campaign_id,),
        ).fetchall()
        records = []
        for row in rows:
            if row["state"] not in _TERMINAL_STATES:
                continue
            record: dict[str, Any] = (
                json.loads(row["result_json"]) if row["result_json"] else {}
            )
            record.setdefault("trial_id", row["trial_id"])
            record.setdefault("key", row["key"])
            record.setdefault(
                "outcome", "completed" if row["state"] == "done" else "failed"
            )
            record.setdefault("error", row["error"])
            record.setdefault("attempts", row["attempts"])
            record["cached"] = bool(row["cached"])
            record["state"] = row["state"]
            record["requeues"] = row["requeues"]
            records.append(record)
        return records

    def sweep_idle(self) -> dict[str, Any]:
        """Queue-wide health snapshot (used by ``GET /healthz``)."""
        self.requeue_expired()
        totals = {
            row["state"]: row["n"]
            for row in self._conn.execute(
                "SELECT state, COUNT(*) AS n FROM jobs GROUP BY state"
            )
        }
        return {"job_counts": totals, "campaigns": len(self.list_campaigns())}
