"""SQLite job store: the service's durable control plane.

The checkpoint journal (data plane) already makes *trial results*
durable; this store makes the *queue* durable — which jobs exist, what
state each is in, and where its artifacts live. Together they give the
restart contract: a killed server reboots, flips orphaned ``running``
rows back to ``queued``, re-enqueues them, and the journal replay turns
re-execution into resumption.

Concurrency model: one connection, one lock. Requests arrive on the
event-loop thread and execute on worker threads, so every access takes
the store lock; job volumes (hundreds, not millions of *rows* — the
millions are trials, which live in journals) make a single serialized
connection the simplest correct choice. State changes that can race
(cancel vs. worker claim) are compare-and-swap ``UPDATE ... WHERE
state = ?`` statements, so exactly one side wins and the loser observes
the winner's state.

Durability: WAL journal with ``synchronous=FULL`` — a SIGKILL after a
successful submit response must never lose the job, and the write rate
(a handful of updates per job) makes the fsync cost irrelevant.
"""

from __future__ import annotations

import json
import os
import sqlite3
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.errors import ExperimentError
from repro.serve.jobs import JobState

_SCHEMA = """
CREATE TABLE IF NOT EXISTS jobs (
    id TEXT PRIMARY KEY,
    name TEXT NOT NULL,
    state TEXT NOT NULL,
    document TEXT NOT NULL,
    error TEXT,
    created REAL NOT NULL,
    started REAL,
    finished REAL,
    cancel_requested INTEGER NOT NULL DEFAULT 0,
    attempts INTEGER NOT NULL DEFAULT 0,
    done_trials INTEGER,
    total_trials INTEGER
);
CREATE INDEX IF NOT EXISTS jobs_state ON jobs (state);
"""


@dataclass
class JobRow:
    """One job row, decoded."""

    id: str
    name: str
    state: str
    document: Dict[str, Any]
    error: Optional[str]
    created: float
    started: Optional[float]
    finished: Optional[float]
    cancel_requested: bool
    attempts: int
    done_trials: Optional[int]
    total_trials: Optional[int]

    def summary(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "id": self.id,
            "name": self.name,
            "state": self.state,
            "created": self.created,
            "started": self.started,
            "finished": self.finished,
            "cancel_requested": self.cancel_requested,
            "attempts": self.attempts,
        }
        if self.total_trials:
            out["progress"] = {
                "done": self.done_trials or 0,
                "total": self.total_trials,
            }
        if self.error:
            out["error"] = self.error
        return out


class JobStore:
    """Thread-safe SQLite-backed job table (see module docstring)."""

    def __init__(self, path: str) -> None:
        self.path = os.path.abspath(path)
        os.makedirs(os.path.dirname(self.path), exist_ok=True)
        self._lock = threading.Lock()
        self._conn = sqlite3.connect(
            self.path, check_same_thread=False, isolation_level=None
        )
        self._conn.row_factory = sqlite3.Row
        with self._lock:
            self._conn.execute("PRAGMA journal_mode=WAL")
            self._conn.execute("PRAGMA synchronous=FULL")
            self._conn.executescript(_SCHEMA)

    def close(self) -> None:
        with self._lock:
            self._conn.close()

    # -- writes --------------------------------------------------------
    def create(self, job_id: str, name: str, document: Dict[str, Any]) -> None:
        with self._lock:
            self._conn.execute(
                "INSERT INTO jobs (id, name, state, document, created)"
                " VALUES (?, ?, ?, ?, ?)",
                (job_id, name, JobState.QUEUED, json.dumps(document, sort_keys=True),
                 time.time()),
            )

    def delete(self, job_id: str) -> None:
        with self._lock:
            self._conn.execute("DELETE FROM jobs WHERE id = ?", (job_id,))

    def mark_running(self, job_id: str) -> bool:
        """Claim a queued job; False if a cancel (or anything) won the race."""
        with self._lock:
            cur = self._conn.execute(
                "UPDATE jobs SET state = ?, started = ?, attempts = attempts + 1"
                " WHERE id = ? AND state = ?",
                (JobState.RUNNING, time.time(), job_id, JobState.QUEUED),
            )
            return cur.rowcount == 1

    def finish(self, job_id: str, state: str, error: Optional[str] = None) -> bool:
        """Move a running job to a terminal state."""
        if state not in JobState.TERMINAL:
            raise ExperimentError(f"finish() requires a terminal state, got {state!r}")
        with self._lock:
            cur = self._conn.execute(
                "UPDATE jobs SET state = ?, finished = ?, error = ?"
                " WHERE id = ? AND state = ?",
                (state, time.time(), error, job_id, JobState.RUNNING),
            )
            return cur.rowcount == 1

    def request_cancel(self, job_id: str) -> Optional[str]:
        """Flag a cancel; returns the post-request state (None = unknown id).

        A queued job cancels immediately; a running one keeps running
        until its next progress checkpoint observes the flag.
        """
        with self._lock:
            cur = self._conn.execute(
                "UPDATE jobs SET cancel_requested = 1 WHERE id = ?", (job_id,)
            )
            if cur.rowcount == 0:
                return None
            self._conn.execute(
                "UPDATE jobs SET state = ?, finished = ? WHERE id = ? AND state = ?",
                (JobState.CANCELLED, time.time(), job_id, JobState.QUEUED),
            )
            row = self._conn.execute(
                "SELECT state FROM jobs WHERE id = ?", (job_id,)
            ).fetchone()
            return row["state"] if row else None

    def progress(self, job_id: str, done: int, total: int) -> None:
        with self._lock:
            self._conn.execute(
                "UPDATE jobs SET done_trials = ?, total_trials = ? WHERE id = ?",
                (done, total, job_id),
            )

    def recover(
        self,
        settle: Callable[[str, bool], Optional[Tuple[str, Optional[str]]]],
    ) -> List[str]:
        """Boot-time recovery: orphaned ``running`` rows re-queue.

        Returns every queued job id in submission order, for
        re-enqueueing. ``settle(job_id, cancel_requested)`` sees each
        unfinished row first and returns the terminal ``(state, error)``
        to commit instead — for a job that ended before the crash, or
        one whose cancel was requested — after writing whatever must
        precede that commit (the ``final`` status line), the order a
        live job finishes in; ``None`` leaves the row to run.
        """
        with self._lock:
            unfinished = self._conn.execute(
                "SELECT id, cancel_requested FROM jobs WHERE state IN (?, ?)"
                " ORDER BY rowid",
                (JobState.QUEUED, JobState.RUNNING),
            ).fetchall()
            for row in unfinished:
                end = settle(row["id"], bool(row["cancel_requested"]))
                if end is not None:
                    self._conn.execute(
                        "UPDATE jobs SET state = ?, finished = ?, error = ?"
                        " WHERE id = ?",
                        (end[0], time.time(), end[1], row["id"]),
                    )
            self._conn.execute(
                "UPDATE jobs SET state = ? WHERE state = ?",
                (JobState.QUEUED, JobState.RUNNING),
            )
            rows = self._conn.execute(
                "SELECT id FROM jobs WHERE state = ? ORDER BY rowid",
                (JobState.QUEUED,),
            ).fetchall()
            return [row["id"] for row in rows]

    # -- reads ---------------------------------------------------------
    def get(self, job_id: str) -> Optional[JobRow]:
        with self._lock:
            row = self._conn.execute(
                "SELECT * FROM jobs WHERE id = ?", (job_id,)
            ).fetchone()
        return self._decode(row) if row else None

    def state_of(self, job_id: str) -> Optional[str]:
        with self._lock:
            row = self._conn.execute(
                "SELECT state FROM jobs WHERE id = ?", (job_id,)
            ).fetchone()
        return row["state"] if row else None

    def cancel_requested(self, job_id: str) -> bool:
        with self._lock:
            row = self._conn.execute(
                "SELECT cancel_requested FROM jobs WHERE id = ?", (job_id,)
            ).fetchone()
        return bool(row and row["cancel_requested"])

    def list(self, limit: int = 100) -> List[JobRow]:
        with self._lock:
            rows = self._conn.execute(
                "SELECT * FROM jobs ORDER BY rowid DESC LIMIT ?", (limit,)
            ).fetchall()
        return [self._decode(row) for row in rows]

    def counts(self) -> Dict[str, int]:
        with self._lock:
            rows = self._conn.execute(
                "SELECT state, COUNT(*) AS n FROM jobs GROUP BY state"
            ).fetchall()
        return {row["state"]: row["n"] for row in rows}

    @staticmethod
    def _decode(row: sqlite3.Row) -> JobRow:
        return JobRow(
            id=row["id"],
            name=row["name"],
            state=row["state"],
            document=json.loads(row["document"]),
            error=row["error"],
            created=row["created"],
            started=row["started"],
            finished=row["finished"],
            cancel_requested=bool(row["cancel_requested"]),
            attempts=row["attempts"],
            done_trials=row["done_trials"],
            total_trials=row["total_trials"],
        )
