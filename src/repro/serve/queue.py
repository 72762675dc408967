"""Job records, the bounded job queue, and the worker pool.

A job's status stream, ``<data-dir>/jobs/<id>.status.jsonl``, is its
only durable record: :class:`JobLog` appends each transition to it as
one ``fsync``ed line and answers every read from an in-memory index
folded from the same lines. The job's checkpoint directory,
``<data-dir>/jobs/<id>/``, holds the journals of its trial results.
The queue is scheduling state only: dropping it loses nothing, because
boot re-enqueues every job whose stream has no ``final`` line, and
journal replay turns re-execution into resumption.

Execution: each worker is an asyncio task that hands a job id to a
thread, which claims it (the ``running`` append, made only while the
job is still queued, so a raced cancel wins cleanly) and runs the sweep
via the same :func:`~repro.feast.runner.run_experiment` entry point a
batch caller uses — with ``checkpoint=`` always set, which routes even
serial runs through the supervised engine and gives every job the
journal. The job's progress callback is the service's only hook into a
run: it appends an unsynced ``progress`` line and raises
:class:`~repro.serve.jobs.JobCancelled` when a cancel was requested —
*after* the driver has journaled the chunk, so cancellation never loses
completed work.

Graceful drain (SIGTERM): workers stop claiming, in-flight jobs run to
completion, queued jobs stay queued for the next boot.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import os
import sys
import threading
import time
import traceback
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Dict, List, Optional

from repro import applog
from repro.errors import ExperimentError
from repro.feast.backends import make_backend
from repro.feast.runner import run_experiment
from repro.obs.live import STATUS_FORMAT, STATUS_SUFFIX, STATUS_VERSION, read_status
from repro.serve.jobs import JobCancelled, JobEntry, JobState, compile_job
from repro.serve.metrics import ServiceMetrics

#: Result document format pinned in every result file.
RESULT_FORMAT = "repro-serve-result"
RESULT_VERSION = 1

_STOP = object()


class JobPaths:
    """Filesystem layout of one data directory."""

    def __init__(self, data_dir: str) -> None:
        self.data_dir = os.path.abspath(data_dir)
        store = os.path.join(self.data_dir, "jobs.sqlite")
        if os.path.exists(store):  # not migrated: its queued jobs would never run
            raise ExperimentError(
                f"{store} is an older server's job store, which this version "
                "does not read; finish its jobs with that version or move it away"
            )
        self.jobs_dir = os.path.join(self.data_dir, "jobs")
        self.results_dir = os.path.join(self.data_dir, "results")
        os.makedirs(self.jobs_dir, exist_ok=True)
        os.makedirs(self.results_dir, exist_ok=True)

    def checkpoint(self, job_id: str) -> str:
        """The job's checkpoint directory."""
        return os.path.join(self.jobs_dir, job_id)

    def status(self, job_id: str) -> str:
        return os.path.join(self.jobs_dir, f"{job_id}{STATUS_SUFFIX}")

    def result(self, job_id: str) -> str:
        return os.path.join(self.results_dir, f"{job_id}.json")


def result_payload(job_id: str, name: str, result) -> Dict[str, Any]:
    """The result document: records exactly as the batch engine emits them."""
    return {
        "format": RESULT_FORMAT,
        "version": RESULT_VERSION,
        "job": job_id,
        "name": name,
        "n_records": len(result.records),
        "elapsed_seconds": result.elapsed_seconds,
        "records": [record.as_dict() for record in result.records],
    }


class JobLog:
    """Every job's status stream, and the index folded from them.

    One lock serializes every append and every read of the index, and a
    transition checks the job's state before it appends, so the append
    *is* the transition. An entry changes only after its line is
    written (and, for a durable line, synced), so no reader sees a
    transition the stream does not hold. Each append opens and closes
    the file: no descriptor outlives it.
    """

    def __init__(self, paths: JobPaths) -> None:
        self.paths = paths
        self._lock = threading.Lock()
        self._entries: Dict[str, JobEntry] = {}

    def load(self) -> List[str]:
        """Index every stream; returns the queued job ids in submission order.

        A stream without a complete header is removed: its submit never
        answered. A job without ``final`` is queued again, unless its
        stream holds a ``cancel`` line, which ends it ``cancelled``.
        """
        entries = []
        for name in os.listdir(self.paths.jobs_dir):
            if not name.endswith(STATUS_SUFFIX):
                continue
            path = os.path.join(self.paths.jobs_dir, name)
            with open(path, "rb") as fp:
                if not fp.readline().endswith(b"\n"):
                    os.remove(path)
                    continue
            events = read_status(path)
            entry = JobEntry(name[: -len(STATUS_SUFFIX)],
                             events[0]["experiment"], events[0]["created"])
            for event in events:
                entry.apply(event)
            entries.append(entry)
        queued = []
        with self._lock:
            for entry in sorted(entries, key=lambda e: (e.created, e.id)):
                self._entries[entry.id] = entry
                if entry.state in JobState.TERMINAL:
                    continue
                applog.repair(self.paths.status(entry.id))
                if entry.cancel_requested:
                    self._append(entry, "final", state=JobState.CANCELLED,
                                 error=None)
                else:
                    entry.state = JobState.QUEUED
                    queued.append(entry.id)
        return queued

    def create(self, job_id: str, name: str, document: Dict[str, Any]) -> None:
        """Write a new job's header and make its checkpoint directory,
        both names synced by one sync of ``jobs/``."""
        entry = JobEntry(job_id, name, time.time())
        with self._lock:
            try:
                self._append(
                    entry, "header", format=STATUS_FORMAT,
                    version=STATUS_VERSION, experiment=name, run_id=job_id,
                    created=entry.created, pid=os.getpid(), document=document,
                )
                os.mkdir(self.paths.checkpoint(job_id))
                applog.fsync_directory(self.paths.jobs_dir)
            except BaseException:
                with contextlib.suppress(OSError):
                    os.remove(self.paths.status(job_id))
                with contextlib.suppress(OSError):
                    os.rmdir(self.paths.checkpoint(job_id))
                raise
            self._entries[job_id] = entry

    def claim(self, job_id: str) -> bool:
        """Start a queued job with its ``running`` line; False if it is
        not queued, e.g. because a cancel won the race."""
        with self._lock:
            entry = self._entries[job_id]
            if entry.state != JobState.QUEUED:
                return False
            self._append(entry, "running")
            return True

    def progress(self, job_id: str, done: int, total: int) -> bool:
        """Append an unsynced progress line; returns whether a cancel
        was requested."""
        with self._lock:
            entry = self._entries[job_id]
            self._append(entry, "progress", durable=False, done=done, total=total)
            return entry.cancel_requested

    def cancel(self, job_id: str) -> str:
        """Request a cancel; returns the job's state after the request.

        A queued job ends ``cancelled`` here. A running job gets a
        ``cancel`` line, which its worker observes at its next progress
        checkpoint. A finished job is left as it is.
        """
        with self._lock:
            entry = self._entries[job_id]
            if entry.state == JobState.QUEUED:
                self._append(entry, "final", state=JobState.CANCELLED, error=None)
            elif entry.state == JobState.RUNNING and not entry.cancel_requested:
                self._append(entry, "cancel")
            return entry.state

    def finish(self, job_id: str, state: str, error: Optional[str] = None,
               **fields: Any) -> float:
        """Commit a running job's terminal state with its ``final`` line;
        returns the seconds the job ran."""
        with self._lock:
            entry = self._entries[job_id]
            self._append(entry, "final", state=state, error=error, **fields)
            return max(0.0, entry.finished - entry.started)

    def _append(self, entry: JobEntry, kind: str, durable: bool = True,
                **fields: Any) -> None:
        """Append one line to ``entry``'s stream, then fold it in.

        A durable line is synced first. A failed write raises, after
        cutting any torn bytes so the next append starts a clean line.
        """
        event = {"kind": kind, "seq": entry.seq, "ts": time.time(), **fields}
        path = self.paths.status(entry.id)
        fd = applog.open_append(path)
        try:
            applog.append_line(fd, event)
            if durable:
                os.fsync(fd)
        except BaseException:
            with contextlib.suppress(OSError):
                applog.repair(path)
            raise
        finally:
            os.close(fd)
        entry.apply(event)

    def summary(self, job_id: str) -> Optional[Dict[str, Any]]:
        """The job's JSON summary; ``None`` for an unknown id."""
        with self._lock:
            entry = self._entries.get(job_id)
            return entry.summary() if entry is not None else None

    def recent(self, limit: int) -> List[Dict[str, Any]]:
        """Summaries of the ``limit`` newest jobs, newest first."""
        with self._lock:
            entries = list(self._entries.values())[-limit:]
            return [entry.summary() for entry in reversed(entries)]

    def counts(self) -> Dict[str, int]:
        """The number of jobs in each state that has any."""
        with self._lock:
            states = [entry.state for entry in self._entries.values()]
        return {state: states.count(state) for state in set(states)}

    def header(self, job_id: str) -> Dict[str, Any]:
        """The job's header line, which holds its document."""
        with open(self.paths.status(job_id), "rb") as fp:
            return json.loads(fp.readline())


class WorkerPool:
    """N asyncio workers draining one bounded queue (see module docstring)."""

    def __init__(
        self,
        jobs: JobLog,
        metrics: ServiceMetrics,
        *,
        workers: int = 2,
        queue_size: int = 64,
        backend: str = "serial",
        run_jobs: int = 2,
    ) -> None:
        self.jobs = jobs
        self.paths = jobs.paths
        self.metrics = metrics
        self.workers = max(1, workers)
        self.backend = backend
        #: ``jobs`` of every job's run: its worker processes on a
        #: multi-process backend.
        self.run_jobs = run_jobs
        # Load the backend's modules at boot, not in the first job: jobs
        # run on executor threads, and a multi-process backend forks
        # right after its import (DESIGN.md §9). An unknown name fails
        # here instead of failing every job.
        make_backend(backend)
        self.queue: "asyncio.Queue" = asyncio.Queue(maxsize=queue_size)
        self._tasks: List["asyncio.Task"] = []
        self._admitting: Optional["asyncio.Task"] = None
        self._draining = False
        self._executor = ThreadPoolExecutor(
            max_workers=self.workers, thread_name_prefix="repro-serve-job"
        )

    # -- lifecycle -----------------------------------------------------
    async def start(self) -> int:
        """Index every job, spawn workers and re-enqueue the unfinished
        ones; returns how many there are."""
        queued = self.jobs.load()
        for i in range(self.workers):
            self._tasks.append(asyncio.create_task(self._worker(), name=f"serve-worker-{i}"))
        if queued:
            self._admitting = asyncio.create_task(
                self._admit(queued), name="serve-boot-admit"
            )
            self._tasks.append(self._admitting)
        return len(queued)

    async def _admit(self, job_ids: List[str]) -> None:
        """Put unfinished jobs on the queue in order, each as soon as
        there is room: more of them than ``queue_size`` wait here, not
        for the next boot. A drain cancels this; what it did not admit
        stays queued on disk."""
        for job_id in job_ids:
            await self.queue.put(job_id)
            self.metrics.queue_depth(self.queue.qsize())

    def has_room(self) -> bool:
        """Whether the queue admits a job now; a submit checks this
        before it writes anything, and answers 503 when it does not."""
        return not self._draining and not self.queue.full()

    def enqueue(self, job_id: str) -> None:
        """Admit a job to the in-memory queue (after :meth:`has_room`)."""
        self.queue.put_nowait(job_id)
        self.metrics.queue_depth(self.queue.qsize())

    async def drain(self) -> None:
        """Stop claiming, finish in-flight jobs, leave the rest queued."""
        self._draining = True
        if self._admitting is not None:
            self._admitting.cancel()
        for _ in range(self.workers):
            # One wake-up token per worker; workers blocked on get()
            # see it immediately, busy workers see _draining after
            # finishing their current job.
            try:
                self.queue.put_nowait(_STOP)
            except asyncio.QueueFull:
                pass
        if self._tasks:
            await asyncio.gather(*self._tasks, return_exceptions=True)
        self._executor.shutdown(wait=True)

    # -- execution -----------------------------------------------------
    async def _worker(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            item = await self.queue.get()
            self.metrics.queue_depth(self.queue.qsize())
            if item is _STOP or self._draining:
                break
            try:
                await loop.run_in_executor(self._executor, self._run, item)
            except Exception:
                # A failed record append: the job has no ``final`` line,
                # so a restarted server runs it again.
                traceback.print_exc(file=sys.stderr)

    def _run(self, job_id: str) -> None:
        """Run one job on a worker thread."""
        if not self.jobs.claim(job_id):
            return  # cancelled before a worker got it
        header = self.jobs.header(job_id)
        name = header["experiment"]
        try:
            config = compile_job(header["document"])
        except BaseException as exc:  # validated at the edge; belt and braces
            self._finish(job_id, JobState.FAILED,
                         error=f"{type(exc).__name__}: {exc}")
            return

        def on_progress(done: int, total: int) -> None:
            if self.jobs.progress(job_id, done, total):
                raise JobCancelled(job_id)

        started = time.monotonic()
        try:
            result = run_experiment(
                config,
                progress=on_progress,
                jobs=self.run_jobs,
                checkpoint=self.paths.checkpoint(job_id),
                backend=self.backend,
            )
        except JobCancelled:
            self._finish(job_id, JobState.CANCELLED)
            return
        except KeyboardInterrupt:
            self._finish(job_id, JobState.FAILED, error="interrupted")
            raise
        except BaseException as exc:
            self._finish(job_id, JobState.FAILED,
                         error=f"{type(exc).__name__}: {exc}")
            return

        if result.quarantined:
            # The supervised engine degrades gracefully — quarantined
            # chunks leave a *partial* result. A batch caller sees the
            # gap in result.quarantined; a service client only sees the
            # records, so a silent gap would break the byte-identity
            # contract. done means complete, anything less is failed.
            chunks = ", ".join(
                f"({scenario}, {index})" for scenario, index in result.quarantined
            )
            detail = next(
                (f.message for f in result.failures if (f.scenario, f.index)
                 in set(result.quarantined)),
                "",
            )
            self._finish(
                job_id, JobState.FAILED,
                error=f"{len(result.quarantined)} chunk(s) quarantined: {chunks}"
                + (f" — {detail}" if detail else ""),
            )
            return

        payload = result_payload(job_id, name, result)
        # The result file first: ``final … done`` commits a result that
        # is already on disk, so ``done`` never needs a file check.
        applog.atomic_write_text(
            self.paths.result(job_id), json.dumps(payload, sort_keys=True) + "\n"
        )
        elapsed = time.monotonic() - started
        self._finish(job_id, JobState.DONE,
                     records=payload["n_records"], elapsed_seconds=elapsed)

    def _finish(self, job_id: str, state: str, error: Optional[str] = None,
                **final_fields: Any) -> None:
        seconds = self.jobs.finish(job_id, state, error=error, **final_fields)
        self.metrics.job_finished(state, seconds)
