"""Bounded job queue + worker pool over the ExecutionBackend layer.

The queue is scheduling state only — the durable truth lives in the
:class:`~repro.serve.store.JobStore` and each job's checkpoint journal.
That split is what makes drain and crash recovery simple: dropping the
in-memory queue loses nothing, because boot re-enqueues every ``queued``
row and journal replay resumes every partially-run job.

Execution: each worker is an asyncio task that claims a job id
(compare-and-swap in the store, so a raced cancel wins cleanly) and
runs the sweep on a thread pool via the same
:func:`~repro.feast.runner.run_experiment` entry point a batch caller
uses — with ``checkpoint=`` always set, which routes even serial runs
through the supervised engine and gives every job the journal. The
job's progress callback is the service's only hook into a run: it
streams progress to the job's status file, mirrors it into the store,
and raises :class:`~repro.serve.jobs.JobCancelled` when a cancel flag
appears — *after* the driver has journaled the chunk, so cancellation
never loses completed work.

Graceful drain (SIGTERM): workers stop claiming, in-flight jobs run to
completion, queued jobs stay ``queued`` in the store for the next boot.
"""

from __future__ import annotations

import asyncio
import json
import os
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Dict, List, Optional, Tuple

from repro.applog import atomic_write_text
from repro.feast.backends import make_backend
from repro.feast.runner import run_experiment
from repro.obs.live import StatusStream
from repro.serve.jobs import JobCancelled, JobState, compile_job
from repro.serve.metrics import ServiceMetrics
from repro.serve.store import JobStore

#: Result document format pinned in every result file.
RESULT_FORMAT = "repro-serve-result"
RESULT_VERSION = 1

_STOP = object()


class JobPaths:
    """Filesystem layout of one data directory."""

    def __init__(self, data_dir: str) -> None:
        self.data_dir = os.path.abspath(data_dir)
        self.jobs_dir = os.path.join(self.data_dir, "jobs")
        self.results_dir = os.path.join(self.data_dir, "results")
        os.makedirs(self.jobs_dir, exist_ok=True)
        os.makedirs(self.results_dir, exist_ok=True)

    def db(self) -> str:
        return os.path.join(self.data_dir, "jobs.sqlite")

    def checkpoint(self, job_id: str) -> str:
        return os.path.join(self.jobs_dir, f"{job_id}.ckpt")

    def status(self, job_id: str) -> str:
        return os.path.join(self.jobs_dir, f"{job_id}.status.jsonl")

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


class WorkerPool:
    """N asyncio workers draining one bounded queue (see module docstring)."""

    def __init__(
        self,
        store: JobStore,
        paths: JobPaths,
        metrics: ServiceMetrics,
        *,
        workers: int = 2,
        queue_size: int = 64,
        backend: str = "serial",
        shards: int = 2,
    ) -> None:
        self.store = store
        self.paths = paths
        self.metrics = metrics
        self.workers = max(1, workers)
        self.backend = backend
        self.shards = shards
        # Load the backend's modules at boot, not in the first job: jobs
        # run on executor threads, and a multi-process backend forks
        # right after its import (DESIGN.md §9). An unknown name fails
        # here instead of failing every job.
        make_backend(backend)
        self.queue: "asyncio.Queue" = asyncio.Queue(maxsize=queue_size)
        self._tasks: List["asyncio.Task"] = []
        self._draining = False
        self._executor = ThreadPoolExecutor(
            max_workers=self.workers, thread_name_prefix="repro-serve-job"
        )

    # -- lifecycle -----------------------------------------------------
    async def start(self) -> int:
        """Spawn workers and re-enqueue every resumable job; returns count."""
        for i in range(self.workers):
            self._tasks.append(asyncio.create_task(self._worker(), name=f"serve-worker-{i}"))
        resumed = 0
        for job_id in self.store.recover(self._settle):
            if self.try_enqueue(job_id):
                resumed += 1
        return resumed

    def _settle(
        self, job_id: str, cancel_requested: bool
    ) -> Optional[Tuple[str, Optional[str]]]:
        """How recovery ends an unfinished row; ``None`` runs it.

        A status stream that already ends with ``final`` records how the
        job ended before the server died uncommitted: keep that state,
        ``done`` only while its result file exists. Otherwise a
        cancel-flagged job is cancelled, its stream ended first.
        """
        path = self.paths.status(job_id)
        final = StatusStream.final_line(path)
        if final is not None and final.get("state") in JobState.TERMINAL and (
            final["state"] != JobState.DONE
            or os.path.exists(self.paths.result(job_id))
        ):
            return final["state"], final.get("error")
        if not cancel_requested:
            return None
        StatusStream.close_orphan(path, state=JobState.CANCELLED, error=None)
        return JobState.CANCELLED, None

    def try_enqueue(self, job_id: str) -> bool:
        """Admit a job to the in-memory queue; False when full (503)."""
        if self._draining:
            return False
        try:
            self.queue.put_nowait(job_id)
        except asyncio.QueueFull:
            return False
        self.metrics.queue_depth(self.queue.qsize())
        return True

    async def drain(self) -> None:
        """Stop claiming, finish in-flight jobs, leave the rest queued."""
        self._draining = True
        for _ in self._tasks:
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
            if not self.store.mark_running(item):
                continue  # cancelled (or vanished) before a worker got it
            await loop.run_in_executor(self._executor, self._execute, item)

    def _execute(self, job_id: str) -> None:
        """Run one job on a worker thread; never lets an exception escape."""
        row = self.store.get(job_id)
        if row is None:
            return
        stream = StatusStream(
            self.paths.status(job_id), experiment=row.name, run_id=job_id
        )
        try:
            config = compile_job(row.document)
        except BaseException as exc:  # validated at the edge; belt and braces
            self._finish(job_id, JobState.FAILED, stream,
                         error=f"{type(exc).__name__}: {exc}")
            return

        def on_progress(done: int, total: int) -> None:
            self.store.progress(job_id, done, total)
            stream.emit("progress", done=done, total=total)
            if self.store.cancel_requested(job_id):
                raise JobCancelled(job_id)

        started = time.monotonic()
        try:
            result = run_experiment(
                config,
                progress=on_progress,
                jobs=1,
                checkpoint=self.paths.checkpoint(job_id),
                backend=self.backend,
                shards=self.shards,
            )
        except JobCancelled:
            self._finish(job_id, JobState.CANCELLED, stream)
            return
        except KeyboardInterrupt:
            self._finish(job_id, JobState.FAILED, stream, error="interrupted")
            raise
        except BaseException as exc:
            self._finish(job_id, JobState.FAILED, stream,
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
                job_id, JobState.FAILED, stream,
                error=f"{len(result.quarantined)} chunk(s) quarantined: {chunks}"
                + (f" — {detail}" if detail else ""),
            )
            return

        payload = result_payload(job_id, row.name, result)
        atomic_write_text(
            self.paths.result(job_id), json.dumps(payload, sort_keys=True) + "\n"
        )
        elapsed = time.monotonic() - started
        self._finish(job_id, JobState.DONE, stream,
                     records=payload["n_records"], elapsed_seconds=elapsed)

    def _finish(
        self,
        job_id: str,
        state: str,
        stream: StatusStream,
        error: Optional[str] = None,
        **final_fields: Any,
    ) -> None:
        # The ``final`` line goes first: a follower that sees the
        # terminal state must find it on its next read.
        stream.close(state=state, error=error, **final_fields)
        self.store.finish(job_id, state, error=error)
        row = self.store.get(job_id)
        if row is not None and row.started is not None and row.finished is not None:
            self.metrics.job_finished(state, max(0.0, row.finished - row.started))
