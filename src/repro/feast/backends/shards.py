"""Multi-process shard execution coordinated through journal files.

The :class:`SubprocessBackend` is the relaxed-locality execution story:
instead of sharing a pool inside one interpreter, the sweep is split
into ``shards`` disjoint partitions, each executed by an independent
worker process that talks to the parent through the filesystem only —
a pickled payload file in, one config-fingerprinted checkpoint journal
per shard and an atomic summary out. Workers are forked from the
supervisor, which has already imported everything they run, and start
by shedding the parent's live state (:func:`_clean_start`); the child
then runs :func:`.shardworker.main`, the same entry point as ``python
-m repro.feast.backends.shardworker PAYLOAD``. So the protocol works
unchanged when the "shards" are launched by hand or on different hosts
sharing a filesystem: the journal directory is the coordination medium.

Liveness supervision
--------------------
Waiting on the workers' exit sentinels only detects shards that *die*;
a shard that wedges — a livelocked solver, a hung filesystem, an
injected ``hang`` fault — would block the run forever. The supervisor
therefore uses the journal itself as a heartbeat: a healthy shard
appends a chunk line every few seconds, so the parent tracks each
journal's size (and record count) and declares a shard *stalled* when
it grows by nothing for ``RetryPolicy.stall_timeout`` seconds.
Escalation is the classic ladder: SIGTERM, a ``stall_grace`` period for
a clean death, then SIGKILL for workers that ignore the term (the
journal makes any death point safe — at most the in-flight chunk is
lost). Stall detection is opt-in (``stall_timeout=None`` default)
because a legitimately long chunk produces no journal growth while it
computes; enable it when chunk durations are known to be bounded.

Shard-merge protocol
--------------------
* Partition: shard ``i`` of ``n`` owns the chunks whose ordinal in the
  canonical ``config.chunk_keys()`` ordering is ``≡ i (mod n)`` —
  computed independently (and identically) by parent and workers.
* Each shard appends completed chunks to ``shard-i-of-n.ckpt`` in the
  journal directory and finally writes an atomic JSON summary (fault
  accounting + serialized telemetry).
* A shard that exits nonzero is relaunched (its journal makes the
  relaunch incremental) after a deterministic, jittered backoff —
  decorrelated per shard, so a fleet killed at once doesn't thunder
  back against the shared journal directory in lockstep — up to
  ``RetryPolicy.max_attempts`` launches.
* **Failover**: a shard that exhausts its launch cap has its *remaining*
  chunk keys (owned minus journaled) repartitioned round-robin across
  as many fresh *failover workers* as there are surviving shards, each
  journaling to ``failover-<shard>-<j>.ckpt`` in the same directory.
  Failover workers are supervised like any shard but are not themselves
  failed over.
* The parent then merges **every** ``*.ckpt`` journal in the directory
  (shards, failovers, the parent's own sweep journal, and files from an
  earlier partitioning — fingerprints guard config identity), rejects
  conflicting duplicate chunks (identical duplicates are tolerated and
  expected: determinism makes re-executions byte-equal), folds worker
  telemetry under the single run span, and hands the union to canonical
  assembly — byte-identical records to a serial run, for any shard
  count and any fault history.
* Whatever is *still* missing — e.g. every failover path also died —
  runs in-process in the parent against ``parent.ckpt``, so the run
  terminates with every chunk done-or-quarantined no matter what the
  fleet did.

Resuming a sharded sweep reuses the directory: pass the same
``checkpoint``. A directory journaled under a different shard count
also resumes: the merge reads all journals, so previously completed
chunks are replayed (workers still re-execute chunks absent from their
own journal; the digest dedupe arbitrates the resulting duplicates).

Everything the supervisor observes — stalls, kill escalations,
relaunches, failovers, reassigned and replayed chunks — is accounted in
:class:`~.base.SupervisionStats` on the outcome, surfaced as
``supervision.*`` obs counters and in the CLI fault report.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
import pickle
import shutil
import signal
import sys
import tempfile
import threading
import time
import warnings
from dataclasses import dataclass, field
from multiprocessing.connection import wait as wait_for_exit
from typing import Dict, List, Optional, Set

from repro import budget
from repro.errors import CheckpointError, ExperimentError, ExperimentWarning
from repro.feast.backends.base import (
    BackendOutcome,
    ChunkDriver,
    ExecutionBackend,
    ExecutionRequest,
    SupervisionStats,
)
from repro.feast.backends.work import ChunkKey, is_parallelizable
from repro.obs import live as obs_live
from repro.obs import runtime as obs_runtime
from repro.obs.metrics import MetricsRegistry
from repro.obs.resources import ResourceSample
from repro.obs.spans import Span


def shard_keys(config, shard: int, n_shards: int):
    """The chunk keys shard ``shard`` of ``n_shards`` owns.

    Round-robin over the canonical chunk ordering: ordinals congruent
    to ``shard`` mod ``n_shards``. Pure arithmetic on
    ``config.chunk_keys()``, so every process — parent, worker,
    relaunched worker — computes identical disjoint partitions. Lives
    here, not in :mod:`.shardworker`, so importing the package never
    loads the module ``python -m`` is about to run as ``__main__``.
    """
    return list(config.chunk_keys())[shard::n_shards]


#: Seconds between journal-heartbeat polls while a stall policy is set
#: (worker exits wake the supervisor at once either way).
_POLL_INTERVAL = 0.05

#: Extra no-progress allowance before a launch's *first* journal growth.
#: A forked worker skips interpreter boot and imports, but its start —
#: unpickling the payload, replaying its journal (a relaunch re-reads
#: every chunk it already journaled) — must still not count against the
#: stall deadline, or a loaded host kill-storms healthy workers before
#: they ever append: the liveness probe only arms once the startup
#: probe has passed.
_STARTUP_ALLOWANCE = 10.0

#: Shard workers are forked from the supervisor, which has already
#: imported everything they run (the start method the pool backend's
#: ``ProcessPoolExecutor`` uses on Linux).
_FORK = multiprocessing.get_context("fork")

#: Journal the parent's terminal in-process sweep appends to.
_PARENT_JOURNAL = "parent.ckpt"


def _shard_stem(shard: int, n_shards: int) -> str:
    return f"shard-{shard}-of-{n_shards}"


def _chunk_digest(chunk) -> str:
    """Content hash of a chunk's records, for duplicate arbitration."""
    blob = json.dumps(
        sorted(
            [size, method, record.as_dict()]
            for (size, method), record in chunk.records.items()
        ),
        sort_keys=True,
    )
    return hashlib.blake2b(blob.encode("utf-8"), digest_size=16).hexdigest()


def _log_tail(path: str, lines: int = 5) -> str:
    try:
        with open(path) as fp:
            tail = fp.read().splitlines()[-lines:]
    except OSError:
        return ""
    return "\n".join(tail)


def _clean_start(log: str) -> None:
    """Make a forked worker start as clean as a fresh interpreter.

    The fork copied the supervisor mid-run. The worker must not publish
    into the parent's live status stream (or reach its probes), count
    into the parent's telemetry session, run under a parent's trial
    budget, run the parent's thread-exit hooks, keep a parent's
    SIGTERM/SIGINT handlers (one that ignores SIGTERM would defeat the
    stall ladder) or signal wakeup fd (an event loop's, in ``repro
    serve``), or write through the parent's stdio objects. Its fds 1
    and 2 go to the shard log.
    """
    obs_live.detach()
    obs_runtime.detach()
    budget.set_trial_deadline(None)
    # The parent's thread-exit hooks join threads the child lacks; a
    # ``ThreadPoolExecutor``'s joins the forking thread itself, which is
    # the child's main thread, and would turn every clean exit into 1.
    threading._threading_atexits.clear()
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.default_int_handler)
    signal.set_wakeup_fd(-1)
    fd = os.open(log, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
    os.dup2(fd, 1)
    os.dup2(fd, 2)
    os.close(fd)
    sys.stdout = open(1, "w", closefd=False)
    sys.stderr = open(2, "w", buffering=1, closefd=False)


class _ShardProcess(_FORK.Process):
    """One launch of a shard worker, forked from the supervisor.

    Offers the fleet the ``Popen`` surface it drives — ``pid``,
    :meth:`poll`, ``terminate()``, ``kill()`` — plus the ``sentinel``
    it waits on. The child cleans its inherited state, runs
    :func:`.shardworker.main` on the payload path and exits with its
    return code, so the exit-code contract is that of
    ``python -m repro.feast.backends.shardworker PAYLOAD``.
    """

    def __init__(self, payload: str, log: str, name: str) -> None:
        super().__init__(name=name)
        self._payload = payload
        self._log = log

    def poll(self) -> Optional[int]:
        return self.exitcode

    def run(self) -> None:
        _clean_start(self._log)
        from repro.feast.backends import shardworker

        sys.exit(shardworker.main([self._payload]))


@dataclass
class _Slot:
    """One supervised worker: an original shard or a failover worker."""

    ident: str
    #: Shard index for originals; ``-1`` for failover workers.
    shard: int
    #: The chunk keys this worker owns.
    keys: List[ChunkKey]
    journal: str
    summary: str
    log: str
    payload: str
    #: Whether this is an original shard (failover slots are not
    #: themselves failed over — the parent sweep is their safety net).
    original: bool = True
    launches: int = 0
    proc: Optional["_ShardProcess"] = None
    #: Monotonic time before which a (re)launch must not happen.
    eligible_at: float = 0.0
    #: Journal-heartbeat state: last observed size / records, and when
    #: the journal last grew.
    bytes_seen: int = 0
    records_seen: int = 0
    last_progress: float = 0.0
    #: Whether this launch has produced any journal activity yet; until
    #: it has, the stall deadline is widened by ``_STARTUP_ALLOWANCE``.
    saw_progress: bool = False
    #: When the SIGKILL escalation fires, if a stall SIGTERM was sent.
    term_at: Optional[float] = None
    done: bool = False
    gave_up: bool = False


class _Fleet:
    """Supervises a set of worker slots to completion-or-give-up.

    Runs the poll loop: launch eligible slots, reap exits (relaunch
    with jittered backoff, or give up and fail over), and watch journal
    heartbeats for stalls (SIGTERM → grace → SIGKILL). Collects
    :class:`SupervisionStats` as it goes.
    """

    def __init__(self, request: ExecutionRequest, directory: str) -> None:
        self.request = request
        self.directory = directory
        self.slots: List[_Slot] = []
        self.stats = SupervisionStats()

    def add_slot(
        self,
        ident: str,
        shard: int,
        keys: List[ChunkKey],
        original: bool,
        explicit_keys: bool,
    ) -> _Slot:
        slot = _Slot(
            ident=ident,
            shard=shard,
            keys=keys,
            journal=os.path.join(self.directory, ident + ".ckpt"),
            summary=os.path.join(self.directory, ident + ".summary.json"),
            log=os.path.join(self.directory, ident + ".log"),
            payload=os.path.join(self.directory, ident + ".payload.pkl"),
            original=original,
        )
        payload = {
            "config": self.request.config,
            "shard": shard,
            "n_shards": self.request.shards,
            "journal": slot.journal,
            "summary": slot.summary,
            "policy": self.request.policy,
            "trace": self.request.trace,
            # Failover workers get an explicit key list; originals
            # derive their partition from (shard, n_shards) so the
            # payload stays oblivious to this run's fault history.
            "keys": keys if explicit_keys else None,
        }
        with open(slot.payload, "wb") as fp:
            pickle.dump(payload, fp)
        self.slots.append(slot)
        return slot

    # -- lifecycle -----------------------------------------------------
    def _launch(self, slot: _Slot) -> None:
        slot.launches += 1
        # The child inherits a copy of every stdio buffer; empty them so
        # no parent output is written again from a shard.
        for stream in (sys.stdout, sys.stderr):
            if stream is not None:
                stream.flush()
        slot.proc = _ShardProcess(slot.payload, slot.log, name=slot.ident)
        slot.proc.start()
        # Heartbeat baseline: progress means growth beyond what the
        # journal already holds (relaunches start with a full journal).
        slot.bytes_seen = self._journal_size(slot)
        slot.last_progress = time.monotonic()
        slot.saw_progress = False
        slot.term_at = None

    @staticmethod
    def _journal_size(slot: _Slot) -> int:
        try:
            return os.path.getsize(slot.journal)
        except OSError:
            return 0

    def _probe(self) -> Dict[str, object]:
        """Live per-slot rows for the status sampler (observation only).

        Called from the sampler thread, so it iterates over a snapshot
        copy of the slot list and performs plain attribute reads.
        """
        now = time.monotonic()
        rows = []
        for slot in list(self.slots):
            if slot.done:
                state = "done"
            elif slot.gave_up:
                state = "gave-up"
            elif slot.proc is None:
                state = "waiting"
            elif slot.term_at is not None:
                state = "term-pending"
            else:
                state = "running"
            proc = slot.proc
            rows.append({
                "ident": slot.ident,
                "shard": slot.shard,
                "state": state,
                "pid": proc.pid if proc is not None else None,
                "launches": slot.launches,
                "records_seen": slot.records_seen,
                "heartbeat_age": (
                    round(now - slot.last_progress, 3)
                    if state in ("running", "term-pending") else None
                ),
            })
        return {"slots": rows}

    def drive(self) -> None:
        """Supervise until every slot is done or given up."""
        with obs_live.probe("fleet", self._probe):
            self._drive()

    def _drive(self) -> None:
        while True:
            live = [s for s in self.slots if not (s.done or s.gave_up)]
            if not live:
                return
            now = time.monotonic()
            for slot in live:
                if slot.proc is None:
                    if now >= slot.eligible_at:
                        self._launch(slot)
                    continue
                rc = slot.proc.poll()
                if rc is not None:
                    self._reap(slot, rc)
                else:
                    self._check_liveness(slot, now)
            self._wait()

    def _wait(self) -> None:
        """Sleep until a worker exits, the next relaunch comes due, or —
        with a stall policy — the next journal-heartbeat poll."""
        timeout = (
            _POLL_INTERVAL if self.request.policy.stall_timeout is not None
            else None
        )
        sentinels = []
        now = time.monotonic()
        for slot in self.slots:
            if slot.done or slot.gave_up:
                continue
            if slot.proc is not None:
                sentinels.append(slot.proc.sentinel)
            else:
                due = max(0.0, slot.eligible_at - now)
                timeout = due if timeout is None else min(timeout, due)
        if sentinels or timeout is not None:
            wait_for_exit(sentinels, timeout)

    def _check_liveness(self, slot: _Slot, now: float) -> None:
        """Journal-growth heartbeat + the SIGTERM→grace→SIGKILL ladder."""
        policy = self.request.policy
        if policy.stall_timeout is None:
            return
        size = self._journal_size(slot)
        if size != slot.bytes_seen:
            if size > slot.bytes_seen:
                # Appends are whole lines, so counting newlines in the
                # grown region tracks the record heartbeat exactly.
                try:
                    with open(slot.journal, "rb") as fp:
                        fp.seek(slot.bytes_seen)
                        slot.records_seen += fp.read(
                            size - slot.bytes_seen
                        ).count(b"\n")
                except OSError:
                    pass
            # A shrink is torn-tail repair on reopen — also liveness.
            slot.bytes_seen = size
            slot.last_progress = now
            slot.saw_progress = True
            # Chunks complete inside the shard worker (no status stream
            # there), so journal growth is the parent's progress signal.
            obs_live.publish(
                "progress",
                shard=slot.shard,
                ident=slot.ident,
                chunks_journaled=slot.records_seen,
            )
            return
        if slot.term_at is not None:
            if now >= slot.term_at:
                slot.proc.kill()
                self.stats.kills_escalated += 1
                obs_live.publish(
                    "supervision", event="kill-escalated", ident=slot.ident,
                    detail=f"SIGTERM ignored for {policy.stall_grace:g}s",
                )
                warnings.warn(
                    f"{slot.ident} ignored SIGTERM for "
                    f"{policy.stall_grace:g}s after stalling; escalating "
                    "to SIGKILL",
                    ExperimentWarning,
                    stacklevel=6,
                )
                slot.term_at = None  # the kill is final; just reap it
            return
        deadline = policy.stall_timeout
        if not slot.saw_progress:
            deadline += _STARTUP_ALLOWANCE
        if now - slot.last_progress >= deadline:
            self.stats.stalls_detected += 1
            obs_live.publish(
                "supervision", event="stall-detected", ident=slot.ident,
                detail=(
                    f"no journal progress for {deadline:g}s "
                    f"({slot.records_seen} chunk(s) this launch)"
                ),
            )
            warnings.warn(
                f"{slot.ident} stalled: no journal progress for "
                f"{deadline:g}s "
                f"({slot.records_seen} chunk(s) journaled this launch); "
                f"sending SIGTERM with {policy.stall_grace:g}s grace",
                ExperimentWarning,
                stacklevel=6,
            )
            slot.proc.terminate()
            slot.term_at = now + policy.stall_grace

    def _reap(self, slot: _Slot, returncode: int) -> None:
        slot.proc = None
        if returncode == 0:
            slot.done = True
            # Without a stall policy the journal is never polled, so a
            # clean exit is the one unconditional progress signal the
            # parent sees per shard.
            obs_live.publish(
                "progress",
                shard=slot.shard,
                ident=slot.ident,
                done_shards=sum(1 for s in self.slots if s.done),
            )
            return
        policy = self.request.policy
        if slot.launches >= policy.max_attempts:
            slot.gave_up = True
            obs_live.publish(
                "supervision", event="gave-up", ident=slot.ident,
                detail=(
                    f"exit {returncode} on launch "
                    f"{slot.launches}/{policy.max_attempts}"
                ),
            )
            warnings.warn(
                f"{slot.ident} exited with code {returncode} on launch "
                f"{slot.launches}/{policy.max_attempts}; giving up on the "
                f"worker. Last output:\n{_log_tail(slot.log)}",
                ExperimentWarning,
                stacklevel=6,
            )
            self._fail_over(slot)
            return
        delay = policy.backoff_jittered(
            slot.launches, self.request.config.seed, slot.ident
        )
        slot.eligible_at = time.monotonic() + delay
        self.stats.relaunches += 1
        obs_live.publish(
            "supervision", event="relaunch", ident=slot.ident,
            detail=(
                f"exit {returncode}; relaunching in {delay:.2f}s "
                f"(launch {slot.launches + 1}/{policy.max_attempts})"
            ),
        )
        warnings.warn(
            f"{slot.ident} exited with code {returncode}; "
            f"relaunching in {delay:.2f}s (launch {slot.launches + 1}/"
            f"{policy.max_attempts}) — its journal makes "
            "the relaunch incremental",
            ExperimentWarning,
            stacklevel=6,
        )

    def _fail_over(self, slot: _Slot) -> None:
        """Repartition a dead shard's remaining keys across survivors.

        Spawns one failover worker per surviving original shard (they
        model the capacity still standing), each owning a round-robin
        slice of the dead shard's un-journaled keys and journaling into
        the same directory. Failover workers that give up are not
        failed over again — the parent's terminal sweep catches
        whatever remains.
        """
        from repro.feast.persistence import config_fingerprint, iter_journal

        if not slot.original:
            return
        journaled: Set[ChunkKey] = set()
        if os.path.exists(slot.journal):
            fingerprint = config_fingerprint(self.request.config)
            journaled = {
                key for key, _ in iter_journal(
                    slot.journal, fingerprint=fingerprint
                )
            }
        remaining = [k for k in slot.keys if k not in journaled]
        survivors = [
            s for s in self.slots if s.original and not s.gave_up
        ]
        if not remaining or not survivors:
            return
        self.stats.shards_failed_over += 1
        self.stats.chunks_reassigned += len(remaining)
        obs_live.publish(
            "supervision", event="failover", ident=slot.ident,
            detail=(
                f"{len(remaining)} chunk(s) reassigned across "
                f"{len(survivors)} survivor(s)"
            ),
        )
        warnings.warn(
            f"failing over shard {slot.shard}: reassigning its "
            f"{len(remaining)} remaining chunk(s) across "
            f"{len(survivors)} surviving shard(s)",
            ExperimentWarning,
            stacklevel=7,
        )
        now = time.monotonic()
        for j in range(len(survivors)):
            keys = remaining[j::len(survivors)]
            if not keys:
                continue
            failover = self.add_slot(
                ident=f"failover-{slot.shard}-{j}",
                shard=-1,
                keys=keys,
                original=False,
                explicit_keys=True,
            )
            failover.eligible_at = now


class SubprocessBackend(ExecutionBackend):
    """Disjoint shards executed by independent worker subprocesses."""

    name = "subprocess"

    def prepare(self, request: ExecutionRequest) -> None:
        if request.shards < 1:
            raise ExperimentError(
                f"shards must be >= 1, got {request.shards}"
            )
        if not is_parallelizable(request.config):
            raise ExperimentError(
                f"experiment {request.config.name!r} carries an unpicklable "
                "graph_factory; run it with jobs=1"
            )
        if request.checkpoint is not None and os.path.isfile(request.checkpoint):
            raise CheckpointError(
                f"the subprocess backend checkpoints into a journal "
                f"*directory*, but {request.checkpoint!r} is a file "
                "(a single-file journal from a serial/pool run?)"
            )

    def run(self, request: ExecutionRequest) -> BackendOutcome:
        from repro.feast.persistence import (
            config_fingerprint,
            iter_journal,
            journal_paths,
        )

        config = request.config
        inst = request.instrumentation
        n_shards = request.shards
        fingerprint = config_fingerprint(config)

        directory = request.checkpoint
        ephemeral = directory is None
        if ephemeral:
            directory = tempfile.mkdtemp(prefix="repro-shards-")
        else:
            os.makedirs(directory, exist_ok=True)

        # Chunks already journaled before this run started are what the
        # supervision stats call replayed; the per-journal breakdown
        # calibrates each worker's own replay count (see _merge_summary).
        pre_by_journal: Dict[str, Set[ChunkKey]] = {}
        pre_existing: Set[ChunkKey] = set()
        for path in journal_paths(directory):
            keys = {
                key for key, _ in iter_journal(path, fingerprint=fingerprint)
            }
            pre_by_journal[path] = keys
            pre_existing |= keys

        fleet = _Fleet(request, directory)
        for i in range(n_shards):
            fleet.add_slot(
                ident=_shard_stem(i, n_shards),
                shard=i,
                keys=shard_keys(config, i, n_shards),
                original=True,
                explicit_keys=False,
            )
        fleet.drive()

        outcome = BackendOutcome()
        outcome.supervision.merge(fleet.stats)
        seen: Dict[ChunkKey, str] = {}

        def merge_chunk(key: ChunkKey, chunk) -> None:
            digest = _chunk_digest(chunk)
            if key in seen:
                if seen[key] != digest:
                    raise ExperimentError(
                        f"conflicting duplicate chunk (scenario={key[0]}, "
                        f"graph={key[1]}) across shard journals in "
                        f"{directory!r} — records differ; refusing to merge"
                    )
                return
            seen[key] = digest
            if request.on_chunk is not None:
                request.on_chunk(key, chunk)
                outcome.streamed_trials += chunk.n_trials
            outcome.chunks[key] = chunk if request.keep_records else None
            if key in pre_existing:
                outcome.supervision.chunks_replayed += 1

        # Merge every journal in the directory: this run's shards and
        # failover workers, the parent sweep journal, and any files
        # from a previous partitioning of the same experiment. Journals
        # carry records only; measurements come from worker summaries.
        for path in journal_paths(directory):
            for key, chunk in iter_journal(path, fingerprint=fingerprint):
                merge_chunk(key, chunk)
        counted: Set[ChunkKey] = set()
        for slot in fleet.slots:
            if slot.done:
                counted |= self._merge_summary(
                    request, slot, pre_by_journal, outcome
                )
        # Journaled chunks no reporting worker counted (a failed shard's,
        # an earlier partitioning's) were read back, not measured.
        for key in seen:
            if key not in counted:
                inst.replayed(config.trials_per_graph)

        gave_up = sorted(
            slot.ident for slot in fleet.slots if slot.gave_up
        )
        missing = [
            key for key in config.chunk_keys()
            if key not in seen and key not in outcome.quarantined
        ]
        if missing:
            self._finish_in_process(
                request, missing, directory, outcome, seen
            )
        if gave_up:
            outcome.degraded_reason = (
                f"worker(s) {gave_up} kept failing after "
                f"{request.policy.max_attempts} launch(es)"
                + (
                    f"; {len(missing)} chunk(s) ran in-process in the parent"
                    if missing else
                    "; failover workers completed their remaining chunks"
                )
            )
        if ephemeral:
            shutil.rmtree(directory, ignore_errors=True)
        return outcome

    # ------------------------------------------------------------------
    def _finish_in_process(
        self,
        request: ExecutionRequest,
        missing: List[ChunkKey],
        directory: str,
        outcome: BackendOutcome,
        seen: Dict[ChunkKey, str],
    ) -> None:
        """Terminal sweep: the parent completes whatever no worker did.

        Journals into ``parent.ckpt`` in the same directory, so even
        this degraded path is incremental across resumes. Restricted to
        the still-missing keys — chunks already merged from worker
        journals are never re-streamed or re-run.
        """
        from repro.feast.persistence import CheckpointJournal

        journal = CheckpointJournal(
            os.path.join(directory, _PARENT_JOURNAL), request.config
        )
        driver = ChunkDriver(
            request.config,
            request.instrumentation,
            request.policy,
            journal=journal,
            keys=missing,
            on_chunk=request.on_chunk,
            keep_records=request.keep_records,
        )
        try:
            driver.run_in_process()
        finally:
            journal.close()
        sub = driver.outcome()
        for key, chunk in sub.chunks.items():
            seen[key] = "" if chunk is None else _chunk_digest(chunk)
            outcome.chunks[key] = chunk
        outcome.quarantined.update(sub.quarantined)
        outcome.failures.extend(sub.failures)
        outcome.streamed_trials += sub.streamed_trials
        outcome.supervision.merge(sub.supervision)

    def _merge_summary(
        self,
        request: ExecutionRequest,
        slot: _Slot,
        pre_by_journal: Dict[str, Set[ChunkKey]],
        outcome: BackendOutcome,
    ) -> Set[ChunkKey]:
        """Fold one worker's summary — faults, its metrics registry,
        telemetry, replay count — and return the chunk keys its
        registry already counts."""
        from repro.feast.instrumentation import TrialFailure

        try:
            with open(slot.summary) as fp:
                summary = json.load(fp)
        except (OSError, json.JSONDecodeError) as exc:
            raise CheckpointError(
                f"shard summary {slot.summary!r} is missing or corrupt "
                f"({exc}) although its worker exited cleanly"
            ) from exc
        failures = [TrialFailure(**f) for f in summary.get("failures", [])]
        outcome.failures.extend(failures)
        for scenario, index, reason in summary.get("quarantined", []):
            outcome.quarantined[(str(scenario), int(index))] = str(reason)
        metrics = MetricsRegistry.from_dict(summary.get("metrics", {}))
        # Chunks the worker's final launch replayed from its own journal
        # beyond what predates this run = chunks recovered across
        # crash/relaunch boundaries *within* this run.
        replayed_chunks = int(
            metrics.counters.get("engine.trials_replayed", 0)
        ) // max(1, request.config.trials_per_graph)
        pre_owned = len(pre_by_journal.get(slot.journal, ()))
        outcome.supervision.chunks_replayed += max(
            0, replayed_chunks - pre_owned
        )
        inst = request.instrumentation
        telemetry = summary.get("telemetry")
        if telemetry is not None and inst.telemetry is not None:
            inst.telemetry.adopt_chunk(
                spans=[Span.from_dict(s) for s in telemetry.get("spans", [])],
                resources=[
                    ResourceSample.from_dict(r)
                    for r in telemetry.get("resources", [])
                ],
            )
        inst.absorb(metrics, failures=failures)
        return {(str(s), int(i)) for s, i in summary.get("completed", [])}
