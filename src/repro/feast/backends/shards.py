"""Multi-process execution: a worker fleet coordinated through journals.

The :class:`SubprocessBackend` is the engine's one multi-process
supervisor (registered as ``subprocess`` and as its alias ``pool``, which
``run_experiment(jobs=N)`` selects for ``N > 1``). The sweep is split
into ``request.workers`` disjoint partitions (shards), each executed by
an independent worker process that talks to the parent through the
filesystem only —
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
it grows by nothing for :meth:`.work.RetryPolicy.stall_deadline`
seconds: ``RetryPolicy.stall_timeout`` when set, else one chunk's budget
under ``config.trial_timeout``. Escalation is the classic ladder:
SIGTERM, a ``stall_grace`` period for a clean death, then SIGKILL for
workers that ignore the term (the journal makes any death point safe —
at most the in-flight chunk is lost). With neither set, stall detection
is off, because a legitimately long chunk produces no journal growth
while it computes.

A stall is charged to the chunk the worker was executing (it names it
before it starts, :func:`.shardworker.inflight_path`) as one ``timeout``
attempt, not to the worker's launch cap: the worker is relaunched, and a
chunk that stalls ``RetryPolicy.max_attempts`` times is quarantined and
dropped from its worker's keys. So a chunk that hangs on every attempt
never reaches a failover worker or the parent's sweep, and the run
finishes. A stall the worker named no unfinished chunk for counts as a
failed launch.

The same journal growth is the parent's progress signal: with progress
callbacks registered, each chunk line a worker appends is reported
through :meth:`~repro.feast.instrumentation.Instrumentation.heartbeat`.

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
  fleet did. A poison chunk that kills every worker ends here; chunk
  *exceptions* are retried and quarantined inside each worker's
  :class:`~.base.ChunkDriver`, as on the serial backend, and chunks that
  keep stalling are quarantined by the parent (above).

A checkpoint is a journal directory; a new path is created as one, and
a single-file journal (a serial run's) raises :class:`CheckpointError`.
Without a checkpoint the fleet journals into a temporary directory it
removes afterwards. Resuming a sharded sweep reuses the directory: pass
the same ``checkpoint``. A directory journaled under a different shard count
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
from dataclasses import dataclass
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
from repro.feast.backends import shardworker
from repro.feast.backends.shardworker import inflight_path, read_inflight
from repro.feast.backends.work import ChunkKey, is_parallelizable, shard_keys
from repro.feast.instrumentation import TrialFailure
from repro.feast.persistence import (
    CheckpointJournal,
    config_fingerprint,
    iter_journal,
    journal_paths,
)
from repro.obs import live as obs_live
from repro.obs import runtime as obs_runtime
from repro.obs.metrics import MetricsRegistry
from repro.obs.resources import ResourceSample
from repro.obs.spans import Span


#: Seconds between journal-heartbeat polls while a stall policy is set
#: or progress is reported (worker exits wake the supervisor at once
#: either way).
_POLL_INTERVAL = 0.05

#: Extra no-progress allowance before a launch's *first* journal growth.
#: A forked worker skips interpreter boot and imports, but its start —
#: unpickling the payload, replaying its journal (a relaunch re-reads
#: every chunk it already journaled) — must still not count against the
#: stall deadline, or a loaded host kill-storms healthy workers before
#: they ever append: the liveness probe only arms once the startup
#: probe has passed (the journal grew, or the worker named the chunk it
#: started).
_STARTUP_ALLOWANCE = 10.0

#: Shard workers are forked from the supervisor, which has already
#: imported everything they run.
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
    #: Whether this launch has produced any journal activity or started
    #: a chunk yet; until it has, the stall deadline is widened by
    #: ``_STARTUP_ALLOWANCE``.
    saw_progress: bool = False
    #: When the SIGKILL escalation fires, if a stall SIGTERM was sent.
    term_at: Optional[float] = None
    #: Whether this launch was declared stalled.
    stalled: bool = False
    #: Launches that failed and were not charged to a stalled chunk.
    failed_launches: int = 0
    done: bool = False
    gave_up: bool = False


class _Fleet:
    """Supervises a set of worker slots to completion-or-give-up.

    Runs the poll loop: launch eligible slots, reap exits (relaunch
    with jittered backoff, or give up and fail over), and watch journal
    heartbeats for progress and stalls (SIGTERM → grace → SIGKILL,
    charged to the stalled chunk). Collects :class:`SupervisionStats`,
    and the chunks it quarantined with their fault events, as it goes.
    """

    def __init__(self, request: ExecutionRequest, directory: str) -> None:
        self.request = request
        self.directory = directory
        self.slots: List[_Slot] = []
        self.stats = SupervisionStats()
        self.stall_timeout = request.policy.stall_deadline(request.config)
        #: Whether the loop polls the journals between worker exits.
        self.polling = (
            self.stall_timeout is not None
            or request.instrumentation.reports_progress
        )
        #: Stalls charged per chunk, and the chunks that ran out.
        self.timeouts: Dict[ChunkKey, int] = {}
        self.quarantined: Dict[ChunkKey, str] = {}
        self.failures: List[TrialFailure] = []

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
        self._write_payload(slot, explicit_keys)
        self.slots.append(slot)
        return slot

    def _write_payload(self, slot: _Slot, explicit_keys: bool) -> None:
        payload = {
            "config": self.request.config,
            "shard": slot.shard,
            "n_shards": self.request.workers,
            "journal": slot.journal,
            "summary": slot.summary,
            "policy": self.request.policy,
            "trace": self.request.trace,
            # Failover workers, and workers that lost a quarantined
            # chunk, get an explicit key list; other originals derive
            # their partition from (shard, n_shards) so the payload
            # stays oblivious to this run's fault history.
            "keys": slot.keys if explicit_keys else None,
        }
        with open(slot.payload, "wb") as fp:
            pickle.dump(payload, fp)

    # -- lifecycle -----------------------------------------------------
    def _launch(self, slot: _Slot) -> None:
        slot.launches += 1
        # The child inherits a copy of every stdio buffer; empty them so
        # no parent output is written again from a shard.
        for stream in (sys.stdout, sys.stderr):
            if stream is not None:
                stream.flush()
        if self.stall_timeout is not None:
            # A marker left by the previous launch names no chunk of
            # this one.
            try:
                os.unlink(inflight_path(slot.journal))
            except OSError:
                pass
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
        """Supervise until every slot is done or given up.

        Kills the live workers if the loop is interrupted (a progress
        callback may raise ``KeyboardInterrupt``).
        """
        with obs_live.probe("fleet", self._probe):
            try:
                self._drive()
            except BaseException:
                for slot in self.slots:
                    if slot.proc is not None:
                        slot.proc.kill()
                        slot.proc.join()
                raise

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
        while polling — the next journal-heartbeat poll."""
        timeout = _POLL_INTERVAL if self.polling else None
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

    def _observe(self, slot: _Slot, now: float) -> bool:
        """Read one journal's heartbeat: whether it changed since the
        last look. New chunk lines are reported as progress."""
        size = self._journal_size(slot)
        if size == slot.bytes_seen:
            return False
        if size > slot.bytes_seen:
            # Appends are whole lines, so counting newlines in the
            # grown region tracks the record heartbeat exactly.
            try:
                with open(slot.journal, "rb") as fp:
                    fp.seek(slot.bytes_seen)
                    lines = fp.read(size - slot.bytes_seen).count(b"\n")
            except OSError:
                lines = 0
            if slot.bytes_seen == 0:
                lines = max(0, lines - 1)  # the header line
            slot.records_seen += lines
            for _ in range(lines):  # one progress event per chunk
                self.request.instrumentation.heartbeat(
                    self.request.config.trials_per_graph
                )
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
        return True

    def _check_liveness(self, slot: _Slot, now: float) -> None:
        """Journal-growth heartbeat + the SIGTERM→grace→SIGKILL ladder."""
        policy = self.request.policy
        if not self.polling or self._observe(slot, now):
            return
        if self.stall_timeout is None:
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
        if not slot.saw_progress and os.path.exists(
            inflight_path(slot.journal)
        ):
            # The worker started its first chunk: startup is over.
            slot.saw_progress = True
            slot.last_progress = now
        deadline = self.stall_timeout
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
            slot.stalled = True
            slot.term_at = now + policy.stall_grace

    def _reap(self, slot: _Slot, returncode: int) -> None:
        slot.proc = None
        if self.polling:
            self._observe(slot, time.monotonic())  # the last lines
        stalled, slot.stalled = slot.stalled, False
        if returncode == 0:
            slot.done = True
            # Without polling the journal is never read, so a clean
            # exit is the one unconditional progress signal the parent
            # sees per shard.
            obs_live.publish(
                "progress",
                shard=slot.shard,
                ident=slot.ident,
                done_shards=sum(1 for s in self.slots if s.done),
            )
            return
        policy = self.request.policy
        if not (stalled and self._charge_stall(slot)):
            slot.failed_launches += 1
        failed = f"{slot.failed_launches}/{policy.max_attempts}"
        if slot.failed_launches >= policy.max_attempts:
            slot.gave_up = True
            obs_live.publish(
                "supervision", event="gave-up", ident=slot.ident,
                detail=f"exit {returncode}; {failed} launches failed",
            )
            warnings.warn(
                f"{slot.ident} exited with code {returncode}; {failed} "
                "launches failed, giving up on the worker. Last "
                f"output:\n{_log_tail(slot.log)}",
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
                f"({failed} launches failed)"
            ),
        )
        warnings.warn(
            f"{slot.ident} exited with code {returncode}; "
            f"relaunching in {delay:.2f}s ({failed} launches failed) — "
            "its journal makes the relaunch incremental",
            ExperimentWarning,
            stacklevel=6,
        )

    def _journaled(self, slot: _Slot) -> Set[ChunkKey]:
        if not os.path.exists(slot.journal):
            return set()
        fingerprint = config_fingerprint(self.request.config)
        return {
            key for key, _ in iter_journal(
                slot.journal, fingerprint=fingerprint
            )
        }

    def _charge_stall(self, slot: _Slot) -> bool:
        """Charge a stall-killed launch to the chunk it was executing.

        The chunk loses one attempt (a ``timeout`` fault event); after
        ``max_attempts`` it is quarantined and leaves the slot's keys, so
        the relaunch skips it. Returns whether the stall was charged —
        ``False`` when the worker named no chunk it had not journaled.
        """
        key = read_inflight(slot.journal)
        if key is None or key not in slot.keys or key in self._journaled(slot):
            return False
        inst = self.request.instrumentation
        policy = self.request.policy
        attempt = self.timeouts[key] = self.timeouts.get(key, 0) + 1
        message = (
            f"{slot.ident} stalled on it: no journal progress for "
            f"{self.stall_timeout:g}s"
        )
        self._record(TrialFailure(
            scenario=key[0], index=key[1], kind="timeout",
            message=message, attempt=attempt,
        ))
        if attempt < policy.max_attempts:
            inst.retried()
            return True
        reason = f"timed out on {attempt} attempts; last: {message}"
        self.quarantined[key] = reason
        inst.quarantine()
        self._record(TrialFailure(
            scenario=key[0], index=key[1], kind="quarantine",
            message=reason, attempt=attempt,
        ))
        slot.keys = [k for k in slot.keys if k != key]
        self._write_payload(slot, explicit_keys=True)
        obs_live.publish(
            "supervision", event="quarantine", ident=slot.ident,
            detail=f"chunk ({key[0]}, {key[1]}): {reason}",
        )
        return True

    def _record(self, failure: TrialFailure) -> None:
        self.failures.append(failure)
        self.request.instrumentation.record_failure(failure)

    def _fail_over(self, slot: _Slot) -> None:
        """Repartition a dead shard's remaining keys across survivors.

        Spawns one failover worker per surviving original shard (they
        model the capacity still standing), each owning a round-robin
        slice of the dead shard's un-journaled keys and journaling into
        the same directory. Failover workers that give up are not
        failed over again — the parent's terminal sweep catches
        whatever remains.
        """
        if not slot.original:
            return
        journaled = self._journaled(slot)
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
    """Disjoint shards executed by a supervised fleet of workers."""

    name = "subprocess"

    def prepare(self, request: ExecutionRequest) -> None:
        if request.workers < 1:
            raise ExperimentError(
                f"shards must be >= 1, got {request.workers}"
            )
        if not is_parallelizable(request.config):
            raise ExperimentError(
                f"experiment {request.config.name!r} carries an unpicklable "
                "graph_factory; run it with jobs=1"
            )
        if request.checkpoint is not None and os.path.isfile(request.checkpoint):
            raise CheckpointError(
                f"a multi-process run checkpoints into a journal "
                f"*directory*, but {request.checkpoint!r} is a file "
                "(a single-file journal from a serial run?)"
            )

    def run(self, request: ExecutionRequest) -> BackendOutcome:
        directory = request.checkpoint
        if directory is not None:
            os.makedirs(directory, exist_ok=True)
            return self._run(request, directory)
        directory = tempfile.mkdtemp(prefix="repro-shards-")
        try:
            return self._run(request, directory)
        finally:
            shutil.rmtree(directory, ignore_errors=True)

    def _run(
        self, request: ExecutionRequest, directory: str
    ) -> BackendOutcome:
        config = request.config
        inst = request.instrumentation
        n_shards = request.workers
        fingerprint = config_fingerprint(config)

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
        # Key → its first chunk, or that chunk's digest when streaming
        # drops records: a kept chunk is digested only if its key repeats,
        # a streamed one up front, so memory stays bounded by chunk size.
        seen: Dict[ChunkKey, object] = {}

        def digest(first) -> str:
            return first if isinstance(first, str) else _chunk_digest(first)

        def merge_chunk(key: ChunkKey, chunk) -> None:
            if key in seen:
                if digest(seen[key]) != _chunk_digest(chunk):
                    raise ExperimentError(
                        f"conflicting duplicate chunk (scenario={key[0]}, "
                        f"graph={key[1]}) across shard journals in "
                        f"{directory!r} — records differ; refusing to merge"
                    )
                return
            seen[key] = chunk if request.keep_records else _chunk_digest(chunk)
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

        # A chunk quarantined for stalling stays so unless some journal
        # (an earlier partitioning's) holds it after all.
        for key, reason in fleet.quarantined.items():
            if key not in seen:
                outcome.quarantined[key] = reason
        outcome.failures.extend(fleet.failures)
        gave_up = sorted(
            slot.ident for slot in fleet.slots if slot.gave_up
        )
        missing = [
            key for key in config.chunk_keys()
            if key not in seen and key not in outcome.quarantined
        ]
        if missing:
            self._finish_in_process(request, missing, directory, outcome)
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
        return outcome

    # ------------------------------------------------------------------
    def _finish_in_process(
        self,
        request: ExecutionRequest,
        missing: List[ChunkKey],
        directory: str,
        outcome: BackendOutcome,
    ) -> None:
        """Terminal sweep: the parent completes whatever no worker did.

        Journals into ``parent.ckpt`` in the same directory, so even
        this degraded path is incremental across resumes. Restricted to
        the still-missing keys — chunks already merged from worker
        journals are never re-streamed or re-run.
        """
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
        outcome.chunks.update(sub.chunks)
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
