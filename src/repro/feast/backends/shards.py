"""Multi-process execution: a worker fleet coordinated through journals.

The :class:`SubprocessBackend` is the engine's one multi-process
supervisor (registered as ``subprocess`` and as its alias ``pool``;
``run_experiment(jobs=N)`` selects it for ``N > 1``). The chunks no
journal in the checkpoint directory holds yet are split into
``request.workers`` disjoint partitions (shards), each executed by an
independent worker process forked from the supervisor. The fork hands
the worker its shard in memory — config, keys, journal and summary
paths, retry policy, trace flag — so any config runs on the fleet, a
closure ``graph_factory`` included, and the supervisor has already
imported everything the worker runs. The worker sheds the parent's
live state (:func:`_clean_start`), runs :func:`run_shard`, and reports
back through the filesystem only: one config-fingerprinted checkpoint
journal per shard and an atomic summary.

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

Every worker death is charged to the chunk the worker was executing:
the worker names each chunk in ``<journal>.inflight`` before it starts
it (:func:`inflight_path`), and a launch that dies — an
exit, a signal, a stall kill — with an unjournaled chunk of its keys
named there costs that chunk one attempt (a ``crash`` or ``timeout``
fault event). The worker is relaunched with the keys its journal does
not hold yet, and a chunk charged ``RetryPolicy.max_attempts`` times is
quarantined and dropped from its worker's keys, so a chunk that kills
or wedges every worker it runs in ends quarantined and the run finishes
without it. A worker that dies ``max_attempts`` times without naming
such a chunk has an environment fault — it cannot start, or dies
between chunks — and the run raises :class:`ExperimentError` naming its
log; the journals stay for a resume.

The same journal growth is the parent's progress signal: with progress
callbacks registered, each chunk line a worker appends is reported
through :meth:`~repro.feast.instrumentation.Instrumentation.heartbeat`.

Shard-merge protocol
--------------------
* Partition: the parent first reads every journal in the directory
  (:func:`repro.feast.persistence.read_journals`); the chunks they hold
  are replayed, never executed again. Shard ``i`` of ``n`` owns the
  rest whose ordinal among them is ``≡ i (mod n)`` (:func:`shard_keys`),
  with ``n`` at most the number of such chunks.
* Each shard appends completed chunks to ``shard-i-of-n.ckpt`` in the
  journal directory and finally writes an atomic JSON summary (fault
  accounting + serialized telemetry).
* A shard that exits nonzero is relaunched after a deterministic,
  jittered backoff — decorrelated per shard, so a fleet killed at once
  doesn't thunder back against the shared journal directory in
  lockstep — with only the keys no launch has journaled.
* The parent then merges every journal in the directory through the
  same :func:`~repro.feast.persistence.read_journals` (identical
  duplicate chunks collapse, conflicting ones raise), folds worker
  telemetry under the single run span, and hands the union to
  canonical assembly — byte-identical records to a serial run, for any
  worker count and any fault history. Chunk *exceptions* are retried
  and quarantined inside each worker's :class:`~.base.ChunkDriver`, as
  on the serial backend; chunks that kill their workers are quarantined
  by the parent (above). No chunk ever runs in the parent.

A checkpoint is a journal directory, created if new; a file is refused
(:func:`repro.feast.persistence.checkpoint_directory`). Without a
checkpoint the fleet journals into a temporary directory it removes
afterwards. Any checkpoint directory resumes under any worker count,
the serial backend's included.

Everything the supervisor observes — stalls, kill escalations,
relaunches and replayed chunks — is accounted in
:class:`~.base.SupervisionStats` on the outcome, surfaced as
``supervision.*`` obs counters and in the CLI fault report.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import shutil
import signal
import sys
import tempfile
import threading
import time
import warnings
from dataclasses import dataclass
from multiprocessing.connection import wait as wait_for_exit
from typing import Collection, Dict, List, Optional, Set

from repro import budget
from repro.applog import atomic_write_text
from repro.errors import CheckpointError, ExperimentError, ExperimentWarning
from repro.feast import faultinject
from repro.feast.backends.base import (
    BackendOutcome,
    ChunkDriver,
    ExecutionBackend,
    ExecutionRequest,
    SupervisionStats,
)
from repro.feast.backends.work import ChunkKey, RetryPolicy
from repro.feast.config import ExperimentConfig
from repro.feast.instrumentation import Instrumentation, TrialFailure
from repro.feast.persistence import (
    CheckpointJournal,
    checkpoint_directory,
    config_fingerprint,
    iter_journal,
    read_journals,
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
#: A forked worker imports nothing, but its start — replaying its
#: journal (a relaunch re-reads every chunk it already journaled) —
#: must still not count against the stall deadline, or a loaded host
#: kill-storms healthy workers before they ever append: the liveness
#: probe only arms once the startup probe has passed (the journal grew,
#: or the worker named the chunk it started).
_STARTUP_ALLOWANCE = 10.0

#: Shard workers are forked from the supervisor, which has already
#: imported everything they run.
_FORK = multiprocessing.get_context("fork")


def _shard_stem(shard: int, n_shards: int) -> str:
    return f"shard-{shard}-of-{n_shards}"


def shard_keys(
    config: ExperimentConfig,
    shard: int,
    n_shards: int,
    held: Collection[ChunkKey] = (),
) -> List[ChunkKey]:
    """The chunk keys shard ``shard`` of ``n_shards`` owns.

    Round-robin over the canonical chunk ordering of the chunks not in
    ``held`` (those a checkpoint journal already holds): ordinals
    congruent to ``shard`` mod ``n_shards``, so the partitions are
    disjoint and the same on every run with the same journals.
    """
    todo = [key for key in config.chunk_keys() if key not in held]
    return todo[shard::n_shards]


def inflight_path(journal: str) -> str:
    """Where the worker journaling into ``journal`` names the chunk it
    is executing (see module docstring)."""
    return journal + ".inflight"


def read_inflight(journal: str) -> Optional[ChunkKey]:
    """The chunk last named in ``journal``'s in-flight marker."""
    try:
        with open(inflight_path(journal)) as fp:
            scenario, index = json.load(fp)
    except (OSError, ValueError, TypeError):
        return None
    return str(scenario), int(index)


def run_shard(
    config: ExperimentConfig,
    keys: List[ChunkKey],
    journal: str,
    summary: str,
    policy: RetryPolicy,
    trace: bool,
    *,
    shard: int,
    n_shards: int,
) -> int:
    """Execute one shard's ``keys`` in this process; returns the exit
    code (0 once the summary is written).

    The chunks run through the same :class:`~.base.ChunkDriver` as on
    every other backend, journaled into ``journal`` (a relaunched
    worker is given only the keys its journal does not hold). Each chunk is
    named in :func:`inflight_path` before it runs, so the parent knows
    which chunk to charge if this process dies. The summary holds the
    fault accounting, the metrics registry (phase seconds and
    ``engine.*`` counters — the parent's only source for this shard's
    measurements) and, when tracing, the span trees and resource
    samples the parent grafts under the run span
    (:meth:`repro.obs.Telemetry.adopt_chunk`).
    """
    # Local-state fault kinds (journal truncation) need to know which
    # journal this process owns; inert unless a plan injects them.
    faultinject.set_journal_context(journal)
    telemetry = obs_runtime.Telemetry() if trace else None
    inst = Instrumentation(telemetry=telemetry)
    inst.start(len(keys) * config.trials_per_graph)
    inflight = inflight_path(journal)

    def on_start(key: ChunkKey) -> None:
        with open(inflight, "w") as fp:
            json.dump(list(key), fp)

    ckpt = CheckpointJournal(journal, config)
    try:
        driver = ChunkDriver(
            config, inst, policy, journal=ckpt, keys=keys, on_start=on_start,
        )
        driver.run_in_process()
    finally:
        ckpt.close()
    inst.finish()

    report = {
        "shard": shard,
        "n_shards": n_shards,
        "quarantined": [
            [s, i, reason]
            for (s, i), reason in sorted(driver.quarantined.items())
        ],
        "failures": [f.as_dict() for f in driver.failures],
        "metrics": inst.metrics.as_dict(),
    }
    if telemetry is not None:
        report["telemetry"] = {
            "spans": [s.as_dict() for s in telemetry.spans.finished()],
            "resources": [r.as_dict() for r in telemetry.resources],
        }
    atomic_write_text(summary, json.dumps(report))
    return 0


def _exit_text(returncode: int) -> str:
    """A worker's exit status in words: ``exit code 3``, ``SIGKILL``."""
    if returncode < 0:
        try:
            return signal.Signals(-returncode).name
        except ValueError:
            return f"signal {-returncode}"
    return f"exit code {returncode}"


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
    it waits on. It holds the shard as of this launch; the child cleans
    its inherited state, runs :func:`run_shard` on it and exits with
    its return code: 0 once the shard is complete, anything else (a
    negative code is a signal) means relaunch.
    """

    def __init__(self, request: ExecutionRequest, slot: "_Slot") -> None:
        super().__init__(name=slot.ident)
        self.config = request.config
        self.keys = slot.keys
        self.journal = slot.journal
        self.summary = slot.summary
        self.policy = request.policy
        self.trace = request.trace
        self.shard = slot.shard
        self.n_shards = slot.n_shards
        self.log = slot.log

    def poll(self) -> Optional[int]:
        return self.exitcode

    def run(self) -> None:
        _clean_start(self.log)
        sys.exit(run_shard(
            self.config, self.keys, self.journal, self.summary,
            self.policy, self.trace,
            shard=self.shard, n_shards=self.n_shards,
        ))


@dataclass
class _Slot:
    """One supervised worker: a shard of the sweep."""

    ident: str
    shard: int
    n_shards: int
    #: The chunk keys this worker still owns: none quarantined, none
    #: an earlier launch journaled.
    keys: List[ChunkKey]
    journal: str
    summary: str
    log: str
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
    #: Launches that died without naming a chunk to charge.
    failed_launches: int = 0
    done: bool = False


class _Fleet:
    """Supervises a set of worker slots to completion.

    Runs the poll loop: launch eligible slots, reap exits (charge the
    death to the worker's in-flight chunk and relaunch with jittered
    backoff), and watch journal heartbeats for progress and stalls
    (SIGTERM → grace → SIGKILL). Collects :class:`SupervisionStats`,
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
        #: Worker deaths charged per chunk, and the chunks that ran out.
        self.charges: Dict[ChunkKey, int] = {}
        self.quarantined: Dict[ChunkKey, str] = {}
        self.failures: List[TrialFailure] = []

    def add_slot(
        self, shard: int, n_shards: int, held: Collection[ChunkKey]
    ) -> None:
        ident = _shard_stem(shard, n_shards)
        slot = _Slot(
            ident=ident,
            shard=shard,
            n_shards=n_shards,
            keys=shard_keys(self.request.config, shard, n_shards, held),
            journal=os.path.join(self.directory, ident + ".ckpt"),
            summary=os.path.join(self.directory, ident + ".summary.json"),
            log=os.path.join(self.directory, ident + ".log"),
        )
        self.slots.append(slot)

    # -- lifecycle -----------------------------------------------------
    def _launch(self, slot: _Slot) -> None:
        slot.launches += 1
        # The child inherits a copy of every stdio buffer; empty them so
        # no parent output is written again from a shard.
        for stream in (sys.stdout, sys.stderr):
            if stream is not None:
                stream.flush()
        # A marker left by the previous launch names no chunk of this
        # one.
        try:
            os.unlink(inflight_path(slot.journal))
        except OSError:
            pass
        slot.proc = _ShardProcess(self.request, slot)
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
        """Supervise until every slot is done.

        Kills the live workers if the loop is interrupted (a progress
        callback may raise ``KeyboardInterrupt``) or a worker has an
        environment fault.
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
            live = [s for s in self.slots if not s.done]
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
        while polling — the next journal-heartbeat poll.

        A worker whose sentinel is ready is exiting; it is reaped here
        with a blocking join, so the next :meth:`_ShardProcess.poll`
        sees its exit code instead of the loop spinning until
        ``waitpid`` can collect it.
        """
        timeout = _POLL_INTERVAL if self.polling else None
        procs = {}
        now = time.monotonic()
        for slot in self.slots:
            if slot.done:
                continue
            if slot.proc is not None:
                procs[slot.proc.sentinel] = slot.proc
            else:
                due = max(0.0, slot.eligible_at - now)
                timeout = due if timeout is None else min(timeout, due)
        if procs or timeout is not None:
            for sentinel in wait_for_exit(list(procs), timeout):
                procs[sentinel].join()

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
        # The relaunch runs only what no launch has journaled yet; the
        # rest is read back, its measurements lost with the dead launch.
        journaled = self._journaled(slot)
        for key in [key for key in slot.keys if key in journaled]:
            slot.keys.remove(key)
            self.replayed(key)
        if not self._charge(slot, stalled, returncode):
            slot.failed_launches += 1
            if slot.failed_launches >= policy.max_attempts:
                resume = (
                    f"; its journals stay in {self.directory!r} for a resume"
                    if self.request.checkpoint is not None else ""
                )
                raise ExperimentError(
                    f"{slot.ident} died {slot.failed_launches} times "
                    f"without naming a chunk to charge (last: "
                    f"{_exit_text(returncode)}) — an environment fault, "
                    f"not a chunk's{resume}. Its log {slot.log!r} ends:\n"
                    f"{_log_tail(slot.log)}"
                )
        delay = policy.backoff_jittered(
            slot.launches, self.request.config.seed, slot.ident
        )
        slot.eligible_at = time.monotonic() + delay
        self.stats.relaunches += 1
        obs_live.publish(
            "supervision", event="relaunch", ident=slot.ident,
            detail=f"{_exit_text(returncode)}; relaunching in {delay:.2f}s",
        )
        warnings.warn(
            f"{slot.ident} exited with {_exit_text(returncode)}; "
            f"relaunching in {delay:.2f}s — its journal makes the "
            "relaunch incremental",
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

    def _charge(self, slot: _Slot, stalled: bool, returncode: int) -> bool:
        """Charge a dead launch to the chunk it was executing.

        The chunk loses one attempt (a ``timeout`` fault event for a
        stall kill, ``crash`` for any other death); after
        ``max_attempts`` it is quarantined and leaves the slot's keys, so
        the relaunch skips it. Returns whether the death was charged —
        ``False`` when the worker named no chunk it had not journaled.
        """
        key = read_inflight(slot.journal)
        if key is None or key not in slot.keys:
            return False
        inst = self.request.instrumentation
        policy = self.request.policy
        attempt = self.charges[key] = self.charges.get(key, 0) + 1
        if stalled:
            kind, message = "timeout", (
                f"{slot.ident} stalled on it: no journal progress for "
                f"{self.stall_timeout:g}s"
            )
        else:
            kind, message = "crash", (
                f"{slot.ident} died running it ({_exit_text(returncode)})"
            )
        self._record(TrialFailure(
            scenario=key[0], index=key[1], kind=kind,
            message=message, attempt=attempt,
        ))
        if attempt < policy.max_attempts:
            inst.retried()
            return True
        reason = f"killed its worker on {attempt} attempts; last: {message}"
        self.quarantined[key] = reason
        inst.quarantine()
        self._record(TrialFailure(
            scenario=key[0], index=key[1], kind="quarantine",
            message=reason, attempt=attempt,
        ))
        slot.keys = [k for k in slot.keys if k != key]
        obs_live.publish(
            "supervision", event="quarantine", ident=slot.ident,
            detail=f"chunk ({key[0]}, {key[1]}): {reason}",
        )
        return True

    def replayed(self, key: ChunkKey) -> None:
        """Count a chunk a journal holds as replayed, not measured."""
        self.stats.chunks_replayed += 1
        self.request.instrumentation.replayed(
            self.request.config.trials_per_graph
        )

    def _record(self, failure: TrialFailure) -> None:
        self.failures.append(failure)
        self.request.instrumentation.record_failure(failure)


class SubprocessBackend(ExecutionBackend):
    """Disjoint shards executed by a supervised fleet of workers."""

    name = "subprocess"

    def run(self, request: ExecutionRequest) -> BackendOutcome:
        if request.checkpoint is not None:
            return self._run(request, checkpoint_directory(request.checkpoint))
        directory = tempfile.mkdtemp(prefix="repro-shards-")
        try:
            return self._run(request, directory)
        finally:
            shutil.rmtree(directory, ignore_errors=True)

    def _run(
        self, request: ExecutionRequest, directory: str
    ) -> BackendOutcome:
        config = request.config
        fingerprint = config_fingerprint(config)

        # Chunks some journal already holds are replayed, never run:
        # only the rest is partitioned, over at most that many workers.
        fleet = _Fleet(request, directory)
        held = {key for key, _ in read_journals(directory, fingerprint)}
        for key in held:
            fleet.replayed(key)
        todo = sum(1 for key in config.chunk_keys() if key not in held)
        n_shards = min(request.workers, todo)
        for i in range(n_shards):
            fleet.add_slot(i, n_shards, held)
        fleet.drive()

        outcome = BackendOutcome(workers=max(1, n_shards))
        outcome.supervision.merge(fleet.stats)
        # Journals carry records only; measurements come from worker
        # summaries.
        for key, chunk in read_journals(directory, fingerprint):
            if request.on_chunk is not None:
                request.on_chunk(key, chunk)
                outcome.streamed_trials += chunk.n_trials
            outcome.chunks[key] = chunk if request.keep_records else None
        for slot in fleet.slots:
            self._merge_summary(request, slot, outcome)
        outcome.quarantined.update(fleet.quarantined)
        outcome.failures.extend(fleet.failures)
        return outcome

    def _merge_summary(
        self,
        request: ExecutionRequest,
        slot: _Slot,
        outcome: BackendOutcome,
    ) -> None:
        """Fold one worker's summary: faults, its metrics registry (the
        chunks its final launch ran) and telemetry."""
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
