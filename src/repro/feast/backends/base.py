"""The ExecutionBackend interface and the shared chunk driver.

An execution backend answers one question: *where do chunks run?* The
rest of the engine — the work-unit contract (:mod:`.work`), canonical
record assembly, retry/quarantine bookkeeping, checkpoint journaling,
telemetry adoption — is identical for every backend and lives here.

The contract
------------
A backend receives an :class:`ExecutionRequest` and must drive every
chunk of ``request.config.chunk_keys()`` to *done or quarantined*,
returning a :class:`BackendOutcome`. Guarantees a conforming backend
provides (and the cross-backend parity tests enforce):

* **Determinism** — a completed chunk's records depend only on
  (config, scenario, index), never on the backend, worker count, shard
  count, or arrival order. Backends get this for free by executing
  chunks through :func:`.work.run_chunk`, whose seeding contract
  regenerates identical graphs in any process.
* **Canonical assembly** — :func:`assemble_records` reorders completed
  chunks into the serial record order (scenario → size → method →
  index), so ``run_experiment`` output is byte-identical across
  backends.
* **Fault accounting** — failures consume attempts per
  :class:`.work.RetryPolicy`; chunks that exhaust attempts (or fail
  identically on consecutive attempts) are quarantined, never silently
  dropped: their keys appear in ``outcome.quarantined``.
* **Streaming** — when ``request.on_chunk`` is set, every completed
  chunk (including journal-replayed ones) is handed to it exactly once,
  as it completes; with ``keep_records=False`` the driver then drops
  the records, so peak resident records stay bounded by chunk size.
"""

from __future__ import annotations

import time
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Callable, ClassVar, Dict, List, Optional, Tuple

from repro.errors import ExperimentError
from repro.obs import live
from repro.feast.config import ExperimentConfig
from repro.feast.instrumentation import Instrumentation, TrialFailure
from repro.feast.runner import TrialRecord
from repro.feast.backends.work import (
    ChunkKey,
    RetryPolicy,
    TrialSpec,
    execute_chunk,
)

#: Streaming hook: called once per completed chunk, in completion order.
ChunkSink = Callable[[ChunkKey, object], None]


@dataclass
class ExecutionRequest:
    """Everything a backend needs to execute one experiment."""

    config: ExperimentConfig
    instrumentation: Instrumentation
    policy: RetryPolicy
    #: Checkpoint location: a journal *file* for the serial backend, a
    #: journal *directory* for the worker fleet; ``None`` disables
    #: checkpointing (the fleet then manages a temporary directory).
    checkpoint: Optional[str] = None
    #: Worker processes of a multi-process backend (>= 1).
    workers: int = 1
    #: Whether failing chunks get retry/quarantine treatment. ``False``
    #: (a plain ``jobs=1`` run) makes the serial backend fail-fast: the
    #: first chunk exception propagates and no later chunk runs.
    supervised: bool = False
    #: Streaming hook; see module docstring.
    on_chunk: Optional[ChunkSink] = None
    #: ``False`` drops each chunk's records after ``on_chunk`` consumed
    #: them — streaming-aggregation mode, no canonical record list.
    keep_records: bool = True

    @property
    def trace(self) -> bool:
        """Whether workers should record and ship telemetry."""
        return self.instrumentation.telemetry is not None


@dataclass
class SupervisionStats:
    """Fault-tolerance outcomes of one run, for operators.

    Filled by the backends (liveness supervision, failover, journal
    replay) and surfaced three ways: on
    :attr:`repro.feast.runner.ExperimentResult.supervision`, in the CLI
    fault report, and — on traced runs — as ``supervision.*`` obs
    counters that ``repro report`` renders as a dedicated section.
    """

    #: Shards declared stalled (no journal progress past the deadline)
    #: and sent SIGTERM.
    stalls_detected: int = 0
    #: Stalled shards that ignored SIGTERM and were SIGKILLed after the
    #: grace period.
    kills_escalated: int = 0
    #: Worker relaunches (after a crash, injected kill, or stall kill).
    relaunches: int = 0
    #: Shards that exhausted their launch cap and had their remaining
    #: chunks reassigned to surviving shards.
    shards_failed_over: int = 0
    #: Chunk keys repartitioned onto failover workers.
    chunks_reassigned: int = 0
    #: Chunks recovered from journals instead of re-running.
    chunks_replayed: int = 0

    def merge(self, other: "SupervisionStats") -> None:
        self.stalls_detected += other.stalls_detected
        self.kills_escalated += other.kills_escalated
        self.relaunches += other.relaunches
        self.shards_failed_over += other.shards_failed_over
        self.chunks_reassigned += other.chunks_reassigned
        self.chunks_replayed += other.chunks_replayed

    def as_dict(self) -> Dict[str, int]:
        return {
            "stalls_detected": self.stalls_detected,
            "kills_escalated": self.kills_escalated,
            "relaunches": self.relaunches,
            "shards_failed_over": self.shards_failed_over,
            "chunks_reassigned": self.chunks_reassigned,
            "chunks_replayed": self.chunks_replayed,
        }

    def any(self) -> bool:
        """Whether anything supervision-worthy happened at all."""
        return any(self.as_dict().values())


@dataclass
class BackendOutcome:
    """What a backend produced: completed chunks + fault accounting."""

    #: Completed chunk results by key (values are ``None`` when
    #: ``keep_records=False`` streamed them away).
    chunks: Dict[ChunkKey, object] = field(default_factory=dict)
    #: Chunks given up on, with reasons; their trials have no records.
    quarantined: Dict[ChunkKey, str] = field(default_factory=dict)
    #: Every fault event observed, in observation order.
    failures: List[TrialFailure] = field(default_factory=list)
    #: Why execution degraded below what was requested, if it did.
    degraded_reason: Optional[str] = None
    #: Trials whose records were streamed (and possibly dropped).
    streamed_trials: int = 0
    #: Liveness/failover accounting (see :class:`SupervisionStats`).
    supervision: SupervisionStats = field(default_factory=SupervisionStats)


class ExecutionBackend(ABC):
    """Strategy interface: *where* the chunks of a sweep execute.

    Implementations: :class:`~repro.feast.backends.serial.SerialBackend`
    (this process) and
    :class:`~repro.feast.backends.shards.SubprocessBackend` (a
    supervised fleet of worker processes merged through checkpoint
    journals). Register custom backends with
    :func:`repro.feast.backends.register_backend`.
    """

    #: Registry name; also the ``engine`` attribute of the run span.
    name: ClassVar[str] = "abstract"

    def prepare(self, request: ExecutionRequest) -> None:
        """Validate the request before the run span opens.

        Raise :class:`ExperimentError` for unsatisfiable requests (e.g.
        an unpicklable config on a multi-process backend).
        """

    @abstractmethod
    def run(self, request: ExecutionRequest) -> BackendOutcome:
        """Drive every chunk to done-or-quarantined and report."""


@dataclass
class ChunkState:
    """Driver-side bookkeeping of one chunk's execution attempts."""

    spec: TrialSpec
    #: Failed attempts consumed so far (also the next attempt's number).
    attempt: int = 0
    #: Monotonic time before which the chunk must not be resubmitted.
    eligible_at: float = 0.0
    #: (exception type name, message) of the previous failure.
    last_signature: Optional[Tuple[str, str]] = None


class ChunkDriver:
    """Drives a set of chunks to done-or-quarantined, backend-agnostic.

    Owns the bookkeeping every backend shares: attempt counting with
    retry/backoff, deterministic-failure quarantine, checkpoint-journal
    replay and append, telemetry adoption, instrumentation/progress, and
    the streaming hook. Backends use it through :meth:`run_in_process`,
    the serial chunk loop that is also the fleet worker's engine and the
    fleet parent's terminal sweep.

    ``keys`` restricts the driver to a subset of the config's chunks —
    the shard worker passes its partition; the default is every chunk.
    ``on_start`` is called with each chunk's key before it executes (the
    shard worker names its in-flight chunk for the fleet's stall charge).
    """

    def __init__(
        self,
        config: ExperimentConfig,
        inst: Instrumentation,
        policy: RetryPolicy,
        journal=None,
        keys: Optional[List[ChunkKey]] = None,
        on_chunk: Optional[ChunkSink] = None,
        keep_records: bool = True,
        on_start: Optional[Callable[[ChunkKey], None]] = None,
    ) -> None:
        self.config = config
        self.inst = inst
        self.policy = policy
        self.journal = journal
        self.on_chunk = on_chunk
        self.on_start = on_start
        self.keep_records = keep_records
        #: Whether workers should record and ship telemetry.
        self.trace = inst.telemetry is not None
        self.states: Dict[ChunkKey, ChunkState] = {}
        self.waiting: List[ChunkKey] = []
        self.done: Dict[ChunkKey, object] = {}
        self.quarantined: Dict[ChunkKey, str] = {}
        self.failures: List[TrialFailure] = []
        self.streamed_trials = 0
        self.supervision = SupervisionStats()
        for key in (list(config.chunk_keys()) if keys is None else keys):
            scenario, index = key
            if journal is not None and key in journal.replayed:
                replayed = journal.replayed[key]
                self.failures.extend(replayed.failures)
                inst.replayed(replayed.n_trials)
                self.supervision.chunks_replayed += 1
                self._store(key, replayed, journaled=True)
                continue
            self.states[key] = ChunkState(
                spec=TrialSpec(config=config, scenario=scenario, index=index)
            )
            self.waiting.append(key)

    # -- outcome handling ----------------------------------------------
    def _store(self, key: ChunkKey, chunk, journaled: bool) -> None:
        """File one completed chunk: journal, stream, keep or drop."""
        if self.journal is not None and not journaled:
            self.journal.append(chunk)
        if self.on_chunk is not None:
            self.on_chunk(key, chunk)
            self.streamed_trials += chunk.n_trials
        self.done[key] = chunk if self.keep_records else None
        # Observation only: a no-op unless a live status stream is
        # active in this process (shard workers never have one).
        live.publish(
            "progress",
            scenario=key[0],
            index=key[1],
            trials=chunk.n_trials,
            replayed=journaled,
            done_chunks=len(self.done),
        )

    def complete(self, key: ChunkKey, chunk) -> None:
        """Record one successfully executed chunk."""
        self.failures.extend(chunk.failures)
        if self.inst.telemetry is not None:
            # Graft the worker's span tree under the run span.
            self.inst.telemetry.adopt_chunk(chunk.spans, chunk.resources)
        self._store(key, chunk, journaled=False)
        self.inst.absorb(chunk.metrics, chunk.n_trials, chunk.failures)

    def fail(self, key: ChunkKey, exc: BaseException) -> None:
        """Consume one attempt of ``key``; requeue or quarantine it."""
        state = self.states[key]
        state.attempt += 1
        signature = (type(exc).__name__, str(exc))
        failure = TrialFailure(
            scenario=key[0], index=key[1], kind="exception",
            message=f"{signature[0]}: {signature[1]}",
            attempt=state.attempt,
        )
        self.failures.append(failure)
        self.inst.record_failure(failure)
        deterministic = state.last_signature == signature
        state.last_signature = signature
        if deterministic:
            self.quarantine(key, (
                f"deterministic failure (identical exception on "
                f"consecutive attempts): {failure.message}"
            ))
        elif state.attempt >= self.policy.max_attempts:
            self.quarantine(key, (
                f"exhausted {self.policy.max_attempts} attempts; last "
                f"failure: {failure.message}"
            ))
        else:
            self.inst.retried()
            # Deterministic per-chunk jitter decorrelates the retries of
            # chunks (and shards) that failed at the same instant.
            state.eligible_at = time.monotonic() + self.policy.backoff_jittered(
                state.attempt, self.config.seed, f"{key[0]}:{key[1]}"
            )
            self.waiting.append(key)

    def quarantine(self, key: ChunkKey, reason: str) -> None:
        """Give up on ``key``: record the reason, keep the sweep going."""
        self.quarantined[key] = reason
        self.inst.quarantine()
        failure = TrialFailure(
            scenario=key[0], index=key[1], kind="quarantine",
            message=reason, attempt=self.states[key].attempt,
        )
        self.failures.append(failure)
        self.inst.record_failure(failure)

    def outcome(self) -> BackendOutcome:
        return BackendOutcome(
            chunks=self.done,
            quarantined=self.quarantined,
            failures=self.failures,
            streamed_trials=self.streamed_trials,
            supervision=self.supervision,
        )

    # -- the serial chunk loop -----------------------------------------
    def run_in_process(self, fail_fast: bool = False) -> None:
        """Run the remaining chunks in this process, one at a time.

        Exceptions get retry/quarantine treatment, unless ``fail_fast``
        re-raises the first one unchanged; crash/hang protection needs
        worker processes and is the fleet's job (injected crashes are
        parent-safe by design — see :mod:`repro.feast.faultinject`).
        """
        while self.waiting:
            now = time.monotonic()
            key = min(self.waiting, key=lambda k: self.states[k].eligible_at)
            delay = self.states[key].eligible_at - now
            if delay > 0:
                time.sleep(delay)
            self.waiting.remove(key)
            state = self.states[key]
            if self.on_start is not None:
                self.on_start(key)
            try:
                chunk = execute_chunk(
                    state.spec, state.attempt, self.config.trial_timeout,
                    self.trace,
                )
            except Exception as exc:
                if fail_fast:
                    raise
                self.fail(key, exc)
            else:
                self.complete(key, chunk)


def assemble_records(
    config: ExperimentConfig,
    chunks: Dict[ChunkKey, object],
    quarantined: Dict[ChunkKey, str],
) -> List[TrialRecord]:
    """Reorder completed chunks into the canonical serial record order.

    The serial sweep iterates scenario → size → method → index; chunks
    complete in arbitrary order on any parallel backend, so this is the
    inverse permutation that makes every backend's output byte-identical.
    Quarantined chunks' trials are omitted (the caller lists them on the
    result); a chunk that is neither done nor quarantined is an engine
    bug and raises.
    """
    records: List[TrialRecord] = []
    for scenario in config.scenarios:
        for n_processors in config.system_sizes:
            for method in config.methods:
                for index in range(config.n_graphs):
                    key = (scenario, index)
                    if key in quarantined:
                        continue
                    chunk = chunks.get(key)
                    if chunk is None:
                        raise ExperimentError(
                            f"chunk (scenario={scenario}, graph={index}) "
                            "is neither completed nor quarantined — "
                            "execution backend lost it"
                        )
                    records.append(
                        chunk.records[(n_processors, method.label)]
                    )
    return records
