"""Instrumentation of experiment execution: phase timers, progress,
and the bridge into the telemetry subsystem.

The runner used to accept a bare ``(done, total)`` callback and nothing
else. This module replaces that with a small, pluggable layer:

* :class:`PhaseTimings` — summed CPU-side seconds spent in each of the
  three trial phases (``generate`` the workload, ``distribute``
  deadlines, ``schedule`` and measure). Plain picklable data, so worker
  processes can measure locally and ship their timings back to the
  parent. Note the unit: each worker's phases are wall-clock to *it*,
  but the parent sums them across workers, so the merged totals behave
  like CPU time and can exceed the experiment's wall-clock elapsed time
  in parallel mode — compare against :attr:`Instrumentation.wall_elapsed`
  and :meth:`Instrumentation.parallel_efficiency`.
* :class:`TrialFailure` — one fault event (crash, timeout, exception,
  quarantine) observed by the fault-tolerant engine; plain picklable
  data shared by workers, results, and the checkpoint journal.
* :class:`Instrumentation` — the parent-side collector: accumulates
  timings, counts completed trials and fault events, and fans progress
  events out to any number of registered callbacks. Built on top of the
  span layer: attach a :class:`~repro.obs.runtime.Telemetry` and every
  :meth:`phase` block, fault event, and engine counter is additionally
  recorded as spans and metrics (:mod:`repro.obs`) — with no telemetry
  attached the span hooks are no-ops and the records produced are
  byte-identical either way.

Progress
--------
Chunks never call user callbacks directly (a worker's callback lives in
the parent and usually is not picklable anyway). Instead each chunk
times itself and returns a :class:`PhaseTimings` alongside its records,
and the parent calls :meth:`Instrumentation.absorb` as each chunk
arrives — which merges the timings and fires the progress callbacks with
the updated trial count. Progress granularity is therefore one chunk
(all trials of one (scenario, graph) pair) on every backend, serial
included.

Progress callbacks are exception-safe: a callback that raises an
:class:`Exception` is detached and reported as an
:class:`~repro.errors.ExperimentWarning` instead of aborting the run
mid-chunk. ``KeyboardInterrupt`` (and other ``BaseException``) still
propagates — deliberately interrupting a sweep from a callback remains
possible.
"""

from __future__ import annotations

import time
import warnings
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional

from repro.errors import ExperimentError, ExperimentWarning
from repro.obs import runtime as obs

#: Interned histogram names per phase (``phase.<name>.seconds``).
_PHASE_METRICS: Dict[str, str] = {}

#: Progress hook: called with (done_trials, total_trials).
ProgressFn = Callable[[int, int], None]

#: The trial phases, in pipeline order.
PHASES = ("generate", "distribute", "schedule")

#: Fault-event kinds the engine records.
FAILURE_KINDS = (
    "crash",       # a worker process (or its pool) died
    "timeout",     # the parent killed a chunk that overran its budget
    "exception",   # the chunk raised inside a worker
    "slow-trial",  # a trial finished but overran its cooperative budget
    "quarantine",  # the chunk was given up on after repeated failures
)


@dataclass(frozen=True)
class TrialFailure:
    """One fault event of one (scenario, graph-index) trial chunk.

    ``attempt`` is the 1-based count of failed attempts the chunk had
    accumulated when the event was recorded (0 for non-fatal
    ``slow-trial`` events, which do not consume an attempt).
    """

    scenario: str
    index: int
    kind: str
    message: str
    attempt: int = 0

    def __post_init__(self) -> None:
        if self.kind not in FAILURE_KINDS:
            raise ExperimentError(
                f"unknown failure kind {self.kind!r}; expected one of "
                f"{FAILURE_KINDS}"
            )

    def as_dict(self) -> Dict[str, object]:
        return {
            "scenario": self.scenario,
            "index": self.index,
            "kind": self.kind,
            "message": self.message,
            "attempt": self.attempt,
        }


@dataclass
class PhaseTimings:
    """Summed seconds spent per trial phase (picklable)."""

    generate: float = 0.0
    distribute: float = 0.0
    schedule: float = 0.0

    def add(self, phase: str, seconds: float) -> None:
        if phase not in PHASES:
            raise ExperimentError(
                f"unknown phase {phase!r}; expected one of {PHASES}"
            )
        setattr(self, phase, getattr(self, phase) + seconds)

    def merge(self, other: "PhaseTimings") -> None:
        """Accumulate another timing set (e.g. one worker chunk) into this
        one. Parallel timings are summed CPU-side seconds, so the merged
        total can exceed the experiment's wall-clock elapsed time."""
        for phase in PHASES:
            setattr(self, phase, getattr(self, phase) + getattr(other, phase))

    @property
    def total(self) -> float:
        return self.generate + self.distribute + self.schedule

    def as_dict(self) -> Dict[str, float]:
        return {phase: getattr(self, phase) for phase in PHASES}


class Instrumentation:
    """Collects per-phase timings and trial counts; relays progress.

    One instance instruments one :func:`~repro.feast.runner.run_experiment`
    call. Register any number of ``(done, total)`` callbacks with
    :meth:`add_progress`; they fire after every completed chunk. A
    raising callback is detached with an :class:`ExperimentWarning`
    rather than aborting the run.

    Pass ``telemetry`` (a :class:`repro.obs.Telemetry`) to additionally
    record the run as structured spans and metrics; the engine activates
    it for the duration of the run and worker chunks ship their span
    trees back through it.
    """

    def __init__(
        self,
        progress: Optional[ProgressFn] = None,
        telemetry: Optional["obs.Telemetry"] = None,
    ) -> None:
        self.timings = PhaseTimings()
        self.telemetry = telemetry
        self.trials_completed = 0
        self.total_trials = 0
        #: Fault events observed so far, in the order they happened.
        self.failures: List[TrialFailure] = []
        #: Chunk attempts resubmitted after a failure.
        self.retries = 0
        #: Chunks given up on after repeated failures.
        self.quarantined = 0
        #: Times the worker pool died and was respawned.
        self.pool_respawns = 0
        #: Trials replayed from a checkpoint journal instead of re-run.
        self.replayed_trials = 0
        #: Progress callbacks detached after raising (callback, error).
        self.callback_errors: List[str] = []
        #: Wall-clock seconds from :meth:`start` to :meth:`finish` (or to
        #: now while the run is still going).
        self._wall_started: Optional[float] = None
        self._wall_elapsed: Optional[float] = None
        self._callbacks: List[ProgressFn] = []
        if progress is not None:
            self.add_progress(progress)

    def add_progress(self, callback: ProgressFn) -> None:
        """Register a ``(done, total)`` progress callback."""
        self._callbacks.append(callback)

    def start(self, total_trials: int) -> None:
        """Begin (or restart) a run of ``total_trials`` trials."""
        self.total_trials = total_trials
        self.trials_completed = 0
        self._wall_started = time.perf_counter()
        self._wall_elapsed = None

    def finish(self) -> None:
        """Freeze :attr:`wall_elapsed` at the run's end."""
        if self._wall_started is not None and self._wall_elapsed is None:
            self._wall_elapsed = time.perf_counter() - self._wall_started

    @property
    def wall_elapsed(self) -> float:
        """Wall-clock seconds of the (possibly still running) run.

        Unlike ``timings.total`` this never sums across workers: it is
        the honest elapsed time the user waited, the denominator of
        :meth:`parallel_efficiency`.
        """
        if self._wall_started is None:
            return 0.0
        if self._wall_elapsed is not None:
            return self._wall_elapsed
        return time.perf_counter() - self._wall_started

    def parallel_efficiency(self, jobs: int) -> Optional[float]:
        """Summed busy time / (wall time × workers), in [0, ~1].

        ``None`` when nothing was measured yet. Values near 1 mean the
        workers were kept busy; low values point at stragglers, restarts,
        or per-chunk overhead dominating.
        """
        wall = self.wall_elapsed
        if wall <= 0.0 or jobs <= 0:
            return None
        return self.timings.total / (wall * jobs)

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """Time a block of work against the named phase.

        Also records the block as a span (and a latency histogram
        observation) when a telemetry session is active — the chunk's
        local session inside :func:`repro.feast.backends.work.run_chunk`.
        """
        began = time.perf_counter()
        try:
            with obs.span(name):
                yield
        finally:
            elapsed = time.perf_counter() - began
            self.timings.add(name, elapsed)
            metric = _PHASE_METRICS.get(name)
            if metric is None:  # cache: phase() runs twice per trial
                metric = _PHASE_METRICS[name] = f"phase.{name}.seconds"
            obs.observe(metric, elapsed)

    def completed(self, n_trials: int = 1) -> None:
        """Count ``n_trials`` more trials done and fire progress.

        A callback raising an :class:`Exception` is detached and
        surfaced as an :class:`ExperimentWarning`; ``BaseException``
        (``KeyboardInterrupt``) propagates and still aborts the run.
        """
        self.trials_completed += n_trials
        if self.trials_completed > self.total_trials:
            raise ExperimentError(
                f"completed {self.trials_completed} trials but only "
                f"{self.total_trials} were planned — the workload source "
                "produced more graphs than ExperimentConfig.n_trials expects"
            )
        for callback in list(self._callbacks):
            try:
                callback(self.trials_completed, self.total_trials)
            except Exception as exc:
                self._callbacks.remove(callback)
                message = (
                    f"progress callback {callback!r} raised "
                    f"{type(exc).__name__}: {exc}; detached — the run "
                    "continues without it"
                )
                self.callback_errors.append(message)
                self._count("engine.callback_errors")
                warnings.warn(message, ExperimentWarning, stacklevel=2)

    def absorb(self, timings: PhaseTimings, n_trials: int) -> None:
        """Merge one worker chunk's timings and count its trials."""
        self.timings.merge(timings)
        self._count("engine.trials_completed", n_trials)
        self.completed(n_trials)

    def replayed(self, timings: PhaseTimings, n_trials: int) -> None:
        """Absorb a chunk replayed from a checkpoint journal."""
        self.replayed_trials += n_trials
        self._count("engine.trials_replayed", n_trials)
        self.absorb(timings, n_trials)

    def record_failure(self, failure: TrialFailure) -> None:
        """Log one fault event (the engine calls this as faults happen)."""
        self.failures.append(failure)
        self._count(f"engine.faults.{failure.kind}")

    def retried(self) -> None:
        """Count one chunk resubmission after a failure."""
        self.retries += 1
        self._count("engine.retries")

    def quarantine(self) -> None:
        """Count one chunk quarantined after repeated failures."""
        self.quarantined += 1
        self._count("engine.quarantined")

    def pool_respawned(self) -> None:
        """Count one worker-pool death + respawn."""
        self.pool_respawns += 1
        self._count("engine.pool_respawns")

    # ------------------------------------------------------------------
    def _count(self, name: str, n: float = 1) -> None:
        """Fold an engine counter into the attached telemetry, if any.

        Goes through the instance, not the ambient session: parent-side
        bookkeeping (retries, respawns) must land in the run's registry
        even when called outside the engine's ``activate`` window.
        """
        if self.telemetry is not None:
            self.telemetry.metrics.count(name, n)
