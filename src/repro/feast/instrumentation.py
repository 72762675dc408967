"""Instrumentation of experiment execution: phase timers, progress,
and the bridge into the telemetry subsystem.

One run has one store for its numbers: the :class:`Instrumentation`'s
:class:`~repro.obs.metrics.MetricsRegistry` (the attached
:class:`~repro.obs.runtime.Telemetry`'s registry, or a private one when
none is attached). Every number is recorded once, in the process that
did the work, and merged upward once:

* :meth:`Instrumentation.phase` times a block of trial work and records
  it as one ``phase.<name>.seconds`` histogram observation — on traced
  and untraced runs alike.
* :class:`PhaseTimings` is a read-only view of those histograms' sums.
  The phases are wall-clock to the process that ran them, but the parent
  sums them across workers, so the totals behave like CPU time and can
  exceed the run's wall-clock elapsed time — compare against
  :attr:`Instrumentation.wall_elapsed` and
  :meth:`Instrumentation.parallel_efficiency`.
* Engine bookkeeping (trials completed and replayed, fault events,
  retries, quarantines, pool respawns) lives in ``engine.*`` counters;
  the attributes of the same names are views of them.
* A chunk replayed from a checkpoint journal counts as replayed trials
  but adds no phase seconds: nothing was measured for it in this run.

:class:`TrialFailure` is one fault event (crash, timeout, exception,
quarantine) observed by the fault-tolerant engine; plain picklable data
shared by workers, results, and the checkpoint journal.

Progress
--------
Chunks never call user callbacks directly (a worker's callback lives in
the parent and usually is not picklable anyway). Instead each chunk
records into its own registry and ships it back with its records, and
the parent calls :meth:`Instrumentation.absorb` as each chunk arrives —
which merges the registry and fires the progress callbacks with the
updated trial count. Progress granularity is therefore one chunk (all
trials of one (scenario, graph) pair) on the serial and pool backends,
and one shard worker on the subprocess backend.

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
from typing import Callable, Dict, Iterable, Iterator, List, Mapping, Optional

from repro.errors import ExperimentError, ExperimentWarning
from repro.obs import runtime as obs
from repro.obs.metrics import MetricsRegistry

#: Progress hook: called with (done_trials, total_trials).
ProgressFn = Callable[[int, int], None]

#: The trial phases, in pipeline order.
PHASES = ("generate", "distribute", "schedule")

#: The histogram each phase records into (``phase.<name>.seconds``).
PHASE_METRICS: Dict[str, str] = {p: f"phase.{p}.seconds" for p in PHASES}

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


class PhaseTimings:
    """Summed seconds per trial phase: a read-only view of a registry.

    Each value is the sum of the registry's ``phase.<name>.seconds``
    histogram, less its value in ``base`` (what the registry held before
    the run began). Values are read by key, never by iterating the
    registry, so the status sampler can read them from its own thread
    while the engine records.
    """

    __slots__ = ("_metrics", "_base")

    def __init__(
        self,
        metrics: Optional[MetricsRegistry] = None,
        base: Optional[Mapping[str, float]] = None,
    ) -> None:
        self._metrics = metrics if metrics is not None else MetricsRegistry()
        self._base = base if base is not None else {}

    @classmethod
    def of(cls, seconds: Mapping[str, float]) -> "PhaseTimings":
        """A view of per-phase totals known only as numbers (a result
        loaded from disk)."""
        metrics = MetricsRegistry()
        for phase in PHASES:
            metrics.observe(PHASE_METRICS[phase], float(seconds.get(phase, 0)))
        return cls(metrics)

    def _sum(self, phase: str) -> float:
        name = PHASE_METRICS[phase]
        hist = self._metrics.histograms.get(name)
        if hist is None:
            return 0.0
        return hist.total - self._base.get(name, 0.0)

    generate = property(lambda self: self._sum("generate"))
    distribute = property(lambda self: self._sum("distribute"))
    schedule = property(lambda self: self._sum("schedule"))

    @property
    def total(self) -> float:
        return self.generate + self.distribute + self.schedule

    def as_dict(self) -> Dict[str, float]:
        return {phase: self._sum(phase) for phase in PHASES}

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v!r}" for k, v in self.as_dict().items())
        return f"PhaseTimings({inner})"


def _counter_view(name: str, doc: str) -> property:
    """A read-only attribute: what the run added to counter ``name``."""
    return property(
        lambda self: int(
            self.metrics.counters.get(name, 0) - self._base.get(name, 0)
        ),
        doc=doc,
    )


class Instrumentation:
    """Collects one run's numbers in one registry; relays progress.

    One instance instruments one :func:`~repro.feast.runner.run_experiment`
    call. Register any number of ``(done, total)`` callbacks with
    :meth:`add_progress`; they fire after every completed chunk. A
    raising callback is detached with an :class:`ExperimentWarning`
    rather than aborting the run.

    Pass ``telemetry`` (a :class:`repro.obs.Telemetry`) to additionally
    record the run as structured spans; its registry then *is* the
    run's registry. The engine activates it for the duration of the run
    and worker chunks ship their span trees back through it.
    """

    def __init__(
        self,
        progress: Optional[ProgressFn] = None,
        telemetry: Optional["obs.Telemetry"] = None,
    ) -> None:
        self.telemetry = telemetry
        #: The run's only store of numbers: phase histograms and
        #: ``engine.*`` counters.
        self.metrics = (
            telemetry.metrics if telemetry is not None else MetricsRegistry()
        )
        #: Counter values and histogram sums at :meth:`start`: a
        #: telemetry session may span several runs (one event log for a
        #: whole workload), and this run's numbers are what it adds.
        self._base: Dict[str, float] = {}
        self.timings = PhaseTimings(self.metrics, self._base)
        self.total_trials = 0
        #: Fault events observed so far, in the order they happened.
        self.failures: List[TrialFailure] = []
        #: Progress callbacks detached after raising (callback, error).
        self.callback_errors: List[str] = []
        #: Wall-clock seconds from :meth:`start` to :meth:`finish` (or to
        #: now while the run is still going).
        self._wall_started: Optional[float] = None
        self._wall_elapsed: Optional[float] = None
        self._callbacks: List[ProgressFn] = []
        if progress is not None:
            self.add_progress(progress)

    # Engine bookkeeping: read-only views of the ``engine.*`` counters.
    trials_completed = _counter_view(
        "engine.trials_completed", "Trials done so far, measured or replayed."
    )
    replayed_trials = _counter_view(
        "engine.trials_replayed",
        "Trials replayed from a checkpoint journal instead of re-run.",
    )
    retries = _counter_view(
        "engine.retries", "Chunk attempts resubmitted after a failure."
    )
    quarantined = _counter_view(
        "engine.quarantined", "Chunks given up on after repeated failures."
    )
    pool_respawns = _counter_view(
        "engine.pool_respawns", "Times the worker pool died and was respawned."
    )

    # ------------------------------------------------------------------
    def add_progress(self, callback: ProgressFn) -> None:
        """Register a ``(done, total)`` progress callback."""
        self._callbacks.append(callback)

    def start(self, total_trials: int) -> None:
        """Begin a run of ``total_trials`` trials."""
        self.total_trials = total_trials
        self._base.clear()
        self._base.update(self.metrics.counters)
        self._base.update(
            (name, hist.total)
            for name, hist in self.metrics.histograms.items()
        )
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

        Records the block once, as a ``phase.<name>.seconds`` histogram
        observation, and also as a span when a telemetry session is
        active — the chunk's local session inside
        :func:`repro.feast.backends.work.run_chunk`.
        """
        metric = PHASE_METRICS.get(name)
        if metric is None:
            raise ExperimentError(
                f"unknown phase {name!r}; expected one of {PHASES}"
            )
        began = time.perf_counter()
        try:
            with obs.span(name):
                yield
        finally:
            self.metrics.observe(metric, time.perf_counter() - began)

    def completed(self, n_trials: int = 1) -> None:
        """Count ``n_trials`` more trials done and fire progress."""
        self.metrics.count("engine.trials_completed", n_trials)
        self._progress()

    def absorb(
        self,
        metrics: MetricsRegistry,
        n_trials: int = 0,
        failures: Iterable[TrialFailure] = (),
    ) -> None:
        """Merge a registry shipped by the process that did the work.

        A chunk's registry holds its phase seconds and fault counters;
        its ``n_trials`` are counted here. A shard worker's registry
        already counts its own trials (pass none). ``failures`` are that
        process's fault events, already counted in its registry.
        """
        self.metrics.merge(metrics)
        self.failures.extend(failures)
        self.completed(n_trials)

    def replayed(self, n_trials: int) -> None:
        """Count a chunk replayed from a checkpoint journal: its trials
        are done, but no phase seconds were spent on them in this run."""
        self.metrics.count("engine.trials_replayed", n_trials)
        self.completed(n_trials)

    def record_failure(self, failure: TrialFailure) -> None:
        """Log one fault event (the engine calls this as faults happen)."""
        self.failures.append(failure)
        self.metrics.count(f"engine.faults.{failure.kind}")

    def retried(self) -> None:
        """Count one chunk resubmission after a failure."""
        self.metrics.count("engine.retries")

    def quarantine(self) -> None:
        """Count one chunk quarantined after repeated failures."""
        self.metrics.count("engine.quarantined")

    def pool_respawned(self) -> None:
        """Count one worker-pool death + respawn."""
        self.metrics.count("engine.pool_respawns")

    # ------------------------------------------------------------------
    def _progress(self) -> None:
        """Fire the progress callbacks with the current trial count.

        A callback raising an :class:`Exception` is detached and
        surfaced as an :class:`ExperimentWarning`; ``BaseException``
        (``KeyboardInterrupt``) propagates and still aborts the run.
        """
        done = self.trials_completed
        if done > self.total_trials:
            raise ExperimentError(
                f"completed {done} trials but only "
                f"{self.total_trials} were planned — the workload source "
                "produced more graphs than ExperimentConfig.n_trials expects"
            )
        for callback in list(self._callbacks):
            try:
                callback(done, self.total_trials)
            except Exception as exc:
                self._callbacks.remove(callback)
                message = (
                    f"progress callback {callback!r} raised "
                    f"{type(exc).__name__}: {exc}; detached — the run "
                    "continues without it"
                )
                self.callback_errors.append(message)
                self.metrics.count("engine.callback_errors")
                warnings.warn(message, ExperimentWarning, stacklevel=3)
