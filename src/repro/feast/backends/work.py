"""The work-unit contract shared by every execution backend.

One :class:`TrialSpec` is the unit of distributable work: all
(size × method) trials of a single (scenario, graph-index) pair. The
spec is tiny and picklable — it carries the experiment config plus the
chunk coordinates, and the executing process regenerates the task graph
locally from the (seed, scenario, index) contract
(:func:`repro.feast.runner.trial_seed`), so no task graph ever crosses a
process or host boundary. :func:`run_chunk` executes one spec and
returns a :class:`ChunkResult`; backends differ only in *where* and
*how many at a time* they call it. :func:`run_chunk` is the only trial
body in the engine.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro import budget
from repro.errors import ExperimentError
from repro.feast import faultinject
from repro.obs import runtime as obs
from repro.obs.metrics import MetricsRegistry
from repro.obs.resources import ResourceSample, sample_resources
from repro.obs.spans import Span
from repro.feast.config import ExperimentConfig, speeds_for
from repro.feast.instrumentation import Instrumentation, TrialFailure
from repro.feast.runner import (
    TrialRecord,
    distribute_for_trial,
    graph_for_trial,
    make_record,
    prefetch_distributions,
    schedule_trial,
)
from repro.machine.system import System
from repro.machine.topology import make_interconnect
from repro.sched.analysis import schedule_metrics
from repro.sched.schedule import Placements, Schedule

#: Chunk coordinates: (scenario, graph index).
ChunkKey = Tuple[str, int]


def default_jobs() -> int:
    """The cpu_count-aware default worker count (>= 1)."""
    return max(1, os.cpu_count() or 1)


def resolve_jobs(jobs: Optional[int]) -> int:
    """Normalize a ``jobs`` request: ``None``/``0`` means all cores.

    Values above the machine's core count are allowed (a run is
    capped at one worker per chunk anyway); negatives are rejected.
    """
    if jobs is None or jobs == 0:
        return default_jobs()
    if jobs < 0:
        raise ExperimentError(f"jobs must be >= 0, got {jobs}")
    return jobs


def is_parallelizable(config: ExperimentConfig) -> bool:
    """Whether ``config`` can cross a process boundary.

    Configs are plain data except ``graph_factory``, which may be an
    unpicklable in-process closure; those run serially instead.
    """
    if config.graph_factory is None:
        return True
    try:
        pickle.dumps(config)
    except Exception:
        return False
    return True


@dataclass(frozen=True)
class RetryPolicy:
    """How a backend reacts to chunk failures.

    The default comes from the experiment config
    (:meth:`from_config`: ``max_attempts = config.max_retries + 1``);
    pass an explicit policy to tune backoff or stall supervision.
    """

    #: Total attempts per chunk (first run + retries) before quarantine.
    max_attempts: int = 3
    #: First-retry backoff delay, seconds.
    backoff_base: float = 0.25
    #: Multiplier applied per further retry.
    backoff_factor: float = 2.0
    #: Backoff ceiling, seconds.
    backoff_max: float = 4.0
    #: Extra seconds granted on top of the per-chunk budget
    #: (``trial_timeout × trials_per_graph``) in the stall deadline that
    #: :meth:`stall_deadline` derives from ``config.trial_timeout``;
    #: covers graph generation and scheduling jitter.
    timeout_grace: float = 1.0
    #: Fractional backoff jitter: each retry delay is stretched by up to
    #: this fraction, deterministically derived from (seed, token,
    #: attempt), so simultaneous shard relaunches never synchronize
    #: their retries against a shared journal directory. 0 disables.
    jitter: float = 0.25
    #: Liveness supervision (worker fleet): seconds a worker may go
    #: without journal progress before it is declared stalled and
    #: escalated SIGTERM → :attr:`stall_grace` → SIGKILL. ``None`` (the
    #: default) derives the deadline from ``config.trial_timeout`` (see
    #: :meth:`stall_deadline`), and disables stall detection when that
    #: is unset too — a long legitimate chunk produces no journal
    #: growth while it computes.
    stall_timeout: Optional[float] = None
    #: Seconds between the stall SIGTERM and the SIGKILL escalation.
    stall_grace: float = 2.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ExperimentError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.backoff_base < 0 or self.backoff_max < 0:
            raise ExperimentError("backoff delays must be >= 0")
        if self.jitter < 0:
            raise ExperimentError(f"jitter must be >= 0, got {self.jitter}")
        if self.stall_timeout is not None and self.stall_timeout <= 0:
            raise ExperimentError(
                f"stall_timeout must be > 0, got {self.stall_timeout}"
            )
        if self.stall_grace < 0:
            raise ExperimentError(
                f"stall_grace must be >= 0, got {self.stall_grace}"
            )

    @classmethod
    def from_config(cls, config: ExperimentConfig) -> "RetryPolicy":
        return cls(max_attempts=config.max_retries + 1)

    def stall_deadline(self, config: ExperimentConfig) -> Optional[float]:
        """Seconds without journal progress before a worker is stalled.

        :attr:`stall_timeout` when set; otherwise one chunk's budget
        under ``config.trial_timeout`` (``trial_timeout ×
        trials_per_graph`` plus ``max(timeout_grace, trial_timeout)``),
        so a trial timeout also bounds a wedged worker; ``None`` (no
        stall detection) when neither is set.
        """
        if self.stall_timeout is not None:
            return self.stall_timeout
        timeout = config.trial_timeout
        if timeout is None:
            return None
        return (
            timeout * config.trials_per_graph
            + max(self.timeout_grace, timeout)
        )

    def backoff(self, attempt: int) -> float:
        """Delay before resubmitting after the ``attempt``-th failure."""
        return min(
            self.backoff_max,
            self.backoff_base * self.backoff_factor ** max(0, attempt - 1),
        )

    def backoff_jittered(self, attempt: int, seed: int, token: str) -> float:
        """:meth:`backoff` stretched by deterministic, seed-derived jitter.

        The jitter fraction is drawn from a :class:`random.Random`
        seeded with a stable blake2b hash of ``(seed, token, attempt)``:
        the same coordinates always yield the same delay (reproducible
        runs), while different tokens — shard idents, chunk keys — get
        decorrelated delays, so a fleet of relaunching shards never
        thunders back in lockstep.
        """
        base = self.backoff(attempt)
        if self.jitter <= 0 or base <= 0:
            return base
        digest = hashlib.blake2b(
            f"{seed}:{token}:{attempt}".encode("utf-8"), digest_size=8
        ).digest()
        rng = random.Random(int.from_bytes(digest, "big"))
        return base * (1.0 + self.jitter * rng.random())


def shard_keys(
    config: ExperimentConfig, shard: int, n_shards: int
) -> List[ChunkKey]:
    """The chunk keys shard ``shard`` of ``n_shards`` owns.

    Round-robin over the canonical chunk ordering: ordinals congruent
    to ``shard`` mod ``n_shards``. Pure arithmetic on
    ``config.chunk_keys()``, so every process — parent, worker,
    relaunched worker — computes identical disjoint partitions.
    """
    return list(config.chunk_keys())[shard::n_shards]


@dataclass(frozen=True)
class TrialSpec:
    """One worker work unit: every (size × method) trial of one graph.

    Carries only the (picklable) config plus the (scenario, index)
    coordinates; the worker regenerates the graph from its seed.
    """

    config: ExperimentConfig
    scenario: str
    index: int


@dataclass
class ChunkResult:
    """One completed :class:`TrialSpec`: records keyed for reassembly."""

    scenario: str
    index: int
    #: (n_processors, method label) → record, for canonical reordering.
    records: Dict[Tuple[int, str], TrialRecord] = field(default_factory=dict)
    #: Everything the chunk measured: its phase-second histograms and
    #: counters (slow-trial faults included). Always shipped.
    metrics: MetricsRegistry = field(default_factory=MetricsRegistry)
    #: Non-fatal fault events observed inside the worker (slow trials).
    failures: List[TrialFailure] = field(default_factory=list)
    #: Recorded inside the worker when tracing is on: the chunk's
    #: finished span tree and its resource-use delta. Empty otherwise.
    spans: List[Span] = field(default_factory=list)
    resources: List[ResourceSample] = field(default_factory=list)

    @property
    def n_trials(self) -> int:
        return len(self.records)


def run_chunk(
    spec: TrialSpec,
    trial_timeout: Optional[float] = None,
    attempt: int = 0,
    trace: bool = False,
) -> ChunkResult:
    """Execute one chunk: every (size × method) trial of one graph.

    Generates the graph from its seed, distributes deadlines and
    schedules each trial; the parent reorders chunks into the canonical
    record order. Two reuse layers skip work across the size sweep, each
    leaving the records bit-identical. Size-independent *distributions*
    are computed once per method (:func:`distribute_for_trial`). And once
    a size-independent method's schedule at size P leaves a processor
    idle on a route-uniform interconnect, every larger size P' whose
    first P speeds are the same reuses that *saturated schedule*: only
    :func:`schedule_metrics` reruns, on the size-P' system (DESIGN.md
    §3.4). ``config.batch`` prefetches the chunk's distributions through
    the batch kernel first (bit-identical records either way). Each
    (size × method) trial runs under a cooperative wall-clock budget of
    ``trial_timeout`` seconds (default: the config's); a trial that
    completes past its budget is kept but flagged with a ``slow-trial``
    failure event.

    The chunk always records its phase seconds and fault counters into
    its own registry and ships it on the :class:`ChunkResult`. With
    ``trace=True`` that registry belongs to a local telemetry session,
    which also records a ``chunk`` span holding one ``trial`` span per
    (size × method), each with ``generate``/``distribute``/``schedule``
    children plus whatever deeper components report (B&B search spans,
    cache counters), and samples the worker's RSS/CPU around the chunk.
    Tracing never changes the records: the measured pipeline is
    identical either way.
    """
    config = spec.config
    timeout = trial_timeout if trial_timeout is not None else config.trial_timeout
    telemetry = obs.Telemetry() if trace else None
    inst = Instrumentation(telemetry=telemetry)
    chunk = ChunkResult(scenario=spec.scenario, index=spec.index,
                        metrics=inst.metrics, failures=inst.failures)
    before = sample_resources() if trace else None
    with obs.activate(telemetry):
        with obs.span("chunk", scenario=spec.scenario, index=spec.index,
                      attempt=attempt) as chunk_span:
            graph_config = config.graph_config.with_scenario(spec.scenario)
            with inst.phase("generate"):
                graph = graph_for_trial(
                    config, graph_config, spec.scenario, spec.index
                )
            distributors = {
                method.label: method.build() for method in config.methods
            }
            reusable: Dict[object, object] = {}
            prefetched: Optional[Dict[object, object]] = None
            if config.batch:
                with inst.phase("distribute"):
                    prefetched = prefetch_distributions(
                        config, [graph], reusable, indices=[spec.index]
                    )
            # Per method label: the size, its speeds and the placements
            # of the sweep's first saturated schedule.
            saturated: Dict[str, Tuple[int, Tuple[float, ...], Placements]] = {}
            reused = 0
            for n_processors in config.system_sizes:
                speeds = speeds_for(config.speed_profile, n_processors)
                system = System(
                    n_processors,
                    interconnect=make_interconnect(
                        config.topology, n_processors
                    ),
                    speeds=speeds,
                )
                uniform = system.interconnect.route_uniform
                total_capacity = float(sum(speeds))
                for method in config.methods:
                    with obs.span("trial", n_processors=n_processors,
                                  method=method.label), \
                         budget.trial_deadline(timeout):
                        with inst.phase("distribute"):
                            assignment = distribute_for_trial(
                                method,
                                distributors[method.label],
                                graph,
                                n_processors,
                                total_capacity,
                                reusable,
                                (method.label, spec.index),
                                prefetched,
                            )
                        with inst.phase("schedule"):
                            hit = saturated.get(method.label) if uniform else None
                            if (hit is not None and hit[0] < n_processors
                                    and speeds[:hit[0]] == hit[1]):
                                schedule = Schedule(graph, system, hit[2])
                                reused += 1
                            else:
                                schedule = schedule_trial(
                                    graph,
                                    assignment,
                                    system,
                                    policy_name=config.policy,
                                    respect_release_times=(
                                        config.respect_release_times
                                    ),
                                )
                                placements = schedule.dense()
                                if (uniform and hit is None
                                        and not method.needs_system_size
                                        and len(set(placements.proc_of))
                                        < n_processors):
                                    saturated[method.label] = (
                                        n_processors, speeds, placements
                                    )
                            metrics = schedule_metrics(schedule, assignment)
                        if budget.expired():
                            inst.record_failure(TrialFailure(
                                scenario=spec.scenario,
                                index=spec.index,
                                kind="slow-trial",
                                message=(
                                    f"trial (n_processors={n_processors}, "
                                    f"method={method.label}) overran its "
                                    f"{timeout:g}s budget; result kept"
                                ),
                            ))
                    chunk.records[(n_processors, method.label)] = make_record(
                        config, spec.scenario, n_processors, method,
                        spec.index, assignment, metrics,
                    )
            obs.count("sched.reused", reused)
            inst.metrics.count("engine.chunks_completed")
            inst.metrics.count("engine.trials_measured", len(chunk.records))
            if chunk_span is not None and before is not None:
                used = sample_resources().delta(before)
                chunk_span.annotate(
                    rss_max_kb=used.rss_max_kb,
                    cpu_user_s=used.cpu_user_s,
                    cpu_system_s=used.cpu_system_s,
                )
                obs.gauge("worker.rss_max_kb", used.rss_max_kb)
                chunk.resources.append(used)
    if telemetry is not None:
        chunk.spans = telemetry.spans.finished()
    return chunk


def execute_chunk(
    spec: TrialSpec,
    attempt: int,
    trial_timeout: Optional[float],
    trace: bool = False,
) -> ChunkResult:
    """Worker entry point: fault-injection hook + the chunk itself."""
    faultinject.maybe_inject(spec.scenario, spec.index, attempt)
    return run_chunk(
        spec, trial_timeout=trial_timeout, attempt=attempt, trace=trace
    )
