"""The work-unit contract shared by every execution backend.

One :class:`TrialSpec` is the unit of distributable work: all
(size × method) trials of a single (scenario, graph-index) pair. The
spec is tiny — it carries the experiment config plus the chunk
coordinates, and the executing process regenerates the task graph
locally from the (seed, scenario, index) contract
(:func:`repro.feast.runner.trial_seed`), so no task graph ever crosses a
process boundary. :func:`run_chunk` executes one spec and
returns a :class:`ChunkResult`; backends differ only in *where* and
*how many at a time* they call it. :func:`run_chunk` is the only trial
body in the engine.
"""

from __future__ import annotations

import hashlib
import os
import random
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

from repro import budget
from repro.core.slicer import DistributionMemo
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
    schedule_trial,
)
from repro.machine.system import System
from repro.machine.topology import make_interconnect
from repro.sched.analysis import schedule_metrics, utilization_sum

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


@dataclass(frozen=True)
class TrialSpec:
    """One worker work unit: every (size × method) trial of one graph.

    Carries only the config plus the (scenario, index)
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


class _Distinct:
    """What :func:`run_chunk` keeps per distinct ``windows`` dict."""

    __slots__ = ("windows", "min_laxity", "saturated", "record")

    def __init__(self, assignment) -> None:
        #: Held so the dict's id, the entry's key, is not recycled.
        self.windows = assignment.windows
        self.min_laxity = assignment.min_laxity()
        #: (size, speeds, record, utilization sum) of the sweep's first
        #: saturated schedule of these windows.
        self.saturated: Optional[
            Tuple[int, Tuple[float, ...], TrialRecord, float]
        ] = None
        #: The latest record measured from these windows.
        self.record: Optional[TrialRecord] = None


def run_chunk(
    spec: TrialSpec,
    trial_timeout: Optional[float] = None,
    attempt: int = 0,
    trace: bool = False,
) -> ChunkResult:
    """Execute one chunk: every (size × method) trial of one graph.

    Generates the graph from its seed, distributes deadlines and
    schedules each trial; the parent reorders chunks into the canonical
    record order. Every reuse is keyed on what determines the result,
    not on which method asked, and leaves the records bit-identical
    (DESIGN.md §3.2, §3.4). The chunk's distributors share one
    :class:`DistributionMemo`, so methods whose distribution inputs
    match get one ``windows`` dict (:func:`distribute_for_trial`).
    Schedules are keyed on that dict, the only part of an assignment
    the list scheduler reads. At the same size, the dict's record is
    reused relabelled: its schedule, its metrics (which also read the
    message windows, produced with the dict) and its ``min_laxity``
    depend on nothing else. At a larger size, once the dict's schedule
    at size P is *saturated* — on a route-uniform interconnect, no extra
    empty processor would have won any of its placements
    (:attr:`Placements.saturated`; a processor left idle is one way) —
    every size P' whose first P speeds are the same reuses it. Only the
    record's ``mean_utilization`` can differ there: it is the kept sum
    of the size-P utilizations (:func:`utilization_sum`) over P', since
    each added processor holds nothing and adds exactly 0.0. When the
    sweep moves on, only size-free distributions and their entries are
    kept: nothing else comes back at a later size.
    ``min_laxity`` is computed once per dict. Each (size × method) trial
    runs under a cooperative wall-clock budget of ``trial_timeout``
    seconds (default: the config's); a trial that completes past its
    budget is kept but flagged with a ``slow-trial`` failure event.

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
            memo = DistributionMemo()
            distributors = {
                method.label: method.build(memo) for method in config.methods
            }
            reusable: Dict[object, object] = {}
            # Per distinct windows dict, by id: each entry holds its dict,
            # so no id is recycled while the chunk runs.
            seen: Dict[int, _Distinct] = {}
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
                            )
                        with inst.phase("schedule"):
                            entry = seen.get(id(assignment.windows))
                            if entry is None:
                                entry = _Distinct(assignment)
                                seen[id(assignment.windows)] = entry
                            done = entry.record
                            hit = entry.saturated
                            if (done is not None
                                    and done.n_processors == n_processors):
                                record = replace(done, method=method.label)
                                reused += 1
                            elif (hit is not None and hit[0] < n_processors
                                    and speeds[:hit[0]] == hit[1]):
                                record = entry.record = replace(
                                    hit[2],
                                    n_processors=n_processors,
                                    method=method.label,
                                    mean_utilization=hit[3] / n_processors,
                                )
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
                                record = entry.record = make_record(
                                    config, spec.scenario, n_processors,
                                    method, spec.index, assignment,
                                    schedule_metrics(schedule, assignment),
                                    entry.min_laxity,
                                )
                                placements = schedule.dense()
                                if hit is None and placements.saturated:
                                    entry.saturated = (
                                        n_processors, speeds, record,
                                        utilization_sum(
                                            placements, n_processors,
                                            record.makespan,
                                        ),
                                    )
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
                    chunk.records[(n_processors, method.label)] = record
                # Only size-free distributions come back at a later size:
                # keep theirs, the label-cached windows, and drop the rest.
                memo.forget_sized()
                lasting = {id(a.windows) for a in reusable.values()}
                seen = {k: e for k, e in seen.items() if k in lasting}
            obs.count("slicer.reused", memo.hits)
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
