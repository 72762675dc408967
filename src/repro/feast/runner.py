"""Experiment execution: generate → distribute → schedule → measure.

:func:`run_experiment` executes an :class:`~repro.feast.config.ExperimentConfig`
and returns an :class:`ExperimentResult` holding one :class:`TrialRecord`
per (scenario, system size, method, graph). Trials run in chunks on a
pluggable execution backend (:mod:`repro.feast.backends`: in-process,
or a fleet of worker processes), and every backend produces the same
records in the same order.

Seeding / pairing contract
--------------------------
Graph ``index`` of scenario ``scenario`` is always generated from
``random.Random(trial_seed(config.seed, scenario, index))``, where the
seed folds a stable (process-independent) hash of the scenario name into
the experiment seed. Consequences, relied on throughout the harness:

* every method and every system size sees the *same* graphs — the paired
  design behind the paper's per-panel comparisons and the harness's
  paired statistics;
* different scenarios draw *independent* workloads (they differ in
  structure, not only in execution times);
* a worker process can regenerate any (scenario, index) graph locally
  from its seed — nothing large crosses the process boundary — and the
  regenerated graph is identical to the serial one;
* custom ``graph_factory`` callables receive exactly the same seeded rng
  stream as the built-in generator would for that (scenario, index).

Inside one chunk (every size × method trial of one graph) work is
reused by content, not by method label: a distribution is computed once
per distinct input — the expansion, the slicing family, the clamp setting
and the virtual costs — however many methods or sizes ask for it, and a
schedule and its record once per distinct ``windows`` dict and size
(:func:`repro.feast.backends.work.run_chunk`, DESIGN.md §3.2 and §3.4).
A size-independent method is distributed with *no* platform arguments,
so no cache can capture one sweep size's platform, and every reuse is
re-stamped with the current one.
"""

from __future__ import annotations

import hashlib
import random
import time
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover — annotation-only import
    from repro.feast.backends.base import SupervisionStats

from repro.core.annotations import DeadlineAssignment
from repro.errors import (
    ExperimentError,
    QuarantinedTrialError,
)
from repro.feast.config import ExperimentConfig, MethodSpec
from repro.feast.instrumentation import (
    Instrumentation,
    PhaseTimings,
    ProgressFn,
    TrialFailure,
)
from repro.graph.generator import RandomGraphConfig, generate_task_graph
from repro.graph.taskgraph import TaskGraph
from repro.machine.system import System
from repro.obs import live as obs_live
from repro.obs import runtime as obs
from repro.obs.resources import sample_resources
from repro.sched.analysis import ScheduleMetrics, schedule_metrics
from repro.sched.list_scheduler import ListScheduler
from repro.sched.policies import make_policy
from repro.sched.schedule import Schedule

#: Seed-spreading multiplier (same prime the graph generator uses).
SEED_STRIDE = 1_000_003

#: Streaming record hook: called once per record, as chunks complete.
RecordSink = Callable[["TrialRecord"], None]


def scenario_seed(seed: int, scenario: str) -> int:
    """Base seed of one scenario's graph batch.

    Folds a stable hash of the scenario name (blake2b, so identical in
    every process and on every platform — unlike builtin ``hash``) into
    the experiment seed, giving each scenario an independent workload.
    """
    digest = hashlib.blake2b(
        scenario.encode("utf-8"), digest_size=4
    ).digest()
    return seed * SEED_STRIDE + int.from_bytes(digest, "big")


def trial_seed(seed: int, scenario: str, index: int) -> int:
    """The rng seed generating graph ``index`` of ``scenario``.

    This is the whole pairing contract: any process, at any time, passing
    the same ``(seed, scenario, index)`` regenerates the same graph.
    """
    return scenario_seed(seed, scenario) * SEED_STRIDE + index


def graph_for_trial(
    config: ExperimentConfig,
    graph_config: RandomGraphConfig,
    scenario: str,
    index: int,
) -> TaskGraph:
    """Materialize graph ``index`` of ``scenario`` per the seeding contract.

    ``graph_config`` must already carry the scenario's execution-time
    deviation (``config.graph_config.with_scenario(scenario)``). Raises
    :class:`ExperimentError` when a custom factory returns anything but a
    single :class:`TaskGraph` — one call produces exactly one graph, so
    the record count always matches ``config.n_trials`` and progress can
    never exceed 100 %.

    A factory with a truthy ``needs_trial_coords`` attribute is called
    as ``factory(graph_config, rng, scenario=..., index=...)`` — the
    protocol for workloads that *select* a fixed graph per trial rather
    than generating one from the RNG.
    """
    rng = random.Random(trial_seed(config.seed, scenario, index))
    if config.graph_factory is not None:
        if getattr(config.graph_factory, "needs_trial_coords", False):
            # Index-aware factories (e.g. explicit workloads submitted
            # to repro.serve) select the graph by trial coordinates
            # instead of consuming the RNG.
            graph = config.graph_factory(
                graph_config, rng, scenario=scenario, index=index
            )
        else:
            graph = config.graph_factory(graph_config, rng)
        if not isinstance(graph, TaskGraph):
            raise ExperimentError(
                f"graph_factory must return one TaskGraph per call, got "
                f"{type(graph).__name__!r} for scenario {scenario!r} "
                f"index {index}"
            )
        return graph
    return generate_task_graph(
        graph_config,
        rng=rng,
        name=f"random-{scenario_seed(config.seed, scenario)}-{index}",
    )


@dataclass(frozen=True)
class TrialRecord:
    """Measurements of one (scenario, size, method, graph) trial."""

    experiment: str
    scenario: str
    n_processors: int
    method: str
    graph_index: int
    max_lateness: float
    mean_lateness: float
    n_late: int
    makespan: float
    mean_utilization: float
    min_laxity: float
    #: Against the application's end-to-end anchors (strategy-independent).
    max_end_to_end_lateness: float = 0.0

    def as_dict(self) -> Dict[str, object]:
        return {
            "experiment": self.experiment,
            "scenario": self.scenario,
            "n_processors": self.n_processors,
            "method": self.method,
            "graph_index": self.graph_index,
            "max_lateness": self.max_lateness,
            "mean_lateness": self.mean_lateness,
            "n_late": self.n_late,
            "makespan": self.makespan,
            "mean_utilization": self.mean_utilization,
            "min_laxity": self.min_laxity,
            "max_end_to_end_lateness": self.max_end_to_end_lateness,
        }


@dataclass
class ExperimentResult:
    """All trial records of one experiment run, plus bookkeeping."""

    config: ExperimentConfig
    records: List[TrialRecord] = field(default_factory=list)
    elapsed_seconds: float = 0.0
    #: Per-phase seconds (summed across workers when parallel): a view
    #: of the run's ``phase.<name>.seconds`` histograms. Replayed
    #: chunks add none.
    timings: Optional[PhaseTimings] = None
    #: Worker processes that ran the chunks, not the requested
    #: ``jobs``: 1 on the serial backend, else the fleet's launched
    #: shards (1 when the journals already held every chunk).
    jobs: int = 1
    #: Name of the execution backend class that ran it (``"serial"``,
    #: ``"subprocess"``, ...); ``None`` on results loaded from disk.
    engine: Optional[str] = None
    #: Every fault event the run survived (crashes, timeouts, exceptions,
    #: slow trials, quarantines), in observation order. Empty on a clean
    #: run.
    failures: List[TrialFailure] = field(default_factory=list)
    #: (scenario, graph index) chunks that exhausted their retry budget;
    #: their trials are *missing* from ``records``. Empty on a clean run.
    quarantined: List[Tuple[str, int]] = field(default_factory=list)
    #: Trials whose records were streamed into a ``record_sink`` instead
    #: of being kept on ``records`` (0 for non-streaming runs).
    streamed_trials: int = 0
    #: Liveness accounting from the execution backend
    #: (:class:`repro.feast.backends.SupervisionStats`): stalls detected,
    #: kill escalations, relaunches and replayed chunks. All zero on a clean run; ``None`` only on results loaded
    #: from disk, which do not persist it.
    supervision: Optional["SupervisionStats"] = None

    @property
    def complete(self) -> bool:
        """Whether every planned trial produced a record."""
        return not self.quarantined

    def check(self) -> "ExperimentResult":
        """Return ``self``, or raise if any trials were quarantined.

        For callers that prefer the old fail-fast behavior over a
        partial result.
        """
        if self.quarantined:
            chunks = ", ".join(
                f"({scenario}, {index})"
                for scenario, index in self.quarantined
            )
            raise QuarantinedTrialError(
                f"experiment {self.config.name!r} quarantined "
                f"{len(self.quarantined)} chunk(s): {chunks}"
            )
        return self

    def filter(
        self,
        scenario: Optional[str] = None,
        method: Optional[str] = None,
        n_processors: Optional[int] = None,
    ) -> List[TrialRecord]:
        """Records matching all the given criteria."""
        out = self.records
        if scenario is not None:
            out = [r for r in out if r.scenario == scenario]
        if method is not None:
            out = [r for r in out if r.method == method]
        if n_processors is not None:
            out = [r for r in out if r.n_processors == n_processors]
        return list(out)

    def __len__(self) -> int:
        return len(self.records)


def schedule_trial(
    graph: TaskGraph,
    assignment: DeadlineAssignment,
    system: System,
    policy_name: str = "EDF",
    respect_release_times: bool = False,
) -> Schedule:
    """List-schedule one annotated graph."""
    scheduler = ListScheduler(
        system,
        policy=make_policy(policy_name),
        respect_release_times=respect_release_times,
    )
    return scheduler.schedule(graph, assignment)


def run_trial(
    graph: TaskGraph,
    assignment: DeadlineAssignment,
    system: System,
    policy_name: str = "EDF",
    respect_release_times: bool = False,
) -> ScheduleMetrics:
    """Schedule one annotated graph and return its metrics."""
    schedule = schedule_trial(
        graph, assignment, system, policy_name, respect_release_times
    )
    return schedule_metrics(schedule, assignment)


def distribute_for_trial(
    method: MethodSpec,
    distributor,
    graph: TaskGraph,
    n_processors: int,
    total_capacity: float,
    cache: Dict[object, DeadlineAssignment],
    cache_key: object,
) -> DeadlineAssignment:
    """The deadline assignment of ``method`` on ``graph`` at one size.

    This is the engine's only distribution path: every trial's windows
    come from ``distributor`` here. Size-dependent methods (ADAPT) are
    distributed for every platform. Size-independent methods are
    distributed once *without* platform arguments and cached under
    ``cache_key``; reuses re-stamp the cached windows with the current
    platform, so the recorded ``DeadlineAssignment.n_processors`` always
    matches the trial's system.

    Three reuse layers compose here. This cache skips a method's repeat
    calls across the size sweep. Below it, a distributor built with the
    chunk's :class:`~repro.core.slicer.DistributionMemo` returns a stored
    distribution whenever its content key matches, whichever method
    stored it: ADAPT at a size where no subtask reaches its threshold
    gets PURE's windows, and shares their dict. Below that, the graph's
    :class:`~repro.graph.indexed.GraphIndex` shares one compiled structure
    and one :class:`~repro.core.expanded.ExpandedGraph` per estimator
    across *all* methods of the trial.
    """
    if method.needs_system_size:
        return distributor.distribute(
            graph,
            n_processors=n_processors,
            total_capacity=total_capacity,
        )
    assignment = cache.get(cache_key)
    if assignment is None:
        assignment = distributor.distribute(graph)
        cache[cache_key] = assignment
    return replace(assignment, n_processors=n_processors)


def make_record(
    config: ExperimentConfig,
    scenario: str,
    n_processors: int,
    method: MethodSpec,
    index: int,
    assignment: DeadlineAssignment,
    metrics: ScheduleMetrics,
    min_laxity: Optional[float] = None,
) -> TrialRecord:
    """Package one trial's measurements.

    ``min_laxity`` is ``assignment.min_laxity()``, when the caller
    already has it (it depends on the windows alone).
    """
    if min_laxity is None:
        min_laxity = assignment.min_laxity()
    return TrialRecord(
        experiment=config.name,
        scenario=scenario,
        n_processors=n_processors,
        method=method.label,
        graph_index=index,
        max_lateness=metrics.max_lateness,
        mean_lateness=metrics.mean_lateness,
        n_late=metrics.n_late,
        makespan=metrics.makespan,
        mean_utilization=metrics.mean_utilization,
        min_laxity=min_laxity,
        max_end_to_end_lateness=metrics.max_end_to_end_lateness,
    )


def run_experiment(
    config: ExperimentConfig,
    progress: Optional[ProgressFn] = None,
    jobs: Optional[int] = 1,
    instrumentation: Optional[Instrumentation] = None,
    checkpoint: Optional[str] = None,
    retry=None,
    backend: Optional[str] = None,
    shards: Optional[int] = None,
    record_sink: Optional[RecordSink] = None,
) -> ExperimentResult:
    """Execute every trial of ``config``, one chunk (all size × method
    trials of one (scenario, graph) pair) at a time per worker.

    ``jobs`` is the one worker count: ``1`` (default) runs the chunks in
    this process (``"serial"``); ``> 1`` fans them out over that many
    forked worker processes, at most one per chunk (the worker fleet,
    ``"subprocess"``); ``0`` or ``None`` uses all CPU cores. Each worker
    is forked with its shard in memory, so every config runs on the
    fleet, a closure ``graph_factory`` included. ``shards`` is an older
    name of ``jobs``.

    ``backend`` selects an execution backend by registry name
    (:mod:`repro.feast.backends`: ``"serial"``, ``"subprocess"`` or its
    alias ``"pool"``, or anything registered) instead of deriving it
    from ``jobs``, which still sizes the fleet. Every backend produces
    byte-identical canonical records.

    ``checkpoint`` names a journal *directory*, created if new (a file
    there raises :class:`~repro.errors.CheckpointError`): completed
    chunks are appended as they finish, and a rerun with the same config
    and directory, under any worker count, replays every chunk a journal
    there holds and runs only the rest — the resumed result is
    byte-identical to an uninterrupted run. ``retry`` overrides the
    :class:`~repro.feast.backends.RetryPolicy` derived from the config;
    on a multi-process run ``config.trial_timeout`` also bounds a
    wedged worker (:meth:`~repro.feast.backends.RetryPolicy.stall_deadline`).

    Failure semantics: a plain ``jobs=1`` run (none of ``checkpoint``,
    ``retry``, ``config.trial_timeout``, ``backend`` or ``record_sink``)
    is fail-fast — it raises the first trial error and runs no later
    chunk. Every other run is supervised: a chunk that raises is retried
    per the retry policy, then quarantined and listed on
    ``result.quarantined`` while the sweep goes on. On a multi-process
    run the same holds for a chunk that kills or wedges its worker
    process: each death costs it one attempt. A worker that keeps dying
    outside any chunk raises :class:`~repro.errors.ExperimentError`.

    ``record_sink`` switches to streaming: every completed chunk's
    records (including chunks replayed from a checkpoint) are passed to
    the sink one by one, in canonical size → method order within the
    chunk, and then dropped, so peak resident records are bounded by the
    chunk size. Chunk arrival order is backend-dependent, so the sink
    must be order-independent across chunks (e.g.
    :class:`repro.feast.aggregate.StreamingAggregator`). The result then
    carries no records; ``streamed_trials`` counts what flowed through.

    ``progress`` is a ``(done, total)`` callback fired once per completed
    chunk (on the fleet, as the chunk's line lands in its worker's
    journal); ``instrumentation`` optionally supplies a preconfigured
    :class:`Instrumentation` (extra callbacks, telemetry). Both may be
    given.
    """
    if shards is not None:
        jobs = shards
    from repro.feast.backends import (
        ExecutionRequest,
        RetryPolicy,
        assemble_records,
        make_backend,
        resolve_jobs,
    )

    started = time.perf_counter()
    inst = instrumentation if instrumentation is not None else Instrumentation()
    if progress is not None:
        inst.add_progress(progress)
    n_jobs = resolve_jobs(jobs)
    supervised = (
        n_jobs > 1
        or checkpoint is not None
        or retry is not None
        or config.trial_timeout is not None
        or backend is not None
        or record_sink is not None
    )
    engine = make_backend(
        backend if backend is not None
        else "serial" if n_jobs == 1 else "subprocess"
    )

    on_chunk = None
    if record_sink is not None:

        def on_chunk(key, chunk) -> None:
            for n_processors in config.system_sizes:
                for method in config.methods:
                    record_sink(chunk.records[(n_processors, method.label)])

    request = ExecutionRequest(
        config=config,
        instrumentation=inst,
        policy=retry if retry is not None else RetryPolicy.from_config(config),
        checkpoint=checkpoint,
        workers=min(n_jobs, len(config.chunk_keys())),
        supervised=supervised,
        on_chunk=on_chunk,
        keep_records=record_sink is None,
    )
    engine.prepare(request)
    inst.start(config.n_trials)

    parent_sample = (
        sample_resources() if inst.telemetry is not None else None
    )
    with obs.activate(inst.telemetry):
        with obs.toplevel_span(
            "run", experiment=config.name, engine=engine.name,
        ) as run_span:
            outcome = engine.run(request)
            if run_span is not None:
                run_span.annotate(jobs=outcome.workers)
        # Supervision outcomes become counters exactly once, here in
        # the parent (never inside drivers/workers, whose metrics are
        # adopted into this session and would double-count).
        supervision = outcome.supervision.as_dict()
        for name, value in supervision.items():
            if value:
                obs.count(f"supervision.{name}", value)
        if outcome.supervision.any():
            # One terminal supervision summary on the live stream, so a
            # watcher that missed the transitions still sees the totals.
            obs_live.publish(
                "supervision", event="summary", ident="run",
                detail=", ".join(
                    f"{name}={value}"
                    for name, value in supervision.items() if value
                ),
            )
        if parent_sample is not None:
            used = sample_resources().delta(parent_sample)
            obs.gauge("parent.rss_max_kb", used.rss_max_kb)
            inst.telemetry.resources.append(used)
    inst.finish()

    quarantined = sorted(
        outcome.quarantined,
        key=lambda k: (config.scenarios.index(k[0]), k[1]),
    )
    expected = config.n_trials - config.trials_per_graph * len(quarantined)
    records: List[TrialRecord] = []
    if record_sink is None:
        records = assemble_records(config, outcome.chunks, outcome.quarantined)
        produced = len(records)
    else:
        produced = outcome.streamed_trials
    if produced != expected:
        raise ExperimentError(
            f"experiment {config.name!r} produced {produced} records "
            f"but planned {expected}"
        )
    return ExperimentResult(
        config=config,
        records=records,
        elapsed_seconds=time.perf_counter() - started,
        timings=inst.timings,
        jobs=outcome.workers,
        engine=engine.name,
        failures=list(outcome.failures),
        quarantined=quarantined,
        streamed_trials=outcome.streamed_trials,
        supervision=outcome.supervision,
    )
