"""Experiment configuration objects for the FEAST-style harness.

The paper performed "all modeling and simulation … within FEAST, a
framework for evaluation of allocation and scheduling techniques for
distributed hard real-time systems". FEAST is not public; this package
plays its role (see DESIGN.md §5).

An :class:`ExperimentConfig` describes one full experiment: the workload
generator settings, which execution-time scenarios to run, the platform
sweep (system sizes, topology), the scheduling options, and the set of
*methods* (deadline-distribution strategies) under comparison.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional, Tuple

from repro.core.commcost import make_estimator
from repro.core.metrics import make_metric
from repro.core.slicer import DeadlineDistributor
from repro.errors import ExperimentError
from repro.graph.generator import SCENARIOS, RandomGraphConfig
from repro.machine.topology import TOPOLOGIES
from repro.sched.policies import POLICIES

#: The paper's system-size sweep: 2 to 16 processors.
PAPER_SYSTEM_SIZES: Tuple[int, ...] = (2, 3, 4, 6, 8, 10, 12, 14, 16)

#: The paper's trial count per parameter combination.
PAPER_N_GRAPHS = 128


def _uniform_speeds(n: int) -> Tuple[float, ...]:
    return tuple(1.0 for _ in range(n))


def _mixed_speeds(n: int) -> Tuple[float, ...]:
    return tuple(2.0 if i % 2 else 1.0 for i in range(n))


def _one_fast_speeds(n: int) -> Tuple[float, ...]:
    return tuple(4.0 if i == 0 else 1.0 for i in range(n))


#: Named processor-speed profiles (Section 8's heterogeneity axis).
SPEED_PROFILES = {
    "uniform": _uniform_speeds,
    "mixed": _mixed_speeds,
    "one-fast": _one_fast_speeds,
}


def speeds_for(profile: str, n_processors: int) -> Tuple[float, ...]:
    """Processor speeds of a named profile on an ``n``-processor platform."""
    try:
        builder = SPEED_PROFILES[profile]
    except KeyError:
        raise ExperimentError(
            f"unknown speed profile {profile!r}; expected one of "
            f"{sorted(SPEED_PROFILES)}"
        ) from None
    return builder(n_processors)


@dataclass(frozen=True)
class MethodSpec:
    """One deadline-distribution strategy under evaluation.

    ``label`` names the series in tables; ``metric`` and ``comm`` select
    the laxity-ratio metric and communication-cost estimation strategy;
    the remaining fields parameterize THRES/ADAPT.
    """

    label: str
    metric: str
    comm: str = "CCNE"
    surplus: Optional[float] = None
    threshold_factor: Optional[float] = None
    cost_per_item: float = 1.0
    #: When set, the method is a related-work baseline (``UD``, ``ED``,
    #: ``EQS``, ``EQF``, ``DIV``) instead of a slicing metric; ``metric``
    #: and ``comm`` are then ignored.
    baseline: Optional[str] = None
    #: ADAPT only: use the capacity-aware variant (divisor = speed sum).
    capacity_aware: bool = False
    #: Slicing only: clamp windows to pending anchors (DESIGN.md §5); the
    #: False setting ablates the reproduction's clamping decision.
    clamp_to_anchors: bool = True

    def __post_init__(self) -> None:
        if self.baseline is not None:
            from repro.core.baselines import BASELINES

            if self.baseline.upper() not in BASELINES:
                raise ExperimentError(f"unknown baseline {self.baseline!r}")
            return
        if self.metric.upper() not in ("NORM", "PURE", "THRES", "ADAPT"):
            raise ExperimentError(f"unknown metric {self.metric!r}")
        if self.comm.upper() not in ("CCNE", "CCAA"):
            raise ExperimentError(f"unknown comm strategy {self.comm!r}")

    @property
    def needs_system_size(self) -> bool:
        """ADAPT's surplus depends on the processor count, so its
        distribution cannot be reused across system sizes."""
        return self.baseline is None and self.metric.upper() == "ADAPT"

    def build(self):
        """Instantiate the distributor this spec describes."""
        if self.baseline is not None:
            from repro.core.baselines import make_baseline

            return make_baseline(self.baseline)
        kwargs = {}
        metric = self.metric.upper()
        if metric in ("THRES", "ADAPT") and self.threshold_factor is not None:
            kwargs["threshold_factor"] = self.threshold_factor
        if metric == "THRES" and self.surplus is not None:
            kwargs["surplus"] = self.surplus
        if metric == "ADAPT" and self.capacity_aware:
            kwargs["capacity_aware"] = True
        return DeadlineDistributor(
            metric=make_metric(metric, **kwargs),
            estimator=make_estimator(self.comm, cost_per_item=self.cost_per_item),
            clamp_to_anchors=self.clamp_to_anchors,
        )


@dataclass(frozen=True)
class ExperimentConfig:
    """One complete experiment: workload × platform sweep × methods."""

    name: str
    description: str
    methods: Tuple[MethodSpec, ...]
    graph_config: RandomGraphConfig = RandomGraphConfig()
    scenarios: Tuple[str, ...] = ("LDET", "MDET", "HDET")
    n_graphs: int = PAPER_N_GRAPHS
    #: Experiment seed. Graph ``i`` of a scenario is generated from
    #: ``repro.feast.runner.trial_seed(seed, scenario, i)``, which folds a
    #: stable hash of the scenario name into this value — the pairing
    #: contract every method, size, and worker process relies on.
    seed: int = 2026
    system_sizes: Tuple[int, ...] = PAPER_SYSTEM_SIZES
    topology: str = "bus"
    policy: str = "EDF"
    respect_release_times: bool = False
    #: Processor-speed profile: ``"uniform"`` (all 1.0, the paper's
    #: homogeneous platform), ``"mixed"`` (alternating 1.0 / 2.0) or
    #: ``"one-fast"`` (one 4.0 processor, rest 1.0). Section 8 names the
    #: heterogeneous extension; these profiles realize it.
    speed_profile: str = "uniform"
    #: Optional custom workload source: ``factory(graph_config, rng)`` must
    #: return a validated TaskGraph. ``None`` uses the random generator.
    #: Used by the structured-graph and locality experiments.
    graph_factory: Optional[Callable] = None
    #: Per-trial wall-clock budget in seconds (``None`` = unlimited).
    #: Enforced cooperatively inside workers (see :mod:`repro.budget`)
    #: and, for hard hangs, by the parent killing overdue chunks.
    trial_timeout: Optional[float] = None
    #: Times a failed trial chunk is retried before quarantine (a chunk
    #: therefore gets at most ``max_retries + 1`` attempts).
    max_retries: int = 2
    #: Route the distribute phase through the vectorized batch kernel
    #: (:mod:`repro.core.batch`): a scenario's (method, size, graph)
    #: distributions are packed and evaluated together, with unsupported
    #: configurations falling back to the scalar path per request.
    #: Batch results are bit-identical to scalar ones, so this is an
    #: execution knob like ``trial_timeout`` — deliberately excluded
    #: from the persistence identity (see ``_config_identity``).
    batch: bool = False

    def __post_init__(self) -> None:
        if not self.methods:
            raise ExperimentError(
                f"experiment {self.name!r}: methods must be a non-empty "
                "tuple of MethodSpec, got ()"
            )
        labels = [m.label for m in self.methods]
        if len(set(labels)) != len(labels):
            raise ExperimentError(
                f"experiment {self.name!r} has duplicate method labels: {labels}"
            )
        for scenario in self.scenarios:
            if scenario not in SCENARIOS:
                raise ExperimentError(
                    f"unknown scenario {scenario!r}; expected one of "
                    f"{sorted(SCENARIOS)}"
                )
        if self.n_graphs < 1:
            raise ExperimentError(
                f"n_graphs must be >= 1, got {self.n_graphs}"
            )
        if not self.system_sizes:
            raise ExperimentError("system_sizes must be a non-empty tuple")
        if min(self.system_sizes) < 1:
            raise ExperimentError(
                f"system_sizes must all be >= 1, got {self.system_sizes}"
            )
        if len(set(self.system_sizes)) != len(self.system_sizes):
            # Records are keyed by (size, method): a repeated size would
            # be scheduled twice and assembled as duplicate records.
            raise ExperimentError(
                f"system_sizes must not repeat a size, got {self.system_sizes}"
            )
        if self.topology not in TOPOLOGIES:
            raise ExperimentError(
                f"unknown topology {self.topology!r}; expected one of "
                f"{sorted(TOPOLOGIES)}"
            )
        if self.policy.upper() not in POLICIES:
            raise ExperimentError(
                f"unknown policy {self.policy!r}; expected one of "
                f"{sorted(POLICIES)}"
            )
        if self.speed_profile not in SPEED_PROFILES:
            raise ExperimentError(
                f"unknown speed profile {self.speed_profile!r}; expected "
                f"one of {sorted(SPEED_PROFILES)}"
            )
        if self.trial_timeout is not None and not self.trial_timeout > 0:
            raise ExperimentError(
                f"trial_timeout must be positive when set, got "
                f"{self.trial_timeout}"
            )
        if self.max_retries < 0:
            raise ExperimentError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )

    def scaled(self, n_graphs: int) -> "ExperimentConfig":
        """Copy with a different trial count (for quick runs / benches)."""
        return replace(self, n_graphs=n_graphs)

    @property
    def trials_per_graph(self) -> int:
        """Scheduling runs each generated graph participates in — the
        size of one work chunk (see :mod:`repro.feast.backends.work`)."""
        return len(self.system_sizes) * len(self.methods)

    def chunk_keys(self) -> Tuple[Tuple[str, int], ...]:
        """The canonical (scenario, graph-index) chunk coordinates.

        This ordering *is* the work-unit contract every execution
        backend shares (:mod:`repro.feast.backends`): chunks are
        enumerated scenario-major, index-minor, so a chunk's ordinal in
        this tuple is stable across processes and hosts. Shard backends
        partition work by that ordinal, and the streaming merge
        reassembles records in exactly this order — which is why any
        backend, at any shard count, reproduces the serial records
        byte for byte.
        """
        return tuple(
            (scenario, index)
            for scenario in self.scenarios
            for index in range(self.n_graphs)
        )

    @property
    def n_trials(self) -> int:
        """Total scheduling runs this experiment performs.

        The runner guarantees exactly this many records (it validates
        workload sources against it), so ``progress(done, total)`` can
        never report more than 100 %.
        """
        return len(self.scenarios) * self.n_graphs * self.trials_per_graph
