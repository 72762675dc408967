"""Canonical experiment definitions: one builder per paper figure/claim.

Main evaluation (Sections 6–7):

* :func:`figure2` — BST metrics (PURE, NORM) × comm estimation (CCNE, CCAA);
* :func:`figure3` — THRES surplus factor Δ ∈ {1, 2, 4};
* :func:`figure4` — THRES execution-time threshold ∈ {0.75, 1.0, 1.25} × MET;
* :func:`figure5` — PURE vs THRES(Δ=1) vs ADAPT.

Complementary results (Section 8, full data in the Chalmers TR-281 report):

* :func:`ext_ccr` — communication-to-computation ratio sweep;
* :func:`ext_met` — mean execution time sweep;
* :func:`ext_parallelism` — graph-shape (parallelism) sweep;
* :func:`ext_topology` — interconnect topologies;
* :func:`ext_structured` — in-tree / out-tree / fork-join / pipeline graphs;
* :func:`ext_policy` — ready-list policies beyond EDF;
* :func:`ext_locality` — fraction of strictly-pinned subtasks.

Reproduction ablations (documented deviations, DESIGN.md §5):

* :func:`ablation_olr` — OLR basis and tightness;
* :func:`ablation_bus` — contended bus vs contention-free network;
* :func:`ablation_release` — greedy vs time-triggered dispatch.

Every builder returns a list of :class:`ExperimentConfig` (most contain
one; sweeps that change the *workload generator* return one config per
sweep point, since graphs differ across points).
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List, Sequence, Tuple

from repro.core.pinning import pin_random_fraction
from repro.errors import ExperimentError
from repro.feast.config import (
    PAPER_N_GRAPHS,
    PAPER_SYSTEM_SIZES,
    ExperimentConfig,
    MethodSpec,
)
from repro.graph.generator import RandomGraphConfig
from repro.graph.structured import (
    generate_fork_join,
    generate_in_tree,
    generate_out_tree,
    generate_pipeline,
)
from repro.graph.workloads import make_workload

#: Default sweep for the extension experiments (coarser than the figures).
EXT_SYSTEM_SIZES: Tuple[int, ...] = (2, 4, 8, 16)

#: Method specs reused across experiments.
PURE = MethodSpec(label="PURE", metric="PURE", comm="CCNE")
ADAPT = MethodSpec(label="ADAPT", metric="ADAPT", comm="CCNE", threshold_factor=1.25)
THRES1 = MethodSpec(
    label="THRES", metric="THRES", comm="CCNE", surplus=1.0, threshold_factor=1.25
)


def figure2(
    n_graphs: int = PAPER_N_GRAPHS,
    system_sizes: Sequence[int] = PAPER_SYSTEM_SIZES,
    seed: int = 2026,
) -> List[ExperimentConfig]:
    """BST evaluation: {PURE, NORM} × {CCNE, CCAA} (paper Figure 2)."""
    methods = tuple(
        MethodSpec(label=f"{metric}/{comm}", metric=metric, comm=comm)
        for metric in ("PURE", "NORM")
        for comm in ("CCNE", "CCAA")
    )
    return [
        ExperimentConfig(
            name="figure2",
            description="BST metrics PURE and NORM under CCNE/CCAA estimation",
            methods=methods,
            n_graphs=n_graphs,
            system_sizes=tuple(system_sizes),
            seed=seed,
        )
    ]


def figure3(
    n_graphs: int = PAPER_N_GRAPHS,
    system_sizes: Sequence[int] = PAPER_SYSTEM_SIZES,
    seed: int = 2026,
    surpluses: Sequence[float] = (1.0, 2.0, 4.0),
) -> List[ExperimentConfig]:
    """THRES surplus-factor sweep (paper Figure 3)."""
    methods = tuple(
        MethodSpec(
            label=f"THRES(d={surplus:g})",
            metric="THRES",
            surplus=surplus,
            threshold_factor=1.25,
        )
        for surplus in surpluses
    )
    return [
        ExperimentConfig(
            name="figure3",
            description="THRES metric for surplus factors 1, 2 and 4",
            methods=methods,
            n_graphs=n_graphs,
            system_sizes=tuple(system_sizes),
            seed=seed,
        )
    ]


def figure4(
    n_graphs: int = PAPER_N_GRAPHS,
    system_sizes: Sequence[int] = PAPER_SYSTEM_SIZES,
    seed: int = 2026,
    threshold_factors: Sequence[float] = (0.75, 1.0, 1.25),
) -> List[ExperimentConfig]:
    """THRES threshold sweep, ±25 % around MET (paper Figure 4)."""
    methods = tuple(
        MethodSpec(
            label=f"THRES(t={factor:g}MET)",
            metric="THRES",
            surplus=1.0,
            threshold_factor=factor,
        )
        for factor in threshold_factors
    )
    return [
        ExperimentConfig(
            name="figure4",
            description="THRES metric for thresholds 0.75/1.0/1.25 x MET",
            methods=methods,
            n_graphs=n_graphs,
            system_sizes=tuple(system_sizes),
            seed=seed,
        )
    ]


def figure5(
    n_graphs: int = PAPER_N_GRAPHS,
    system_sizes: Sequence[int] = PAPER_SYSTEM_SIZES,
    seed: int = 2026,
) -> List[ExperimentConfig]:
    """PURE vs THRES(Δ=1) vs ADAPT (paper Figure 5)."""
    return [
        ExperimentConfig(
            name="figure5",
            description="AST metrics THRES and ADAPT against BST's PURE",
            methods=(PURE, THRES1, ADAPT),
            n_graphs=n_graphs,
            system_sizes=tuple(system_sizes),
            seed=seed,
        )
    ]


# ----------------------------------------------------------------------
# Section 8 extensions
# ----------------------------------------------------------------------
def ext_ccr(
    n_graphs: int = 32,
    system_sizes: Sequence[int] = EXT_SYSTEM_SIZES,
    seed: int = 2026,
    ratios: Sequence[float] = (0.1, 0.5, 1.0, 2.0, 4.0),
) -> List[ExperimentConfig]:
    """AST across communication-to-computation cost ratios (Section 8)."""
    return [
        ExperimentConfig(
            name=f"ext-ccr-{ratio:g}",
            description=f"PURE vs ADAPT at CCR={ratio:g}",
            methods=(PURE, ADAPT),
            graph_config=RandomGraphConfig(
                communication_to_computation_ratio=ratio
            ),
            scenarios=("MDET",),
            n_graphs=n_graphs,
            system_sizes=tuple(system_sizes),
            seed=seed,
        )
        for ratio in ratios
    ]


def ext_met(
    n_graphs: int = 32,
    system_sizes: Sequence[int] = EXT_SYSTEM_SIZES,
    seed: int = 2026,
    mets: Sequence[float] = (5.0, 20.0, 80.0),
) -> List[ExperimentConfig]:
    """AST across mean subtask execution times (Section 8)."""
    return [
        ExperimentConfig(
            name=f"ext-met-{met:g}",
            description=f"PURE vs ADAPT at MET={met:g}",
            methods=(PURE, ADAPT),
            graph_config=RandomGraphConfig(mean_execution_time=met),
            scenarios=("MDET",),
            n_graphs=n_graphs,
            system_sizes=tuple(system_sizes),
            seed=seed,
        )
        for met in mets
    ]


#: Graph-shape presets for the parallelism sweep: (name, depth, degree).
PARALLELISM_SHAPES: Tuple[Tuple[str, Tuple[int, int], Tuple[int, int]], ...] = (
    ("wide", (4, 6), (1, 2)),
    ("paper", (8, 12), (1, 3)),
    ("deep", (16, 20), (1, 3)),
)


def ext_parallelism(
    n_graphs: int = 32,
    system_sizes: Sequence[int] = EXT_SYSTEM_SIZES,
    seed: int = 2026,
) -> List[ExperimentConfig]:
    """AST across degrees of task-graph parallelism (Section 8)."""
    return [
        ExperimentConfig(
            name=f"ext-parallelism-{name}",
            description=f"PURE vs ADAPT on {name} graphs "
            f"(depth {depth[0]}-{depth[1]})",
            methods=(PURE, ADAPT),
            graph_config=RandomGraphConfig(
                depth_range=depth, degree_range=degree
            ),
            scenarios=("MDET",),
            n_graphs=n_graphs,
            system_sizes=tuple(system_sizes),
            seed=seed,
        )
        for name, depth, degree in PARALLELISM_SHAPES
    ]


def ext_topology(
    n_graphs: int = 32,
    system_sizes: Sequence[int] = EXT_SYSTEM_SIZES,
    seed: int = 2026,
    topologies: Sequence[str] = ("bus", "fully-connected", "ring", "mesh"),
) -> List[ExperimentConfig]:
    """AST across interconnect topologies (Section 8)."""
    return [
        ExperimentConfig(
            name=f"ext-topology-{topology}",
            description=f"PURE vs ADAPT on a {topology} interconnect",
            methods=(PURE, ADAPT),
            scenarios=("MDET",),
            n_graphs=n_graphs,
            system_sizes=tuple(system_sizes),
            seed=seed,
            topology=topology,
        )
        for topology in topologies
    ]


def _structured_factory(structure: str) -> Callable:
    """Graph factory for :func:`ext_structured`; sizes chosen to land in
    the paper's 15–65 subtask range."""
    def factory(config: RandomGraphConfig, rng: random.Random):
        if structure == "in-tree":
            return generate_in_tree(depth=5, branching=2, config=config, rng=rng)
        if structure == "out-tree":
            return generate_out_tree(depth=5, branching=2, config=config, rng=rng)
        if structure == "fork-join":
            return generate_fork_join(stages=5, width=4, config=config, rng=rng)
        if structure == "pipeline":
            return generate_pipeline(length=40, config=config, rng=rng)
        raise ExperimentError(f"unknown structure {structure!r}")

    return factory


def ext_structured(
    n_graphs: int = 32,
    system_sizes: Sequence[int] = EXT_SYSTEM_SIZES,
    seed: int = 2026,
    structures: Sequence[str] = ("in-tree", "out-tree", "fork-join", "pipeline"),
) -> List[ExperimentConfig]:
    """AST on commonly-encountered graph structures (Section 8)."""
    return [
        ExperimentConfig(
            name=f"ext-structured-{structure}",
            description=f"PURE vs ADAPT on {structure} graphs",
            methods=(PURE, ADAPT),
            scenarios=("MDET",),
            n_graphs=n_graphs,
            system_sizes=tuple(system_sizes),
            seed=seed,
            graph_factory=_structured_factory(structure),
        )
        for structure in structures
    ]


def ext_policy(
    n_graphs: int = 32,
    system_sizes: Sequence[int] = EXT_SYSTEM_SIZES,
    seed: int = 2026,
    policies: Sequence[str] = ("EDF", "LLF", "ERF", "LPT"),
) -> List[ExperimentConfig]:
    """AST under different ready-list policies (Section 8)."""
    return [
        ExperimentConfig(
            name=f"ext-policy-{policy}",
            description=f"PURE vs ADAPT under the {policy} selection policy",
            methods=(PURE, ADAPT),
            scenarios=("MDET",),
            n_graphs=n_graphs,
            system_sizes=tuple(system_sizes),
            seed=seed,
            policy=policy,
        )
        for policy in policies
    ]


def _pinned_factory(fraction: float, n_pin_processors: int) -> Callable:
    def factory(config: RandomGraphConfig, rng: random.Random):
        from repro.graph.generator import generate_task_graph

        graph = generate_task_graph(config, rng=rng)
        return pin_random_fraction(graph, fraction, n_pin_processors, rng=rng)

    return factory


def ext_locality(
    n_graphs: int = 32,
    system_sizes: Sequence[int] = EXT_SYSTEM_SIZES,
    seed: int = 2026,
    fractions: Sequence[float] = (0.0, 0.25, 0.5, 1.0),
) -> List[ExperimentConfig]:
    """Sweep the strictly-pinned fraction, from fully relaxed (the paper's
    setting) to fully strict (the BST setting). Pins reference processors
    below the smallest swept system size, so one workload serves all sizes."""
    n_pin = min(system_sizes)
    return [
        ExperimentConfig(
            name=f"ext-locality-{int(fraction * 100):03d}",
            description=f"PURE vs ADAPT with {fraction:.0%} of subtasks pinned",
            methods=(PURE, ADAPT),
            scenarios=("MDET",),
            n_graphs=n_graphs,
            system_sizes=tuple(system_sizes),
            seed=seed,
            graph_factory=_pinned_factory(fraction, n_pin),
        )
        for fraction in fractions
    ]


def _realistic_factory(workload: str) -> Callable:
    """Graph factory adapting the realistic workload builders; the nested
    graph config's OLR carries through so laxity ablations stay possible."""
    def factory(config: RandomGraphConfig, rng: random.Random):
        return make_workload(
            workload, rng=rng, laxity_ratio=config.overall_laxity_ratio
        )

    return factory


def ext_realistic(
    n_graphs: int = 32,
    system_sizes: Sequence[int] = EXT_SYSTEM_SIZES,
    seed: int = 2026,
    workloads: Sequence[str] = ("automotive", "radar", "video"),
) -> List[ExperimentConfig]:
    """AST on the realistic benchmark set (Section 8's wished-for
    evaluation): automotive control, radar pipeline, video encoder."""
    return [
        ExperimentConfig(
            name=f"ext-realistic-{workload}",
            description=f"PURE vs ADAPT on the {workload} benchmark",
            methods=(PURE, ADAPT),
            scenarios=("MDET",),
            n_graphs=n_graphs,
            system_sizes=tuple(system_sizes),
            seed=seed,
            graph_factory=_realistic_factory(workload),
        )
        for workload in workloads
    ]


def ext_heterogeneous(
    n_graphs: int = 32,
    system_sizes: Sequence[int] = EXT_SYSTEM_SIZES,
    seed: int = 2026,
    profiles: Sequence[str] = ("uniform", "mixed", "one-fast"),
) -> List[ExperimentConfig]:
    """AST on heterogeneous platforms (Section 8 future work).

    Processor speeds follow a named profile; the list scheduler already
    accounts for speeds in its earliest-start rule. The original ADAPT is
    speed-agnostic (its surplus divides by the processor *count*) — the
    situation the paper flags as "worthy of further investigation" — so
    the sweep also includes this library's capacity-aware variant ADAPT-C
    (divisor = speed sum), which restores the intended behaviour.
    """
    adapt_c = MethodSpec(
        label="ADAPT-C",
        metric="ADAPT",
        comm="CCNE",
        threshold_factor=1.25,
        capacity_aware=True,
    )
    return [
        ExperimentConfig(
            name=f"ext-heterogeneous-{profile}",
            description=f"PURE vs ADAPT vs ADAPT-C with {profile} speeds",
            methods=(PURE, ADAPT, adapt_c),
            scenarios=("MDET",),
            n_graphs=n_graphs,
            system_sizes=tuple(system_sizes),
            seed=seed,
            speed_profile=profile,
        )
        for profile in profiles
    ]


def ext_baselines(
    n_graphs: int = 32,
    system_sizes: Sequence[int] = EXT_SYSTEM_SIZES,
    seed: int = 2026,
) -> List[ExperimentConfig]:
    """Slicing techniques vs the related-work strategies of Section 2:
    Kao & Garcia-Molina's UD/ED/EQS/EQF and Bettati & Liu's even division.

    Compare on ``max_end_to_end_lateness`` (strategy-independent anchors);
    the per-strategy ``max_lateness`` rewards lazy deadlines (UD) and is
    only meaningful within one strategy.
    """
    methods = (
        PURE,
        ADAPT,
        MethodSpec(label="UD", metric="PURE", baseline="UD"),
        MethodSpec(label="ED", metric="PURE", baseline="ED"),
        MethodSpec(label="EQS", metric="PURE", baseline="EQS"),
        MethodSpec(label="EQF", metric="PURE", baseline="EQF"),
        MethodSpec(label="DIV", metric="PURE", baseline="DIV"),
    )
    return [
        ExperimentConfig(
            name="ext-baselines",
            description="slicing techniques vs related-work strategies",
            methods=methods,
            scenarios=("MDET",),
            n_graphs=n_graphs,
            system_sizes=tuple(system_sizes),
            seed=seed,
        )
    ]


# ----------------------------------------------------------------------
# Reproduction ablations
# ----------------------------------------------------------------------
def ablation_olr(
    n_graphs: int = 32,
    system_sizes: Sequence[int] = EXT_SYSTEM_SIZES,
    seed: int = 2026,
    ratios: Sequence[float] = (1.1, 1.5, 2.0),
) -> List[ExperimentConfig]:
    """OLR tightness × basis ablation (DESIGN.md §5: the OLR sentence is
    ambiguous; this quantifies how much the reading matters)."""
    configs = []
    for basis in ("graph-workload", "path-workload"):
        for ratio in ratios:
            configs.append(
                ExperimentConfig(
                    name=f"ablation-olr-{basis}-{ratio:g}",
                    description=f"PURE vs ADAPT, OLR={ratio:g} on {basis}",
                    methods=(PURE, ADAPT),
                    graph_config=RandomGraphConfig(
                        overall_laxity_ratio=ratio, olr_basis=basis
                    ),
                    scenarios=("MDET",),
                    n_graphs=n_graphs,
                    system_sizes=tuple(system_sizes),
                    seed=seed,
                )
            )
    return configs


def ablation_clamp(
    n_graphs: int = 32,
    system_sizes: Sequence[int] = EXT_SYSTEM_SIZES,
    seed: int = 2026,
) -> List[ExperimentConfig]:
    """Window clamping ablation (DESIGN.md §5 deviation #4).

    The paper leaves the interaction between sliced windows and previously
    inherited anchors unspecified; our slicer clamps. This ablation runs
    PURE and ADAPT with clamping on and off on identical workloads — the
    quantitative answer to "does the unspecified detail matter?".
    """
    methods = []
    for clamp in (True, False):
        tag = "clamped" if clamp else "raw"
        methods.append(MethodSpec(
            label=f"PURE/{tag}", metric="PURE", clamp_to_anchors=clamp,
        ))
        methods.append(MethodSpec(
            label=f"ADAPT/{tag}", metric="ADAPT", threshold_factor=1.25,
            clamp_to_anchors=clamp,
        ))
    return [
        ExperimentConfig(
            name="ablation-clamp",
            description="window clamping on vs off",
            methods=tuple(methods),
            scenarios=("MDET",),
            n_graphs=n_graphs,
            system_sizes=tuple(system_sizes),
            seed=seed,
        )
    ]


def ablation_bus(
    n_graphs: int = 32,
    system_sizes: Sequence[int] = EXT_SYSTEM_SIZES,
    seed: int = 2026,
) -> List[ExperimentConfig]:
    """Contended bus vs contention-free network (DESIGN.md §5)."""
    return [
        ExperimentConfig(
            name=f"ablation-bus-{topology}",
            description=f"PURE vs ADAPT on {topology} interconnect",
            methods=(PURE, ADAPT),
            scenarios=("MDET",),
            n_graphs=n_graphs,
            system_sizes=tuple(system_sizes),
            seed=seed,
            topology=topology,
        )
        for topology in ("bus", "ideal")
    ]


def ablation_release(
    n_graphs: int = 32,
    system_sizes: Sequence[int] = EXT_SYSTEM_SIZES,
    seed: int = 2026,
) -> List[ExperimentConfig]:
    """Greedy packing vs time-triggered dispatch of distributed releases."""
    return [
        ExperimentConfig(
            name=f"ablation-release-{'tt' if respect else 'greedy'}",
            description=(
                "PURE vs ADAPT with "
                + ("time-triggered" if respect else "greedy")
                + " dispatch"
            ),
            methods=(PURE, ADAPT),
            scenarios=("MDET",),
            n_graphs=n_graphs,
            system_sizes=tuple(system_sizes),
            seed=seed,
            respect_release_times=respect,
        )
        for respect in (False, True)
    ]


#: Registry of every experiment builder, by id.
EXPERIMENTS: Dict[str, Callable[..., List[ExperimentConfig]]] = {
    "figure2": figure2,
    "figure3": figure3,
    "figure4": figure4,
    "figure5": figure5,
    "ext-ccr": ext_ccr,
    "ext-met": ext_met,
    "ext-parallelism": ext_parallelism,
    "ext-topology": ext_topology,
    "ext-structured": ext_structured,
    "ext-policy": ext_policy,
    "ext-locality": ext_locality,
    "ext-baselines": ext_baselines,
    "ext-heterogeneous": ext_heterogeneous,
    "ext-realistic": ext_realistic,
    "ablation-olr": ablation_olr,
    "ablation-clamp": ablation_clamp,
    "ablation-bus": ablation_bus,
    "ablation-release": ablation_release,
}


def build_experiment(name: str, **kwargs) -> List[ExperimentConfig]:
    """Build the configs of a registered experiment by id."""
    try:
        builder = EXPERIMENTS[name]
    except KeyError:
        raise ExperimentError(
            f"unknown experiment {name!r}; expected one of {sorted(EXPERIMENTS)}"
        ) from None
    return builder(**kwargs)
