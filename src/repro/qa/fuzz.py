"""Deterministic scenario fuzzer with greedy failure shrinking.

:func:`run_fuzz` sweeps seeded random scenarios over the paper's
parameter space — graph shape and execution-time deviation (Section
5.2), laxity ratios on both sides of feasibility, CCR including the
communication-free degenerate case, all four metrics, both estimation
strategies, platforms from a single processor up — and runs each one
through :func:`repro.qa.invariants.check_pipeline`.

A failing scenario is greedily shrunk (drop a subtask, drop an arc,
round the weights) while it keeps failing the *same* named check, then
serialized via :mod:`repro.graph.serialization` into a standalone
reproducer file that :func:`scenario_from_dict` turns back into a
``(graph, system, metric, estimator)`` quadruple. Everything is keyed
off one integer seed: ``run_fuzz`` twice with the same
:class:`FuzzConfig` and you get byte-identical results.
"""

from __future__ import annotations

import json
import os
import random
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.errors import ReproError
from repro.graph.generator import SCENARIOS, RandomGraphConfig, generate_task_graph
from repro.graph.serialization import graph_from_dict, graph_to_dict
from repro.graph.taskgraph import TaskGraph
from repro.machine.system import System
from repro.machine.topology import make_interconnect
from repro.qa.invariants import QAReport, check_pipeline

#: Identifier of the reproducer file schema.
FAILURE_FORMAT = "repro-qa-failure"
FAILURE_VERSION = 1

#: Metrics the fuzzer cycles through (all four of the paper's).
METRICS = ("NORM", "PURE", "THRES", "ADAPT")

#: Subtask-count brackets, biased toward graphs small enough to shrink
#: and to hand to the exact schedulers.
_SIZE_BRACKETS = ((3, 6), (5, 10), (8, 16), (12, 24))

#: Laxity ratios straddling feasibility: < 1 forces the documented
#: over-constrained (collapsed-window) regime.
_LAXITY_RATIOS = (0.6, 1.0, 1.5, 2.5)

#: CCR values; 0.0 produces graphs whose arcs carry no data at all.
_CCRS = (0.0, 0.5, 1.0, 2.0)

#: Mean execution times; the smallest models the "almost zero cost"
#: subtask edge case (wcet must stay > 0 by the model's contract).
_METS = (0.001, 1.0, 20.0)

_PROCESSOR_COUNTS = (1, 2, 3, 4, 8)
_INTERCONNECTS = ("bus", "ideal")
_ESTIMATORS = ("CCNE", "CCAA")


@dataclass(frozen=True)
class FuzzConfig:
    """Parameters of one fuzzing campaign."""

    seed: int = 0
    trials: int = 100
    #: Wall-clock budget in seconds; ``None`` means run every trial.
    time_budget: Optional[float] = None
    #: Directory for shrunk reproducer files; ``None`` disables writing.
    output_dir: Optional[str] = None
    path_limit: int = 2_000
    bnb_max_subtasks: int = 9
    #: Exhaustive-permutation differential is enabled only up to this
    #: many subtasks *and* at most two processors (factorial blow-up).
    exhaustive_max_subtasks: int = 5
    max_shrink_steps: int = 300
    #: Also differential-check every scalar distribution against the
    #: vectorized batch kernel (``repro fuzz --batch``).
    use_batch: bool = False


@dataclass
class FuzzFailure:
    """One failing scenario, original and shrunk."""

    trial: int
    scenario: Dict[str, Any]
    report: QAReport
    shrunk_graph: TaskGraph
    shrunk_report: QAReport
    reproducer_path: Optional[str] = None

    def to_dict(self) -> Dict[str, Any]:
        """Standalone JSON-serializable reproducer."""
        return {
            "format": FAILURE_FORMAT,
            "version": FAILURE_VERSION,
            "scenario": self.scenario,
            "failing_checks": [c.name for c in self.shrunk_report.failures],
            "details": [c.details for c in self.shrunk_report.failures],
            "graph": graph_to_dict(self.shrunk_graph),
        }


@dataclass
class FuzzResult:
    """Outcome of one :func:`run_fuzz` campaign."""

    config: FuzzConfig
    trials_run: int = 0
    elapsed: float = 0.0
    failures: List[FuzzFailure] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        lines = [
            f"[{status}] fuzz seed={self.config.seed}: "
            f"{self.trials_run}/{self.config.trials} trials in "
            f"{self.elapsed:.1f}s, {len(self.failures)} failure(s)"
        ]
        for f in self.failures:
            checks = ", ".join(c.name for c in f.shrunk_report.failures)
            where = f" -> {f.reproducer_path}" if f.reproducer_path else ""
            lines.append(
                f"  trial {f.trial}: {checks} "
                f"(shrunk to {f.shrunk_graph.n_subtasks} subtasks){where}"
            )
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Scenario sampling
# ----------------------------------------------------------------------
def _draw_scenario(seed: int, trial: int) -> Dict[str, Any]:
    """Deterministically sample one scenario dict for ``trial``."""
    rng = random.Random(seed * 1_000_003 + trial)
    n_lo, n_hi = rng.choice(_SIZE_BRACKETS)
    depth_hi = max(2, min(4, n_lo))
    n_processors = rng.choice(_PROCESSOR_COUNTS)
    return {
        "trial": trial,
        "graph_config": {
            "n_subtasks_range": [n_lo, n_hi],
            "mean_execution_time": rng.choice(_METS),
            "execution_time_deviation": rng.choice(sorted(SCENARIOS.values())),
            "depth_range": [2, depth_hi],
            "degree_range": [1, rng.choice((1, 2, 3))],
            "overall_laxity_ratio": rng.choice(_LAXITY_RATIOS),
            "olr_basis": rng.choice(("graph-workload", "path-workload")),
            "communication_to_computation_ratio": rng.choice(_CCRS),
            "message_size_deviation": rng.choice((0.0, 0.5)),
            "integer_times": rng.random() < 0.3,
        },
        "generator_seed": rng.randrange(2**32),
        "metric": rng.choice(METRICS),
        "estimator": rng.choice(_ESTIMATORS),
        "n_processors": n_processors,
        "interconnect": rng.choice(_INTERCONNECTS),
        "cost_per_item": rng.choice((0.0, 0.5, 1.0)),
    }


def _build_system(scenario: Dict[str, Any]) -> System:
    return System(
        scenario["n_processors"],
        interconnect=make_interconnect(
            scenario["interconnect"],
            scenario["n_processors"],
            cost_per_item=scenario["cost_per_item"],
        ),
    )


def _build_graph(scenario: Dict[str, Any]) -> TaskGraph:
    cfg = dict(scenario["graph_config"])
    cfg["n_subtasks_range"] = tuple(cfg["n_subtasks_range"])
    cfg["depth_range"] = tuple(cfg["depth_range"])
    cfg["degree_range"] = tuple(cfg["degree_range"])
    return generate_task_graph(
        RandomGraphConfig(**cfg),
        rng=random.Random(scenario["generator_seed"]),
        name=f"fuzz-{scenario['trial']}",
    )


def scenario_from_dict(
    data: Dict[str, Any]
) -> Tuple[TaskGraph, System, str, str]:
    """Rebuild ``(graph, system, metric, estimator)`` from a reproducer.

    Accepts both a full reproducer file (with an embedded shrunk graph)
    and a bare scenario dict (the graph is then regenerated from the
    recorded generator seed).
    """
    scenario = data.get("scenario", data)
    if "graph" in data:
        graph = graph_from_dict(data["graph"])
    else:
        graph = _build_graph(scenario)
    return (
        graph,
        _build_system(scenario),
        scenario["metric"],
        scenario["estimator"],
    )


# ----------------------------------------------------------------------
# Shrinking
# ----------------------------------------------------------------------
def _rebuild(
    graph: TaskGraph,
    drop_node: Optional[str] = None,
    drop_edge: Optional[Tuple[str, str]] = None,
    round_times: bool = False,
) -> Optional[TaskGraph]:
    """Copy ``graph`` with one simplification applied, re-anchored.

    Dropping a node or arc can create new inputs (anchored at release 0)
    and new outputs (anchored at the latest existing end-to-end
    deadline). Returns ``None`` when the result is empty or invalid.
    The drops go through :meth:`TaskGraph.remove_subtask` /
    :meth:`TaskGraph.remove_edge`, so every shrink step also exercises
    the structural-mutation cache invalidation the analyses depend on.
    """
    out = graph.copy()
    if drop_node is not None:
        out.remove_subtask(drop_node)
    if drop_edge is not None and out.has_edge(*drop_edge):
        out.remove_edge(*drop_edge)
    if round_times:
        for node in out.nodes():
            node.wcet = max(1.0, float(round(node.wcet)))
        for message in out.messages():
            message.size = max(0.0, float(round(message.size)))
    if out.n_subtasks == 0:
        return None
    fallback_deadline = max(
        (
            n.end_to_end_deadline
            for n in graph.nodes()
            if n.end_to_end_deadline is not None
        ),
        default=None,
    )
    for node_id in out.input_subtasks():
        if out.node(node_id).release is None:
            out.node(node_id).release = 0.0
    for node_id in out.output_subtasks():
        if out.node(node_id).end_to_end_deadline is None:
            out.node(node_id).end_to_end_deadline = fallback_deadline
    try:
        out.validate()
    except ReproError:
        return None
    return out


def shrink_graph(
    graph: TaskGraph,
    still_fails: Callable[[TaskGraph], bool],
    max_steps: int = 300,
) -> TaskGraph:
    """Greedy minimization: keep any simplification that still fails.

    Candidate order is deterministic — drop each subtask, then each arc,
    then round every weight to an integer — and the scan restarts after
    every accepted step, so the result is a local minimum: no single
    further simplification reproduces the failure.
    """
    current = graph
    steps = 0
    improved = True
    while improved and steps < max_steps:
        improved = False
        for node_id in sorted(current.node_ids()):
            steps += 1
            candidate = _rebuild(current, drop_node=node_id)
            if candidate is not None and still_fails(candidate):
                current = candidate
                improved = True
                break
            if steps >= max_steps:
                return current
        if improved:
            continue
        for edge in sorted(current.edges()):
            steps += 1
            candidate = _rebuild(current, drop_edge=edge)
            if candidate is not None and still_fails(candidate):
                current = candidate
                improved = True
                break
            if steps >= max_steps:
                return current
        if improved:
            continue
        candidate = _rebuild(current, round_times=True)
        steps += 1
        if (
            candidate is not None
            and graph_to_dict(candidate) != graph_to_dict(current)
            and still_fails(candidate)
        ):
            current = candidate
            improved = True
    return current


# ----------------------------------------------------------------------
# The campaign
# ----------------------------------------------------------------------
def _check_scenario(
    graph: TaskGraph, scenario: Dict[str, Any], config: FuzzConfig
) -> QAReport:
    system = _build_system(scenario)
    exhaustive = (
        config.exhaustive_max_subtasks
        if scenario["n_processors"] <= 2
        else 0
    )
    return check_pipeline(
        graph,
        system,
        scenario["metric"],
        estimator=scenario["estimator"],
        path_limit=config.path_limit,
        bnb_max_subtasks=config.bnb_max_subtasks,
        exhaustive_max_subtasks=exhaustive,
        use_batch=config.use_batch,
    )


def replay_reproducer(
    data: Dict[str, Any], config: Optional[FuzzConfig] = None
) -> QAReport:
    """Re-check one reproducer under the campaign's own check gating.

    The live campaign never calls :func:`check_pipeline` directly: it
    goes through :func:`_check_scenario`, which applies the
    :class:`FuzzConfig` limits (path-enumeration budget, B&B size cap)
    and enables the exhaustive-permutation differential only on
    small-platform scenarios. A replay must exercise *exactly* the same
    checks — re-checking with ``check_pipeline``'s defaults (as
    ``repro fuzz --replay`` once did) silently dropped the exhaustive
    differential and widened the B&B gate, so a reproducer whose failure
    sat behind that gating — degenerate scenarios like zero-edge or
    single-subtask graphs are exactly the ones small enough to hit it —
    replayed green.

    Accepts a full reproducer file (the embedded shrunk graph is
    checked) or a bare scenario dict (the graph is regenerated from the
    recorded generator seed). ``config`` defaults to ``FuzzConfig()``;
    pass the campaign's config to reproduce non-default limits.
    """
    if config is None:
        config = FuzzConfig()
    scenario = data.get("scenario", data)
    if "graph" in data:
        graph = graph_from_dict(data["graph"])
    else:
        graph = _build_graph(scenario)
    return _check_scenario(graph, scenario, config)


def run_fuzz(
    config: FuzzConfig,
    progress: Optional[Callable[[int, Optional[FuzzFailure]], None]] = None,
) -> FuzzResult:
    """Run one deterministic fuzzing campaign.

    ``progress`` (if given) is called after every trial with the trial
    index and the failure it produced, if any.
    """
    start = time.monotonic()
    result = FuzzResult(config=config)
    for trial in range(config.trials):
        if (
            config.time_budget is not None
            and time.monotonic() - start >= config.time_budget
        ):
            break
        scenario = _draw_scenario(config.seed, trial)
        graph = _build_graph(scenario)
        report = _check_scenario(graph, scenario, config)
        result.trials_run += 1
        failure: Optional[FuzzFailure] = None
        if not report.ok:
            failure = _shrink_failure(graph, scenario, report, config)
            if config.output_dir is not None:
                failure.reproducer_path = _write_reproducer(failure, config)
            result.failures.append(failure)
        if progress is not None:
            progress(trial, failure)
    result.elapsed = time.monotonic() - start
    return result


def _shrink_failure(
    graph: TaskGraph,
    scenario: Dict[str, Any],
    report: QAReport,
    config: FuzzConfig,
) -> FuzzFailure:
    # Anchor the shrink to the first failing check so simplification
    # cannot wander off onto an unrelated failure mode.
    target = report.failures[0].name

    def still_fails(candidate: TaskGraph) -> bool:
        probe = _check_scenario(candidate, scenario, config)
        return any(c.name == target for c in probe.failures)

    shrunk = shrink_graph(graph, still_fails, max_steps=config.max_shrink_steps)
    return FuzzFailure(
        trial=scenario["trial"],
        scenario=scenario,
        report=report,
        shrunk_graph=shrunk,
        shrunk_report=_check_scenario(shrunk, scenario, config),
    )


def _write_reproducer(failure: FuzzFailure, config: FuzzConfig) -> str:
    os.makedirs(config.output_dir, exist_ok=True)
    path = os.path.join(
        config.output_dir,
        f"failure-seed{config.seed}-trial{failure.trial}.json",
    )
    with open(path, "w", encoding="utf-8") as fp:
        json.dump(failure.to_dict(), fp, indent=2, sort_keys=True)
        fp.write("\n")
    return path
