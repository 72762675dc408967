"""repro — reproduction of Jonsson & Shin (ICDCS 1997).

Deadline assignment in distributed hard real-time systems with relaxed
locality constraints: the Basic and Adaptive Slicing Techniques (BST/AST),
a random task-graph workload generator, a multiprocessor platform model, a
deadline-driven list scheduler, and the FEAST-style experiment harness that
reproduces the paper's figures.

Quickstart
----------
>>> import random
>>> from repro import (
...     RandomGraphConfig, generate_task_graph, ast, System, ListScheduler,
...     max_lateness,
... )
>>> graph = generate_task_graph(RandomGraphConfig(), rng=random.Random(0))
>>> assignment = ast("ADAPT").distribute(graph, n_processors=4)
>>> schedule = ListScheduler(System(4)).schedule(graph, assignment)
>>> max_lateness(schedule, assignment) < 0  # schedulable with margin
True
"""

from repro._lazy import lazy_exports

__version__ = "1.0.0"

__all__ = ["__version__"] + lazy_exports(__name__, {
    ".errors": ("ReproError",),
    ".graph": (
        "TaskGraph",
        "Subtask",
        "RandomGraphConfig",
        "generate_task_graph",
        "generate_task_graphs",
        "graph_stats",
    ),
    ".core": (
        "DeadlineDistributor",
        "DeadlineAssignment",
        "Window",
        "bst",
        "ast",
        "make_metric",
        "make_estimator",
        "validate_assignment",
        "PureLaxityRatio",
        "NormalizedLaxityRatio",
        "ThresholdLaxityRatio",
        "AdaptiveLaxityRatio",
        "CCNE",
        "CCAA",
    ),
    ".machine": ("System", "make_interconnect"),
    ".sched": (
        "ListScheduler",
        "Schedule",
        "max_lateness",
        "schedule_metrics",
    ),
    ".feast": (
        "ExperimentConfig",
        "MethodSpec",
        "build_experiment",
        "run_experiment",
        "lateness_report",
    ),
})
