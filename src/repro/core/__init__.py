"""Core contribution: deadline distribution before task assignment."""

from repro._lazy import lazy_exports

__all__ = lazy_exports(__name__, {
    ".annotations": ("DeadlineAssignment", "SliceRecord", "Window"),
    ".baselines": (
        "BASELINES",
        "BaselineDistributor",
        "EffectiveDeadline",
        "EqualFlexibility",
        "EqualSlack",
        "EvenFlexibility",
        "UltimateDeadline",
        "make_baseline",
    ),
    ".commcost": (
        "CCAA",
        "CCNE",
        "CommCostEstimator",
        "Oracle",
        "Scaled",
        "make_estimator",
    ),
    ".criticalpath": ("CriticalPath",),
    ".expanded": ("ENode", "ExpandedGraph"),
    ".metrics": (
        "AdaptiveLaxityRatio",
        "MetricContext",
        "NormalizedLaxityRatio",
        "PureLaxityRatio",
        "SlicingMetric",
        "ThresholdLaxityRatio",
        "make_metric",
    ),
    ".pinning": (
        "pin_boundary_subtasks",
        "pin_random_fraction",
        "pin_subtasks",
        "pinned_fraction",
        "validate_pins",
    ),
    ".slicer": ("DeadlineDistributor", "ast", "bst"),
    ".validation": ("ValidationReport", "validate_assignment"),
    ".batch": (
        "DistributeRequest",
        "batch_distribute",
        "distribute_many",
        "fallback_reason",
    ),
})
