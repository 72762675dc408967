"""Task assignment and scheduling substrate."""

from repro._lazy import lazy_exports

__all__ = lazy_exports(__name__, {
    ".analysis": (
        "ScheduleMetrics",
        "end_to_end_lateness",
        "lateness_by_subtask",
        "max_lateness",
        "message_lateness",
        "schedule_metrics",
    ),
    ".bus": ("LinkTimeline", "LinkTimelines"),
    ".list_scheduler": ("ListScheduler",),
    ".policies": (
        "POLICIES",
        "EarliestDeadlineFirst",
        "EarliestReleaseFirst",
        "LeastLaxityFirst",
        "LongestProcessingTimeFirst",
        "RandomPolicy",
        "SelectionPolicy",
        "make_policy",
    ),
    ".export": ("schedule_to_json", "schedule_to_svg", "trace_to_svg"),
    ".optimal": ("BranchAndBoundScheduler", "OptimalResult"),
    ".schedulability": (
        "DemandViolation",
        "SchedulabilityReport",
        "analyze_placement",
        "analyze_platform",
        "min_processors_needed",
    ),
    ".simulator": (
        "ExecutionSegment",
        "ExecutionTrace",
        "JitterModel",
        "Transfer",
        "allocation_of",
        "simulate_dynamic",
        "simulate_fixed",
    ),
    ".schedule": (
        "HopReservation",
        "Schedule",
        "ScheduledMessage",
        "ScheduledTask",
    ),
})
