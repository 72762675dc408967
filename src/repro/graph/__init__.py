"""Task-graph substrate: model, generators, analysis, serialization."""

from repro._lazy import lazy_exports

__all__ = lazy_exports(__name__, {
    ".node": ("CommSubtask", "Message", "Subtask"),
    ".indexed": ("GraphIndex",),
    ".taskgraph": ("TaskGraph",),
    ".generator": (
        "HDET",
        "LDET",
        "MDET",
        "PAPER_CONFIG",
        "SCENARIOS",
        "RandomGraphConfig",
        "generate_task_graph",
        "generate_task_graphs",
    ),
    ".structured": (
        "STRUCTURES",
        "generate_diamond",
        "generate_fork_join",
        "generate_in_tree",
        "generate_out_tree",
        "generate_pipeline",
    ),
    ".periodic": ("CrossTaskArc", "PeriodicTask", "hyperperiod", "unroll"),
    ".analysis": ("GraphStats", "graph_stats", "max_width", "width_histogram"),
    ".workloads": (
        "WORKLOADS",
        "automotive_control",
        "make_workload",
        "radar_pipeline",
        "video_encoder",
    ),
    ".transform": ("relabel", "scale_workload"),
})
