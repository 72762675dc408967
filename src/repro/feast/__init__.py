"""FEAST-style experiment harness: configs, runner, statistics, tables.

Importing the harness loads the serial run path — the runner, the
experiment registry and the serial backend with everything they call —
so a sweep's first timed call imports nothing. The rest (aggregation,
tables, plots, persistence, the multi-process backend) loads when
it is first used (DESIGN.md §6).
"""

from repro._lazy import lazy_exports

__all__ = lazy_exports(__name__, {
    ".aggregate": (
        "PairedComparison",
        "StreamingAggregator",
        "Summary",
        "paired_comparison",
        "mean_end_to_end_lateness",
        "group_records",
        "improvement_over",
        "mean_max_lateness",
        "summarize",
        "summarize_by",
    ),
    ".backends": (
        "ExecutionBackend",
        "ExecutionRequest",
        "RetryPolicy",
        "TrialSpec",
        "backend_names",
        "default_jobs",
        "make_backend",
        "register_backend",
    ),
    ".config": (
        "PAPER_N_GRAPHS",
        "PAPER_SYSTEM_SIZES",
        "ExperimentConfig",
        "MethodSpec",
    ),
    ".experiments": ("EXPERIMENTS", "build_experiment"),
    ".instrumentation": (
        "Instrumentation",
        "PhaseTimings",
        "ProgressFn",
        "TrialFailure",
    ),
    ".persistence": (
        "CheckpointJournal",
        "JournalInfo",
        "SeriesDelta",
        "compact_journals",
        "compare",
        "config_fingerprint",
        "inspect_journal",
        "iter_journal",
        "journal_paths",
        "load_result",
        "read_journal_header",
        "result_from_dict",
        "result_to_dict",
        "save_result",
    ),
    ".plots": ("lateness_plot", "render_plot"),
    ".sweep": ("run_experiments", "sweep_field", "sweep_grid"),
    ".reporting": ("improvement_section", "lateness_section", "render_report"),
    ".runner": (
        "ExperimentResult",
        "TrialRecord",
        "graph_for_trial",
        "run_experiment",
        "run_trial",
        "scenario_seed",
        "trial_seed",
    ),
    ".tables": (
        "end_to_end_panel",
        "lateness_panel",
        "lateness_report",
        "render_table",
        "series",
        "to_csv",
    ),
})

from repro.feast import backends, experiments, runner  # noqa: E402,F401
