"""Differential verification: reference oracles, invariants, fuzzing.

The optimized pipeline (indexed graph core, cached expanded overlay,
integer-id slicer, branch-and-bound search) is checked against small,
deliberately naive re-implementations whose correctness is evident by
inspection:

* :mod:`repro.qa.oracles` — dict-based longest-path / parallelism
  analysis, a path-enumeration assignment oracle, an
  exhaustive-permutation optimal scheduler for tiny graphs, and an
  event-replay schedule checker;
* :mod:`repro.qa.invariants` — :func:`check_pipeline`, which runs
  generate → distribute → schedule and asserts cross-layer invariants,
  returning a structured :class:`QAReport`;
* :mod:`repro.qa.fuzz` — a deterministic fuzzer over the paper's
  parameter space that shrinks any failing scenario to a minimal
  serialized reproducer (surfaced through ``repro fuzz``).

Every later performance PR runs against this layer: an optimization that
drifts from the oracles is a bug, not a speedup.
"""

from repro._lazy import lazy_exports

__all__ = lazy_exports(__name__, {
    ".fuzz": (
        "FuzzConfig",
        "FuzzFailure",
        "FuzzResult",
        "replay_reproducer",
        "run_fuzz",
        "scenario_from_dict",
        "shrink_graph",
    ),
    ".invariants": ("CheckResult", "QAReport", "check_pipeline"),
    ".oracles": (
        "ExhaustiveResult",
        "ExhaustiveScheduler",
        "ReplayReport",
        "oracle_average_parallelism",
        "oracle_graph_depth",
        "oracle_longest_path_length",
        "oracle_validate_assignment",
        "replay_schedule",
    ),
})
