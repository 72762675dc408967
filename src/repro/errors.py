"""Exception hierarchy for the ``repro`` library.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch everything from this package with a single ``except`` clause while
still being able to discriminate on the concrete failure.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every exception raised by the ``repro`` library."""


class GraphError(ReproError):
    """Base class for task-graph construction and query failures."""


class DuplicateNodeError(GraphError):
    """A subtask id was added to a graph more than once."""


class UnknownNodeError(GraphError):
    """An operation referenced a subtask id that is not in the graph."""


class DuplicateEdgeError(GraphError):
    """A precedence arc between the same pair of subtasks was added twice."""


class CycleError(GraphError):
    """The precedence relation contains a cycle (not a DAG)."""

    def __init__(self, cycle: list) -> None:
        self.cycle = list(cycle)
        super().__init__(
            "task graph contains a precedence cycle: " + " -> ".join(map(str, cycle))
        )


class ValidationError(ReproError):
    """A model object violates one of its documented invariants."""


class GeneratorError(ReproError):
    """A workload generator was configured with unsatisfiable parameters."""


class DistributionError(ReproError):
    """Deadline distribution could not complete.

    Raised, e.g., when the graph has no anchored end-to-end deadlines, or
    when the slicing loop cannot find any candidate path (which indicates a
    malformed graph rather than an over-constrained one).
    """


class SchedulingError(ReproError):
    """The task-assignment/scheduling phase failed.

    Note that an *infeasible* schedule (positive lateness) is a measurement,
    not an error; this exception covers structural failures such as a pinned
    subtask referencing a processor that does not exist.
    """


class ExperimentError(ReproError):
    """An experiment configuration is inconsistent or a run failed."""


class TrialTimeoutError(ExperimentError):
    """A trial exceeded its wall-clock budget.

    Raised cooperatively (see :mod:`repro.budget`) by components that
    poll the current trial deadline.
    """


class QuarantinedTrialError(ExperimentError):
    """A trial chunk was quarantined after repeated failures.

    The engine records quarantines in
    :attr:`~repro.feast.runner.ExperimentResult.quarantined` and keeps
    going; :meth:`~repro.feast.runner.ExperimentResult.check` raises this
    for callers that need an all-or-nothing run.
    """


class CheckpointError(ExperimentError):
    """A sweep checkpoint journal is unusable.

    Raised when the journal is corrupt, unreadable, or was written by a
    different experiment configuration than the one being resumed.
    """


class ExperimentWarning(ReproError, UserWarning):
    """Non-fatal experiment-engine condition worth surfacing.

    Emitted via :func:`warnings.warn` when the engine degrades instead of
    failing: silent serial fallback for unpicklable configs, worker
    relaunches and failovers, or degradation to in-process execution.
    Derives from :class:`ReproError` so
    ``-W error::repro.errors.ExperimentWarning`` and blanket
    ``ReproError`` handling both work.
    """


class SerializationError(ReproError):
    """A graph or result could not be encoded/decoded."""
