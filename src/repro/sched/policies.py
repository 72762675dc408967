"""Ready-list selection policies for the list scheduler.

The paper's evaluation uses the deadline-driven policy (earliest absolute
deadline first, Section 5.3). Section 8 asks how AST behaves "under various
task assignment and scheduling policies"; the additional policies here make
that sweep a one-line configuration change.

A policy maps a ready subtask to a sortable key; the scheduler picks the
minimum key and breaks remaining ties on the node id, so every policy is
deterministic.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from typing import Tuple

from repro.core.annotations import DeadlineAssignment
from repro.errors import ValidationError
from repro.graph.taskgraph import TaskGraph
from repro.types import NodeId


class SelectionPolicy(ABC):
    """Priority rule over ready subtasks."""

    #: Name used in experiment tables.
    name: str = "abstract"

    @abstractmethod
    def key(
        self,
        node_id: NodeId,
        graph: TaskGraph,
        assignment: DeadlineAssignment,
    ) -> Tuple:
        """Sort key; the ready subtask with the smallest key runs next."""


class EarliestDeadlineFirst(SelectionPolicy):
    """EDF over the *distributed* absolute deadlines (paper Section 5.3)."""

    name = "EDF"

    def key(self, node_id, graph, assignment):
        return (assignment.absolute_deadline(node_id),)


class LeastLaxityFirst(SelectionPolicy):
    """Smallest window laxity first (static laxity from the distribution)."""

    name = "LLF"

    def key(self, node_id, graph, assignment):
        return (assignment.laxity(node_id),)


class EarliestReleaseFirst(SelectionPolicy):
    """FIFO by distributed release time."""

    name = "ERF"

    def key(self, node_id, graph, assignment):
        return (assignment.release(node_id),)


class LongestProcessingTimeFirst(SelectionPolicy):
    """Classic LPT: longest execution time first (deadline-oblivious)."""

    name = "LPT"

    def key(self, node_id, graph, assignment):
        return (-graph.node(node_id).wcet,)


class RandomPolicy(SelectionPolicy):
    """Uniformly random priorities (a floor for comparisons).

    Deterministic given the seed: the key of a node is drawn once, on
    first use, from a node-keyed stream.
    """

    name = "RANDOM"

    def __init__(self, seed: int = 0) -> None:
        self._seed = seed

    def key(self, node_id, graph, assignment):
        return (random.Random(f"{self._seed}:{node_id}").random(),)


#: Policies by table name.
POLICIES = {
    "EDF": EarliestDeadlineFirst,
    "LLF": LeastLaxityFirst,
    "ERF": EarliestReleaseFirst,
    "LPT": LongestProcessingTimeFirst,
    "RANDOM": RandomPolicy,
}


def make_policy(name: str, **kwargs) -> SelectionPolicy:
    """Instantiate a named selection policy."""
    try:
        cls = POLICIES[name.upper()]
    except KeyError:
        raise ValidationError(
            f"unknown policy {name!r}; expected one of {sorted(POLICIES)}"
        ) from None
    return cls(**kwargs)
