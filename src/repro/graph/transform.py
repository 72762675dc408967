"""Task-graph transformations.

Whole-graph rewrites that keep the rest of the pipeline unchanged:

* :func:`scale_workload` — multiply execution times and/or message sizes
  against fixed anchors (how much growth a workload tolerates).
* :func:`relabel` — rename every node through a mapping (or a prefix).
"""

from __future__ import annotations

from typing import Mapping, Optional

from repro.errors import ValidationError
from repro.graph.taskgraph import TaskGraph
from repro.types import NodeId


def scale_workload(
    graph: TaskGraph,
    execution_factor: float = 1.0,
    message_factor: Optional[float] = None,
    name: Optional[str] = None,
) -> TaskGraph:
    """Scale execution times (and message sizes) by constant factors.

    ``message_factor`` defaults to ``execution_factor`` (keeping CCR
    constant). Anchors are untouched, so the scaled workload meets the
    same end-to-end deadlines.
    """
    if execution_factor <= 0:
        raise ValidationError("execution_factor must be > 0")
    message_factor = (
        message_factor if message_factor is not None else execution_factor
    )
    if message_factor < 0:
        raise ValidationError("message_factor must be >= 0")
    out = graph.copy(
        name=name if name is not None else f"{graph.name}@x{execution_factor:g}"
    )
    for node_id in out.node_ids():
        out.node(node_id).wcet = graph.node(node_id).wcet * execution_factor
    for src, dst in out.edges():
        out.message(src, dst).size = (
            graph.message(src, dst).size * message_factor
        )
    return out


def relabel(
    graph: TaskGraph,
    mapping: Optional[Mapping[NodeId, NodeId]] = None,
    prefix: str = "",
    name: Optional[str] = None,
) -> TaskGraph:
    """Rename nodes through ``mapping`` (or by prefixing every id).

    Ids missing from ``mapping`` keep their name; the mapping must be
    injective over the graph's nodes.
    """
    if mapping is None:
        mapping = {n: f"{prefix}{n}" for n in graph.node_ids()}
    targets = [mapping.get(n, n) for n in graph.node_ids()]
    if len(set(targets)) != len(targets):
        raise ValidationError("relabel mapping is not injective")
    out = TaskGraph(name=name if name is not None else graph.name)
    for node in graph.nodes():
        out.add_subtask(
            mapping.get(node.node_id, node.node_id),
            wcet=node.wcet,
            release=node.release,
            end_to_end_deadline=node.end_to_end_deadline,
            pinned_to=node.pinned_to,
        )
    for message in graph.messages():
        out.add_edge(
            mapping.get(message.src, message.src),
            mapping.get(message.dst, message.dst),
            message_size=message.size,
        )
    return out
