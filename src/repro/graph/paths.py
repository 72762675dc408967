"""Path utilities over task graphs.

These are the building blocks of the paper's metrics:

* :func:`longest_path_length` — the execution-time length of the heaviest
  path ("length, in execution time, of the longest path in the graph"),
  used by the ADAPT metric's parallelism estimate;
* :func:`longest_path` — one concrete heaviest path;
* :func:`average_parallelism` — the paper's ξ: total workload divided by
  the longest-path length;
* :func:`enumerate_paths` — exhaustive path enumeration between two nodes
  (used by validation and tests, not by the algorithms themselves);
* :func:`graph_depth` — number of levels (nodes on the longest path by hop
  count), matching the generator's "depth of the task graph" parameter.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

from repro.errors import UnknownNodeError, ValidationError
from repro.graph.taskgraph import TaskGraph
from repro.types import NodeId, Time


def longest_path_length(graph: TaskGraph, include_messages: bool = False) -> Time:
    """Execution-time length of the heaviest path in the graph.

    With ``include_messages=True`` each traversed arc also contributes its
    message size (an upper bound on the communication-inclusive critical
    path, matching the CCAA world-view).
    """
    if not len(graph):
        raise ValidationError("longest path of an empty graph")
    return max(_suffix_array(graph, include_messages))


def longest_path(graph: TaskGraph, include_messages: bool = False) -> List[NodeId]:
    """One concrete heaviest path, as a list of node ids.

    Ties are broken deterministically toward lexicographically smaller ids.
    """
    if not len(graph):
        raise ValidationError("longest path of an empty graph")
    index = graph.index()
    suffix = _suffix_array(graph, include_messages)
    ids = index.ids
    # Start at the input node whose suffix weight is maximal.
    start = min(
        (i for i in range(index.n_nodes) if index.in_degree_of(i) == 0),
        key=lambda i: (-suffix[i], ids[i]),
    )
    path = [ids[start]]
    node = start
    indptr, succ, succ_edges = index.succ_indptr, index.succ_ids, index.succ_edges
    messages = index.edge_messages
    while indptr[node] != indptr[node + 1]:
        candidates = []
        for k in range(indptr[node], indptr[node + 1]):
            s = succ[k]
            arc = messages[succ_edges[k]].size if include_messages else 0.0
            candidates.append((-(arc + suffix[s]), ids[s], s))
        # Follow the successor continuing the heaviest suffix.
        _, __, node = min(candidates)
        path.append(ids[node])
    return path


def _suffix_array(graph: TaskGraph, include_messages: bool) -> List[Time]:
    """Per dense node id, the heaviest node-weight (+ optional arc-weight)
    sum of any path starting at that node (inclusive of the node itself)."""
    index = graph.index()
    suffix: List[Time] = [0.0] * index.n_nodes
    indptr, succ, succ_edges = index.succ_indptr, index.succ_ids, index.succ_edges
    messages = index.edge_messages
    subtasks = index.subtasks
    for i in reversed(index.topological_order()):
        best_tail = 0.0
        for k in range(indptr[i], indptr[i + 1]):
            tail = suffix[succ[k]]
            if include_messages:
                tail += messages[succ_edges[k]].size
            if tail > best_tail:
                best_tail = tail
        suffix[i] = subtasks[i].wcet + best_tail
    return suffix


def average_parallelism(graph: TaskGraph) -> float:
    """The paper's ξ: total workload / longest-path execution length.

    ξ = 1 for a pure chain; ξ = n for n independent equal subtasks.
    """
    return graph.total_workload() / longest_path_length(graph)


def graph_depth(graph: TaskGraph) -> int:
    """Number of levels: node count of the longest path by hop count."""
    if not len(graph):
        raise ValidationError("depth of an empty graph")
    return max(graph.index().depths())


def level_of(graph: TaskGraph) -> Dict[NodeId, int]:
    """Level index (1-based) of each node: 1 + longest hop distance from
    any input subtask."""
    index = graph.index()
    depths = index.depths()
    return {n: depths[i] for i, n in enumerate(index.ids)}


def enumerate_paths(
    graph: TaskGraph,
    src: NodeId,
    dst: NodeId,
    limit: Optional[int] = None,
) -> Iterator[List[NodeId]]:
    """Yield every simple path from ``src`` to ``dst``.

    Exhaustive (exponential in the worst case); intended for validation on
    small graphs and for tests. ``limit`` caps the number of yielded paths.
    """
    if src not in graph:
        raise UnknownNodeError(f"subtask {src!r} not in graph")
    if dst not in graph:
        raise UnknownNodeError(f"subtask {dst!r} not in graph")
    count = 0
    stack: List[Tuple[NodeId, List[NodeId]]] = [(src, [src])]
    # Restrict the walk to nodes that can still reach dst.
    can_reach = graph.ancestors(dst) | {dst}
    while stack:
        node, path = stack.pop()
        if node == dst:
            yield path
            count += 1
            if limit is not None and count >= limit:
                return
            continue
        for s in sorted(graph.successors(node), reverse=True):
            if s in can_reach:
                stack.append((s, path + [s]))


def path_execution_time(graph: TaskGraph, path: List[NodeId]) -> Time:
    """Sum of subtask execution times along a path."""
    return sum(graph.node(n).wcet for n in path)


def path_message_volume(graph: TaskGraph, path: List[NodeId]) -> Time:
    """Sum of message sizes along consecutive arcs of a path."""
    return sum(
        graph.message(a, b).size for a, b in zip(path, path[1:])
    )


def is_path(graph: TaskGraph, path: List[NodeId]) -> bool:
    """Whether ``path`` is a non-empty sequence of consecutive arcs."""
    if not path:
        return False
    if any(n not in graph for n in path):
        return False
    return all(graph.has_edge(a, b) for a, b in zip(path, path[1:]))
