"""The deadline-distribution slicing algorithm (paper Figure 1).

:class:`DeadlineDistributor` implements the basic algorithm shared by BST
and AST: repeatedly find the critical path among unassigned (computation
and communication) subtasks, slice its end-to-end window into consecutive
per-subtask windows according to the metric, propagate anchors to the
path's unassigned neighbours, and repeat until every subtask has a window.

The technique is selected by the metric / estimator combination:

* BST  = :class:`~repro.core.metrics.PureLaxityRatio` or
  :class:`~repro.core.metrics.NormalizedLaxityRatio`, either estimator;
* AST  = :class:`~repro.core.metrics.ThresholdLaxityRatio` or
  :class:`~repro.core.metrics.AdaptiveLaxityRatio` with
  :class:`~repro.core.commcost.CCNE` (the paper designs AST around the
  no-communication-cost assumption, its best BST finding).

The convenience constructors :func:`bst` and :func:`ast` encode those
pairings.

A distributor handed a :class:`DistributionMemo` serves a distribution
whose inputs it has already seen from the memo (DESIGN.md §3.2): the
engine shares one memo across the methods of a chunk, so THRES and ADAPT
reuse PURE's windows wherever no subtask reaches their threshold.
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import Dict, List, Optional, Tuple

from repro.core.annotations import DeadlineAssignment, SliceRecord, Window
from repro.core.commcost import CCNE, CommCostEstimator
from repro.core.criticalpath import CriticalPath, find_critical_path_indexed
from repro.core.expanded import ExpandedGraph
from repro.core.metrics import (
    MetricContext,
    NormalizedLaxityRatio,
    PureLaxityRatio,
    SlicingMetric,
    make_metric,
)
from repro.errors import DistributionError
from repro.graph.taskgraph import TaskGraph
from repro.obs import runtime as obs
from repro.obs.metrics import COUNT_BUCKETS
from repro.types import TIME_EPS, Time


class DistributionMemo(dict):
    """Distributions keyed by what determines them, and a hit count.

    A key is ``(expansion, family, clamp_to_anchors, virtual costs)``:
    the slicing loop reads the metric only through its virtual costs,
    ``uses_count``, ``ratio`` and ``relative_deadline``, and the family
    (:func:`slicing_family`) names the last three. The key holds the
    expansion itself, so its identity cannot be recycled while the memo
    lives. Scope one memo to one chunk: hung on the expansion, it would
    live as long as the graph's index does.
    """

    __slots__ = ("hits",)

    def __init__(self) -> None:
        super().__init__()
        #: Distributions served from the memo.
        self.hits = 0

    def forget_sized(self) -> None:
        """Drop the distributions made for a platform (``n_processors``
        set), keeping the size-free ones.

        Call it when a size sweep moves on. ADAPT, the size-dependent
        metric, inflates by ``ξ / N``, so its distribution at one size
        comes back at another only when it inflates nothing, and then it
        is PURE's, which a sweep that also runs PURE holds size-free.
        Held to the end of a chunk, the others only cost garbage
        collection and memory traffic.
        """
        for key in [k for k, a in self.items() if a.n_processors is not None]:
            del self[key]


_FAMILIES = (("PURE", PureLaxityRatio), ("NORM", NormalizedLaxityRatio))


def slicing_family(metric: SlicingMetric) -> Optional[str]:
    """``"PURE"`` or ``"NORM"`` when ``metric`` slices with that class's
    own ``ratio``, ``relative_deadline`` and ``uses_count``, else ``None``.

    THRES and ADAPT are PURE over other virtual costs. A subclass that
    overrides either method may read anything (the node, its own state),
    so two of its distributions with equal virtual costs need not be
    equal: it is never memoized.
    """
    cls = type(metric)
    for family, base in _FAMILIES:
        if (cls.ratio is base.ratio
                and cls.relative_deadline is base.relative_deadline
                and metric.uses_count == base.uses_count):
            return family
    return None


class DeadlineDistributor:
    """Distribute end-to-end deadlines over subtasks before assignment.

    Parameters
    ----------
    metric:
        The laxity-ratio metric (critical-path objective and slack rule).
    estimator:
        Communication-cost estimation strategy; defaults to CCNE, the
        paper's best-performing choice.
    clamp_to_anchors:
        The paper leaves the interaction between a sliced window and
        anchors a node already holds (from earlier slices) unspecified.
        When True (default), windows are clamped into the node's pending
        anchors, which guarantees precedence-consistent windows:
        ``deadline(pred) <= release(succ)`` on every arc. See DESIGN.md §5.
    memo:
        Optional :class:`DistributionMemo`, shared with other
        distributors: a distribution whose expansion, slicing family,
        clamp setting and virtual costs match a stored one is the stored
        one, re-stamped with this distributor's metric and estimator
        names and the platform.

    Over-constrained graphs
    -----------------------
    When an end-to-end budget cannot even hold its path's execution time
    (negative slack), no window set can satisfy precedence consistency,
    release anchors and deadline anchors simultaneously. The clamp resolves
    the conflict in that priority order: windows along the sliced path stay
    precedence-consistent and never release before their anchors, but
    collapsed (zero-width) windows may then slide past a deadline anchor.
    Because an *inherited* deadline anchor encodes precedence toward an
    already-sliced successor, a collapsed window sliding past one surfaces
    as ``deadline(pred) > release(succ)`` on that arc. Such assignments
    show up as ``degenerate_windows`` on the result and as positive
    lateness in the evaluation — they are measurements of infeasibility,
    not errors.
    """

    def __init__(
        self,
        metric: SlicingMetric,
        estimator: Optional[CommCostEstimator] = None,
        clamp_to_anchors: bool = True,
        memo: Optional[DistributionMemo] = None,
    ) -> None:
        self.metric = metric
        self.estimator = estimator if estimator is not None else CCNE()
        self.clamp_to_anchors = clamp_to_anchors
        self.memo = memo

    def distribute(
        self,
        graph: TaskGraph,
        n_processors: Optional[int] = None,
        total_capacity: Optional[float] = None,
    ) -> DeadlineAssignment:
        """Annotate ``graph`` with windows; returns the assignment.

        ``n_processors`` is required by the ADAPT metric and recorded on
        the result either way; ``total_capacity`` (the platform's speed
        sum) additionally feeds the capacity-aware ADAPT variant on
        heterogeneous platforms.

        With a :attr:`memo`, a memoizable distribution (one of the two
        slicing families, over a cached expansion) is looked up once its
        virtual costs are known; a distribution that raises is never
        stored.
        """
        graph.validate()
        expanded = ExpandedGraph.for_graph(graph, self.estimator)
        context = MetricContext(
            graph=graph,
            n_processors=n_processors,
            total_capacity=total_capacity,
        )
        self.metric.prepare(expanded, context)

        n = len(expanded)
        # Per-distribution state, all over dense expanded ids: the
        # unassigned mask, the pending anchors, the metric's virtual costs
        # (computed once — they do not change between slices), and the
        # critical-path DP's states and per-node best candidates, which
        # persist across slices. After a slice only the ids it invalidated
        # are handed to the next search (DESIGN.md §3.2); the first search
        # recomputes every node.
        unassigned = bytearray(b"\x01" * n)
        has_release = bytearray(expanded.has_release)
        release_anchor: List[Time] = list(expanded.release_anchor)
        has_deadline = bytearray(expanded.has_deadline)
        deadline_anchor: List[Time] = list(expanded.deadline_anchor)
        vcost: List[Time] = [
            self.metric.virtual_cost(nd) for nd in expanded.by_index
        ]
        key = None
        memo = self.memo
        if memo is not None and self.estimator.cache_key() is not None:
            family = slicing_family(self.metric)
            if family is not None:
                key = (expanded, family, self.clamp_to_anchors, tuple(vcost))
                stored = memo.get(key)
                if stored is not None:
                    memo.hits += 1
                    return replace(
                        stored,
                        metric_name=self.metric.name,
                        comm_strategy_name=self.estimator.name,
                        n_processors=n_processors,
                    )
        # PURE's relative deadline is the virtual cost plus R, so the
        # PURE family (PURE, THRES, ADAPT) slices from ``vcost``.
        pure_vcost = (
            vcost
            if type(self.metric).relative_deadline
            is PureLaxityRatio.relative_deadline
            else None
        )
        states: list = [None] * n
        best: dict = {}
        mark = bytearray(n)
        ids: List[int] = expanded.topo_indices
        rescore: List[int] = []
        windows: Dict[int, Window] = {}
        slices = []
        left = n
        cells = 0

        while left:
            path = find_critical_path_indexed(
                expanded, self.metric, ids, rescore, states, best,
                has_release, release_anchor,
                has_deadline, deadline_anchor,
                vcost,
            )
            cells += len(ids)
            slices.append(
                SliceRecord(
                    nodes=path.nodes,
                    ratio=path.ratio,
                    release=path.release,
                    deadline=path.deadline,
                )
            )
            self._slice(
                expanded, path,
                has_release, release_anchor,
                has_deadline, deadline_anchor,
                windows, pure_vcost,
            )
            for i in path.indices:
                unassigned[i] = 0
                states[i] = None
                best.pop(i, None)
            left -= len(path.indices)
            ids, rescore = self._propagate_anchors(
                expanded, path.indices, unassigned,
                has_release, release_anchor,
                has_deadline, deadline_anchor,
                windows, mark,
            )

        obs.count("slicer.distributions")
        obs.count("slicer.slices", len(slices))
        obs.count("cp.calls", len(slices))
        obs.count("cp.cells", cells)
        obs.observe(
            "slicer.slices_per_distribution", len(slices),
            buckets=COUNT_BUCKETS,
        )
        assignment = self._build_assignment(
            expanded, windows, slices, n_processors
        )
        if key is not None:
            memo[key] = assignment
        return assignment

    # ------------------------------------------------------------------
    def _slice(
        self,
        expanded: ExpandedGraph,
        path: CriticalPath,
        has_release: bytearray,
        release_anchor: List[Time],
        has_deadline: bytearray,
        deadline_anchor: List[Time],
        windows: Dict[int, Window],
        pure_vcost: Optional[List[Time]] = None,
    ) -> None:
        """Figure 1 step 4: consecutive windows along the critical path.

        ``pure_vcost``, the virtual costs of a metric whose relative
        deadline is PURE's, replaces a ``relative_deadline`` call per
        node with ``pure_vcost[i] + R``, the same float.
        """
        ratio = path.ratio
        clock = path.release
        if pure_vcost is not None:
            relative = [pure_vcost[i] + ratio for i in path.indices]
        else:
            by_index = expanded.by_index
            relative_deadline = self.metric.relative_deadline
            relative = [
                relative_deadline(by_index[i], ratio) for i in path.indices
            ]
        raw = []
        for i, d in zip(path.indices, relative):
            raw.append((i, clock, clock + d))
            clock += d
        # The metric's telescoping property lands the last deadline on the
        # path's end-to-end deadline (up to float error).
        # Relative: the summed deadlines' rounding error grows with them.
        if not math.isclose(
            clock, path.deadline, rel_tol=1e-9, abs_tol=TIME_EPS
        ):
            raise DistributionError(
                f"metric {self.metric.name} broke the telescoping property: "
                f"path ends at {clock}, expected {path.deadline}"
            )
        prev_deadline = path.release
        for i, release, deadline in raw:
            if self.clamp_to_anchors:
                # Keep windows inside the node's pending anchors and after
                # the (possibly clamped) predecessor window, so the edge
                # invariant deadline(pred) <= release(succ) survives. An
                # over-constrained node collapses to a zero-width window.
                if has_release[i] and release_anchor[i] > release:
                    release = release_anchor[i]
                if prev_deadline > release:
                    release = prev_deadline
                if has_deadline[i] and deadline_anchor[i] < deadline:
                    deadline = deadline_anchor[i]
                if release > deadline:
                    deadline = release
                prev_deadline = deadline
            windows[i] = Window(
                release=release,
                absolute_deadline=deadline,
                cost=expanded.costs[i],
            )

    @staticmethod
    def _propagate_anchors(
        expanded: ExpandedGraph,
        sliced_indices,
        unassigned: bytearray,
        has_release: bytearray,
        release_anchor: List[Time],
        has_deadline: bytearray,
        deadline_anchor: List[Time],
        windows: Dict[int, Window],
        mark: bytearray,
    ) -> Tuple[List[int], List[int]]:
        """Figure 1 steps 5–11 (following the prose; see DESIGN.md §5):
        unassigned successors inherit a release anchor, unassigned
        predecessors inherit a deadline anchor.

        Returns what the slice invalidated in the critical-path search
        (DESIGN.md §3.2): the forward closure, over unassigned nodes, of
        the path's unassigned successors in topological order (their
        states are recomputed), and the predecessors whose deadline
        anchor moved (their candidates are re-scored). ``mark`` is a
        zeroed scratch mask over topological positions and is left
        zeroed.
        """
        succ_lists = expanded.succ_lists
        pred_lists = expanded.pred_lists
        topo_pos = expanded.topo_pos
        rescore: List[int] = []
        for i in sliced_indices:
            w = windows[i]
            for s in succ_lists[i]:
                if unassigned[s]:
                    if not has_release[s] or (
                        w.absolute_deadline > release_anchor[s]
                    ):
                        has_release[s] = 1
                        release_anchor[s] = w.absolute_deadline
                    mark[topo_pos[s]] = 1
            for p in pred_lists[i]:
                if unassigned[p] and (
                    not has_deadline[p] or w.release < deadline_anchor[p]
                ):
                    has_deadline[p] = 1
                    deadline_anchor[p] = w.release
                    rescore.append(p)
        # Successors sit at later positions, so one forward scan over the
        # marks visits the closure in topological order, no sort needed.
        topo = expanded.topo_indices
        closure: List[int] = []
        pos = mark.find(1)
        while pos >= 0:
            i = topo[pos]
            closure.append(i)
            for s in succ_lists[i]:
                if unassigned[s]:
                    mark[topo_pos[s]] = 1
            mark[pos] = 0
            pos = mark.find(1, pos + 1)
        return closure, rescore

    def _build_assignment(
        self,
        expanded: ExpandedGraph,
        windows: Dict[int, Window],
        slices,
        n_processors: Optional[int],
    ) -> DeadlineAssignment:
        task_windows = {}
        message_windows = {}
        by_index = expanded.by_index
        for i, window in windows.items():
            node = by_index[i]
            if node.is_task:
                task_windows[node.task_id] = window
            else:
                message_windows[node.edge] = window
        return DeadlineAssignment(
            graph=expanded.graph,
            metric_name=self.metric.name,
            comm_strategy_name=self.estimator.name,
            windows=task_windows,
            message_windows=message_windows,
            slices=list(slices),
            n_processors=n_processors,
        )


def bst(
    metric: str = "PURE",
    comm: str = "CCNE",
    cost_per_item: Time = 1.0,
    **metric_kwargs,
) -> DeadlineDistributor:
    """The Basic Slicing Technique: NORM or PURE with a named estimator."""
    from repro.core.commcost import make_estimator

    return DeadlineDistributor(
        metric=make_metric(metric, **metric_kwargs),
        estimator=make_estimator(comm, cost_per_item=cost_per_item),
    )


def ast(
    metric: str = "ADAPT",
    cost_per_item: Time = 1.0,
    **metric_kwargs,
) -> DeadlineDistributor:
    """The Adaptive Slicing Technique: THRES or ADAPT over CCNE.

    Remember to pass ``n_processors`` to :meth:`DeadlineDistributor.distribute`
    when using ADAPT.
    """
    if metric.upper() not in ("THRES", "ADAPT"):
        raise DistributionError(
            f"AST uses the THRES or ADAPT metric, not {metric!r}"
        )
    return DeadlineDistributor(
        metric=make_metric(metric, **metric_kwargs),
        estimator=CCNE(cost_per_item=cost_per_item),
    )
