"""Vectorized batch deadline distribution (ROADMAP item: batch kernel).

Paper-scale sweeps run the distribute phase — critical-path DP plus
slicing — over thousands of generated graphs, one interpreter-driven
graph at a time. This module amortizes that overhead: many distribution
problems are *packed* into concatenated flat arrays (one CSR-style node
block per problem, with per-problem offsets, mirroring the layout of
:class:`~repro.graph.indexed.GraphIndex`) and every slicing iteration
runs one numpy dynamic program across all still-active problems in
lockstep.

Bit-identity contract
---------------------
For every supported problem the kernel reproduces the scalar pipeline
(:class:`~repro.core.slicer.DeadlineDistributor`) **bit-for-bit** — not
within :data:`repro.types.TIME_EPS`, but exactly:

* the DP performs the same IEEE-754 operations in the same order per
  state (``cost = pred_cost + vc`` then ``val = pred_release + cost``;
  ratio ``((deadline - release) - cost) / count``), so every float is
  the same bits as the scalar left-fold;
* per (node, count) the scalar keeps the *first* state attaining the
  maximum ``release + cost`` (self-anchor before predecessors,
  predecessors in adjacency order).  The kernel reproduces that
  first-seen-wins order with strict-improvement updates applied
  per predecessor slot in the same adjacency order;
* the critical path is the minimum of the total order (ratio, count,
  lexicographic id sequence) — a true minimum, so vectorized reduction
  order cannot change the winner; ties compare exact float equality,
  never an epsilon;
* slicing, clamping and anchor propagation reuse the scalar arithmetic
  verbatim (they are O(path length) and stay in Python).

``numpy.float64`` and Python ``float`` are both IEEE-754 binary64, so
values cross the boundary losslessly; every value stored on a
:class:`~repro.core.annotations.Window` or
:class:`~repro.core.annotations.SliceRecord` is converted back to a
built-in ``float`` (bit-exact) to keep results JSON-serializable.

Supported problems & scalar fallback
------------------------------------
The dense (node × count) DP table is exact only for metrics whose ratio
depends on a path through ``release + Σc'`` and the node count — the
PURE family (PURE / THRES / ADAPT).  :func:`fallback_reason` spells out
the rule; :func:`distribute_many` transparently routes unsupported
requests (NORM's Pareto-frontier DP, related-work baselines, custom
metric/distributor subclasses) through the scalar path, so callers can
hand over any request mix.  See EXTENDING.md.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.annotations import DeadlineAssignment, SliceRecord, Window
from repro.core.expanded import ExpandedGraph
from repro.core.metrics import (
    MetricContext,
    PureLaxityRatio,
    SlicingMetric,
    ThresholdLaxityRatio,
)
from repro.core.slicer import DeadlineDistributor
from repro.errors import DistributionError
from repro.graph.taskgraph import TaskGraph
from repro.obs import runtime as obs
from repro.obs.metrics import COUNT_BUCKETS
from repro.types import TIME_EPS

#: Cap on ``total nodes × (max level + 1)`` cells per pack; packs beyond
#: it are split so the DP tables stay comfortably in memory (~130 MB of
#: float64 at the default).
DEFAULT_MAX_CELLS = 2_000_000


@dataclass(frozen=True)
class DistributeRequest:
    """One deadline-distribution problem for :func:`distribute_many`.

    Mirrors one ``distributor.distribute(graph, n_processors=...,
    total_capacity=...)`` call; ``None`` platform arguments mean the
    scalar call would omit them (the runner's size-independent reuse
    path distributes with no platform and re-stamps later).
    """

    graph: TaskGraph
    distributor: object
    n_processors: Optional[int] = None
    total_capacity: Optional[float] = None


def fallback_reason(distributor) -> Optional[str]:
    """Why ``distributor`` must take the scalar path (``None`` = batchable).

    The kernel's per-(node, count) DP is exact only for the PURE family,
    and the lockstep slicer re-implements ``DeadlineDistributor``'s
    arithmetic — so both the distributor class and the metric hooks must
    be the known ones. Anything else (NORM, baselines, user subclasses)
    is handled by the scalar pipeline instead; see EXTENDING.md.
    """
    if type(distributor) is not DeadlineDistributor:
        return (
            f"distributor {type(distributor).__name__} is not the plain "
            "DeadlineDistributor"
        )
    metric = distributor.metric
    cls = type(metric)
    if not getattr(metric, "uses_count", False):
        return f"metric {metric.name} does not use path counts (NORM family)"
    if cls.ratio is not PureLaxityRatio.ratio:
        return f"metric {metric.name} overrides ratio()"
    if cls.relative_deadline is not PureLaxityRatio.relative_deadline:
        return f"metric {metric.name} overrides relative_deadline()"
    if cls.virtual_cost not in (
        SlicingMetric.virtual_cost,
        ThresholdLaxityRatio.virtual_cost,
    ):
        return f"metric {metric.name} overrides virtual_cost()"
    return None


# ----------------------------------------------------------------------
# Per-expansion static view (cached on the ExpandedGraph instance)
# ----------------------------------------------------------------------
class _GraphView:
    """Flat numpy image of one expansion's structure.

    Built once per :class:`ExpandedGraph` and cached on it, so the view
    inherits the expansion's invalidation story: structural mutation
    recompiles the :class:`~repro.graph.indexed.GraphIndex`, attribute
    mutation changes the index's value fingerprint — either way a fresh
    expansion (hence a fresh view) is built. Levels are 1-based longest
    path lengths from the sources; ``pred_slot[k, i]`` is node ``i``'s
    k-th predecessor in adjacency order (-1 past the in-degree), which
    is what lets the DP replay the scalar merge order.
    """

    __slots__ = (
        "n", "levels", "max_level", "pred_slot", "costs", "is_task",
        "has_release", "release_anchor", "has_deadline", "deadline_anchor",
    )

    def __init__(self, expanded: ExpandedGraph) -> None:
        n = len(expanded.by_index)
        pred_lists = expanded.pred_lists
        levels = [0] * n
        for i in expanded.topo_indices:
            preds = pred_lists[i]
            levels[i] = 1 + max((levels[p] for p in preds), default=0)
        self.n = n
        self.levels = np.asarray(levels, dtype=np.intp)
        self.max_level = int(self.levels.max()) if n else 0
        maxdeg = max((len(p) for p in pred_lists), default=0)
        slot = np.full((maxdeg, n), -1, dtype=np.intp)
        for i, preds in enumerate(pred_lists):
            for k, p in enumerate(preds):
                slot[k, i] = p
        self.pred_slot = slot
        self.costs = np.asarray(expanded.costs, dtype=np.float64)
        self.is_task = np.fromiter(
            (nd.is_task for nd in expanded.by_index), dtype=bool, count=n
        )
        self.has_release = np.frombuffer(
            bytes(expanded.has_release), dtype=np.uint8
        ).astype(bool)
        self.release_anchor = np.asarray(
            expanded.release_anchor, dtype=np.float64
        )
        self.has_deadline = np.frombuffer(
            bytes(expanded.has_deadline), dtype=np.uint8
        ).astype(bool)
        self.deadline_anchor = np.asarray(
            expanded.deadline_anchor, dtype=np.float64
        )


def graph_view(expanded: ExpandedGraph) -> _GraphView:
    """The (cached) flat view of one expansion."""
    view = getattr(expanded, "_batch_view", None)
    if view is None:
        view = _GraphView(expanded)
        expanded._batch_view = view
        obs.count("batch.views_built")
    return view


def _virtual_costs(metric: SlicingMetric, view: _GraphView) -> np.ndarray:
    """Vectorized ``metric.virtual_cost`` over one expansion.

    Bit-identical to the scalar calls: THRES/ADAPT inflate a task cost
    with the same single multiply ``cost * (1.0 + surplus)`` and the
    same threshold comparison; every other supported metric attributes
    the plain cost. ``metric.prepare`` must already have run.
    """
    if isinstance(metric, ThresholdLaxityRatio):
        threshold = metric.effective_threshold
        surplus = metric.effective_surplus
        inflate = view.is_task & (view.costs >= threshold)
        return np.where(inflate, view.costs * (1.0 + surplus), view.costs)
    return view.costs


# ----------------------------------------------------------------------
# One prepared problem and one pack of problems
# ----------------------------------------------------------------------
class _Problem:
    __slots__ = (
        "request", "expanded", "view", "vcost", "metric_name",
        "estimator_name", "clamp", "windows", "slices",
    )

    def __init__(self, request: DistributeRequest) -> None:
        distributor = request.distributor
        graph = request.graph
        graph.validate()
        self.request = request
        self.expanded = ExpandedGraph.for_graph(graph, distributor.estimator)
        self.view = graph_view(self.expanded)
        context = MetricContext(
            graph=graph,
            n_processors=request.n_processors,
            total_capacity=request.total_capacity,
        )
        # prepare() then the immediate virtual-cost snapshot make shared
        # metric instances safe across a pack: nothing later reads the
        # metric's mutable state (the PURE-family ratio is stateless).
        distributor.metric.prepare(self.expanded, context)
        self.vcost = _virtual_costs(distributor.metric, self.view)
        self.metric_name = distributor.metric.name
        self.estimator_name = distributor.estimator.name
        self.clamp = distributor.clamp_to_anchors
        #: node -> (release, absolute_deadline); Window objects are only
        #: materialized in _build_assignment, off the per-slice hot loop.
        self.windows: Dict[int, Tuple[float, float]] = {}
        self.slices: List[SliceRecord] = []

    @property
    def cells(self) -> int:
        return self.view.n * (self.view.max_level + 1)


class _Pack:
    """Concatenated arrays + lockstep DP/slicing over many problems.

    Layout: problem ``p`` owns the contiguous node rows
    ``off[p] : off[p + 1]`` of every per-node array (anchors, virtual
    costs, predecessor slots, DP tables), exactly the node-offset CSR
    convention of :class:`~repro.graph.indexed.GraphIndex`. Each call to
    :meth:`run` executes the shared slicing loop: one vectorized
    critical-path DP over all still-active problems per iteration, then
    per-problem Python slicing along the (short) chosen paths.
    """

    def __init__(self, problems: List[_Problem]) -> None:
        self.problems = problems
        views = [p.view for p in problems]
        counts = np.array([v.n for v in views], dtype=np.intp)
        self.off = np.concatenate(([0], np.cumsum(counts)))
        self.n_nodes = int(self.off[-1])
        self.prob_of = np.repeat(np.arange(len(problems)), counts)
        self.max_level = max(v.max_level for v in views)
        self.maxdeg = max(v.pred_slot.shape[0] for v in views)

        level = np.concatenate([v.levels for v in views])
        slot_blocks = []
        for v, off in zip(views, self.off):
            block = np.full((self.maxdeg, v.n), -1, dtype=np.intp)
            k = v.pred_slot.shape[0]
            if k:
                block[:k] = np.where(
                    v.pred_slot >= 0, v.pred_slot + off, -1
                )
            slot_blocks.append(block)
        self.pred_slot = (
            np.concatenate(slot_blocks, axis=1)
            if slot_blocks else np.empty((0, 0), dtype=np.intp)
        )
        self.indeg = (self.pred_slot >= 0).sum(axis=0)
        order = np.argsort(level, kind="stable")
        bounds = np.searchsorted(
            level[order], np.arange(1, self.max_level + 2)
        )
        self.level_nodes = [
            order[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:])
        ]
        self.node_level = level
        self.vc = np.concatenate([p.vcost for p in problems])
        #: Python-float mirror for the slicing loop (bit-exact).
        self.vc_f = self.vc.tolist()
        # Mutable anchor state, seeded from the static application anchors.
        self.has_release = np.concatenate([v.has_release for v in views])
        self.release_anchor = np.concatenate(
            [v.release_anchor for v in views]
        )
        self.has_deadline = np.concatenate([v.has_deadline for v in views])
        self.deadline_anchor = np.concatenate(
            [v.deadline_anchor for v in views]
        )
        self.remaining = np.ones(self.n_nodes, dtype=bool)
        self.n_rem = counts.copy()
        # Python-list mirrors of the mutable per-node state, kept in
        # lockstep with the arrays by _apply_slice. The slicing loops
        # are scalar Python; reading numpy scalars there costs ~5x a
        # list read, while the vector passes keep using the arrays.
        self.remaining_l = [True] * self.n_nodes
        self.has_release_l = self.has_release.tolist()
        self.release_anchor_l = self.release_anchor.tolist()
        self.has_deadline_l = self.has_deadline.tolist()
        self.deadline_anchor_l = self.deadline_anchor.tolist()

        # DP tables over (node, path length): best state per cell keeps
        # the maximum release + cost, exactly the scalar by_count slots.
        width = self.max_level + 1
        self.val = np.full((self.n_nodes, width), -np.inf)
        self.rel = np.zeros((self.n_nodes, width))
        self.cst = np.zeros((self.n_nodes, width))
        self.par = np.full((self.n_nodes, width), -2, dtype=np.intp)
        self.valid = np.zeros((self.n_nodes, width), dtype=bool)
        counts_div = np.arange(width, dtype=np.float64)
        counts_div[0] = 1.0  # column 0 is unused; avoid 0-division noise
        self.counts_div = counts_div
        self.dp_width = width
        self.total_slices = 0
        # Incremental-DP bookkeeping: nodes whose DP states may have
        # changed since the last _dp (removed path nodes and nodes whose
        # release anchor moved), and the shallowest level among them.
        self.affected = np.ones(self.n_nodes, dtype=bool)
        self.min_aff_level = 1
        # Incremental candidate cache: per-node minimum ratio over its
        # valid DP states, recomputed only for nodes whose states or
        # deadline anchor moved since the last _candidates pass.
        self.row_min = np.full(self.n_nodes, np.inf)
        self.cand_dirty = np.ones(self.n_nodes, dtype=bool)

    # ------------------------------------------------------------------
    def run(self) -> List[DeadlineAssignment]:
        active = [p for p in range(len(self.problems)) if self.n_rem[p]]
        iterations = 0
        while active:
            iterations += 1
            self._dp()
            candidates = self._candidates()
            for p in active:
                chosen = candidates.get(p)
                if chosen is None:
                    raise DistributionError(
                        "no candidate path between anchors; anchor "
                        "bookkeeping is corrupt"
                    )
                self._apply_slice(p, *chosen)
            active = [p for p in active if self.n_rem[p]]
        obs.count("batch.dp_iterations", iterations)
        obs.count("batch.slices", self.total_slices)
        results = []
        for p, problem in enumerate(self.problems):
            obs.count("slicer.distributions")
            obs.count("slicer.slices", len(problem.slices))
            obs.observe(
                "slicer.slices_per_distribution", len(problem.slices),
                buckets=COUNT_BUCKETS,
            )
            results.append(self._build_assignment(p))
        return results

    # ------------------------------------------------------------------
    def _dp(self) -> None:
        """One critical-path DP over every remaining node of every
        active problem — the vectorized image of
        :func:`~repro.core.criticalpath.find_critical_path_indexed`.

        Levels run in ascending order (every predecessor sits at a
        strictly lower level), each node belongs to exactly one level,
        and path length 1 (the self-anchor) cannot collide with pred
        candidates (lengths >= 2) — so per level the whole merge is one
        reduction over the predecessor-slot axis. ``argmax`` returns the
        *first* slot attaining the maximum, which under exact float
        equality is precisely the scalar merge's first-seen-wins rule
        (self-anchor seeded first, predecessors in adjacency order).

        The DP is *incremental*, by the invalidation argument of
        DESIGN.md §3.2: tables persist across slicing iterations, and a
        node is recomputed iff it was seeded as affected by
        :meth:`_apply_slice` (removed, or release anchor moved) or any
        predecessor was recomputed this round. Removed nodes' valid bits
        are cleared, so influence never flows through them. Levels
        shallower than every seed are skipped outright."""
        val, rel, cst, par, valid = (
            self.val, self.rel, self.cst, self.par, self.valid
        )
        remaining = self.remaining
        aff = self.affected
        # Longest currently-valid path: bounds the count columns each
        # level must read/write. Persisted states are included via a
        # whole-table scan; the bound then grows as levels add states.
        cols = np.flatnonzero(valid.any(axis=0))
        cur_max = int(cols[-1]) if cols.size else 0
        start_lvl = self.min_aff_level
        for lvl, nodes in enumerate(self.level_nodes, start=1):
            if lvl < start_lvl:
                continue  # no seed this shallow: states persist as-is
            idx = nodes[remaining[nodes]]
            if not idx.size:
                continue
            preds = present = None
            if lvl >= 2:
                # Predecessor slots trimmed to the level's maximum
                # in-degree; -1 (absent) slots are masked via `present`
                # everywhere they are read.
                n_slots = int(self.indeg[idx].max())
                preds = self.pred_slot[:n_slots, idx]
                present = preds >= 0
                pred_aff = (aff[preds] & present).any(axis=0)
                sub_mask = aff[idx] | pred_aff
            else:
                sub_mask = aff[idx]
            if not sub_mask.any():
                continue
            sub = idx[sub_mask]
            aff[sub] = True  # propagate to deeper levels
            self.cand_dirty[sub] = True
            valid[sub] = False
            vc_sub = self.vc[sub]
            anchored = self.has_release[sub]
            rows = sub[anchored]
            if rows.size:
                anchor = self.release_anchor[rows]
                rel[rows, 1] = anchor
                cst[rows, 1] = vc_sub[anchored]
                val[rows, 1] = anchor + vc_sub[anchored]
                par[rows, 1] = -1
                valid[rows, 1] = True
                cur_max = max(cur_max, 1)
            if lvl == 1 or cur_max == 0:
                continue
            hi = min(lvl, cur_max + 1)
            preds_s = preds[:, sub_mask]
            present_s = present[:, sub_mask]
            preds_c = np.where(present_s, preds_s, 0)
            s_valid = valid[preds_c, 1:hi] & present_s[:, :, None]
            if not s_valid.any():
                continue
            s_rel = rel[preds_c, 1:hi]
            # Scalar op order per candidate: cost = pred.cost + vc, then
            # val = pred.release + cost.
            c_cst = cst[preds_c, 1:hi] + vc_sub[None, :, None]
            c_val = np.where(s_valid, s_rel + c_cst, -np.inf)
            best = c_val.max(axis=0)
            has = best > -np.inf
            winner = c_val.argmax(axis=0)
            sel = winner[None]
            w_rel = np.take_along_axis(s_rel, sel, axis=0)[0]
            w_cst = np.take_along_axis(c_cst, sel, axis=0)[0]
            w_par = preds_c[winner, np.arange(sub.size)[:, None]]
            val[sub, 2:hi + 1] = best
            rel[sub, 2:hi + 1] = np.where(has, w_rel, 0.0)
            cst[sub, 2:hi + 1] = np.where(has, w_cst, 0.0)
            par[sub, 2:hi + 1] = np.where(has, w_par, -2)
            valid[sub, 2:hi + 1] = has
            reached = np.flatnonzero(has.any(axis=0))
            if reached.size:
                cur_max = max(cur_max, int(reached[-1]) + 2)
        # Columns beyond this hold stale values from earlier iterations;
        # their valid bits are False, and every consumer masks on valid.
        self.dp_width = cur_max + 1
        aff[:] = False
        self.min_aff_level = self.max_level + 1  # until new seeds arrive

    def _candidates(self) -> Dict[int, Tuple[int, int, float]]:
        """Per active problem, the best (node, count, ratio) candidate
        under the scalar total order (ratio, count, lexicographic id
        sequence). Ratio ties use exact float equality, never an
        epsilon."""
        width = self.dp_width
        anchored_mask = self.has_deadline & self.remaining
        dirty = np.flatnonzero(self.cand_dirty & anchored_mask)
        if dirty.size:
            cell_valid = self.valid[dirty, :width]
            # Scalar op order: end_to_end = deadline - release, then
            # (end_to_end - cost) / count.
            e2e = (
                self.deadline_anchor[dirty][:, None]
                - self.rel[dirty, :width]
            )
            ratio = (
                (e2e - self.cst[dirty, :width]) / self.counts_div[:width]
            )
            self.row_min[dirty] = np.where(
                cell_valid, ratio, np.inf
            ).min(axis=1)
        self.cand_dirty[:] = False
        row_min = np.where(anchored_mask, self.row_min, np.inf)
        # Problems own contiguous node rows, so per-problem minima are
        # one reduceat over the node-offset boundaries (every problem
        # has at least one node).
        group_min = np.minimum.reduceat(row_min, self.off[:-1])
        hits = np.flatnonzero(
            np.isfinite(row_min) & (row_min == group_min[self.prob_of])
        )
        ties: Dict[int, List[Tuple[int, int]]] = {}
        valid_h = self.valid[hits, :width]
        e2e_h = self.deadline_anchor[hits][:, None] - self.rel[hits, :width]
        ratio_h = (
            (e2e_h - self.cst[hits, :width]) / self.counts_div[:width]
        )
        ratio_h = np.where(valid_h, ratio_h, np.inf)
        prob_h = self.prob_of[hits]
        for r in range(hits.size):
            p = int(prob_h[r])
            for c in np.nonzero(ratio_h[r] == group_min[p])[0]:
                ties.setdefault(p, []).append((int(hits[r]), int(c)))
        chosen: Dict[int, Tuple[int, int, float]] = {}
        for p, cands in ties.items():
            best = self._break_ties(p, cands)
            chosen[p] = (best[0], best[1], group_min[p])
        return chosen

    def _break_ties(
        self, p: int, cands: List[Tuple[int, int]]
    ) -> Tuple[int, int]:
        if len(cands) == 1:
            return cands[0]
        min_count = min(c for _, c in cands)
        cands = [gc for gc in cands if gc[1] == min_count]
        if len(cands) == 1:
            return cands[0]
        off = int(self.off[p])
        lex_rank = self.problems[p].expanded.lex_rank
        return min(
            cands,
            key=lambda gc: [
                lex_rank[j - off] for j in self._walk(gc[0], gc[1])
            ],
        )

    def _walk(self, node: int, count: int) -> List[int]:
        """Reconstruct a DP state's path (global ids, source first)."""
        seq = []
        while node != -1:
            seq.append(node)
            node = int(self.par[node, count])
            count -= 1
        seq.reverse()
        return seq

    # ------------------------------------------------------------------
    def _apply_slice(self, p: int, node: int, count: int, ratio) -> None:
        """Slice problem ``p`` along its critical path and propagate
        anchors — the scalar ``_slice`` / ``_propagate_anchors``
        arithmetic on the packed arrays."""
        problem = self.problems[p]
        off = int(self.off[p])
        expanded = problem.expanded
        indices = self._walk(node, count)
        # Pull everything into Python floats up front: the per-path loops
        # below are scalar, and float arithmetic on numpy scalars would
        # pay ufunc dispatch per op (the values are bit-identical either
        # way — float() of a float64 is exact).
        release = float(self.rel[node, count])
        deadline = self.deadline_anchor_l[node]
        ratio = float(ratio)
        problem.slices.append(
            SliceRecord(
                nodes=tuple(expanded.eids[j - off] for j in indices),
                ratio=ratio,
                release=release,
                deadline=deadline,
            )
        )
        vc_f = self.vc_f
        clock = release
        raw = []
        for j in indices:
            d = vc_f[j] + ratio
            nxt = clock + d
            raw.append((j, clock, nxt))
            clock = nxt
        if not math.isclose(clock, deadline, rel_tol=1e-9, abs_tol=TIME_EPS):
            raise DistributionError(
                f"metric {problem.metric_name} broke the telescoping "
                f"property: path ends at {clock}, expected {deadline}"
            )
        windows = problem.windows
        has_release = self.has_release_l
        release_anchor = self.release_anchor_l
        has_deadline = self.has_deadline_l
        deadline_anchor = self.deadline_anchor_l
        remaining = self.remaining_l
        placed = []
        prev_deadline = release
        if problem.clamp:
            for j, w_release, w_deadline in raw:
                if has_release[j]:
                    anchor = release_anchor[j]
                    if anchor > w_release:
                        w_release = anchor
                if prev_deadline > w_release:
                    w_release = prev_deadline
                if has_deadline[j]:
                    anchor = deadline_anchor[j]
                    if anchor < w_deadline:
                        w_deadline = anchor
                if w_release > w_deadline:
                    w_deadline = w_release
                prev_deadline = w_deadline
                windows[j] = (w_release, w_deadline)
                placed.append((j, w_release, w_deadline))
        else:
            for j, w_release, w_deadline in raw:
                windows[j] = (w_release, w_deadline)
                placed.append((j, w_release, w_deadline))
        aff = self.affected
        remaining_a = self.remaining
        for j in indices:
            remaining[j] = False
            remaining_a[j] = False
            aff[j] = True
        self.valid[np.asarray(indices, dtype=np.intp)] = False
        # Path nodes ascend levels, so the path head is the shallowest
        # seed; anchor updates below only touch deeper nodes (succs) or
        # nodes the DP never reads deadline anchors for (preds).
        self.min_aff_level = min(
            self.min_aff_level, int(self.node_level[indices[0]])
        )
        self.n_rem[p] -= len(indices)
        succ_lists = expanded.succ_lists
        pred_lists = expanded.pred_lists
        has_release_a = self.has_release
        release_anchor_a = self.release_anchor
        has_deadline_a = self.has_deadline
        deadline_anchor_a = self.deadline_anchor
        cand_dirty = self.cand_dirty
        for j, w_release, w_deadline in placed:
            local = j - off
            for s in succ_lists[local]:
                g = s + off
                if remaining[g] and (
                    not has_release[g]
                    or w_deadline > release_anchor[g]
                ):
                    has_release[g] = True
                    release_anchor[g] = w_deadline
                    has_release_a[g] = True
                    release_anchor_a[g] = w_deadline
                    aff[g] = True
            for q in pred_lists[local]:
                g = q + off
                if remaining[g] and (
                    not has_deadline[g]
                    or w_release < deadline_anchor[g]
                ):
                    has_deadline[g] = True
                    deadline_anchor[g] = w_release
                    has_deadline_a[g] = True
                    deadline_anchor_a[g] = w_release
                    cand_dirty[g] = True
        self.total_slices += 1

    def _build_assignment(self, p: int) -> DeadlineAssignment:
        problem = self.problems[p]
        off = int(self.off[p])
        by_index = problem.expanded.by_index
        costs = problem.expanded.costs
        task_windows = {}
        message_windows = {}
        for j, (w_release, w_deadline) in problem.windows.items():
            local = j - off
            enode = by_index[local]
            window = Window(
                release=w_release,
                absolute_deadline=w_deadline,
                cost=costs[local],
            )
            if enode.is_task:
                task_windows[enode.task_id] = window
            else:
                message_windows[enode.edge] = window
        return DeadlineAssignment(
            graph=problem.expanded.graph,
            metric_name=problem.metric_name,
            comm_strategy_name=problem.estimator_name,
            windows=task_windows,
            message_windows=message_windows,
            slices=list(problem.slices),
            n_processors=problem.request.n_processors,
        )


# ----------------------------------------------------------------------
# Public API
# ----------------------------------------------------------------------
def distribute_many(
    requests: Sequence[DistributeRequest],
    max_cells: int = DEFAULT_MAX_CELLS,
) -> List[DeadlineAssignment]:
    """Distribute every request, batching all kernel-supported ones.

    Returns one :class:`DeadlineAssignment` per request, in request
    order. Supported requests (see :func:`fallback_reason`) are packed
    and evaluated by the vectorized kernel; the rest run through their
    own distributor's scalar path. Either way each result is exactly
    what ``request.distributor.distribute(...)`` returns.
    """
    results: List[Optional[DeadlineAssignment]] = [None] * len(requests)
    batchable: List[Tuple[int, DistributeRequest]] = []
    for i, request in enumerate(requests):
        reason = fallback_reason(request.distributor)
        if reason is None:
            batchable.append((i, request))
        else:
            obs.count("batch.fallbacks")
            results[i] = _scalar_distribute(request)
    if batchable:
        obs.count("batch.requests", len(batchable))
        pack_slots: List[int] = []
        pack_problems: List[_Problem] = []
        total_nodes = 0
        max_level = 0

        def flush() -> None:
            nonlocal total_nodes, max_level
            if not pack_problems:
                return
            obs.count("batch.packs")
            for slot, assignment in zip(
                pack_slots, _Pack(pack_problems).run()
            ):
                results[slot] = assignment
            pack_slots.clear()
            pack_problems.clear()
            total_nodes = 0
            max_level = 0

        for i, request in batchable:
            problem = _Problem(request)
            depth = max(max_level, problem.view.max_level)
            if pack_problems and (
                (total_nodes + problem.view.n) * (depth + 1) > max_cells
            ):
                flush()
                depth = problem.view.max_level
            pack_slots.append(i)
            pack_problems.append(problem)
            total_nodes += problem.view.n
            max_level = depth
        flush()
    return results  # type: ignore[return-value]


def batch_distribute(
    distributor,
    graphs: Sequence[TaskGraph],
    n_processors: Optional[int] = None,
    total_capacity: Optional[float] = None,
    max_cells: int = DEFAULT_MAX_CELLS,
) -> List[DeadlineAssignment]:
    """Distribute one strategy over many graphs in a single call.

    Convenience wrapper over :func:`distribute_many`: every graph gets
    the same distributor and platform arguments, results are returned in
    graph order and match ``distributor.distribute(graph, ...)``
    bit-for-bit (or exactly, via the scalar fallback, when the
    distributor is unsupported).
    """
    return distribute_many(
        [
            DistributeRequest(
                graph=graph,
                distributor=distributor,
                n_processors=n_processors,
                total_capacity=total_capacity,
            )
            for graph in graphs
        ],
        max_cells=max_cells,
    )


def _scalar_distribute(request: DistributeRequest) -> DeadlineAssignment:
    """Run one request through its distributor's own scalar path."""
    kwargs = {}
    if request.n_processors is not None:
        kwargs["n_processors"] = request.n_processors
    if request.total_capacity is not None:
        kwargs["total_capacity"] = request.total_capacity
    return request.distributor.distribute(request.graph, **kwargs)
