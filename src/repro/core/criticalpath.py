"""Critical-path search for the slicing algorithm (paper Figure 1, step 3).

A *candidate path* runs through unassigned expanded-graph nodes from a
release-anchored node to a deadline-anchored node; the critical path is the
candidate minimizing the slicing metric R. The paper finds it with a
breadth-first traversal; we use an equivalent dynamic program over the
topological order that is exact for the paper's metrics:

* PURE-family metrics (``uses_count = True``) depend on a path only through
  ``release + Σc'`` and the node count, so per (node, count) a single best
  state — maximum ``release + Σc'`` — suffices.
* NORM (``uses_count = False``) depends on ``release`` and ``Σc``
  separately; per node we keep the Pareto frontier over (release, Σc),
  larger-is-better in both coordinates. The dominance argument is exact
  whenever candidate end-to-end windows are non-negative; with negative
  windows (over-constrained sub-problems) the pruning may return a
  near-critical path, which only affects already-infeasible cases.

Ties between equal-R candidates are broken deterministically (the paper
breaks them arbitrarily): by fewer nodes, then by the path's id sequence,
compared through the expansion's precomputed lexicographic ranks.

The search is incremental across slicing iterations. The slicer owns the
DP states (one list per dense id) and each deadline-anchored node's best
candidate (a dict), and hands :func:`find_critical_path_indexed` only the
ids a slice invalidated: the forward closure of the sliced path's
unassigned successors, plus the predecessors whose deadline anchor moved
(re-scored, not recomputed). The first call of a distribution recomputes
every node. Why that is exact is argued once, in DESIGN.md §3.2.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.expanded import ExpandedGraph
from repro.core.metrics import SlicingMetric
from repro.errors import DistributionError
from repro.types import Time


@dataclass(frozen=True)
class CriticalPath:
    """The outcome of one critical-path search."""

    nodes: Tuple[str, ...]
    ratio: float
    release: Time
    deadline: Time
    #: Dense expanded-graph ids of ``nodes`` (same order); empty when the
    #: path was built outside the indexed search.
    indices: Tuple[int, ...] = field(default=(), compare=False)

    @property
    def end_to_end(self) -> Time:
        return self.deadline - self.release

    def __len__(self) -> int:
        return len(self.nodes)


# A partial path ending at a node is a plain tuple
#   (release, cost, count, node, parent)
# with ``parent`` the predecessor state tuple (or None); tuples keep the
# inner DP loop allocation-light. ``_state_path`` rebuilds the node-id
# sequence by walking the parent chain.
_State = tuple

# A node's best candidate is the tuple (ratio, count, state).
_Candidate = tuple

_BY_RELEASE = itemgetter(0)
_BY_COST = itemgetter(1)


def _state_path(state) -> Tuple[int, ...]:
    nodes: List[int] = []
    while state is not None:
        nodes.append(state[3])
        state = state[4]
    return tuple(reversed(nodes))


def _lex_less(a: _State, b: _State, lex_rank: List[int]) -> bool:
    """Whether ``a``'s path id-sequence sorts before ``b``'s."""
    return (
        [lex_rank[j] for j in _state_path(a)]
        < [lex_rank[j] for j in _state_path(b)]
    )


def _min_candidate(candidates, lex_rank: List[int]) -> Optional[_Candidate]:
    """The minimum of (ratio, count, state) candidates under the total
    order (ratio, count, path id-sequence). Equal ratio, count and
    sequence mean the same path, so the visiting order cannot change the
    winner."""
    best = None
    for cand in candidates:
        if best is None or cand[0] < best[0]:
            best = cand
        elif cand[0] == best[0] and (
            cand[1] < best[1]
            or cand[1] == best[1] and _lex_less(cand[2], best[2], lex_rank)
        ):
            best = cand
    return best


def _node_best(
    kept: List[_State], deadline: Time, ratio_of, lex_rank: List[int]
) -> Optional[_Candidate]:
    """The best candidate among a node's states, ended at ``deadline``:
    :func:`_min_candidate` folded over ``kept`` without a candidate
    list."""
    best = None
    for s in kept:
        r = ratio_of(deadline - s[0], s[1], s[2])
        if best is None or r < best[0]:
            best = (r, s[2], s)
        elif r == best[0] and (
            s[2] < best[1]
            or s[2] == best[1] and _lex_less(s, best[2], lex_rank)
        ):
            best = (r, s[2], s)
    return best


def find_critical_path_indexed(
    expanded: ExpandedGraph,
    metric: SlicingMetric,
    ids: Sequence[int],
    rescore: Sequence[int],
    states: List[Optional[List[_State]]],
    best: Dict[int, _Candidate],
    has_release: bytearray,
    release_anchor: List[Time],
    has_deadline: bytearray,
    deadline_anchor: List[Time],
    vcost: List[Time],
) -> CriticalPath:
    """Return the candidate path minimizing ``metric``, on dense ids.

    ``ids`` lists the dense ids whose DP state this call recomputes, **in
    topological order**; every other unassigned node keeps its state in
    ``states``. ``rescore`` lists nodes whose deadline anchor moved; they
    are re-scored after the recompute. ``best`` maps each
    deadline-anchored node with a state to its best candidate; this call
    updates it for ``ids`` and ``rescore``, then returns the minimum over
    all of it. Assigned nodes must hold no state and no candidate. A full
    search is the same call with every unassigned id, fresh
    ``[None] * n`` states and an empty ``best``.

    ``has_*`` / ``*_anchor`` carry the current anchors (static application
    anchors plus anchors inherited from already-sliced neighbours) and
    ``vcost`` the metric's precomputed per-node virtual costs. Raises
    :class:`DistributionError` when no candidate path exists — which cannot
    happen for a validated graph and indicates corrupted anchor
    bookkeeping.
    """
    pred_lists = expanded.pred_lists
    lex_rank = expanded.lex_rank
    uses_count = metric.uses_count
    ratio_of = metric.ratio

    for i in ids:
        vc = vcost[i]
        preds = pred_lists[i]
        kept: List[_State]
        if uses_count and len(preds) < 2:
            # At most one predecessor, whose counts are distinct and >= 1,
            # so nothing collides with the self-anchor (count 1): the
            # merge below would keep every state, in this order.
            kept = []
            if has_release[i]:
                kept.append((release_anchor[i], vc, 1, i, None))
            if preds:
                plist = states[preds[0]]
                if plist:
                    kept += [(s[0], s[1] + vc, s[2] + 1, i, s) for s in plist]
        elif uses_count:
            # Merge incoming states in place: per path length, the single
            # state maximizing release + cost, first-seen winning ties
            # (self-anchor before predecessors, predecessors in adjacency
            # order). The slots are mutated, not reallocated, so the inner
            # loop allocates only on a strict improvement's parent swap.
            by_count: dict = {}
            if has_release[i]:
                r = release_anchor[i]
                by_count[1] = [r + vc, r, vc, None]
            for p in preds:
                plist = states[p]
                if plist:
                    for s in plist:
                        cost = s[1] + vc
                        val = s[0] + cost
                        c = s[2] + 1
                        cur = by_count.get(c)
                        if cur is None:
                            by_count[c] = [val, s[0], cost, s]
                        elif val > cur[0]:
                            cur[0] = val
                            cur[1] = s[0]
                            cur[2] = cost
                            cur[3] = s
            # No need to order by count: downstream merges key on the
            # count stored in each state, and candidate selection picks
            # the minimum of a total order — both are invariant to the
            # order of this list (dict order is deterministic).
            kept = [
                (slot[1], slot[2], c, i, slot[3])
                for c, slot in by_count.items()
            ]
        else:
            incoming: List[_State] = []
            if has_release[i]:
                incoming.append((release_anchor[i], vc, 1, i, None))
            for p in preds:
                plist = states[p]
                if plist:
                    for s in plist:
                        incoming.append((s[0], s[1] + vc, s[2] + 1, i, s))
            kept = _pareto(incoming)
        if not kept:
            states[i] = None
            best.pop(i, None)
            continue
        states[i] = kept
        if has_deadline[i]:
            best[i] = _node_best(kept, deadline_anchor[i], ratio_of, lex_rank)

    for i in rescore:
        kept = states[i]
        if kept:
            best[i] = _node_best(kept, deadline_anchor[i], ratio_of, lex_rank)

    winner = _min_candidate(best.values(), lex_rank)
    if winner is None:
        raise DistributionError(
            "no candidate path between anchors; anchor bookkeeping is corrupt"
        )
    best_r, _, best_s = winner
    indices = _state_path(best_s)
    eids = expanded.eids
    return CriticalPath(
        nodes=tuple(eids[i] for i in indices),
        ratio=best_r,
        release=best_s[0],
        deadline=deadline_anchor[best_s[3]],
        indices=indices,
    )


def _pareto(incoming: List[_State]) -> List[_State]:
    """Pareto frontier over (release, cost), larger-is-better.

    Order contract: the frontier is sorted by (release desc, cost desc),
    ties keeping first-incoming order — downstream Pareto merges tie-break
    on that order, so it is part of the deterministic-output contract.
    """
    if len(incoming) == 1:
        return incoming
    # Two stable C-level passes == one sort by (-release, -cost): reverse
    # sorts keep the original order of equal elements.
    incoming.sort(key=_BY_COST, reverse=True)
    incoming.sort(key=_BY_RELEASE, reverse=True)
    kept: List[_State] = []
    best_cost = float("-inf")
    for s in incoming:
        if s[1] > best_cost:
            kept.append(s)
            best_cost = s[1]
    return kept
