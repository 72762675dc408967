"""Graph transformations: scaling and relabeling."""

import pytest

from repro.errors import ValidationError
from repro.graph.taskgraph import TaskGraph
from repro.graph.transform import relabel, scale_workload


def chain_with_branch():
    r"""a -> b -> c -> d with a side branch a -> e -> d."""
    g = TaskGraph()
    g.add_subtask("a", wcet=10.0, release=0.0)
    g.add_subtask("b", wcet=20.0)
    g.add_subtask("c", wcet=30.0)
    g.add_subtask("d", wcet=10.0, end_to_end_deadline=300.0)
    g.add_subtask("e", wcet=5.0)
    g.add_edge("a", "b", message_size=2.0)
    g.add_edge("b", "c", message_size=3.0)
    g.add_edge("c", "d", message_size=4.0)
    g.add_edge("a", "e", message_size=1.0)
    g.add_edge("e", "d", message_size=1.0)
    return g


class TestScaleWorkload:
    def test_scales_both(self):
        g = chain_with_branch()
        scaled = scale_workload(g, 2.0)
        assert scaled.node("b").wcet == 40.0
        assert scaled.message("a", "b").size == 4.0
        # Anchors untouched.
        assert scaled.node("d").end_to_end_deadline == 300.0

    def test_independent_message_factor(self):
        g = chain_with_branch()
        scaled = scale_workload(g, 2.0, message_factor=0.0)
        assert scaled.node("b").wcet == 40.0
        assert scaled.total_message_volume() == 0.0

    def test_bad_factors(self):
        with pytest.raises(ValidationError):
            scale_workload(chain_with_branch(), 0.0)
        with pytest.raises(ValidationError):
            scale_workload(chain_with_branch(), 1.0, message_factor=-1.0)


class TestRelabel:
    def test_prefix(self):
        g = chain_with_branch()
        out = relabel(g, prefix="app1:")
        assert "app1:a" in out
        assert out.has_edge("app1:a", "app1:b")
        assert out.node("app1:a").release == 0.0

    def test_explicit_mapping_partial(self):
        g = chain_with_branch()
        out = relabel(g, mapping={"a": "start"})
        assert "start" in out and "b" in out
        assert out.has_edge("start", "b")

    def test_non_injective_rejected(self):
        g = chain_with_branch()
        with pytest.raises(ValidationError):
            relabel(g, mapping={"a": "x", "b": "x"})
