"""Shared fixtures for the test suite."""

from __future__ import annotations

import random

import pytest

from repro.graph import RandomGraphConfig, generate_task_graph
from repro.graph.taskgraph import TaskGraph


@pytest.fixture
def chain_graph() -> TaskGraph:
    """a -> b -> c, end-to-end deadline 100, messages of size 5."""
    g = TaskGraph(name="chain")
    g.add_subtask("a", wcet=10.0, release=0.0)
    g.add_subtask("b", wcet=20.0)
    g.add_subtask("c", wcet=10.0, end_to_end_deadline=100.0)
    g.add_edge("a", "b", message_size=5.0)
    g.add_edge("b", "c", message_size=5.0)
    return g


@pytest.fixture
def diamond_graph() -> TaskGraph:
    """a fans out to b (long) and c (short), joining at d."""
    g = TaskGraph(name="diamond")
    g.add_subtask("a", wcet=10.0, release=0.0)
    g.add_subtask("b", wcet=40.0)
    g.add_subtask("c", wcet=10.0)
    g.add_subtask("d", wcet=10.0, end_to_end_deadline=200.0)
    g.add_edge("a", "b", message_size=4.0)
    g.add_edge("a", "c", message_size=4.0)
    g.add_edge("b", "d", message_size=4.0)
    g.add_edge("c", "d", message_size=4.0)
    return g


@pytest.fixture
def random_graph() -> TaskGraph:
    """One paper-config random graph, fixed seed."""
    return generate_task_graph(RandomGraphConfig(), rng=random.Random(1234))


@pytest.fixture
def small_config() -> RandomGraphConfig:
    """A small random-graph configuration for fast tests."""
    return RandomGraphConfig(n_subtasks_range=(12, 18), depth_range=(4, 6))


@pytest.fixture
def kill_shard_once(monkeypatch, tmp_path):
    """Make fleet shard 0 die once: its first launch journals one chunk
    and exits with code 3, and every later launch runs the real shard.

    Forked workers inherit the patched :func:`run_shard`. The returned
    marker file exists once the kill happened; remove it to re-arm.
    """
    from repro.feast.backends import shards

    real = shards.run_shard
    marker = tmp_path / "shard-killed-once"

    def run_shard(config, keys, *args, shard, n_shards):
        if shard != 0 or marker.exists():
            return real(config, keys, *args, shard=shard, n_shards=n_shards)
        marker.write_text("killed once\n")
        real(config, keys[:1], *args, shard=shard, n_shards=n_shards)
        return 3

    monkeypatch.setattr(shards, "run_shard", run_shard)
    return marker
