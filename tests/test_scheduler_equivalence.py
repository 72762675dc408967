"""Scheduler records pinned beyond the bus/EDF golden corpus.

The golden corpus (``tests/test_golden_corpus.py``) freezes records on a
shared bus under EDF. The scheduler's placement shortcuts — the indexed
link timelines, the per-placement probe memo keyed by route, the cached
routes and the static-priority ready heap — matter most elsewhere:
multi-hop routes (ring, mesh), per-pair links (fully connected), the
contention-free ideal network, the other selection policies and
time-triggered dispatch. Each digest below was recorded before those
shortcuts landed; the suite asserts the records still hash to it.

Print fresh digests (only when an *intentional* output change lands)
with::

    PYTHONPATH=src python -m tests.test_scheduler_equivalence
"""

from __future__ import annotations

import hashlib
import json
import random
from typing import Dict

import pytest

from repro.core import ast, bst
from repro.feast.config import ExperimentConfig, MethodSpec
from repro.feast.runner import run_experiment
from repro.graph import RandomGraphConfig, generate_task_graph
from repro.graph.taskgraph import TaskGraph
from repro.machine import System, make_interconnect
from repro.machine.topology import TOPOLOGIES
from repro.obs.registry import records_digest
from repro.sched import ListScheduler
from repro.sched.policies import POLICIES, make_policy
from repro.sched.simulator import JitterModel, simulate_dynamic

#: Platform sizes: 4 is a one- or two-hop ring, 6 and 9 give mesh routes
#: of up to four hops.
SIZES = (4, 6, 9)


def _config(name: str, **overrides) -> ExperimentConfig:
    fields = dict(
        name=f"equivalence-{name}",
        description=f"scheduler equivalence pin: {name}",
        methods=(
            MethodSpec(label="PURE", metric="PURE", comm="CCNE"),
            MethodSpec(label="ADAPT", metric="ADAPT"),
        ),
        graph_config=RandomGraphConfig(n_subtasks_range=(20, 45)),
        scenarios=("MDET",),
        n_graphs=3,
        seed=15015,
        system_sizes=SIZES,
    )
    fields.update(overrides)
    return ExperimentConfig(**fields)


CONFIGS: Dict[str, ExperimentConfig] = {
    **{
        f"topology-{t}": _config(f"topology-{t}", topology=t)
        for t in ("ring", "mesh", "fully-connected", "ideal")
    },
    **{
        f"policy-{p}": _config(f"policy-{p}", policy=p)
        for p in ("LLF", "ERF", "LPT", "RANDOM")
    },
    "release-times": _config(
        "release-times", respect_release_times=True, scenarios=("LDET", "HDET")
    ),
    "release-times-ring": _config(
        "release-times-ring", topology="ring", respect_release_times=True
    ),
}

#: ``records_digest`` of each config's records, recorded before the
#: placement shortcuts.
DIGESTS: Dict[str, str] = {
    "policy-ERF": "d46e1224a9b46a0c51eb6cad7c3139f5",
    "policy-LLF": "595eeefc03eb6daf0d1849ee00af918b",
    "policy-LPT": "258894ea6e0f57e92cd2f0df0330523f",
    "policy-RANDOM": "c84c3a2a83640d6df6788aecbcc11b6d",
    "release-times": "bd1a5b24550b8ab0df920a4d340314b2",
    "release-times-ring": "b7f1df604513b48296e614e4f247c463",
    "topology-fully-connected": "f32100d698617cc2d4a241944f5cfdea",
    "topology-ideal": "42f5420504678673ca5e2d50bd28cbc3",
    "topology-mesh": "93941a2e8938287171a3639e2d8eefe8",
    "topology-ring": "26a965dcc8152f0eeab44f71961d42d1",
}


def _digest(name: str) -> str:
    return records_digest(run_experiment(CONFIGS[name], jobs=1).records)


#: Digest of every placement, message hop and their order, over
#: topologies × policies × dispatch modes on a few graphs (see
#: :func:`_schedules_digest`), recorded before the placement shortcuts.
SCHEDULES_DIGEST = "9634ef19ae7e0837808f7c9b478a7ed5"


def _quantized(graph: TaskGraph) -> TaskGraph:
    """``graph`` with whole-unit costs and sizes (every seventh 0) and every
    fifth subtask pinned: equal message sizes, equal finish times and
    tied candidates, which the per-placement probe memo must keep apart
    or share exactly as the plain probes did."""
    g = TaskGraph(name=f"{graph.name}-quantized")
    for i, node_id in enumerate(graph.node_ids()):
        node = graph.node(node_id)
        g.add_subtask(
            node_id,
            wcet=max(1.0, float(round(node.wcet))),
            release=node.release,
            end_to_end_deadline=node.end_to_end_deadline,
            pinned_to=i % 4 if i % 5 == 4 else None,
        )
    for k, m in enumerate(graph.messages()):
        size = float(round(m.size / 4)) if k % 7 else 0.0
        g.add_edge(m.src, m.dst, message_size=size)
    return g


def _schedules_digest() -> str:
    """Hash of full schedules: each task's processor, start and finish
    and each message's hops, in placement order — finer than trial
    records, which keep only metrics of a schedule."""
    h = hashlib.blake2b(digest_size=16)
    rng = random.Random(15015)
    config = RandomGraphConfig(n_subtasks_range=(30, 50))
    graphs = [generate_task_graph(config, rng=rng) for _ in range(2)]
    graphs += [_quantized(g) for g in graphs]
    for graph in graphs:
        for distributor in (bst("PURE", "CCNE"), ast("ADAPT")):
            # A homogeneous 4-processor and a mixed-speed 9-processor
            # platform.
            for n, speeds in ((4, None), (9, [1.0 + i % 2 for i in range(9)])):
                assignment = distributor.distribute(graph, n_processors=n)
                for topology in sorted(TOPOLOGIES):
                    system = System(n, make_interconnect(topology, n), speeds)
                    for policy in sorted(POLICIES):
                        for respect in (False, True):
                            schedule = ListScheduler(
                                system, make_policy(policy), respect
                            ).schedule(graph, assignment)
                            tasks = [
                                [t.node_id, t.processor, t.start, t.finish]
                                for t in schedule.tasks.values()
                            ]
                            messages = [
                                [m.src, m.dst, m.src_processor,
                                 m.dst_processor, m.size,
                                 [[x.link, x.start, x.finish] for x in m.hops]]
                                for m in schedule.messages.values()
                            ]
                            h.update(json.dumps([tasks, messages]).encode())
    return h.hexdigest()


#: Digest of :func:`simulate_dynamic` traces on the bus, ring and ideal
#: networks, with and without execution-time jitter (see
#: :func:`_dynamic_digest`), recorded before the dispatcher shared the
#: list scheduler's candidate choice.
DYNAMIC_DIGEST = "56347e21f49cd4883fffe518de67b591"


def _dynamic_digest() -> str:
    """Hash of dynamic-dispatch traces: every segment, transfer and
    completion in trace order, over plain and quantized graphs (the
    latter with pinned subtasks and zero-size messages)."""
    h = hashlib.blake2b(digest_size=16)
    rng = random.Random(16016)
    config = RandomGraphConfig(n_subtasks_range=(25, 40))
    graphs = [generate_task_graph(config, rng=rng) for _ in range(2)]
    graphs += [_quantized(g) for g in graphs]
    for graph in graphs:
        assignment = bst("PURE", "CCNE").distribute(graph)
        for n, speeds in ((4, None), (5, [1.0 + i % 2 for i in range(5)])):
            for topology in ("bus", "ideal", "ring"):
                system = System(n, make_interconnect(topology, n), speeds)
                for jitter in (None, JitterModel(low=0.5, high=1.0, seed=3)):
                    trace = simulate_dynamic(graph, assignment, system, jitter)
                    h.update(json.dumps([
                        [[s.node_id, s.processor, s.start, s.end]
                         for s in trace.segments],
                        [[t.src, t.dst, t.src_processor, t.dst_processor,
                          t.size, t.departure, t.arrival]
                         for t in trace.transfers],
                        sorted(trace.completions.items()),
                    ]).encode())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_records_digest_pinned(name):
    assert _digest(name) == DIGESTS[name], f"scheduler records drifted: {name}"


def test_full_schedules_pinned():
    assert _schedules_digest() == SCHEDULES_DIGEST


def test_dynamic_traces_pinned():
    assert _dynamic_digest() == DYNAMIC_DIGEST


if __name__ == "__main__":
    for key in sorted(CONFIGS):
        print(f"    {key!r}: {_digest(key)!r},")
    print(f"SCHEDULES_DIGEST = {_schedules_digest()!r}")
    print(f"DYNAMIC_DIGEST = {_dynamic_digest()!r}")
