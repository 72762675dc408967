"""Golden corpus: the distribution pipeline's outputs are frozen.

The indexed-graph refactor (PR 2) promises **bit-identical** outputs: the
compiled :class:`~repro.graph.indexed.GraphIndex` core, the expanded-graph
overlay and the integer-id slicer are representation changes only. This
corpus pins that promise down: every window, slice record and lateness
measurement here was recorded on main *before* the refactor, and the suite
asserts exact equality (``==`` on floats — no tolerances) ever after.

Coverage: all four paper metrics (plus the capacity-aware ADAPT variant),
several graph sizes, pinned and unpinned workloads, homogeneous and
heterogeneous platforms, and full experiment records through the runner at
worker counts 1 and 2 (every backend and worker count produces the jobs=1
records, which ``tests/test_backends.py`` and ``tests/test_parallel.py``
test separately).

Regenerate (only when an *intentional* output change lands) with::

    PYTHONPATH=src python -m tests.test_golden_corpus --regen
"""

from __future__ import annotations

import json
import os
import random
from typing import Dict, List

import pytest

from repro.core import DeadlineDistributor, ast, bst
from repro.core.commcost import CCNE
from repro.core.metrics import AdaptiveLaxityRatio
from repro.feast.config import ExperimentConfig, MethodSpec
from repro.feast.runner import run_experiment
from repro.graph import RandomGraphConfig, generate_task_graph
from repro.graph.taskgraph import TaskGraph

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden",
                           "distribution_corpus.json")

SEED = 97031
GRAPH_SIZES = (10, 24, 48)

#: Heterogeneous platform used by the capacity-aware case: 4 processors
#: with speeds (1, 2, 1, 2) — capacity 6.0.
HET_CAPACITY = 6.0


def _graphs() -> Dict[str, TaskGraph]:
    """The corpus workloads, regenerated identically on every run."""
    graphs: Dict[str, TaskGraph] = {}
    for k, size in enumerate(GRAPH_SIZES):
        config = RandomGraphConfig(
            n_subtasks_range=(size, size),
            depth_range=(max(2, size // 8), max(3, size // 6)),
        )
        graphs[f"random-{size}"] = generate_task_graph(
            config, rng=random.Random(SEED + k), name=f"golden-{size}"
        )
    # A pinned variant: strict locality constraints on every 4th subtask,
    # exercising the estimators' pinned short-circuit.
    pinned = graphs["random-24"].copy(name="golden-24-pinned")
    for i, node_id in enumerate(pinned.node_ids()):
        if i % 4 == 0:
            pinned.node(node_id).pinned_to = i % 3
    graphs["pinned-24"] = pinned
    return graphs


def _distributors():
    """(label, distributor factory, distribute kwargs) — the corpus axes."""
    return (
        ("PURE/CCNE@4", lambda: bst("PURE", "CCNE"), {"n_processors": 4}),
        ("NORM/CCAA@4", lambda: bst("NORM", "CCAA"), {"n_processors": 4}),
        ("THRES@4", lambda: ast("THRES"), {"n_processors": 4}),
        ("ADAPT@4", lambda: ast("ADAPT"), {"n_processors": 4}),
        ("ADAPT@16", lambda: ast("ADAPT"), {"n_processors": 16}),
        (
            "ADAPT-C@4het",
            lambda: DeadlineDistributor(
                AdaptiveLaxityRatio(capacity_aware=True), CCNE()
            ),
            {"n_processors": 4, "total_capacity": HET_CAPACITY},
        ),
    )


def _snapshot(assignment) -> Dict[str, object]:
    """Exact, JSON-round-trippable image of one DeadlineAssignment.

    Captures values *and* iteration order (window/message insertion order
    is part of the frozen contract — downstream reports iterate it).
    """
    return {
        "metric": assignment.metric_name,
        "comm": assignment.comm_strategy_name,
        "n_processors": assignment.n_processors,
        "window_order": list(assignment.windows),
        "windows": {
            str(n): [w.release, w.absolute_deadline, w.cost]
            for n, w in assignment.windows.items()
        },
        "message_order": [f"{s}->{d}" for s, d in assignment.message_windows],
        "message_windows": {
            f"{s}->{d}": [w.release, w.absolute_deadline, w.cost]
            for (s, d), w in assignment.message_windows.items()
        },
        "slices": [
            [list(rec.nodes), rec.ratio, rec.release, rec.deadline]
            for rec in assignment.slices
        ],
        "min_laxity": assignment.min_laxity(),
    }


def _experiment_config() -> ExperimentConfig:
    return ExperimentConfig(
        name="golden-experiment",
        description="frozen end-to-end records for the refactor corpus",
        methods=(
            MethodSpec(label="PURE", metric="PURE", comm="CCNE"),
            MethodSpec(label="NORM", metric="NORM", comm="CCAA"),
            MethodSpec(label="ADAPT", metric="ADAPT"),
        ),
        graph_config=RandomGraphConfig(n_subtasks_range=(14, 18)),
        scenarios=("LDET", "HDET"),
        n_graphs=2,
        seed=424242,
        system_sizes=(2, 4),
        speed_profile="mixed",
    )


def build_corpus() -> Dict[str, object]:
    corpus: Dict[str, object] = {"distributions": {}, "experiment_records": []}
    for graph_name, graph in _graphs().items():
        for label, build, kwargs in _distributors():
            assignment = build().distribute(graph, **kwargs)
            corpus["distributions"][f"{graph_name}|{label}"] = _snapshot(
                assignment
            )
    result = run_experiment(_experiment_config(), jobs=1)
    corpus["experiment_records"] = [r.as_dict() for r in result.records]
    return corpus


def _load_golden() -> Dict[str, object]:
    if not os.path.exists(GOLDEN_PATH):
        pytest.fail(
            f"golden corpus missing at {GOLDEN_PATH}; regenerate with "
            "`PYTHONPATH=src python -m tests.test_golden_corpus --regen`"
        )
    with open(GOLDEN_PATH) as fp:
        return json.load(fp)


# ----------------------------------------------------------------------
# Tests
# ----------------------------------------------------------------------
def test_distribution_outputs_bit_identical():
    golden = _load_golden()["distributions"]
    fresh: Dict[str, object] = {}
    for graph_name, graph in _graphs().items():
        for label, build, kwargs in _distributors():
            key = f"{graph_name}|{label}"
            assignment = build().distribute(graph, **kwargs)
            snap = json.loads(json.dumps(_snapshot(assignment)))
            fresh[key] = snap
    assert set(fresh) == set(golden)
    for key in golden:
        assert fresh[key] == golden[key], (
            f"distribution output drifted for {key}"
        )


def test_batch_distribution_outputs_bit_identical():
    """The vectorized batch kernel reproduces the frozen corpus exactly.

    Every (graph, distributor) cell goes through ``distribute_many`` in
    one call and must match the golden snapshots bit for bit — including
    ``window_order``/``message_order``, pinning the satellite audit of
    float accumulation and tie-break order in the batch DP. NORM routes
    through the scalar fallback inside the kernel, so the same sweep
    also freezes the fallback path.
    """
    pytest.importorskip("numpy")
    from repro.core.batch import DistributeRequest, distribute_many

    golden = _load_golden()["distributions"]
    keys = []
    requests = []
    for graph_name, graph in _graphs().items():
        for label, build, kwargs in _distributors():
            keys.append(f"{graph_name}|{label}")
            requests.append(
                DistributeRequest(
                    graph=graph,
                    distributor=build(),
                    n_processors=kwargs.get("n_processors"),
                    total_capacity=kwargs.get("total_capacity"),
                )
            )
    assert set(keys) == set(golden)
    for key, assignment in zip(keys, distribute_many(requests)):
        snap = json.loads(json.dumps(_snapshot(assignment)))
        assert snap == golden[key], (
            f"batch kernel output drifted from golden corpus for {key}"
        )


@pytest.mark.parametrize("jobs", [1, 2])
def test_experiment_records_bit_identical(jobs):
    golden = _load_golden()["experiment_records"]
    result = run_experiment(_experiment_config(), jobs=jobs)
    fresh: List[Dict[str, object]] = [
        json.loads(json.dumps(r.as_dict())) for r in result.records
    ]
    assert fresh == golden


@pytest.mark.parametrize("jobs", [1, 2])
def test_traced_experiment_records_bit_identical(jobs):
    """Telemetry is observation only: a run with tracing enabled must
    reproduce the frozen records exactly, serial and parallel."""
    from repro.feast.instrumentation import Instrumentation
    from repro.obs import Telemetry

    golden = _load_golden()["experiment_records"]
    inst = Instrumentation(telemetry=Telemetry())
    result = run_experiment(_experiment_config(), jobs=jobs,
                            instrumentation=inst)
    fresh = [json.loads(json.dumps(r.as_dict())) for r in result.records]
    assert fresh == golden
    # And the run actually recorded something.
    assert inst.telemetry.spans.finished()
    assert inst.telemetry.metrics.counters


@pytest.mark.parametrize("jobs", [1, 2])
def test_live_sampled_experiment_records_bit_identical(jobs, tmp_path):
    """Live telemetry samples, it never participates: a run with the
    status stream active, the sampler thread ticking fast, and the
    OpenMetrics exporter rewriting a textfile must still reproduce the
    frozen records exactly."""
    from repro.feast.instrumentation import Instrumentation
    from repro.obs import (
        StatusSampler,
        StatusStream,
        Telemetry,
        activate_status,
        read_status,
    )

    golden = _load_golden()["experiment_records"]
    inst = Instrumentation(telemetry=Telemetry())
    stream = StatusStream(
        str(tmp_path / "run.status.jsonl"), "golden", "run-golden"
    )
    sampler = StatusSampler(
        stream, inst, interval=0.01,
        metrics_out=str(tmp_path / "metrics.prom"),
    )
    with activate_status(stream), sampler:
        result = run_experiment(_experiment_config(), jobs=jobs,
                                instrumentation=inst)
    stream.close()
    fresh = [json.loads(json.dumps(r.as_dict())) for r in result.records]
    assert fresh == golden
    # The observers actually observed.
    kinds = {e["kind"] for e in read_status(stream.path)}
    assert "status" in kinds and "progress" in kinds
    assert (tmp_path / "metrics.prom").read_text().endswith("# EOF\n")


def test_interrupted_checkpoint_resume_bit_identical(tmp_path):
    """A sweep interrupted mid-run and resumed from its checkpoint must
    reproduce the frozen records exactly — including the chunks that were
    journaled to JSON and replayed (float round-trip is exact)."""
    golden = _load_golden()["experiment_records"]
    config = _experiment_config()
    path = str(tmp_path / "golden.ckpt")

    count = [0]

    def interrupt_after_two(done, total):
        count[0] += 1
        if count[0] == 2:
            raise KeyboardInterrupt

    with pytest.raises(KeyboardInterrupt):
        run_experiment(config, checkpoint=path,
                       progress=interrupt_after_two)
    resumed = run_experiment(config, checkpoint=path)
    fresh = [json.loads(json.dumps(r.as_dict())) for r in resumed.records]
    assert fresh == golden
    assert resumed.complete


# ----------------------------------------------------------------------
# Regeneration entry point
# ----------------------------------------------------------------------
def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description="golden corpus recorder")
    parser.add_argument("--regen", action="store_true", required=True)
    parser.parse_args(argv)
    os.makedirs(os.path.dirname(GOLDEN_PATH), exist_ok=True)
    corpus = build_corpus()
    with open(GOLDEN_PATH, "w") as fp:
        json.dump(corpus, fp, indent=1, sort_keys=True)
        fp.write("\n")
    n = len(corpus["distributions"])
    print(f"recorded {n} distributions + "
          f"{len(corpus['experiment_records'])} experiment records "
          f"-> {GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    import sys

    sys.exit(main())
