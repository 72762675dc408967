"""The experiment runner: records, pairing, caching, custom factories."""

import random

import pytest

from repro.errors import ExperimentError
from repro.feast.config import ExperimentConfig, MethodSpec
from repro.feast.runner import (
    distribute_for_trial,
    graph_for_trial,
    run_experiment,
    run_trial,
    scenario_seed,
    trial_seed,
)
from repro.graph.generator import RandomGraphConfig, generate_task_graph
from repro.graph.serialization import graph_to_dict


def tiny_config(**kwargs):
    defaults = dict(
        name="tiny",
        description="test experiment",
        methods=(
            MethodSpec(label="PURE", metric="PURE"),
            MethodSpec(label="ADAPT", metric="ADAPT"),
        ),
        graph_config=RandomGraphConfig(
            n_subtasks_range=(10, 14), depth_range=(3, 5)
        ),
        scenarios=("MDET",),
        n_graphs=3,
        system_sizes=(2, 4),
        seed=5,
    )
    defaults.update(kwargs)
    return ExperimentConfig(**defaults)


class TestRunExperiment:
    def test_record_count_and_fields(self):
        result = run_experiment(tiny_config())
        assert len(result) == 1 * 2 * 2 * 3  # scen x sizes x methods x graphs
        record = result.records[0]
        assert record.experiment == "tiny"
        assert record.scenario == "MDET"
        assert record.method in ("PURE", "ADAPT")
        assert record.n_processors in (2, 4)
        assert isinstance(record.max_lateness, float)
        assert record.as_dict()["graph_index"] == record.graph_index
        assert result.elapsed_seconds > 0

    def test_filter(self):
        result = run_experiment(tiny_config())
        sub = result.filter(method="PURE", n_processors=2)
        assert len(sub) == 3
        assert all(r.method == "PURE" and r.n_processors == 2 for r in sub)

    def test_deterministic(self):
        a = run_experiment(tiny_config())
        b = run_experiment(tiny_config())
        assert [r.max_lateness for r in a.records] == [
            r.max_lateness for r in b.records
        ]

    def test_progress_hook(self):
        calls = []
        run_experiment(tiny_config(), progress=lambda d, t: calls.append((d, t)))
        # One event per chunk: the 2 sizes x 2 methods of one graph.
        assert calls[0] == (4, 12)
        assert calls[-1] == (12, 12)

    def test_plain_run_fails_fast(self):
        """Without fault-tolerance features the first trial error
        propagates unchanged and no later chunk runs."""
        seen = []

        def factory(gc, rng):
            seen.append(len(seen))
            if len(seen) == 2:
                raise ExperimentError("graph 1 is broken")
            return generate_task_graph(gc, rng=rng)

        cfg = tiny_config(
            graph_factory=factory,
            methods=(MethodSpec(label="PURE", metric="PURE"),),
        )
        with pytest.raises(ExperimentError, match="graph 1 is broken"):
            run_experiment(cfg)
        assert seen == [0, 1]

    def test_clean_serial_run_reports_zero_supervision(self):
        result = run_experiment(tiny_config(n_graphs=1))
        assert result.supervision is not None
        assert not result.supervision.any()
        assert result.failures == [] and result.quarantined == []

    def test_graph_factory(self):
        from repro.graph.structured import generate_pipeline

        cfg = tiny_config(
            graph_factory=lambda gc, rng: generate_pipeline(
                6, config=gc, rng=rng
            ),
            methods=(MethodSpec(label="PURE", metric="PURE"),),
        )
        result = run_experiment(cfg)
        # A 6-stage pipeline on any system finishes in exactly the chain
        # time, so makespans repeat across sizes per graph.
        assert len(result) == 6
        by_graph = {}
        for r in result.records:
            by_graph.setdefault(r.graph_index, set()).add(r.makespan)
        assert all(len(v) == 1 for v in by_graph.values())


class TestDistributionCache:
    """Regression: the reuse cache used to freeze the *first* sweep size's
    platform into every later size's assignment metadata."""

    def graph(self):
        return generate_task_graph(
            RandomGraphConfig(n_subtasks_range=(10, 12), depth_range=(3, 4)),
            rng=random.Random(7),
        )

    def test_cached_assignment_restamped_per_size(self):
        method = MethodSpec(label="PURE", metric="PURE")
        distributor = method.build()
        graph = self.graph()
        cache = {}
        first = distribute_for_trial(
            method, distributor, graph, 2, 2.0, cache, "PURE"
        )
        assert first.n_processors == 2
        later = distribute_for_trial(
            method, distributor, graph, 16, 16.0, cache, "PURE"
        )
        # The bug: this reported 2 on the reused assignment.
        assert later.n_processors == 16
        # Reuse actually happened (same underlying windows)...
        assert later.windows is first.windows

    def test_cached_agrees_with_fresh(self):
        """Cached (platform-oblivious) and fresh (platform-stamped)
        assignments must agree window-for-window at every size."""
        method = MethodSpec(label="PURE", metric="PURE")
        graph = self.graph()
        cache = {}
        for size in (2, 8, 16):
            cached = distribute_for_trial(
                method, method.build(), graph, size, float(size),
                cache, "PURE",
            )
            fresh = method.build().distribute(
                graph, n_processors=size, total_capacity=float(size)
            )
            assert cached.windows == fresh.windows, size
            assert cached.message_windows == fresh.message_windows, size
            assert cached.n_processors == fresh.n_processors == size

    def test_baseline_restamped_too(self):
        method = MethodSpec(label="ED", metric="PURE", baseline="ED")
        distributor = method.build()
        graph = self.graph()
        cache = {}
        distribute_for_trial(method, distributor, graph, 2, 2.0, cache, "ED")
        later = distribute_for_trial(
            method, distributor, graph, 8, 8.0, cache, "ED"
        )
        assert later.n_processors == 8

    def test_adapt_never_cached(self):
        method = MethodSpec(label="ADAPT", metric="ADAPT")
        distributor = method.build()
        graph = self.graph()
        cache = {}
        a2 = distribute_for_trial(
            method, distributor, graph, 2, 2.0, cache, "ADAPT"
        )
        a8 = distribute_for_trial(
            method, distributor, graph, 8, 8.0, cache, "ADAPT"
        )
        assert not cache
        assert a2.n_processors == 2 and a8.n_processors == 8
        # ADAPT's surplus depends on the size, so windows must differ.
        assert a2.windows != a8.windows


class TestSeedingContract:
    """Regression: the factory path used to seed from the experiment seed
    and index alone, ignoring the scenario — breaking the documented
    per-(scenario, index) pairing."""

    def config(self, **kwargs):
        return tiny_config(scenarios=("LDET", "MDET"), **kwargs)

    def test_trial_seed_folds_scenario(self):
        assert trial_seed(5, "LDET", 0) != trial_seed(5, "MDET", 0)
        assert trial_seed(5, "LDET", 0) != trial_seed(5, "LDET", 1)
        # Stable across calls (and, via blake2b, across processes).
        assert scenario_seed(5, "HDET") == scenario_seed(5, "HDET")

    def test_same_pair_regenerates_identical_graph(self):
        cfg = self.config()
        gc = cfg.graph_config.with_scenario("MDET")
        a = graph_for_trial(cfg, gc, "MDET", 1)
        b = graph_for_trial(cfg, gc, "MDET", 1)
        assert graph_to_dict(a) == graph_to_dict(b)

    def test_scenarios_draw_independent_workloads(self):
        cfg = self.config()
        a = graph_for_trial(cfg, cfg.graph_config.with_scenario("LDET"),
                            "LDET", 0)
        b = graph_for_trial(cfg, cfg.graph_config.with_scenario("MDET"),
                            "MDET", 0)
        # Different structure, not merely different execution times.
        assert (
            a.n_subtasks != b.n_subtasks
            or sorted(e for e in graph_to_dict(a)["edges"])
            != sorted(e for e in graph_to_dict(b)["edges"])
        )

    def test_factory_seeds_depend_on_scenario(self):
        from repro.graph.structured import generate_pipeline

        streams = {}

        def factory(gc, rng):
            streams.setdefault(gc.execution_time_deviation, []).append(
                rng.random()
            )
            return generate_pipeline(4, config=gc, rng=rng)

        run_experiment(self.config(
            graph_factory=factory,
            methods=(MethodSpec(label="PURE", metric="PURE"),),
        ))
        ldet, mdet = streams[0.25], streams[0.50]
        assert len(ldet) == len(mdet) == 3
        # Pre-fix, both scenarios received identical rng streams.
        assert ldet != mdet

    def test_factory_rng_matches_generator_path(self):
        """A factory receives exactly the seeded rng the built-in
        generator would use for that (scenario, index)."""
        cfg = self.config(
            graph_factory=lambda gc, rng: generate_task_graph(gc, rng=rng),
            methods=(MethodSpec(label="PURE", metric="PURE"),),
        )
        plain = tiny_config(
            scenarios=("LDET", "MDET"),
            methods=(MethodSpec(label="PURE", metric="PURE"),),
        )
        a = run_experiment(cfg)
        b = run_experiment(plain)
        assert [r.as_dict() for r in a.records] == [
            r.as_dict() for r in b.records
        ]


class TestWorkloadSourceValidation:
    """Regression: progress totals must be trustworthy — a misbehaving
    factory cannot silently change the record count."""

    def test_factory_returning_list_rejected(self):
        cfg = tiny_config(
            graph_factory=lambda gc, rng: [
                generate_task_graph(gc, rng=rng) for _ in range(2)
            ],
            methods=(MethodSpec(label="PURE", metric="PURE"),),
        )
        with pytest.raises(ExperimentError, match="one TaskGraph per call"):
            run_experiment(cfg)

    def test_factory_returning_none_rejected(self):
        cfg = tiny_config(
            graph_factory=lambda gc, rng: None,
            methods=(MethodSpec(label="PURE", metric="PURE"),),
        )
        with pytest.raises(ExperimentError, match="one TaskGraph per call"):
            run_experiment(cfg)

    def test_progress_never_exceeds_total(self):
        from repro.graph.structured import generate_pipeline

        calls = []
        cfg = tiny_config(
            graph_factory=lambda gc, rng: generate_pipeline(
                4, config=gc, rng=rng
            ),
            methods=(MethodSpec(label="PURE", metric="PURE"),),
        )
        run_experiment(cfg, progress=lambda d, t: calls.append((d, t)))
        assert all(d <= t for d, t in calls)
        assert calls[-1] == (cfg.n_trials, cfg.n_trials)


class TestRunTrial:
    def test_single_trial(self):
        from repro.core.slicer import bst
        from repro.machine.system import System

        graph = generate_task_graph(
            RandomGraphConfig(n_subtasks_range=(10, 12), depth_range=(3, 4)),
            rng=random.Random(0),
        )
        assignment = bst().distribute(graph)
        metrics = run_trial(graph, assignment, System(2))
        assert metrics.n_subtasks == graph.n_subtasks
        assert metrics.makespan > 0
