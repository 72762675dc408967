"""The parallel trial engine: record identity, dispatch, instrumentation."""

import pytest

from repro.errors import ExperimentError, ExperimentWarning
from repro.feast.config import ExperimentConfig, MethodSpec
from repro.feast.instrumentation import Instrumentation, PhaseTimings
from repro.feast.backends import (
    TrialSpec,
    default_jobs,
    is_parallelizable,
    resolve_jobs,
    run_chunk,
)
from repro.feast.runner import run_experiment
from repro.graph.generator import RandomGraphConfig
from repro.obs.metrics import MetricsRegistry


def pipeline_factory(graph_config, rng):
    """Module-level (hence picklable) custom workload source."""
    from repro.graph.structured import generate_pipeline

    return generate_pipeline(5, config=graph_config, rng=rng)


def tiny_config(**kwargs):
    defaults = dict(
        name="par",
        description="parallel engine test",
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


def dicts(result):
    return [r.as_dict() for r in result.records]


class TestRecordIdentity:
    """jobs=N must reproduce jobs=1 byte-for-byte, records in order."""

    def test_multi_scenario(self):
        cfg = tiny_config(scenarios=("LDET", "MDET", "HDET"), n_graphs=2)
        serial = run_experiment(cfg, jobs=1)
        parallel = run_experiment(cfg, jobs=4)
        assert dicts(serial) == dicts(parallel)
        assert parallel.jobs == 4

    def test_heterogeneous_speeds_with_adapt(self):
        cfg = tiny_config(
            speed_profile="mixed",
            methods=(
                MethodSpec(label="ADAPT-C", metric="ADAPT",
                           capacity_aware=True),
                MethodSpec(label="ED", metric="PURE", baseline="ED"),
            ),
        )
        assert dicts(run_experiment(cfg, jobs=1)) == dicts(
            run_experiment(cfg, jobs=2)
        )

    def test_graph_factory(self):
        cfg = tiny_config(
            graph_factory=pipeline_factory,
            methods=(MethodSpec(label="PURE", metric="PURE"),),
            scenarios=("LDET", "MDET"),
            n_graphs=2,
        )
        assert dicts(run_experiment(cfg, jobs=1)) == dicts(
            run_experiment(cfg, jobs=2)
        )

    def test_more_jobs_than_chunks(self, tmp_path):
        cfg = tiny_config(n_graphs=1)
        ckpt = tmp_path / "ckpt"
        assert dicts(run_experiment(cfg, jobs=8, checkpoint=str(ckpt))) == (
            dicts(run_experiment(cfg, jobs=1))
        )
        # Capped at one worker per chunk.
        assert sorted(p.name for p in ckpt.glob("*.ckpt")) == [
            "shard-0-of-1.ckpt"
        ]


class TestDispatch:
    def test_resolve_jobs(self):
        assert resolve_jobs(1) == 1
        assert resolve_jobs(3) == 3
        assert resolve_jobs(None) == default_jobs()
        assert resolve_jobs(0) == default_jobs()
        assert default_jobs() >= 1

    def test_negative_jobs_rejected(self):
        with pytest.raises(ExperimentError, match="jobs"):
            run_experiment(tiny_config(), jobs=-2)

    def test_unpicklable_factory_falls_back_to_serial(self):
        cfg = tiny_config(
            graph_factory=lambda gc, rng: pipeline_factory(gc, rng),
            methods=(MethodSpec(label="PURE", metric="PURE"),),
        )
        assert not is_parallelizable(cfg)
        with pytest.warns(ExperimentWarning, match="unpicklable"):
            result = run_experiment(cfg, jobs=4)
        assert result.jobs == 1
        assert result.fallback_reason is not None
        assert "unpicklable" in result.fallback_reason
        assert dicts(result) == dicts(run_experiment(cfg, jobs=1))

    def test_run_parallel_rejects_unpicklable(self):
        """An explicitly named pool backend never falls back."""
        cfg = tiny_config(
            graph_factory=lambda gc, rng: pipeline_factory(gc, rng),
            methods=(MethodSpec(label="PURE", metric="PURE"),),
        )
        with pytest.raises(ExperimentError, match="unpicklable"):
            run_experiment(cfg, jobs=2, backend="pool")

    def test_plain_config_is_parallelizable(self):
        assert is_parallelizable(tiny_config())


class TestChunk:
    def test_chunk_covers_all_sizes_and_methods(self):
        cfg = tiny_config()
        chunk = run_chunk(TrialSpec(config=cfg, scenario="MDET", index=1))
        assert chunk.n_trials == cfg.trials_per_graph
        assert set(chunk.records) == {
            (size, method.label)
            for size in cfg.system_sizes
            for method in cfg.methods
        }
        record = chunk.records[(2, "PURE")]
        assert record.scenario == "MDET" and record.graph_index == 1
        assert PhaseTimings(chunk.metrics).total > 0


class TestProgress:
    def test_parallel_progress_reaches_total(self):
        cfg = tiny_config(scenarios=("LDET", "MDET"))
        calls = []
        run_experiment(cfg, progress=lambda d, t: calls.append((d, t)),
                       jobs=2)
        assert calls[-1] == (cfg.n_trials, cfg.n_trials)
        assert all(t == cfg.n_trials for _, t in calls)
        # One event per chunk, monotone, never past 100 %.
        assert [d for d, _ in calls] == sorted(d for d, _ in calls)
        assert len(calls) == len(cfg.scenarios) * cfg.n_graphs
        assert all(d <= t for d, t in calls)


    def test_interrupting_callback_stops_the_fleet(self):
        """A callback's ``KeyboardInterrupt`` aborts the run and takes
        its worker processes down with it."""
        import multiprocessing

        cfg = tiny_config(n_graphs=4)

        def interrupt(done, total):
            raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            run_experiment(cfg, progress=interrupt, jobs=2)
        assert multiprocessing.active_children() == []


class TestInstrumentation:
    def test_phase_timings_merge_and_total(self):
        run = MetricsRegistry()
        view = PhaseTimings(run)
        for seconds in (
            {"generate": 1.0, "distribute": 2.0, "schedule": 3.0},
            {"generate": 0.5, "schedule": 0.5},
        ):
            chunk = MetricsRegistry()
            for phase, value in seconds.items():
                chunk.observe(f"phase.{phase}.seconds", value)
            run.merge(chunk)
        assert view.as_dict() == {
            "generate": 1.5, "distribute": 2.0, "schedule": 3.5
        }
        assert view.total == 7.0

    def test_unknown_phase_rejected(self):
        with pytest.raises(ExperimentError, match="unknown phase"):
            with Instrumentation().phase("teleport"):
                pass

    def test_overcounting_rejected(self):
        inst = Instrumentation()
        inst.start(2)
        inst.completed(2)
        with pytest.raises(ExperimentError, match="planned"):
            inst.completed()

    def test_heartbeat_leads_the_counters_without_repeating(self):
        """Journaled chunks move progress before the worker's registry
        arrives; a chunk journaled twice cannot push it past the total,
        and absorbing the registry repeats no value already reported."""
        calls = []
        inst = Instrumentation(progress=lambda d, t: calls.append(d))
        inst.start(4)
        for _ in range(3):
            inst.heartbeat(2)
        assert inst.trials_completed == 0
        worker = MetricsRegistry()
        worker.count("engine.trials_completed", 4)
        inst.absorb(worker)
        assert calls == [2, 4]
        assert inst.trials_completed == 4

    def test_serial_run_times_all_phases(self):
        inst = Instrumentation()
        result = run_experiment(tiny_config(), instrumentation=inst)
        assert result.timings is inst.timings
        assert inst.timings.generate > 0
        assert inst.timings.distribute > 0
        assert inst.timings.schedule > 0
        assert inst.trials_completed == result.config.n_trials

    def test_parallel_run_merges_worker_timings(self):
        inst = Instrumentation()
        result = run_experiment(tiny_config(), jobs=2, instrumentation=inst)
        assert result.timings is inst.timings
        assert inst.timings.generate > 0
        assert inst.timings.distribute > 0
        assert inst.timings.schedule > 0

    def test_multiple_callbacks(self):
        first, second = [], []
        inst = Instrumentation(progress=lambda d, t: first.append(d))
        inst.add_progress(lambda d, t: second.append(d))
        cfg = tiny_config(n_graphs=2)
        run_experiment(cfg, instrumentation=inst)
        # One event per chunk, serial runs included.
        per_chunk = cfg.trials_per_graph
        assert first == second == list(
            range(per_chunk, cfg.n_trials + 1, per_chunk)
        )
