"""Execution backends: registry, cross-backend parity, shard merge,
kill-and-resume fault tolerance, streaming aggregation, journal repair."""

import os
import signal
import socket
import subprocess
import sys
from pathlib import Path

import pytest

from repro.errors import CheckpointError, ExperimentError, ExperimentWarning
from repro.feast.aggregate import StreamingAggregator
from repro.feast.backends import (
    BACKENDS,
    ExecutionBackend,
    backend_names,
    make_backend,
    register_backend,
)
from repro.feast.backends.serial import SerialBackend
from repro.feast.backends.shards import shard_keys
from repro.feast.config import ExperimentConfig, MethodSpec
from repro.feast.instrumentation import Instrumentation
from repro.feast.persistence import (
    compact_journals,
    inspect_journal,
    iter_journal,
    journal_paths,
)
from repro.feast.runner import run_experiment
from repro.graph.generator import RandomGraphConfig
from repro.obs import Telemetry
from repro.obs.live import (
    StatusSampler,
    StatusStream,
    activate_status,
    read_status,
)


def tiny_config(**kwargs):
    defaults = dict(
        name="bke",
        description="backend test",
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
        seed=11,
    )
    defaults.update(kwargs)
    return ExperimentConfig(**defaults)


def dicts(result):
    return [r.as_dict() for r in result.records]


def group_means(records):
    groups = {}
    for r in records:
        groups.setdefault(
            (r.scenario, r.method, r.n_processors), []
        ).append(r.max_lateness)
    return {k: sum(v) / len(v) for k, v in groups.items()}


class TestRegistry:
    def test_builtin_backends_registered(self):
        assert set(backend_names()) >= {"serial", "pool", "subprocess"}
        for name in backend_names():
            engine = make_backend(name)
            assert isinstance(engine, ExecutionBackend)
            # ``pool`` is an alias of the one multi-process supervisor.
            assert engine.name == ("subprocess" if name == "pool" else name)

    def test_jobs_run_the_worker_fleet(self):
        from repro.feast.backends.shards import SubprocessBackend
        from repro.feast.sweep import registry_record

        assert type(make_backend("pool")) is SubprocessBackend
        cfg = tiny_config(n_graphs=2)
        inst = Instrumentation(telemetry=Telemetry())
        result = run_experiment(cfg, jobs=2, instrumentation=inst)
        (run,) = [s for s in inst.telemetry.spans.finished()
                  if s.name == "run"]
        assert run.attrs["engine"] == "subprocess"
        assert registry_record("r", result, inst).backend == "subprocess"

    def test_unknown_backend_rejected(self):
        with pytest.raises(ExperimentError, match="unknown execution"):
            make_backend("quantum")
        with pytest.raises(ExperimentError, match="unknown execution"):
            run_experiment(tiny_config(n_graphs=1), backend="quantum")

    def test_register_custom_backend(self):
        class LoudSerial(SerialBackend):
            name = "loud-serial"

        register_backend("loud-serial", LoudSerial)
        try:
            cfg = tiny_config(n_graphs=2)
            custom = run_experiment(cfg, backend="loud-serial")
            assert dicts(custom) == dicts(run_experiment(cfg, jobs=1))
        finally:
            BACKENDS.pop("loud-serial", None)


class TestShardPartition:
    def test_shards_cover_chunk_keys_disjointly(self):
        cfg = tiny_config(scenarios=("LDET", "MDET"), n_graphs=3)
        for n in (1, 2, 4, 7):
            parts = [shard_keys(cfg, i, n) for i in range(n)]
            merged = [k for part in parts for k in part]
            assert sorted(merged) == sorted(cfg.chunk_keys())
            assert len(merged) == len(set(merged))


class TestShardWorkerEntry:
    def test_module_runs_once_under_python_m(self):
        """The package never imports the worker module, so ``python -m``
        does not re-execute an already-loaded module (runpy would warn)."""
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(src) + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning",
             "-m", "repro.feast.backends.shardworker"],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("usage:"), proc.stderr


class TestCrossBackendParity:
    """Every backend must reproduce the serial records byte-for-byte."""

    def test_all_backends_identical(self):
        cfg = tiny_config(scenarios=("LDET", "MDET"), n_graphs=2)
        serial = run_experiment(cfg, jobs=1)
        expected = dicts(serial)
        explicit_serial = run_experiment(cfg, backend="serial")
        pool = run_experiment(cfg, jobs=2, backend="pool")
        two_shards = run_experiment(cfg, backend="subprocess", shards=2)
        four_shards = run_experiment(cfg, backend="subprocess", shards=4)
        assert dicts(explicit_serial) == expected
        assert dicts(pool) == expected
        assert dicts(two_shards) == expected
        assert dicts(four_shards) == expected
        # ... and so must every derived aggregate.
        for result in (pool, two_shards, four_shards):
            assert group_means(result.records) == group_means(serial.records)

    def test_subprocess_progress_and_instrumentation(self):
        cfg = tiny_config(n_graphs=2)
        inst = Instrumentation()
        calls = []
        result = run_experiment(
            cfg, backend="subprocess", shards=2, instrumentation=inst,
            progress=lambda d, t: calls.append((d, t)),
        )
        assert inst.trials_completed == cfg.n_trials
        assert calls[-1] == (cfg.n_trials, cfg.n_trials)
        assert result.timings.total > 0

    def test_pool_backend_rejects_unpicklable(self):
        cfg = tiny_config(
            graph_factory=lambda gc, rng: None,
            methods=(MethodSpec(label="PURE", metric="PURE"),),
        )
        with pytest.raises(ExperimentError, match="unpicklable"):
            run_experiment(cfg, jobs=2, backend="pool")

    def test_subprocess_backend_rejects_unpicklable(self):
        cfg = tiny_config(
            graph_factory=lambda gc, rng: None,
            methods=(MethodSpec(label="PURE", metric="PURE"),),
        )
        with pytest.raises(ExperimentError, match="unpicklable"):
            run_experiment(cfg, backend="subprocess")

    def test_subprocess_rejects_file_checkpoint(self, tmp_path):
        path = tmp_path / "journal.ckpt"
        path.write_text("not a directory\n")
        with pytest.raises(CheckpointError, match="directory"):
            run_experiment(
                tiny_config(n_graphs=1), backend="subprocess",
                checkpoint=str(path),
            )


class TestShardJournalAndResume:
    def test_journal_directory_layout(self, tmp_path):
        cfg = tiny_config(n_graphs=2)
        ck = tmp_path / "ck"
        run_experiment(cfg, backend="subprocess", shards=2,
                       checkpoint=str(ck))
        paths = journal_paths(str(ck))
        assert [os.path.basename(p) for p in paths] == [
            "shard-0-of-2.ckpt", "shard-1-of-2.ckpt",
        ]
        seen = []
        for path in paths:
            info = inspect_journal(path)
            assert info.experiment == cfg.name
            assert not info.duplicates and not info.torn_tail
            seen.extend(info.chunks)
        assert sorted(seen) == sorted(cfg.chunk_keys())

    def test_resume_replays_everything(self, tmp_path):
        cfg = tiny_config(n_graphs=2)
        ck = str(tmp_path / "ck")
        first = run_experiment(cfg, backend="subprocess", shards=2,
                               checkpoint=ck)
        inst = Instrumentation()
        second = run_experiment(cfg, backend="subprocess", shards=2,
                                checkpoint=ck, instrumentation=inst)
        assert dicts(second) == dicts(first)
        assert inst.replayed_trials == cfg.n_trials

    def test_killed_shard_relaunches_incrementally(self, tmp_path,
                                                   monkeypatch):
        """The kill plan is set long after ``repro`` was imported; a
        forked worker reads ``os.environ`` as it is at launch."""
        cfg = tiny_config(scenarios=("LDET", "MDET"), n_graphs=2)
        expected = dicts(run_experiment(cfg, jobs=1))
        monkeypatch.setenv("REPRO_SHARD_KILL_AFTER", "1")
        monkeypatch.setenv("REPRO_SHARD_KILL_SHARD", "0")
        ck = str(tmp_path / "ck")
        with pytest.warns(ExperimentWarning, match="code 86; relaunching"):
            result = run_experiment(cfg, backend="subprocess", shards=2,
                                    checkpoint=ck)
        # The shard died after journaling one chunk; the relaunch must
        # replay that chunk and still merge to the serial records.
        assert os.path.exists(
            os.path.join(ck, "shard-0-of-2.ckpt.killmark")
        )
        assert dicts(result) == expected
        assert result.fallback_reason is None
        assert result.supervision.relaunches == 1
        # ... and the journals it left resume byte-identical.
        inst = Instrumentation()
        resumed = run_experiment(cfg, backend="subprocess", shards=2,
                                 checkpoint=ck, instrumentation=inst)
        assert dicts(resumed) == expected
        assert inst.replayed_trials == cfg.n_trials

    def test_compacted_journal_resumes_at_any_shard_count(self, tmp_path):
        cfg = tiny_config(n_graphs=2)
        ck = str(tmp_path / "ck")
        first = run_experiment(cfg, backend="subprocess", shards=3,
                               checkpoint=ck)
        merged = compact_journals(ck)
        assert os.path.basename(merged) == "shard-0-of-1.ckpt"
        assert sorted(k for k, _ in iter_journal(merged)) == sorted(
            cfg.chunk_keys()
        )
        inst = Instrumentation()
        resumed = run_experiment(cfg, backend="subprocess", shards=1,
                                 checkpoint=ck, instrumentation=inst)
        assert dicts(resumed) == dicts(first)
        assert inst.replayed_trials == cfg.n_trials
        # The merged single-file journal also resumes the serial engine.
        serial = run_experiment(cfg, jobs=1, checkpoint=merged,
                                backend="serial")
        assert dicts(serial) == dicts(first)


class TestStreaming:
    def test_streaming_matches_materialized_records(self):
        cfg = tiny_config(scenarios=("LDET", "MDET"), n_graphs=2)
        serial = run_experiment(cfg, jobs=1)
        agg = StreamingAggregator()
        streamed = run_experiment(cfg, record_sink=agg)
        assert streamed.records == []
        assert streamed.streamed_trials == cfg.n_trials
        assert agg.n_records == cfg.n_trials
        expected = group_means(serial.records)
        assert set(agg.means()) == set(expected)
        for key, mean in agg.means().items():
            assert mean == pytest.approx(expected[key], rel=1e-12)

    def test_streaming_identical_across_backends(self):
        cfg = tiny_config(n_graphs=2)
        results = {}
        for backend, kwargs in (
            ("serial", {}),
            ("pool", {"jobs": 2}),
            ("subprocess", {"shards": 2}),
        ):
            agg = StreamingAggregator()
            run_experiment(cfg, backend=backend, record_sink=agg, **kwargs)
            results[backend] = agg.means()
        # ExactSum makes these *equal*, not just close, despite the
        # backends delivering chunks in different orders.
        assert results["serial"] == results["pool"]
        assert results["serial"] == results["subprocess"]

    def test_streaming_resume_folds_replayed_chunks(self, tmp_path):
        cfg = tiny_config(n_graphs=2)
        ck = str(tmp_path / "run.ckpt")
        run_experiment(cfg, backend="serial", checkpoint=ck)
        agg = StreamingAggregator()
        resumed = run_experiment(cfg, backend="serial", checkpoint=ck,
                                 record_sink=agg)
        assert resumed.streamed_trials == cfg.n_trials
        assert agg.n_records == cfg.n_trials

    def test_streaming_exact_under_kill_relaunch_and_failover(
        self, tmp_path
    ):
        """Aggregates streamed through a chaotic run — one shard killed
        and relaunched (its journaled chunk replays), the other poisoned
        until failover — must *equal* the clean serial aggregates: every
        chunk is folded exactly once no matter which worker, relaunch,
        or the parent sweep finally delivered it."""
        from repro.feast import faultinject
        from repro.feast.backends.work import RetryPolicy
        from repro.feast.faultinject import FaultPlan, FaultSpec

        cfg = tiny_config(n_graphs=6)
        serial = run_experiment(cfg, jobs=1)
        expected = group_means(serial.records)
        # Shard 0 (chunks 0,2,4): crash once mid-run, relaunch replays
        # chunk 0. Shard 1 (chunks 1,3,5): dies at chunk 3 on every
        # launch, so its remaining chunks fail over.
        plan = FaultPlan(faults=(
            FaultSpec(scenario="MDET", index=2, kind="crash", once=True),
            FaultSpec(scenario="MDET", index=3, kind="exit",
                      attempts=None),
        ))
        agg = StreamingAggregator()
        policy = RetryPolicy(max_attempts=3, backoff_base=0.01,
                             backoff_factor=2.0, backoff_max=0.05)
        with faultinject.active(plan):
            with pytest.warns(ExperimentWarning, match="failing over"):
                result = run_experiment(
                    cfg, backend="subprocess", shards=2,
                    checkpoint=str(tmp_path / "ck"), retry=policy,
                    record_sink=agg,
                )
        assert result.records == []
        assert result.streamed_trials == cfg.n_trials
        assert agg.n_records == cfg.n_trials
        assert agg.means() == expected  # exact, not approx
        assert result.supervision.relaunches >= 1
        assert result.supervision.shards_failed_over == 1
        assert result.supervision.chunks_replayed >= 1


class TestForkedWorkerStartsClean:
    """Shard workers are forked from the supervisor mid-run, yet must
    start as clean as a fresh interpreter: none of the parent's live
    state, handlers or stdio may carry over into them."""

    def test_status_stream_is_written_by_the_parent_alone(
        self, tmp_path, monkeypatch
    ):
        emit = StatusStream.emit

        def stamped(self, kind, **fields):
            emit(self, kind, writer=os.getpid(), **fields)

        monkeypatch.setattr(StatusStream, "emit", stamped)
        cfg = tiny_config(scenarios=("LDET", "MDET"), n_graphs=3)
        inst = Instrumentation()
        stream = StatusStream(
            str(tmp_path / "bke.status.jsonl"), cfg.name, "run-1"
        )
        sampler = StatusSampler(
            stream, inst, interval=0.05, backend="subprocess", shards=2
        )
        with activate_status(stream):
            sampler.start()
            try:
                run_experiment(cfg, backend="subprocess", shards=2,
                               instrumentation=inst)
            finally:
                sampler.stop()
        stream.close()
        events = read_status(stream.path)
        kinds = [e["kind"] for e in events]
        assert [e["seq"] for e in events] == list(range(len(events)))
        assert kinds.count("header") == 1 and kinds.count("final") == 1
        assert kinds[0] == "header" and kinds[-1] == "final"
        assert "progress" in kinds
        assert {e["writer"] for e in events} == {os.getpid()}

    def test_parent_sigterm_handler_does_not_shield_workers(self, tmp_path):
        """The parent ignores SIGTERM; a hung worker must still die on
        the stall ladder's SIGTERM, never needing the SIGKILL."""
        from repro.feast import faultinject
        from repro.feast.backends.work import RetryPolicy
        from repro.feast.faultinject import FaultPlan, FaultSpec

        cfg = tiny_config(scenarios=("LDET", "MDET"), n_graphs=3)
        expected = dicts(run_experiment(cfg, jobs=1))
        # Shard 0's second chunk: the first one has already journaled,
        # so the stall deadline carries no startup allowance.
        scenario, index = list(cfg.chunk_keys())[2]
        plan = FaultPlan(faults=(
            FaultSpec(scenario=scenario, index=index, kind="hang",
                      once=True, seconds=30.0),
        ))
        policy = RetryPolicy(max_attempts=3, backoff_base=0.01,
                             backoff_factor=2.0, backoff_max=0.05,
                             stall_timeout=0.8, stall_grace=2.0)
        previous = signal.signal(signal.SIGTERM, signal.SIG_IGN)
        try:
            with faultinject.active(plan):
                with pytest.warns(ExperimentWarning, match="stalled"):
                    result = run_experiment(
                        cfg, backend="subprocess", shards=2,
                        checkpoint=str(tmp_path / "ck"), retry=policy,
                    )
        finally:
            signal.signal(signal.SIGTERM, previous)
        assert dicts(result) == expected
        assert result.supervision.stalls_detected == 1
        assert result.supervision.kills_escalated == 0
        assert result.supervision.relaunches == 1

    def test_workers_forked_from_an_executor_thread_exit_cleanly(self):
        """``repro serve`` runs each job on a ``ThreadPoolExecutor``
        thread, which becomes the forked worker's main thread."""
        from concurrent.futures import ThreadPoolExecutor

        cfg = tiny_config(n_graphs=2)
        expected = dicts(run_experiment(cfg, jobs=1))
        with ThreadPoolExecutor(max_workers=1) as executor:
            result = executor.submit(
                run_experiment, cfg, backend="subprocess", shards=2
            ).result()
        assert result.supervision.relaunches == 0
        assert result.fallback_reason is None
        assert dicts(result) == expected

    def test_clean_start_drops_the_rest_of_the_parent_state(self, tmp_path):
        """Checked inside a forked child: no telemetry session, trial
        budget, parent signal handler or signal wakeup fd survives."""
        from repro import budget
        from repro.feast.backends import shards
        from repro.obs import live as obs_live
        from repro.obs import runtime as obs_runtime

        log = str(tmp_path / "child.log")
        clean = (None, None, None, signal.SIG_DFL,
                 signal.default_int_handler, -1)

        def child():
            shards._clean_start(log)
            state = (
                obs_live.active_status(), obs_runtime.active(),
                budget.current_trial_deadline(),
                signal.getsignal(signal.SIGTERM),
                signal.getsignal(signal.SIGINT),
                signal.set_wakeup_fd(-1),
            )
            print(state)
            sys.exit(0 if state == clean else 1)

        stream = StatusStream(str(tmp_path / "p.status.jsonl"), "p", "run-1")
        reader, writer = socket.socketpair()
        writer.setblocking(False)
        previous_term = signal.signal(signal.SIGTERM, signal.SIG_IGN)
        previous_wakeup = signal.set_wakeup_fd(writer.fileno())
        try:
            with activate_status(stream), \
                    obs_runtime.activate(obs_runtime.Telemetry()), \
                    budget.trial_deadline(60.0):
                proc = shards._FORK.Process(target=child)
                proc.start()
                proc.join(30)
        finally:
            signal.set_wakeup_fd(previous_wakeup)
            signal.signal(signal.SIGTERM, previous_term)
            reader.close()
            writer.close()
            stream.close()
        with open(log) as fp:
            output = fp.read()
        assert proc.exitcode == 0, output


class TestJournalRepair:
    """A journal torn mid-record (crash during append) must resume."""

    def test_truncated_tail_recovers_on_resume(self, tmp_path):
        cfg = tiny_config(n_graphs=3)
        ck = str(tmp_path / "run.ckpt")
        complete = run_experiment(cfg, backend="serial", checkpoint=ck)
        with open(ck, "rb") as fp:
            data = fp.read()
        # Cut the final record in half, as a crash mid-write would.
        cut = data.rstrip(b"\n").rfind(b"\n") + 1 + 17
        with open(ck, "wb") as fp:
            fp.write(data[:cut])
        info = inspect_journal(ck)
        assert info.torn_tail and info.n_chunks == len(cfg.chunk_keys()) - 1
        inst = Instrumentation()
        with pytest.warns(ExperimentWarning, match="partial line"):
            resumed = run_experiment(cfg, backend="serial", checkpoint=ck,
                                     instrumentation=inst)
        assert dicts(resumed) == dicts(complete)
        # Exactly the torn chunk re-ran; the intact ones replayed.
        assert inst.replayed_trials == cfg.n_trials - cfg.trials_per_graph
        assert not inspect_journal(ck).torn_tail

    def test_iter_journal_skips_torn_tail(self, tmp_path):
        cfg = tiny_config(n_graphs=2)
        ck = str(tmp_path / "run.ckpt")
        run_experiment(cfg, backend="serial", checkpoint=ck)
        with open(ck, "rb") as fp:
            data = fp.read()
        with open(ck, "wb") as fp:
            fp.write(data[:-10])
        keys = [k for k, _ in iter_journal(ck)]
        assert len(keys) == len(cfg.chunk_keys()) - 1
        assert len(set(keys)) == len(keys)
