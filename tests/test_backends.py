"""Execution backends: registry, cross-backend parity, shard merge,
kill-and-resume fault tolerance, streaming aggregation, journal repair."""

import json
import os
import signal
import socket
import subprocess
import sys

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
    SERIAL_JOURNAL,
    compact_journals,
    inspect_journal,
    iter_journal,
    journal_paths,
)
from repro.feast.runner import run_experiment
from repro.graph.generator import RandomGraphConfig
from repro.graph.structured import generate_pipeline
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


class TestCrossBackendParity:
    """Every backend must reproduce the serial records byte-for-byte."""

    def test_all_backends_identical(self):
        cfg = tiny_config(scenarios=("LDET", "MDET"), n_graphs=2)
        serial = run_experiment(cfg, jobs=1)
        expected = dicts(serial)
        explicit_serial = run_experiment(cfg, backend="serial")
        pool = run_experiment(cfg, jobs=2, backend="pool")
        two_shards = run_experiment(cfg, backend="subprocess", jobs=2)
        four_shards = run_experiment(cfg, backend="subprocess", jobs=4)
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
            cfg, backend="subprocess", jobs=2, instrumentation=inst,
            progress=lambda d, t: calls.append((d, t)),
        )
        assert inst.trials_completed == cfg.n_trials
        assert calls[-1] == (cfg.n_trials, cfg.n_trials)
        assert result.timings.total > 0

    def test_pool_backend_rejects_unpicklable(self):
        """``backend="pool"`` no longer rejects an unpicklable config: a
        lambda ``graph_factory`` runs on the forked fleet."""
        cfg = tiny_config(
            graph_factory=lambda gc, rng: generate_pipeline(
                5, config=gc, rng=rng),
            methods=(MethodSpec(label="PURE", metric="PURE"),),
        )
        result = run_experiment(cfg, jobs=2, backend="pool")
        assert result.engine == "subprocess"
        assert dicts(result) == dicts(run_experiment(cfg, jobs=1))

    def test_subprocess_backend_rejects_unpicklable(self):
        """``backend="subprocess"`` no longer rejects an unpicklable
        config: a lambda ``graph_factory`` runs on the forked fleet."""
        cfg = tiny_config(
            graph_factory=lambda gc, rng: generate_pipeline(
                5, config=gc, rng=rng),
            methods=(MethodSpec(label="PURE", metric="PURE"),),
        )
        result = run_experiment(cfg, backend="subprocess")
        assert result.engine == "subprocess"
        assert dicts(result) == dicts(run_experiment(cfg, jobs=1))

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
        run_experiment(cfg, backend="subprocess", jobs=2,
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
        first = run_experiment(cfg, backend="subprocess", jobs=2,
                               checkpoint=ck)
        inst = Instrumentation()
        second = run_experiment(cfg, backend="subprocess", jobs=2,
                                checkpoint=ck, instrumentation=inst)
        assert dicts(second) == dicts(first)
        assert inst.replayed_trials == cfg.n_trials

    def test_killed_shard_relaunches_incrementally(self, tmp_path,
                                                   kill_shard_once):
        cfg = tiny_config(scenarios=("LDET", "MDET"), n_graphs=2)
        expected = dicts(run_experiment(cfg, jobs=1))
        ck = str(tmp_path / "ck")
        with pytest.warns(ExperimentWarning, match="code 3; relaunching"):
            result = run_experiment(cfg, backend="subprocess", jobs=2,
                                    checkpoint=ck)
        # The shard died after journaling one chunk; the relaunch must
        # replay that chunk and still merge to the serial records.
        assert kill_shard_once.exists()
        assert dicts(result) == expected
        assert result.supervision.relaunches == 1
        assert result.supervision.chunks_replayed == 1
        # ... and the journals it left resume byte-identical.
        inst = Instrumentation()
        resumed = run_experiment(cfg, backend="subprocess", jobs=2,
                                 checkpoint=ck, instrumentation=inst)
        assert dicts(resumed) == expected
        assert inst.replayed_trials == cfg.n_trials

    def test_compacted_journal_resumes_at_any_shard_count(self, tmp_path):
        cfg = tiny_config(n_graphs=2)
        ck = str(tmp_path / "ck")
        first = run_experiment(cfg, backend="subprocess", jobs=3,
                               checkpoint=ck)
        merged = compact_journals(ck)
        assert os.path.basename(merged) == "shard-0-of-1.ckpt"
        assert sorted(k for k, _ in iter_journal(merged)) == sorted(
            cfg.chunk_keys()
        )
        inst = Instrumentation()
        resumed = run_experiment(cfg, backend="subprocess", jobs=1,
                                 checkpoint=ck, instrumentation=inst)
        assert dicts(resumed) == dicts(first)
        assert inst.replayed_trials == cfg.n_trials
        # The compacted directory also resumes the serial engine.
        serial = run_experiment(cfg, jobs=1, checkpoint=ck,
                                backend="serial")
        assert dicts(serial) == dicts(first)


def shard_journals(directory):
    return sorted(os.path.basename(p) for p in journal_paths(str(directory)))


def record_executions(monkeypatch, log):
    """Append every chunk any process executes to ``log``: forked
    workers inherit the patch and append to the same file."""
    from repro.feast.backends import base

    real = base.execute_chunk

    def execute_chunk(spec, *args, **kwargs):
        with open(log, "a") as fp:
            fp.write(f"{spec.scenario} {spec.index}\n")
        return real(spec, *args, **kwargs)

    monkeypatch.setattr(base, "execute_chunk", execute_chunk)

    def executed():
        if not os.path.exists(log):
            return []
        with open(log) as fp:
            return sorted(
                (scenario, int(index))
                for scenario, index in (line.split() for line in fp)
            )

    return executed


class TestOneWorkerCount:
    def test_every_fleet_name_runs_jobs_workers(self, tmp_path):
        """``jobs`` sizes the fleet under either name, and ``shards``
        is only an older name of ``jobs``."""
        cfg = tiny_config(scenarios=("LDET", "MDET"), n_graphs=2)
        expected = dicts(run_experiment(cfg, jobs=1))
        four = [f"shard-{i}-of-4.ckpt" for i in range(4)]
        for backend in ("pool", "subprocess"):
            for kwargs in ({"jobs": 4}, {"jobs": 1, "shards": 4}):
                ck = tmp_path / f"{backend}-{len(kwargs)}"
                result = run_experiment(cfg, backend=backend,
                                        checkpoint=str(ck), **kwargs)
                assert shard_journals(ck) == four, (backend, kwargs)
                assert result.jobs == 4
                assert dicts(result) == expected

    def test_fleet_is_capped_at_one_worker_per_chunk(self, tmp_path):
        cfg = tiny_config(n_graphs=2)
        ck = tmp_path / "ck"
        run_experiment(cfg, backend="subprocess", jobs=8, checkpoint=str(ck))
        assert shard_journals(ck) == ["shard-0-of-2.ckpt",
                                      "shard-1-of-2.ckpt"]


class TestReportedWorkers:
    """``ExperimentResult.jobs`` counts the workers that ran, not the
    ``jobs`` requested; the run summary, registry record and saved
    result follow it."""

    def test_fleet_reports_the_workers_it_launched(self, tmp_path):
        from repro.feast.persistence import load_result, save_result
        from repro.feast.sweep import registry_record, run_summary

        cfg = tiny_config(n_graphs=2)
        inst = Instrumentation()
        result = run_experiment(cfg, jobs=8, instrumentation=inst)
        assert (result.engine, result.jobs) == ("subprocess", 2)
        assert run_summary(result, inst)["jobs"] == 2
        assert registry_record("r", result, inst).jobs == 2
        path = str(tmp_path / "result.json")
        save_result(result, path)
        assert load_result(path).jobs == 2

    def test_serial_backend_reports_one_worker(self):
        result = run_experiment(tiny_config(), backend="serial", jobs=3)
        assert (result.engine, result.jobs) == ("serial", 1)

    def test_fleet_that_only_replays_reports_one_worker(self, tmp_path):
        cfg = tiny_config()
        ck = str(tmp_path / "ck")
        first = run_experiment(cfg, jobs=3, checkpoint=ck)
        assert first.jobs == 3
        resumed = run_experiment(cfg, jobs=3, checkpoint=ck)
        assert resumed.supervision.chunks_replayed == 3
        assert (resumed.engine, resumed.jobs) == ("subprocess", 1)
        assert dicts(resumed) == dicts(first)


class TestCrossResume:
    """Any checkpoint resumes under any worker count, byte-identical to
    an uninterrupted run, and no chunk a journal holds runs again."""

    def test_serial_checkpoint_resumes_on_the_fleet(
        self, tmp_path, monkeypatch
    ):
        cfg = tiny_config(scenarios=("LDET", "MDET"), n_graphs=3)
        clean = dicts(run_experiment(cfg, jobs=1))
        ck = str(tmp_path / "ck")
        seen = []

        def interrupt_after_two(done, total):
            seen.append(done)
            if len(seen) == 2:
                raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            run_experiment(cfg, jobs=1, checkpoint=ck,
                           progress=interrupt_after_two)
        held = sorted(key for key, _ in iter_journal(
            os.path.join(ck, SERIAL_JOURNAL)))
        assert len(held) == 2

        executed = record_executions(monkeypatch, str(tmp_path / "ran"))
        inst = Instrumentation()
        resumed = run_experiment(cfg, jobs=2, checkpoint=ck,
                                 instrumentation=inst)
        assert dicts(resumed) == clean
        assert inst.replayed_trials == 2 * cfg.trials_per_graph
        assert resumed.supervision.chunks_replayed == 2
        missing = sorted(set(cfg.chunk_keys()) - set(held))
        assert executed() == missing
        assert shard_journals(ck) == [
            "shard-0-of-1.ckpt", "shard-0-of-2.ckpt", "shard-1-of-2.ckpt",
        ]

    def test_fleet_checkpoint_resumes_serially(self, tmp_path, monkeypatch):
        cfg = tiny_config(scenarios=("LDET", "MDET"), n_graphs=3)
        clean = dicts(run_experiment(cfg, jobs=1))
        ck = tmp_path / "ck"
        run_experiment(cfg, jobs=2, checkpoint=str(ck))
        # Interrupted before shard 1's last chunk landed.
        journal = ck / "shard-1-of-2.ckpt"
        lines = journal.read_text().splitlines(keepends=True)
        lost = json.loads(lines[-1])
        journal.write_text("".join(lines[:-1]))

        executed = record_executions(monkeypatch, str(tmp_path / "ran"))
        inst = Instrumentation()
        resumed = run_experiment(cfg, jobs=1, checkpoint=str(ck),
                                 instrumentation=inst)
        assert dicts(resumed) == clean
        assert inst.replayed_trials == cfg.n_trials - cfg.trials_per_graph
        assert executed() == [(lost["scenario"], lost["index"])]
        assert [key for key, _ in iter_journal(str(ck / SERIAL_JOURNAL))] == [
            (lost["scenario"], lost["index"])
        ]


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
            ("subprocess", {"jobs": 2}),
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

    def test_streaming_exact_under_kill_relaunch_and_quarantine(
        self, tmp_path
    ):
        """Aggregates streamed through a chaotic run — one shard killed
        and relaunched (its journaled chunk replays), the other poisoned
        on one chunk until it is quarantined — must *equal* the clean
        serial aggregates of every other chunk: each chunk is folded
        exactly once no matter which launch finally delivered it."""
        from repro.feast import faultinject
        from repro.feast.backends.work import RetryPolicy
        from repro.feast.faultinject import FaultPlan, FaultSpec

        cfg = tiny_config(n_graphs=6)
        serial = run_experiment(cfg, jobs=1)
        expected = group_means(
            [r for r in serial.records if r.graph_index != 3]
        )
        # Shard 0 (chunks 0,2,4): crash once mid-run, relaunch replays
        # chunk 0. Shard 1 (chunks 1,3,5): dies at chunk 3 on every
        # launch, so chunk 3 is quarantined.
        plan = FaultPlan(faults=(
            FaultSpec(scenario="MDET", index=2, kind="crash", once=True),
            FaultSpec(scenario="MDET", index=3, kind="exit",
                      attempts=None),
        ))
        agg = StreamingAggregator()
        policy = RetryPolicy(max_attempts=3, backoff_base=0.01,
                             backoff_factor=2.0, backoff_max=0.05)
        ck = tmp_path / "ck"
        with faultinject.active(plan):
            with pytest.warns(ExperimentWarning, match="relaunching"):
                result = run_experiment(
                    cfg, backend="subprocess", jobs=2,
                    checkpoint=str(ck), retry=policy,
                    record_sink=agg,
                )
        kept = cfg.n_trials - cfg.trials_per_graph
        assert result.records == []
        assert result.quarantined == [("MDET", 3)]
        assert result.streamed_trials == kept
        assert agg.n_records == kept
        assert agg.means() == expected  # exact, not approx
        assert result.supervision.relaunches >= 1
        assert result.supervision.chunks_replayed >= 1
        names = os.listdir(ck)
        assert not any(name.startswith("failover-") for name in names)
        assert "parent.ckpt" not in names


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
            stream, inst, interval=0.05, backend="subprocess", jobs=2
        )
        with activate_status(stream):
            sampler.start()
            try:
                run_experiment(cfg, backend="subprocess", jobs=2,
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
                        cfg, backend="subprocess", jobs=2,
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
                run_experiment, cfg, backend="subprocess", jobs=2
            ).result()
        assert result.supervision.relaunches == 0
        assert result.engine == "subprocess"
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
        journal = os.path.join(ck, SERIAL_JOURNAL)
        with open(journal, "rb") as fp:
            data = fp.read()
        # Cut the final record in half, as a crash mid-write would.
        cut = data.rstrip(b"\n").rfind(b"\n") + 1 + 17
        with open(journal, "wb") as fp:
            fp.write(data[:cut])
        info = inspect_journal(journal)
        assert info.torn_tail and info.n_chunks == len(cfg.chunk_keys()) - 1
        inst = Instrumentation()
        with pytest.warns(ExperimentWarning, match="partial line"):
            resumed = run_experiment(cfg, backend="serial", checkpoint=ck,
                                     instrumentation=inst)
        assert dicts(resumed) == dicts(complete)
        # Exactly the torn chunk re-ran; the intact ones replayed.
        assert inst.replayed_trials == cfg.n_trials - cfg.trials_per_graph
        assert not inspect_journal(journal).torn_tail

    def test_iter_journal_skips_torn_tail(self, tmp_path):
        cfg = tiny_config(n_graphs=2)
        ck = str(tmp_path / "run.ckpt")
        run_experiment(cfg, backend="serial", checkpoint=ck)
        journal = os.path.join(ck, SERIAL_JOURNAL)
        with open(journal, "rb") as fp:
            data = fp.read()
        with open(journal, "wb") as fp:
            fp.write(data[:-10])
        keys = [k for k, _ in iter_journal(journal)]
        assert len(keys) == len(cfg.chunk_keys()) - 1
        assert len(set(keys)) == len(keys)


class TestSupervisorWakeups:
    def test_worker_exits_wake_the_parent_once_each(self, monkeypatch):
        """Without stall supervision or progress callbacks the parent
        sleeps on the workers' exit sentinels. A worker whose sentinel
        is ready is reaped at once, so each exit costs a wake-up or two
        instead of a spin until ``waitpid`` can collect it."""
        from repro.feast.backends import shards

        wakeups, launches = [], []
        wait, launch = shards.wait_for_exit, shards._Fleet._launch

        def counting_wait(*args):
            wakeups.append(args)
            return wait(*args)

        def counting_launch(self, slot):
            launches.append(slot.ident)
            return launch(self, slot)

        monkeypatch.setattr(shards, "wait_for_exit", counting_wait)
        monkeypatch.setattr(shards._Fleet, "_launch", counting_launch)
        cfg = tiny_config(n_graphs=4)
        result = run_experiment(cfg, jobs=2)
        assert dicts(result) == dicts(run_experiment(cfg, jobs=1))
        assert len(launches) == 2
        assert 1 <= len(wakeups) <= 2 * len(launches)
