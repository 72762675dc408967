"""The fault-tolerant engine: injected crashes, hangs, deterministic
exceptions, quarantine, and checkpoint/resume.

Every test uses the deterministic fault-injection harness
(:mod:`repro.feast.faultinject`) — the same plan against the same config
fails the same chunks on the same attempts, every run — so these are
ordinary deterministic tests, not flaky chaos tests. Configs are tiny
(one scenario, one method, one size) and retry backoffs are shortened so
the suite stays fast even on one core.
"""

import json
import os
import subprocess
import sys
import textwrap
import time

import pytest

from repro.errors import (
    CheckpointError,
    ExperimentError,
    ExperimentWarning,
    QuarantinedTrialError,
)
from repro.feast import faultinject
from repro.feast.config import ExperimentConfig, MethodSpec
from repro.feast.faultinject import FaultPlan, FaultSpec, InjectedFaultError
from repro.feast.instrumentation import Instrumentation
from repro.feast.backends import RetryPolicy
from repro.feast.persistence import (
    SERIAL_JOURNAL,
    CheckpointJournal,
    config_fingerprint,
    iter_journal,
    journal_paths,
)
from repro.feast.runner import run_experiment
from repro.graph.generator import RandomGraphConfig

SRC_DIR = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")


def ft_config(**kwargs):
    defaults = dict(
        name="ft",
        description="fault tolerance test",
        methods=(MethodSpec(label="PURE", metric="PURE"),),
        graph_config=RandomGraphConfig(
            n_subtasks_range=(6, 8), depth_range=(2, 3)
        ),
        scenarios=("MDET",),
        n_graphs=3,
        system_sizes=(2,),
        seed=11,
    )
    defaults.update(kwargs)
    return ExperimentConfig(**defaults)


#: Shortened backoffs so retries don't dominate test wall-clock.
FAST = RetryPolicy(
    max_attempts=3, backoff_base=0.01, backoff_factor=2.0, backoff_max=0.05
)


def record_dicts(result):
    return [r.as_dict() for r in result.records]


@pytest.fixture(autouse=True)
def no_leftover_plan():
    faultinject.uninstall()
    yield
    faultinject.uninstall()


class TestFaultPlan:
    def test_json_roundtrip(self):
        plan = FaultPlan(
            faults=(
                FaultSpec(scenario="MDET", index=1, kind="error"),
                FaultSpec(scenario="LDET", index=0, kind="hang",
                          attempts=None, seconds=2.5),
            ),
        )
        back = FaultPlan.from_json(plan.to_json())
        assert back == plan

    def test_unknown_kind_rejected(self):
        with pytest.raises(Exception, match="unknown fault kind"):
            FaultSpec(scenario="MDET", index=0, kind="explode")

    def test_seeded_plan_is_deterministic(self):
        a = FaultPlan.seeded(7, ("LDET", "MDET"), 16, rate=0.3)
        b = FaultPlan.seeded(7, ("LDET", "MDET"), 16, rate=0.3)
        assert a.faults == b.faults
        assert FaultPlan.seeded(8, ("LDET", "MDET"), 16, rate=0.3) != a

    def test_fires_on_selected_attempts_only(self):
        spec = FaultSpec(scenario="MDET", index=0, kind="error",
                         attempts=(0, 2))
        assert spec.fires_on(0) and spec.fires_on(2)
        assert not spec.fires_on(1)
        every = FaultSpec(scenario="MDET", index=0, kind="error",
                          attempts=None)
        assert all(every.fires_on(i) for i in range(5))

    def test_no_plan_is_a_noop(self):
        faultinject.maybe_inject("MDET", 0, 0)


class TestTransientFaults:
    def test_transient_exception_is_retried(self):
        cfg = ft_config()
        clean = run_experiment(cfg)
        plan = FaultPlan(faults=(
            FaultSpec(scenario="MDET", index=1, kind="error",
                      attempts=(0,)),
        ))
        inst = Instrumentation()
        with faultinject.active(plan):
            result = run_experiment(
                cfg, jobs=1, retry=FAST, instrumentation=inst
            )
        assert record_dicts(result) == record_dicts(clean)
        assert result.complete and result.check() is result
        assert inst.retries == 1 and inst.quarantined == 0
        kinds = [f.kind for f in result.failures]
        assert kinds == ["exception"]
        assert result.failures[0].index == 1

    def test_worker_crash_is_retried(self):
        """A worker killed mid-chunk is relaunched; its journal makes
        the relaunch re-run only what was missing."""
        cfg = ft_config(n_graphs=2)
        clean = run_experiment(cfg)
        plan = FaultPlan(faults=(
            FaultSpec(scenario="MDET", index=0, kind="crash", once=True),
        ))
        with faultinject.active(plan):
            with pytest.warns(ExperimentWarning, match="relaunching"):
                result = run_experiment(cfg, jobs=2, retry=FAST)
        assert record_dicts(result) == record_dicts(clean)
        assert result.complete
        assert result.supervision.relaunches == 1
        assert result.engine == "subprocess"

    def test_hang_is_killed_and_retried(self):
        """``trial_timeout`` bounds a wedged worker: with no
        ``stall_timeout`` the stall deadline is one chunk's budget."""
        cfg = ft_config(n_graphs=4, trial_timeout=0.25)
        clean = run_experiment(ft_config(n_graphs=4))
        # Graph 2 is worker 0's second chunk: its first one journaled,
        # so the stall needs no startup allowance to be detected.
        plan = FaultPlan(faults=(
            FaultSpec(scenario="MDET", index=2, kind="hang", once=True,
                      seconds=20.0),
        ))
        policy = RetryPolicy(
            max_attempts=3, backoff_base=0.01, backoff_max=0.05,
            timeout_grace=0.25,
        )
        assert policy.stall_deadline(cfg) == 0.5
        with faultinject.active(plan):
            with pytest.warns(ExperimentWarning, match="stalled"):
                result = run_experiment(cfg, jobs=2, retry=policy)
        # trial_timeout does not affect records, only survival.
        assert record_dicts(result) == record_dicts(clean)
        assert result.complete
        assert result.supervision.stalls_detected >= 1
        assert result.supervision.relaunches >= 1


    def test_chunk_that_always_hangs_is_quarantined(self):
        """Each stall costs the hanging chunk one attempt, not its
        worker a launch; after ``max_attempts`` the chunk is quarantined
        and the run finishes without it."""
        cfg = ft_config(n_graphs=4, trial_timeout=0.25)
        clean = run_experiment(ft_config(n_graphs=4))
        plan = FaultPlan(faults=(
            FaultSpec(scenario="MDET", index=2, kind="hang", attempts=None,
                      seconds=60.0),
        ))
        policy = RetryPolicy(
            max_attempts=3, backoff_base=0.01, backoff_max=0.05,
            timeout_grace=0.25, stall_grace=0.5,
        )
        inst = Instrumentation()
        with faultinject.active(plan):
            with pytest.warns(ExperimentWarning, match="stalled"):
                result = run_experiment(
                    cfg, jobs=2, retry=policy, instrumentation=inst
                )
        assert result.quarantined == [("MDET", 2)]
        assert record_dicts(result) == [
            r for r in record_dicts(clean) if r["graph_index"] != 2
        ]
        assert result.supervision.stalls_detected == 3
        # Three stall kills, three relaunches: the last one without
        # the quarantined chunk.
        assert result.supervision.relaunches == 3
        assert result.engine == "subprocess"
        kinds = [f.kind for f in result.failures]
        assert kinds == ["timeout"] * 3 + ["quarantine"]
        assert inst.quarantined == 1 and inst.retries == 2


class TestFaultPlanEnvironment:
    """Plans set from the shell, as a CLI-driven run gets them."""

    def test_once_fault_with_a_missing_state_dir_fires_once(
        self, tmp_path, monkeypatch
    ):
        cfg = ft_config(n_graphs=4)
        clean = run_experiment(cfg)
        state_dir = tmp_path / "not" / "made"
        plan = FaultPlan(faults=(
            FaultSpec(scenario="MDET", index=1, kind="exit", once=True),
        ), state_dir=str(state_dir))
        monkeypatch.setenv(faultinject.ENV_VAR, plan.to_json())
        with pytest.warns(ExperimentWarning, match="relaunching"):
            result = run_experiment(cfg, jobs=2, retry=FAST)
        assert result.supervision.relaunches == 1
        assert result.quarantined == []
        assert record_dicts(result) == record_dicts(clean)
        assert os.listdir(state_dir) == ["exit-MDET-1.fired"]

    def test_fault_plugin_is_imported_by_the_parent_only(
        self, tmp_path, monkeypatch
    ):
        """The plugin module loads once, in the process that forks the
        workers, before the first fork: a worker never imports it."""
        pids = tmp_path / "imported-by"
        name = "fault_plugin_parent_only"
        (tmp_path / f"{name}.py").write_text(
            "import os\n"
            f"with open({str(pids)!r}, 'a') as fp:\n"
            "    fp.write(f'{os.getpid()}\\n')\n"
        )
        monkeypatch.syspath_prepend(str(tmp_path))
        monkeypatch.delitem(sys.modules, name, raising=False)
        monkeypatch.setenv(faultinject.PLUGIN_ENV_VAR, name)
        plan = FaultPlan(faults=(
            FaultSpec(scenario="MDET", index=1, kind="slow-io",
                      seconds=0.0),
        ))
        monkeypatch.setenv(faultinject.ENV_VAR, plan.to_json())
        try:
            result = run_experiment(ft_config(n_graphs=4), jobs=2)
        finally:
            sys.modules.pop(name, None)
        assert result.engine == "subprocess"
        assert pids.read_text().split() == [str(os.getpid())]


class TestQuarantine:
    def test_deterministic_exception_quarantines_fast(self):
        """The same exception twice marks the chunk deterministic — it is
        quarantined after 2 attempts even with retries to spare."""
        cfg = ft_config(max_retries=5)
        plan = FaultPlan(faults=(
            FaultSpec(scenario="MDET", index=1, kind="error",
                      attempts=None),
        ))
        inst = Instrumentation()
        with faultinject.active(plan):
            result = run_experiment(
                cfg, jobs=1,
                retry=RetryPolicy(max_attempts=6, backoff_base=0.01,
                                  backoff_max=0.02),
                instrumentation=inst,
            )
        assert result.quarantined == [("MDET", 1)]
        assert not result.complete
        exception_events = [
            f for f in result.failures if f.kind == "exception"
        ]
        assert len(exception_events) == 2  # not 6
        assert inst.quarantined == 1
        # The healthy chunks' records survive, in canonical order.
        assert [r.graph_index for r in result.records] == [0, 2]
        with pytest.raises(QuarantinedTrialError, match=r"\(MDET, 1\)"):
            result.check()

    def test_exhausted_attempts_quarantine(self, monkeypatch):
        """An exception whose message changes between attempts looks
        transient, so it burns through the full attempt budget — inside
        the worker that runs the chunk."""
        import repro.feast.backends.base as base_mod

        real_execute_chunk = base_mod.execute_chunk

        def flaky(spec, attempt, *args):
            if spec.index == 0:
                raise RuntimeError(f"flaky on attempt {attempt}")
            return real_execute_chunk(spec, attempt, *args)

        # Forked workers inherit the patched module.
        monkeypatch.setattr(base_mod, "execute_chunk", flaky)
        cfg = ft_config(n_graphs=2)
        policy = RetryPolicy(max_attempts=2, backoff_base=0.01,
                             backoff_max=0.02)
        result = run_experiment(cfg, jobs=2, retry=policy)
        assert result.quarantined == [("MDET", 0)]
        assert len(result.records) == cfg.n_trials - cfg.trials_per_graph
        quarantine_events = [
            f for f in result.failures if f.kind == "quarantine"
        ]
        assert len(quarantine_events) == 1
        assert "attempts" in quarantine_events[0].message

    def test_run_never_raises_on_faults(self):
        """The acceptance bar: a fault-ridden sweep still returns a
        completed ExperimentResult, never a crashed run."""
        cfg = ft_config(n_graphs=4)
        plan = FaultPlan(faults=(
            FaultSpec(scenario="MDET", index=0, kind="error",
                      attempts=None),
            FaultSpec(scenario="MDET", index=2, kind="error",
                      attempts=(0,)),
        ))
        with faultinject.active(plan):
            result = run_experiment(cfg, jobs=1, retry=FAST)
        assert result.quarantined == [("MDET", 0)]
        assert [r.graph_index for r in result.records] == [1, 2, 3]


class TestWorkerDeaths:
    """Every worker death is charged to the chunk it was running; a
    worker that dies outside any chunk is an environment fault."""

    def test_poison_chunk_is_quarantined(self, tmp_path):
        """A chunk that kills every worker it runs in costs one attempt
        per death and is quarantined after ``max_attempts``; the rest of
        the sweep equals serial and nothing runs in the parent."""
        cfg = ft_config(n_graphs=4)
        clean = run_experiment(cfg)
        plan = FaultPlan(faults=(
            FaultSpec(scenario="MDET", index=2, kind="crash",
                      attempts=None),
        ))
        policy = RetryPolicy(max_attempts=2, backoff_base=0.01,
                             backoff_max=0.02)
        ck = tmp_path / "ck"
        inst = Instrumentation()
        with faultinject.active(plan):
            with pytest.warns(ExperimentWarning, match="relaunching"):
                result = run_experiment(
                    cfg, jobs=2, retry=policy, checkpoint=str(ck),
                    instrumentation=inst,
                )
        assert result.quarantined == [("MDET", 2)]
        assert record_dicts(result) == [
            r for r in record_dicts(clean) if r["graph_index"] != 2
        ]
        kinds = [f.kind for f in result.failures]
        assert kinds == ["crash"] * 2 + ["quarantine"]
        assert "SIGKILL" in result.failures[0].message
        assert inst.quarantined == 1 and inst.retries == 1
        assert result.engine == "subprocess"
        assert sorted(
            name for name in os.listdir(ck) if name.endswith(".ckpt")
        ) == ["shard-0-of-2.ckpt", "shard-1-of-2.ckpt"]

    def test_environment_fault_raises_and_resumes(
        self, tmp_path, monkeypatch
    ):
        """A worker that dies on every launch before it names a chunk
        raises, naming its log; the journals stay, and a rerun resumes
        from them."""
        from repro.feast.backends import shards

        cfg = ft_config(n_graphs=4)
        clean = run_experiment(cfg)
        ck = tmp_path / "ck"
        real_run_shard = shards.run_shard

        def broken(*args, shard, n_shards):
            if shard == 0:
                return real_run_shard(*args, shard=shard, n_shards=n_shards)
            # Shard 1 cannot start. It waits for shard 0 to finish, so
            # the failed run leaves journaled chunks, then dies.
            summary = ck / "shard-0-of-2.summary.json"
            deadline = time.monotonic() + 30
            while not summary.exists() and time.monotonic() < deadline:
                time.sleep(0.01)
            return 3

        # Forked workers inherit the patched module.
        monkeypatch.setattr(shards, "run_shard", broken)
        with pytest.warns(ExperimentWarning, match="relaunching"):
            with pytest.raises(
                ExperimentError, match=r"shard-1-of-2\.log"
            ) as raised:
                run_experiment(cfg, jobs=2, retry=FAST, checkpoint=str(ck))
        assert "environment fault" in str(raised.value)
        assert "exit code 3" in str(raised.value)
        journaled = {
            key for path in journal_paths(str(ck))
            for key, _ in iter_journal(path)
        }
        assert journaled == {("MDET", 0), ("MDET", 2)}

        monkeypatch.setattr(shards, "run_shard", real_run_shard)
        inst = Instrumentation()
        resumed = run_experiment(cfg, jobs=2, checkpoint=str(ck),
                                 instrumentation=inst)
        assert record_dicts(resumed) == record_dicts(clean)
        assert resumed.supervision.chunks_replayed == len(journaled)
        assert inst.replayed_trials == len(journaled) * cfg.trials_per_graph

    def test_self_killing_chunk_spares_the_parent(self, tmp_path):
        """A chunk that really SIGKILLs the process it runs in, with no
        fault plan at all: the parent (a child interpreter here, so a
        regression cannot take pytest down) survives, quarantines it,
        and returns every other record as serial does."""
        script = textwrap.dedent('''
            import json, os, signal, sys
            import repro.feast.backends.base as base
            from repro.feast.backends import RetryPolicy
            from repro.feast.config import ExperimentConfig, MethodSpec
            from repro.feast.runner import run_experiment
            from repro.graph.generator import RandomGraphConfig

            cfg = ExperimentConfig(
                name="ft", description="self-kill",
                methods=(MethodSpec(label="PURE", metric="PURE"),),
                graph_config=RandomGraphConfig(
                    n_subtasks_range=(6, 8), depth_range=(2, 3)),
                scenarios=("MDET",), n_graphs=4, system_sizes=(2,),
                seed=11,
            )
            serial = [r.as_dict() for r in run_experiment(cfg).records]
            real = base.execute_chunk

            def poison(spec, *args):
                if spec.index == 1:
                    os.kill(os.getpid(), signal.SIGKILL)
                return real(spec, *args)

            base.execute_chunk = poison
            result = run_experiment(cfg, jobs=2, retry=RetryPolicy(
                max_attempts=2, backoff_base=0.01, backoff_max=0.02))
            json.dump({
                "quarantined": result.quarantined,
                "identical": [r.as_dict() for r in result.records] == [
                    r for r in serial if r["graph_index"] != 1],
            }, sys.stdout)
        ''')
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True,
            text=True, env=env, cwd=str(tmp_path), timeout=240,
        )
        assert proc.returncode == 0, (proc.returncode, proc.stderr[-2000:])
        assert json.loads(proc.stdout) == {
            "quarantined": [["MDET", 1]], "identical": True,
        }

    def test_self_killing_chunk_fails_its_serve_job_only(
        self, tmp_path, monkeypatch
    ):
        """The same poison in a ``repro serve --backend subprocess``
        job: the job ends ``failed`` naming the chunk, and the server
        keeps serving."""
        from repro.serve.jobs import JobState
        from tests.serve_client import (
            ServerProcess,
            direct_records,
            fetch_records,
            request_json,
            submit,
            tiny_job,
            wait_terminal,
        )

        # The server inherits this environment: every attempt at
        # (LDET, 1) SIGKILLs the process running it.
        plan = FaultPlan(faults=(
            FaultSpec(scenario="LDET", index=1, kind="crash",
                      attempts=None),
        ))
        monkeypatch.setenv(faultinject.ENV_VAR, plan.to_json())
        with ServerProcess(
            str(tmp_path / "data"), "--backend", "subprocess",
            "--jobs", "2",
        ) as server:
            poisoned = submit(server.port, tiny_job(
                name="poisoned", n_graphs=3, scenarios=("LDET",)
            ))
            final = wait_terminal(server.port, poisoned)
            assert final["state"] == JobState.FAILED
            assert "(LDET, 1)" in final["error"]
            assert "SIGKILL" in final["error"]

            status, health = request_json(server.port, "GET", "/v1/healthz")
            assert status == 200 and health["status"] == "ok"
            document = tiny_job(name="healthy", n_graphs=3)
            healthy = submit(server.port, document)
            assert wait_terminal(server.port, healthy)["state"] == (
                JobState.DONE
            )
            assert fetch_records(server.port, healthy) == (
                direct_records(document)
            )
            assert server.proc.poll() is None


class TestCheckpoint:
    def test_fresh_run_writes_journal(self, tmp_path):
        cfg = ft_config()
        path = str(tmp_path / "sweep.ckpt")
        result = run_experiment(cfg, checkpoint=path)
        assert result.complete
        assert os.listdir(path) == [SERIAL_JOURNAL]
        lines = open(os.path.join(path, SERIAL_JOURNAL)).read().splitlines()
        header = json.loads(lines[0])
        assert header["format"] == "repro-sweep-checkpoint"
        assert header["fingerprint"] == config_fingerprint(cfg)
        assert len(lines) == 1 + cfg.n_graphs

    def test_interrupted_run_resumes_identically(self, tmp_path):
        cfg = ft_config(n_graphs=4)
        clean = run_experiment(cfg)
        path = str(tmp_path / "sweep.ckpt")

        calls = []

        def interrupt_after_two(done, total):
            calls.append(done)
            if len(calls) == 2:
                raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            run_experiment(cfg, checkpoint=path,
                           progress=interrupt_after_two)
        # The journal holds exactly the chunks that completed.
        journal = os.path.join(path, SERIAL_JOURNAL)
        assert len(open(journal).read().splitlines()) == 1 + 2

        inst = Instrumentation()
        resumed = run_experiment(cfg, checkpoint=path, instrumentation=inst)
        assert record_dicts(resumed) == record_dicts(clean)
        assert resumed.complete
        assert inst.replayed_trials == 2 * cfg.trials_per_graph

    def test_resume_after_fault_run(self, tmp_path):
        """A sweep interrupted by quarantine-worthy faults resumes clean:
        the quarantined chunk is simply re-run (it is not journaled)."""
        cfg = ft_config()
        clean = run_experiment(cfg)
        path = str(tmp_path / "sweep.ckpt")
        plan = FaultPlan(faults=(
            FaultSpec(scenario="MDET", index=1, kind="error",
                      attempts=None),
        ))
        with faultinject.active(plan):
            first = run_experiment(cfg, checkpoint=path, retry=FAST)
        assert first.quarantined == [("MDET", 1)]
        # No plan installed now: the re-run completes what was missing.
        resumed = run_experiment(cfg, checkpoint=path)
        assert record_dicts(resumed) == record_dicts(clean)
        assert resumed.complete

    def test_completed_checkpoint_replays_everything(self, tmp_path):
        cfg = ft_config()
        path = str(tmp_path / "sweep.ckpt")
        first = run_experiment(cfg, checkpoint=path)
        inst = Instrumentation()
        again = run_experiment(cfg, checkpoint=path, instrumentation=inst)
        assert record_dicts(again) == record_dicts(first)
        assert inst.replayed_trials == cfg.n_trials

    def test_changed_config_refuses_to_resume(self, tmp_path):
        path = str(tmp_path / "sweep.ckpt")
        run_experiment(ft_config(), checkpoint=path)
        with pytest.raises(CheckpointError, match="different experiment"):
            run_experiment(ft_config(seed=99), checkpoint=path)

    def test_tolerant_knobs_do_not_change_fingerprint(self, tmp_path):
        """trial_timeout / max_retries bound *how* trials run, not what
        they record — resuming with different values is allowed."""
        cfg = ft_config()
        path = str(tmp_path / "sweep.ckpt")
        run_experiment(cfg, checkpoint=path)
        relaxed = ft_config(trial_timeout=60.0, max_retries=9)
        assert config_fingerprint(relaxed) == config_fingerprint(cfg)
        resumed = run_experiment(relaxed, checkpoint=path)
        assert resumed.complete

    def test_relative_checkpoint_path(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = ft_config()
        result = run_experiment(cfg, checkpoint="sweep.ckpt")
        assert result.complete
        assert os.path.exists(tmp_path / "sweep.ckpt")
        resumed = run_experiment(cfg, checkpoint="sweep.ckpt")
        assert record_dicts(resumed) == record_dicts(result)

    def test_missing_directory_raises(self, tmp_path):
        with pytest.raises(CheckpointError, match="directory"):
            CheckpointJournal(
                str(tmp_path / "nope" / "sweep.ckpt"), ft_config()
            )

    def test_truncated_tail_is_repaired(self, tmp_path):
        cfg = ft_config()
        clean = run_experiment(cfg)
        path = str(tmp_path / "sweep.ckpt")
        run_experiment(cfg, checkpoint=path)
        # Simulate a crash mid-append: chop the last line in half.
        journal = os.path.join(path, SERIAL_JOURNAL)
        text = open(journal).read()
        cut = text.rstrip("\n")
        cut = cut[: len(cut) - len(cut.splitlines()[-1]) // 2]
        with open(journal, "w") as fp:
            fp.write(cut)
        with pytest.warns(ExperimentWarning, match="partial line"):
            resumed = run_experiment(cfg, checkpoint=path)
        assert record_dicts(resumed) == record_dicts(clean)

    def test_corrupt_middle_line_raises(self, tmp_path):
        cfg = ft_config()
        path = str(tmp_path / "sweep.ckpt")
        run_experiment(cfg, checkpoint=path)
        journal = os.path.join(path, SERIAL_JOURNAL)
        lines = open(journal).read().splitlines()
        lines[1] = lines[1][:10]  # mangle a non-trailing chunk line
        with open(journal, "w") as fp:
            fp.write("\n".join(lines) + "\n")
        with pytest.raises(CheckpointError, match="corrupt"):
            run_experiment(cfg, checkpoint=path)

    def test_not_a_journal_raises(self, tmp_path):
        path = tmp_path / "sweep.ckpt"
        path.mkdir()
        (path / SERIAL_JOURNAL).write_text("just some text\n")
        with pytest.raises(CheckpointError, match="not a"):
            run_experiment(ft_config(), checkpoint=str(path))

    def test_parallel_checkpoint_matches_serial(self, tmp_path):
        """A multi-process checkpoint is a journal directory, created
        at a new path whatever its name."""
        cfg = ft_config()
        clean = run_experiment(cfg)
        path = str(tmp_path / "par.ckpt")
        result = run_experiment(cfg, jobs=2, checkpoint=path)
        assert record_dicts(result) == record_dicts(clean)
        assert os.path.isdir(path)
        inst = Instrumentation()
        resumed = run_experiment(cfg, jobs=2, checkpoint=path,
                                 instrumentation=inst)
        assert record_dicts(resumed) == record_dicts(clean)
        assert inst.replayed_trials == cfg.n_trials

    def test_parallel_run_refuses_a_single_file_journal(self, tmp_path):
        """An older version's single-file journal is refused by every
        worker count, with the command that moves it into a checkpoint
        directory; after that move it resumes like any other."""
        cfg = ft_config()
        first = run_experiment(cfg, checkpoint=str(tmp_path / "ck"))
        path = str(tmp_path / "serial.ckpt")
        os.rename(os.path.join(tmp_path, "ck", SERIAL_JOURNAL), path)
        fix = f"mkdir D && mv {path} D/{SERIAL_JOURNAL}"
        for jobs in (1, 2):
            with pytest.raises(CheckpointError, match="is a file") as info:
                run_experiment(cfg, jobs=jobs, checkpoint=path)
            assert fix in str(info.value)
        moved = tmp_path / "moved"
        moved.mkdir()
        os.rename(path, moved / SERIAL_JOURNAL)
        inst = Instrumentation()
        resumed = run_experiment(cfg, jobs=2, checkpoint=str(moved),
                                 instrumentation=inst)
        assert record_dicts(resumed) == record_dicts(first)
        assert inst.replayed_trials == cfg.n_trials


class TestRetryPolicy:
    def test_backoff_grows_and_caps(self):
        policy = RetryPolicy(backoff_base=0.5, backoff_factor=2.0,
                             backoff_max=3.0)
        delays = [policy.backoff(a) for a in (1, 2, 3, 4, 5)]
        assert delays == [0.5, 1.0, 2.0, 3.0, 3.0]

    def test_from_config(self):
        assert RetryPolicy.from_config(
            ft_config(max_retries=4)
        ).max_attempts == 5

    def test_invalid_policy_rejected(self):
        with pytest.raises(Exception, match="max_attempts"):
            RetryPolicy(max_attempts=0)
        with pytest.raises(Exception, match="jitter"):
            RetryPolicy(jitter=-0.1)
        with pytest.raises(Exception, match="stall_timeout"):
            RetryPolicy(stall_timeout=0.0)
        with pytest.raises(Exception, match="stall_grace"):
            RetryPolicy(stall_grace=-1.0)

    def test_jittered_backoff_sequence_is_pinned(self):
        """The jitter is seed-derived, not wall-clock random: a fixed
        (seed, token) must reproduce this exact delay sequence on every
        host, so chaos campaigns replay with identical schedules."""
        policy = RetryPolicy(backoff_base=0.5, backoff_factor=2.0,
                             backoff_max=3.0, jitter=0.25)
        delays = [
            policy.backoff_jittered(a, 11, "MDET:3") for a in (1, 2, 3, 4, 5)
        ]
        assert delays == [
            0.5210250684363562,
            1.2158885423558108,
            2.2950374906062176,
            3.3092270874503753,
            3.3296067757876937,
        ]
        # Deterministic: the same inputs replay the same sequence.
        assert delays == [
            policy.backoff_jittered(a, 11, "MDET:3") for a in (1, 2, 3, 4, 5)
        ]
        # Every delay sits in [base, base * (1 + jitter)].
        for attempt, delay in enumerate(delays, start=1):
            base = policy.backoff(attempt)
            assert base <= delay <= base * 1.25
        # Different tokens and seeds decorrelate the schedules...
        assert policy.backoff_jittered(1, 11, "LDET:0") != delays[0]
        assert policy.backoff_jittered(1, 12, "MDET:3") != delays[0]
        # ...and zero jitter degrades to the plain deterministic ladder.
        flat = RetryPolicy(backoff_base=0.5, backoff_factor=2.0,
                           backoff_max=3.0, jitter=0.0)
        assert flat.backoff_jittered(2, 11, "MDET:3") == flat.backoff(2)


class TestBudget:
    def test_no_deadline_is_noop(self):
        from repro import budget

        assert budget.current_trial_deadline() is None
        assert budget.remaining() is None
        assert not budget.expired()
        budget.check()  # must not raise

    def test_deadline_scopes_and_restores(self):
        from repro import budget

        with budget.trial_deadline(60.0):
            outer = budget.current_trial_deadline()
            assert outer is not None and budget.remaining() > 59.0
            with budget.trial_deadline(1.0):
                # Nested tighter deadline wins...
                assert budget.current_trial_deadline() < outer
            # ...and the enclosing one is restored.
            assert budget.current_trial_deadline() == outer
        assert budget.current_trial_deadline() is None

    def test_nested_deadline_never_extends(self):
        from repro import budget

        with budget.trial_deadline(0.0):
            inner_limit = budget.current_trial_deadline()
            with budget.trial_deadline(60.0):
                assert budget.current_trial_deadline() == inner_limit

    def test_check_raises_when_expired(self):
        from repro import budget
        from repro.errors import TrialTimeoutError

        with budget.trial_deadline(0.0):
            assert budget.expired()
            with pytest.raises(TrialTimeoutError, match="search"):
                budget.check("search")


class TestTrialTimeoutRouting:
    def test_trial_timeout_routes_through_supervised_engine(self):
        """Even jobs=1 runs gain fault tolerance once a timeout is set."""
        cfg = ft_config(trial_timeout=30.0)
        clean = run_experiment(ft_config())
        result = run_experiment(cfg)  # jobs defaults to 1
        assert record_dicts(result) == record_dicts(clean)
        assert result.complete

    def test_slow_trial_is_recorded_not_failed(self, monkeypatch):
        """A trial that finishes past its cooperative budget keeps its
        result and logs a slow-trial event."""
        import repro.feast.backends.work as work_mod
        from repro.feast.runner import schedule_trial as real_schedule_trial

        def slow_schedule_trial(*args, **kwargs):
            import time

            time.sleep(0.03)
            return real_schedule_trial(*args, **kwargs)

        monkeypatch.setattr(work_mod, "schedule_trial", slow_schedule_trial)
        cfg = ft_config(n_graphs=1, trial_timeout=0.001)
        result = run_experiment(cfg, jobs=1, retry=FAST)
        assert result.complete  # records kept despite the overrun
        assert [f.kind for f in result.failures] == ["slow-trial"]
        assert "budget" in result.failures[0].message
