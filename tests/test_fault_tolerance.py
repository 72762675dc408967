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

import pytest

from repro.errors import (
    CheckpointError,
    ExperimentWarning,
    QuarantinedTrialError,
)
from repro.feast import faultinject
from repro.feast.config import ExperimentConfig, MethodSpec
from repro.feast.faultinject import FaultPlan, FaultSpec, InjectedFaultError
from repro.feast.instrumentation import Instrumentation
from repro.feast.backends import RetryPolicy
from repro.feast.persistence import CheckpointJournal, config_fingerprint
from repro.feast.runner import run_experiment
from repro.graph.generator import RandomGraphConfig


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
            parent_pid=123,
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

    def test_crash_never_fires_in_parent(self):
        plan = FaultPlan(
            faults=(FaultSpec(scenario="MDET", index=0, kind="crash",
                              attempts=None),),
        )
        with faultinject.active(plan):
            # We ARE the parent: must be a no-op, not a SIGKILL.
            faultinject.maybe_inject("MDET", 0, 0)

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
        assert result.fallback_reason is None

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
        assert result.supervision.shards_failed_over == 0
        assert result.fallback_reason is None
        kinds = [f.kind for f in result.failures]
        assert kinds == ["timeout"] * 3 + ["quarantine"]
        assert inst.quarantined == 1 and inst.retries == 2


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


class TestDegradation:
    def test_poison_chunk_ends_in_the_parent_sweep(self):
        """A chunk that kills every worker it runs in exhausts its
        worker's launches, then its failover worker's, and finally runs
        in the parent's terminal sweep — never quarantined for a crash."""
        cfg = ft_config(n_graphs=2)
        clean = run_experiment(cfg)
        plan = FaultPlan(faults=(
            FaultSpec(scenario="MDET", index=0, kind="crash",
                      attempts=None),
        ))
        policy = RetryPolicy(max_attempts=2, backoff_base=0.01,
                             backoff_max=0.02)
        with faultinject.active(plan):
            with pytest.warns(ExperimentWarning, match="giving up"):
                result = run_experiment(cfg, jobs=2, retry=policy)
        # In the parent the crash spec is inert, so the sweep finishes
        # completely.
        assert record_dicts(result) == record_dicts(clean)
        assert result.complete
        assert result.supervision.shards_failed_over == 1
        assert "ran in-process in the parent" in result.fallback_reason


class TestCheckpoint:
    def test_fresh_run_writes_journal(self, tmp_path):
        cfg = ft_config()
        path = str(tmp_path / "sweep.ckpt")
        result = run_experiment(cfg, checkpoint=path)
        assert result.complete
        lines = open(path).read().splitlines()
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
        assert len(open(path).read().splitlines()) == 1 + 2

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
        text = open(path).read()
        cut = text.rstrip("\n")
        cut = cut[: len(cut) - len(cut.splitlines()[-1]) // 2]
        with open(path, "w") as fp:
            fp.write(cut)
        with pytest.warns(ExperimentWarning, match="partial line"):
            resumed = run_experiment(cfg, checkpoint=path)
        assert record_dicts(resumed) == record_dicts(clean)

    def test_corrupt_middle_line_raises(self, tmp_path):
        cfg = ft_config()
        path = str(tmp_path / "sweep.ckpt")
        run_experiment(cfg, checkpoint=path)
        lines = open(path).read().splitlines()
        lines[1] = lines[1][:10]  # mangle a non-trailing chunk line
        with open(path, "w") as fp:
            fp.write("\n".join(lines) + "\n")
        with pytest.raises(CheckpointError, match="corrupt"):
            run_experiment(cfg, checkpoint=path)

    def test_not_a_journal_raises(self, tmp_path):
        path = tmp_path / "sweep.ckpt"
        path.write_text("just some text\n")
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
        cfg = ft_config()
        path = str(tmp_path / "serial.ckpt")
        run_experiment(cfg, checkpoint=path)
        with pytest.raises(CheckpointError, match="is a file"):
            run_experiment(cfg, jobs=2, checkpoint=path)


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
