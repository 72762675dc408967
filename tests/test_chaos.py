"""Chaos engine: new fault kinds, supervision (stall/escalation/
crash quarantine), and the seeded chaos campaigns.

Like test_fault_tolerance.py, everything here is deterministic: plans
are seeded, fire-once markers make process-killing faults converge, and
the fleet quarantines a chunk that kills every worker it runs in. Supervision timeouts are
shortened far below the CLI defaults so the suite stays fast.
"""

import os
import time

import pytest

from repro.errors import ExperimentError, ExperimentWarning
from repro.feast import faultinject
from repro.feast.backends.work import RetryPolicy
from repro.feast.chaos import (
    build_fault_plan,
    chaos_config,
    plan_expectations,
    render_chaos_report,
    run_chaos,
)
from repro.feast.config import ExperimentConfig, MethodSpec
from repro.feast.faultinject import FaultPlan, FaultSpec
from repro.feast.runner import run_experiment
from repro.graph.generator import RandomGraphConfig


def chaos_test_config(**kwargs):
    defaults = dict(
        name="chaos-t",
        description="chaos engine test",
        methods=(MethodSpec(label="PURE", metric="PURE"),),
        graph_config=RandomGraphConfig(
            n_subtasks_range=(6, 8), depth_range=(2, 3)
        ),
        scenarios=("MDET",),
        n_graphs=6,
        system_sizes=(2,),
        seed=23,
    )
    defaults.update(kwargs)
    return ExperimentConfig(**defaults)


#: Supervision policy with test-fast stall detection and backoffs.
SUPERVISED = RetryPolicy(
    max_attempts=4,
    backoff_base=0.01,
    backoff_factor=2.0,
    backoff_max=0.05,
    stall_timeout=0.8,
    stall_grace=0.5,
)


def dicts(result):
    return [r.as_dict() for r in result.records]


@pytest.fixture(autouse=True)
def no_leftover_plan():
    faultinject.uninstall()
    yield
    faultinject.uninstall()


class TestNewFaultKinds:
    def test_all_builtin_kinds_construct(self):
        for kind in ("crash", "error", "hang", "stubborn-hang", "spin",
                     "slow-io", "exit", "truncate-journal"):
            FaultSpec(scenario="MDET", index=0, kind=kind)

    def test_spec_roundtrip_preserves_once_and_amount(self):
        plan = FaultPlan(faults=(
            FaultSpec(scenario="MDET", index=1, kind="truncate-journal",
                      once=True, amount=37),
        ), state_dir="/tmp/x")
        assert FaultPlan.from_json(plan.to_json()) == plan

    def test_spin_and_slow_io_delay_without_failing(self):
        for kind in ("spin", "slow-io"):
            spec = FaultSpec(scenario="MDET", index=0, kind=kind,
                             seconds=0.05)
            plan = FaultPlan(faults=(spec,))
            with faultinject.active(plan):
                began = time.monotonic()
                faultinject.maybe_inject("MDET", 0, 0)
                assert time.monotonic() - began >= 0.04

    def test_truncate_without_journal_context_is_noop(self):
        faultinject.set_journal_context(None)
        plan = FaultPlan(faults=(
            FaultSpec(scenario="MDET", index=0, kind="truncate-journal",
                      attempts=None),
        ))
        with faultinject.active(plan):
            faultinject.maybe_inject("MDET", 0, 0)  # no os._exit, no error

    def test_once_fault_fires_exactly_once(self, tmp_path):
        spec = FaultSpec(scenario="MDET", index=0, kind="error", once=True)
        plan = FaultPlan(faults=(spec,), state_dir=str(tmp_path))
        with faultinject.active(plan):
            with pytest.raises(faultinject.InjectedFaultError):
                faultinject.maybe_inject("MDET", 0, 0)
            faultinject.maybe_inject("MDET", 0, 0)  # marker: no refire
        assert any(f.endswith(".fired") for f in os.listdir(tmp_path))

    def test_install_provisions_and_active_cleans_state_dir(self):
        plan = FaultPlan(faults=(
            FaultSpec(scenario="MDET", index=0, kind="error", once=True),
        ))
        with faultinject.active(plan):
            installed = FaultPlan.from_json(
                os.environ[faultinject.ENV_VAR]
            )
            assert installed.state_dir
            assert os.path.isdir(installed.state_dir)
        assert not os.path.isdir(installed.state_dir)

    def test_register_custom_fault_kind(self):
        fired = []
        faultinject.register_fault_kind("note", lambda spec: fired.append(
            spec.message
        ))
        try:
            plan = FaultPlan(faults=(
                FaultSpec(scenario="MDET", index=0, kind="note",
                          message="hello"),
            ))
            with faultinject.active(plan):
                faultinject.maybe_inject("MDET", 0, 0)
            assert fired == ["hello"]
        finally:
            faultinject.FAULT_KINDS.pop("note", None)


class TestSupervision:
    """Stall detection, escalation, and crash quarantine on the shard
    fleet."""

    def test_hang_is_stall_detected_and_recovered(self, tmp_path):
        cfg = chaos_test_config()
        expected = dicts(run_experiment(cfg, jobs=1))
        scenario, index = list(cfg.chunk_keys())[0]  # shard 0, chunk 0
        plan = FaultPlan(faults=(
            FaultSpec(scenario=scenario, index=index, kind="hang",
                      once=True, seconds=30.0),
        ))
        with faultinject.active(plan):
            with pytest.warns(ExperimentWarning, match="stalled"):
                result = run_experiment(
                    cfg, backend="subprocess", jobs=2,
                    checkpoint=str(tmp_path / "ck"), retry=SUPERVISED,
                )
        assert dicts(result) == expected
        assert result.supervision.stalls_detected >= 1
        assert result.supervision.relaunches >= 1
        assert result.engine == "subprocess"

    def test_stubborn_hang_escalates_to_sigkill(self, tmp_path):
        cfg = chaos_test_config(n_graphs=4)
        expected = dicts(run_experiment(cfg, jobs=1))
        scenario, index = list(cfg.chunk_keys())[0]
        plan = FaultPlan(faults=(
            FaultSpec(scenario=scenario, index=index, kind="stubborn-hang",
                      once=True, seconds=30.0),
        ))
        with faultinject.active(plan):
            with pytest.warns(ExperimentWarning, match="SIGKILL"):
                result = run_experiment(
                    cfg, backend="subprocess", jobs=2,
                    checkpoint=str(tmp_path / "ck"), retry=SUPERVISED,
                )
        assert dicts(result) == expected
        assert result.supervision.stalls_detected >= 1
        assert result.supervision.kills_escalated >= 1

    def test_poisoned_chunk_is_quarantined(self, tmp_path):
        cfg = chaos_test_config()
        # Shard 1's second chunk (2 shards): dies there on every launch.
        scenario, index = list(cfg.chunk_keys())[3]
        expected = [
            r for r in dicts(run_experiment(cfg, jobs=1))
            if r["graph_index"] != index
        ]
        plan = FaultPlan(faults=(
            FaultSpec(scenario=scenario, index=index, kind="exit",
                      attempts=None),
        ))
        with faultinject.active(plan):
            with pytest.warns(ExperimentWarning, match="relaunching"):
                result = run_experiment(
                    cfg, backend="subprocess", jobs=2,
                    checkpoint=str(tmp_path / "ck"), retry=SUPERVISED,
                )
        assert dicts(result) == expected
        assert result.quarantined == [(scenario, index)]
        crashes = [f for f in result.failures if f.kind == "crash"]
        assert len(crashes) == SUPERVISED.max_attempts
        assert all("exit code 17" in f.message for f in crashes)
        assert result.engine == "subprocess"
        names = os.listdir(tmp_path / "ck")
        assert not any(name.startswith("failover-") for name in names)
        assert "parent.ckpt" not in names

    def test_journal_truncation_is_repaired_and_replayed(self, tmp_path):
        cfg = chaos_test_config()
        expected = dicts(run_experiment(cfg, jobs=1))
        # Shard 0's third chunk: by then two chunks are journaled, so
        # the truncation tears a real record.
        scenario, index = list(cfg.chunk_keys())[4]
        plan = FaultPlan(faults=(
            FaultSpec(scenario=scenario, index=index,
                      kind="truncate-journal", once=True, amount=25),
        ))
        with faultinject.active(plan):
            with pytest.warns(ExperimentWarning, match="relaunching"):
                result = run_experiment(
                    cfg, backend="subprocess", jobs=2,
                    checkpoint=str(tmp_path / "ck"), retry=SUPERVISED,
                )
        assert dicts(result) == expected
        assert result.supervision.relaunches >= 1
        assert result.supervision.chunks_replayed >= 1

    def test_supervision_stats_surface_on_clean_runs_too(self):
        cfg = chaos_test_config(n_graphs=2)
        result = run_experiment(cfg, backend="subprocess", jobs=2)
        assert result.supervision is not None
        assert not result.supervision.any()


class TestChaosCampaign:
    def test_fault_plan_is_seed_deterministic(self):
        cfg = chaos_config(5)
        a = build_fault_plan(5, cfg, "subprocess", 3)
        b = build_fault_plan(5, cfg, "subprocess", 3)
        assert a.faults == b.faults
        assert build_fault_plan(6, cfg, "subprocess", 3).faults != a.faults

    def test_subprocess_plan_guarantees_required_coverage(self):
        cfg = chaos_config(0)
        plan = build_fault_plan(0, cfg, "subprocess", 3)
        kinds = [s.kind for s in plan.faults]
        assert "hang" in kinds
        assert "truncate-journal" in kinds
        assert "exit" in kinds
        ordinals = {k: i for i, k in enumerate(cfg.chunk_keys())}
        shards_hit = {
            ordinals[(s.scenario, s.index)] % 3
            for s in plan.faults if s.kind in ("hang", "truncate-journal",
                                               "exit")
        }
        assert len(shards_hit) >= 2

    def test_subprocess_plan_requires_two_shards(self):
        cfg = chaos_config(0)
        with pytest.raises(ExperimentError, match=">= 2 shards"):
            build_fault_plan(0, cfg, "subprocess", 1)

    def test_expectations_derived_from_plan(self):
        cfg = chaos_config(0)
        plan = build_fault_plan(0, cfg, "subprocess", 3)
        names = {e.counter for e in plan_expectations(plan, "subprocess")}
        assert names == {"stalls_detected", "chunks_replayed", "relaunches"}
        assert plan_expectations(plan, "serial") == []

    def test_pool_campaign_plans_for_the_fleet(self):
        """``pool`` runs the worker fleet, so it gets the fleet's plan
        and expectations."""
        cfg = chaos_config(0)
        plan = build_fault_plan(0, cfg, "pool", 3)
        assert plan == build_fault_plan(0, cfg, "subprocess", 3)
        assert plan_expectations(plan, "pool") == plan_expectations(
            plan, "subprocess"
        )

    def test_serial_campaign_passes(self):
        report = run_chaos(
            seed=1, backend="serial",
            config=chaos_test_config(name="chaos"),
        )
        assert report.ok and report.identical
        assert "PASS" in render_chaos_report(report)

    def test_campaign_report_flags_divergence(self):
        report = run_chaos(
            seed=1, backend="serial",
            config=chaos_test_config(name="chaos"),
        )
        report.identical = False
        assert not report.ok
        assert report.as_dict()["ok"] is False
        assert "FAIL" in render_chaos_report(report)

    def test_campaign_report_flags_an_unplanned_quarantine(self):
        report = run_chaos(
            seed=1, backend="serial",
            config=chaos_test_config(name="chaos"),
        )
        assert report.expected_quarantine == []
        report.quarantined = [("MDET", 0)]
        assert not report.ok
        assert "FAIL" in render_chaos_report(report)

    def test_subprocess_campaign_end_to_end(self, tmp_path):
        """The acceptance campaign: hang + exit + truncation across
        shards, the poisoned chunk quarantined, every other record
        byte-identical, stall and relaunch exercised."""
        report = run_chaos(
            seed=2, backend="subprocess", jobs=3,
            out=str(tmp_path / "artifacts"),
            config=chaos_test_config(name="chaos", n_graphs=9),
            policy=SUPERVISED,
        )
        assert report.identical
        poisoned = [
            (s.scenario, s.index) for s in build_fault_plan(
                2, chaos_test_config(name="chaos", n_graphs=9),
                "subprocess", 3,
            ).faults if s.kind == "exit"
        ]
        assert report.quarantined == report.expected_quarantine == poisoned
        assert report.supervision.stalls_detected >= 1
        assert report.supervision.relaunches >= 1
        assert all(e.met for e in report.expectations)
        assert report.ok
        artifacts = tmp_path / "artifacts"
        assert (artifacts / "fault-plan.json").exists()
        assert (artifacts / "report.json").exists()
        assert (artifacts / "chaos.events.jsonl").exists()
