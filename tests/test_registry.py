"""The run registry: durable append log, lookup, and regression gating."""

import json

import pytest

from repro.errors import SerializationError
from repro.obs.registry import (
    MIN_GATE_SECONDS,
    REGISTRY_VERSION,
    RunRecord,
    RunRegistry,
    diff_runs,
    records_digest,
    render_run_diff,
    render_run_list,
    render_run_show,
)


def make_record(run_id="run-aaaa", **overrides):
    base = dict(
        run_id=run_id,
        experiment="figure5",
        fingerprint="f" * 32,
        backend="pool",
        jobs=4,
        started=1000.0,
        wall_seconds=10.0,
        n_trials=100,
        n_records=600,
        phase_seconds={"generate": 2.0, "schedule": 6.0, "simulate": 1.5},
        records_digest="d" * 32,
    )
    base.update(overrides)
    return RunRecord(**base)


class TestRunRecord:
    def test_round_trip(self):
        record = make_record(
            supervision={"supervision.relaunches": 2.0},
            replayed_trials=3,
            failures=1,
            retries=2,
            quarantined=1,
            trace_path="traces/figure5.events.jsonl",
        )
        again = RunRecord.from_dict(
            json.loads(json.dumps(record.as_dict()))
        )
        assert again == record
        assert again.version == REGISTRY_VERSION

    def test_throughput(self):
        assert make_record().throughput == pytest.approx(10.0)
        assert make_record(wall_seconds=0.0).throughput == 0.0

    def test_throughput_counts_measured_trials_only(self):
        # Replayed trials cost no computation: a fully resumed run
        # measured nothing, a half-resumed one measured half.
        assert make_record(replayed_trials=100).throughput == 0.0
        assert make_record(replayed_trials=40).throughput == pytest.approx(
            6.0
        )

    def test_from_dict_malformed(self):
        with pytest.raises(SerializationError, match="malformed"):
            RunRecord.from_dict({"experiment": "x"})  # no run_id
        with pytest.raises(SerializationError, match="malformed"):
            RunRecord.from_dict({"run_id": "r", "experiment": "x",
                                 "n_trials": "many"})


class TestRecordsDigest:
    def test_order_sensitive_and_stable(self):
        a = [{"x": 1}, {"x": 2}]
        assert records_digest(a) == records_digest([{"x": 1}, {"x": 2}])
        assert records_digest(a) != records_digest([{"x": 2}, {"x": 1}])
        assert records_digest([]) != records_digest(a)

    def test_uses_as_dict_when_available(self):
        class Rec:
            def as_dict(self):
                return {"x": 1}

        assert records_digest([Rec()]) == records_digest([{"x": 1}])


class TestRunRegistry:
    def test_append_and_load(self, tmp_path):
        registry = RunRegistry(str(tmp_path / "reg"))
        assert registry.load() == []
        registry.append(make_record("run-a"))
        registry.append(make_record("run-b"))
        loaded = registry.load()
        assert [r.run_id for r in loaded] == ["run-a", "run-b"]
        assert loaded[0] == make_record("run-a")

    def test_torn_tail_tolerated_midfile_garbage_not(self, tmp_path):
        registry = RunRegistry(str(tmp_path / "reg"))
        registry.append(make_record("run-a"))
        with open(registry.path, "a") as fp:
            fp.write('{"run_id": "torn')
        assert [r.run_id for r in registry.load()] == ["run-a"]
        with open(registry.path, "a") as fp:
            fp.write('\n' + json.dumps(make_record("run-b").as_dict()) + "\n")
        with pytest.raises(SerializationError, match="invalid JSON"):
            registry.load()
        # A malformed final line that ends in a newline is not torn: it
        # is corruption, and raises like mid-file garbage.
        other = RunRegistry(str(tmp_path / "other"))
        other.append(make_record("run-a"))
        with open(other.path, "a") as fp:
            fp.write("garbage\n")
        with pytest.raises(SerializationError, match="invalid JSON"):
            other.load()

    def test_get_by_id_prefix_and_last(self, tmp_path):
        registry = RunRegistry(str(tmp_path / "reg"))
        registry.append(make_record("run-aaaa"))
        registry.append(make_record("run-abbb"))
        registry.append(make_record("run-cccc"))
        assert registry.get("run-aaaa").run_id == "run-aaaa"
        assert registry.get("run-c").run_id == "run-cccc"
        assert registry.get("last").run_id == "run-cccc"
        assert registry.get("last~0").run_id == "run-cccc"
        assert registry.get("last~2").run_id == "run-aaaa"

    def test_get_errors(self, tmp_path):
        registry = RunRegistry(str(tmp_path / "reg"))
        with pytest.raises(SerializationError, match="empty"):
            registry.get("last")
        registry.append(make_record("run-aaaa"))
        registry.append(make_record("run-abbb"))
        with pytest.raises(SerializationError, match="ambiguous"):
            registry.get("run-a")
        with pytest.raises(SerializationError, match="no registered run"):
            registry.get("run-zzzz")
        with pytest.raises(SerializationError, match="past"):
            registry.get("last~5")
        with pytest.raises(SerializationError, match="bad run reference"):
            registry.get("last~soon")

    def test_get_prefix_of_reregistered_id_returns_latest(self, tmp_path):
        registry = RunRegistry(str(tmp_path / "reg"))
        registry.append(make_record("run-aaaa", wall_seconds=5.0))
        registry.append(make_record("run-aaaa", wall_seconds=7.0))
        assert registry.get("run-aaaa").wall_seconds == 7.0


class TestDiffAndGate:
    def test_clean_diff_passes_gate(self):
        diff = diff_runs(make_record("run-a"), make_record("run-b"))
        assert diff.comparable
        assert diff.digests_match is True
        assert diff.regressions(10.0) == []

    def test_injected_slowdown_trips_gate(self):
        # The acceptance-criteria scenario: a synthetic candidate whose
        # schedule phase is 50% slower (and throughput correspondingly
        # lower) must fail a 10% gate and pass a 100% gate.
        baseline = make_record("run-base")
        slow = make_record(
            "run-slow",
            wall_seconds=15.0,
            phase_seconds={"generate": 2.0, "schedule": 9.0,
                           "simulate": 1.5},
        )
        diff = diff_runs(baseline, slow)
        problems = diff.regressions(10.0)
        assert any("phase schedule" in p and "+50.0%" in p
                   for p in problems)
        assert any("throughput" in p for p in problems)
        assert diff.regressions(100.0) == []

    def test_sub_noise_phases_ignored(self):
        baseline = make_record(
            "run-a", phase_seconds={"tiny": MIN_GATE_SECONDS / 2}
        )
        candidate = make_record(
            "run-b", phase_seconds={"tiny": MIN_GATE_SECONDS * 5}
        )
        diff = diff_runs(baseline, candidate)
        assert all("tiny" not in p for p in diff.regressions(10.0))

    def test_digest_mismatch_is_a_regression(self):
        diff = diff_runs(
            make_record("run-a"),
            make_record("run-b", records_digest="e" * 32),
        )
        assert diff.digests_match is False
        assert any("digest mismatch" in p for p in diff.regressions(10.0))

    def test_unrecorded_digest_is_not_compared(self):
        diff = diff_runs(
            make_record("run-a", records_digest=""),
            make_record("run-b"),
        )
        assert diff.digests_match is None
        assert diff.regressions(10.0) == []

    def test_different_fingerprints_not_comparable(self):
        diff = diff_runs(
            make_record("run-a"),
            make_record("run-b", fingerprint="g" * 32),
        )
        assert not diff.comparable

    def test_missing_phase_counts_as_zero(self):
        diff = diff_runs(
            make_record("run-a", phase_seconds={"generate": 1.0}),
            make_record("run-b", phase_seconds={"simulate": 1.0}),
        )
        assert diff.phase_deltas["generate"] == (1.0, 0.0, -100.0)
        assert diff.phase_deltas["simulate"][2] == 0.0  # no baseline


class TestRendering:
    def test_list_newest_first(self):
        text = render_run_list(
            [make_record("run-old"), make_record("run-new")], now=2000.0
        )
        assert text.index("run-new") < text.index("run-old")
        assert "RUN" in text and "TRIALS/S" in text

    def test_list_empty(self):
        assert render_run_list([]) == "no registered runs"

    def test_show(self):
        text = render_run_show(make_record(
            supervision={"supervision.relaunches": 2.0}
        ))
        assert "run run-aaaa (figure5)" in text
        assert "supervision.relaunches" in text
        assert "records digest" in text

    def test_diff_render_flags_regression(self):
        slow = make_record(
            "run-slow",
            phase_seconds={"generate": 2.0, "schedule": 9.0,
                           "simulate": 1.5},
        )
        text = render_run_diff(diff_runs(make_record(), slow), 10.0)
        assert "REGRESSIONS (gate 10%)" in text
        assert " !" in text
        clean = render_run_diff(
            diff_runs(make_record(), make_record("run-b")), 10.0
        )
        assert "gate" in clean and "pass" in clean
