"""Result persistence and run comparison."""

import os

import pytest

from repro.errors import ExperimentWarning, SerializationError
from repro.feast.config import ExperimentConfig, MethodSpec
from repro.feast.persistence import (
    compact_journals,
    compare,
    load_result,
    result_from_dict,
    result_to_dict,
    save_result,
)
from repro.feast.runner import ExperimentResult, TrialRecord, run_experiment
from repro.graph.generator import RandomGraphConfig


def small_config(seed=1):
    return ExperimentConfig(
        name="persist",
        description="persistence test",
        methods=(
            MethodSpec(label="PURE", metric="PURE"),
            MethodSpec(label="UD", metric="PURE", baseline="UD"),
        ),
        graph_config=RandomGraphConfig(
            n_subtasks_range=(10, 12), depth_range=(3, 4)
        ),
        scenarios=("MDET",),
        n_graphs=2,
        system_sizes=(2, 4),
        seed=seed,
    )


@pytest.fixture(scope="module")
def result():
    return run_experiment(small_config())


class TestRoundTrip:
    def test_dict_roundtrip(self, result):
        back = result_from_dict(result_to_dict(result))
        assert back.config.name == "persist"
        assert [m.label for m in back.config.methods] == ["PURE", "UD"]
        assert back.config.methods[1].baseline == "UD"
        assert len(back) == len(result)
        assert back.records[0] == result.records[0]
        assert back.elapsed_seconds == result.elapsed_seconds

    def test_file_roundtrip(self, result, tmp_path):
        path = str(tmp_path / "r.json")
        save_result(result, path)
        back = load_result(path)
        assert [r.max_lateness for r in back.records] == [
            r.max_lateness for r in result.records
        ]

    def test_wrong_format(self):
        with pytest.raises(SerializationError):
            result_from_dict({"format": "other"})

    def test_wrong_version(self, result):
        doc = result_to_dict(result)
        doc["version"] = 99
        with pytest.raises(SerializationError):
            result_from_dict(doc)

    def test_malformed_records(self, result):
        doc = result_to_dict(result)
        del doc["records"][0]["max_lateness"]
        with pytest.raises(SerializationError):
            result_from_dict(doc)

    def test_invalid_json_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        with pytest.raises(SerializationError):
            load_result(str(path))

    def test_fault_fields_roundtrip(self, result, tmp_path):
        from repro.feast.instrumentation import TrialFailure

        annotated = ExperimentResult(
            config=result.config,
            records=list(result.records),
            failures=[
                TrialFailure(scenario="MDET", index=1, kind="crash",
                             message="worker died", attempt=1),
                TrialFailure(scenario="MDET", index=1, kind="quarantine",
                             message="gave up", attempt=3),
            ],
            quarantined=[("MDET", 1)],
        )
        path = str(tmp_path / "faults.json")
        save_result(annotated, path)
        back = load_result(path)
        assert back.failures == annotated.failures
        assert back.quarantined == [("MDET", 1)]
        assert not back.complete

    def test_old_documents_decode_without_fault_fields(self, result):
        doc = result_to_dict(result)
        for legacy_missing in ("failures", "quarantined"):
            del doc[legacy_missing]
        back = result_from_dict(doc)
        assert back.failures == [] and back.quarantined == []
        assert back.complete

    def test_old_documents_with_a_fallback_reason_decode(self, result):
        """Documents from before every config ran on the fleet carry a
        ``fallback_reason`` key; it is read past, not kept."""
        doc = result_to_dict(result)
        assert "fallback_reason" not in doc
        doc["fallback_reason"] = "unpicklable graph_factory"
        back = result_from_dict(doc)
        assert [r.as_dict() for r in back.records] == [
            r.as_dict() for r in result.records
        ]
        assert result_to_dict(back)["records"] == doc["records"]

    def test_timeout_and_retry_config_roundtrip(self, tmp_path):
        from dataclasses import replace

        cfg = replace(small_config(), trial_timeout=7.5, max_retries=5)
        saved = ExperimentResult(config=cfg)
        path = str(tmp_path / "cfg.json")
        save_result(saved, path)
        back = load_result(path)
        assert back.config.trial_timeout == 7.5
        assert back.config.max_retries == 5

    def test_method_extras_roundtrip(self, tmp_path):
        cfg = ExperimentConfig(
            name="extras",
            description="method field fidelity",
            methods=(
                MethodSpec(label="AC", metric="ADAPT", capacity_aware=True),
                MethodSpec(label="NC", metric="PURE", comm="CCAA",
                           cost_per_item=2.5, clamp_to_anchors=False),
            ),
            scenarios=("MDET",),
            n_graphs=1,
            system_sizes=(2,),
        )
        back = result_from_dict(result_to_dict(ExperimentResult(config=cfg)))
        assert back.config.methods[0].capacity_aware is True
        assert back.config.methods[1].cost_per_item == 2.5
        assert back.config.methods[1].clamp_to_anchors is False


class TestAtomicSave:
    def test_no_partial_file_on_crash(self, tmp_path, monkeypatch, result):
        """A crash mid-write must leave the old content intact and no
        temp litter behind."""
        import os

        from repro.feast import persistence

        path = tmp_path / "r.json"
        save_result(result, str(path))
        good = path.read_text()

        real_replace = os.replace

        def exploding_replace(src, dst):
            raise OSError("simulated crash before rename")

        monkeypatch.setattr(persistence.os, "replace", exploding_replace)
        with pytest.raises(OSError, match="simulated crash"):
            save_result(result, str(path))
        monkeypatch.setattr(persistence.os, "replace", real_replace)
        assert path.read_text() == good
        assert [p for p in os.listdir(tmp_path) if p.endswith(".tmp")] == []

    def test_fsync_called_before_replace(self, tmp_path, monkeypatch, result):
        import os

        from repro.feast import persistence

        events = []
        real_fsync, real_replace = os.fsync, os.replace
        monkeypatch.setattr(
            persistence.os, "fsync",
            lambda fd: (events.append("fsync"), real_fsync(fd))[1],
        )
        monkeypatch.setattr(
            persistence.os, "replace",
            lambda s, d: (events.append("replace"), real_replace(s, d))[1],
        )
        save_result(result, str(tmp_path / "r.json"))
        assert "fsync" in events and "replace" in events
        assert events.index("fsync") < events.index("replace")


class TestCompare:
    def test_identical_runs_no_deltas(self, result):
        again = run_experiment(small_config())
        assert compare(result, again, threshold=0.0) == []

    def test_different_seeds_produce_deltas(self, result):
        other = run_experiment(small_config(seed=2))
        deltas = compare(result, other, threshold=0.0)
        assert deltas
        # Sorted worst-regression-first.
        values = [d.delta for d in deltas]
        assert values == sorted(values, reverse=True)
        d = deltas[0]
        assert d.after - d.before == pytest.approx(d.delta)

    def test_threshold_filters(self, result):
        other = run_experiment(small_config(seed=2))
        all_deltas = compare(result, other, threshold=0.0)
        filtered = compare(result, other, threshold=1e9)
        assert len(filtered) <= len(all_deltas)
        assert filtered == []

    def test_disjoint_keys_ignored(self, result):
        empty = ExperimentResult(config=small_config())
        assert compare(result, empty) == []


class TestCompactJournals:
    def test_compaction_removes_the_fleet_sidecars(self, tmp_path,
                                                   kill_shard_once):
        """Compaction leaves the merged journal and nothing of the old
        partitioning, after a killed and relaunched run too; files it
        did not write stay, and the merged journal resumes."""
        cfg = small_config()
        expected = [r.as_dict() for r in run_experiment(cfg).records]
        ck = tmp_path / "ck"

        def fleet_run():
            return run_experiment(cfg, backend="subprocess", jobs=2,
                                  checkpoint=str(ck))

        with pytest.warns(ExperimentWarning, match="code 3"):
            killed = fleet_run()
        assert [r.as_dict() for r in killed.records] == expected
        assert killed.supervision.relaunches == 1
        for sidecar in ("log", "summary.json", "ckpt.inflight"):
            assert (ck / f"shard-1-of-2.{sidecar}").exists()
        (ck / "notes.log").write_text("kept\n")
        compact_journals(str(ck))
        assert sorted(os.listdir(ck)) == ["notes.log", "shard-0-of-1.ckpt"]
        resumed = fleet_run()
        assert [r.as_dict() for r in resumed.records] == expected
        assert resumed.supervision.chunks_replayed == cfg.n_graphs
