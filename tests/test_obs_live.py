"""Live telemetry: status streams, the sampler, the board, OpenMetrics."""

import json
import os
import threading
import time
from pathlib import Path

import pytest

from repro.errors import ExperimentWarning, SerializationError
from repro.feast.instrumentation import Instrumentation
from repro.obs import MetricsRegistry, Telemetry
from repro.obs.board import find_status_file, render_board, sparkline
from repro.obs.live import (
    STATUS_FORMAT,
    STATUS_VERSION,
    StatusSampler,
    StatusStream,
    activate_status,
    active_status,
    probe,
    publish,
    read_status,
)
from repro.obs.promexport import metric_name, openmetrics_text, write_openmetrics


def make_stream(tmp_path, name="fig"):
    return StatusStream(
        str(tmp_path / f"{name}.status.jsonl"), name, "run-1"
    )


class TestStatusStream:
    def test_header_then_events_then_final(self, tmp_path):
        stream = make_stream(tmp_path)
        stream.emit("progress", scenario="MDET", index=0, trials=6)
        stream.close(records=36)
        events = read_status(stream.path)
        assert [e["kind"] for e in events] == ["header", "progress", "final"]
        header = events[0]
        assert header["format"] == STATUS_FORMAT
        assert header["version"] == STATUS_VERSION
        assert header["experiment"] == "fig"
        assert header["run_id"] == "run-1"
        assert events[-1]["records"] == 36

    def test_seq_is_monotonic_and_ts_present(self, tmp_path):
        stream = make_stream(tmp_path)
        for i in range(5):
            stream.emit("progress", index=i)
        stream.close()
        events = read_status(stream.path)
        assert [e["seq"] for e in events] == list(range(len(events)))
        assert all(isinstance(e["ts"], float) for e in events)

    def test_concurrent_emits_produce_whole_lines(self, tmp_path):
        stream = make_stream(tmp_path)

        def spam(n):
            for i in range(50):
                stream.emit("progress", worker=n, index=i)

        threads = [
            threading.Thread(target=spam, args=(n,)) for n in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        stream.close()
        events = read_status(stream.path)
        # header + 200 progress + final, every line parseable, seqs unique
        assert len(events) == 202
        assert len({e["seq"] for e in events}) == len(events)

    def test_write_failure_disables_stream_with_warning(self, tmp_path):
        stream = make_stream(tmp_path)
        os.close(stream._fd)  # simulate the disk going away
        with pytest.warns(ExperimentWarning, match="live telemetry"):
            stream.emit("progress", index=0)
        # Later emits are silent no-ops, not repeated warnings.
        stream.emit("progress", index=1)
        stream.close()

    def test_torn_tail_is_tolerated(self, tmp_path):
        stream = make_stream(tmp_path)
        stream.emit("progress", index=0)
        with open(stream.path, "a") as fp:
            fp.write('{"kind": "progress", "trunca')
        events = read_status(stream.path)
        assert [e["kind"] for e in events] == ["header", "progress"]
        # A final line without its newline is torn even if it parses.
        whole = tmp_path / "whole.status.jsonl"
        whole.write_text(
            Path(stream.path).read_text().rsplit("\n", 1)[0] + "\n"
            + json.dumps({"kind": "final", "seq": 2, "ts": 0.0})
        )
        events = read_status(str(whole))
        assert [e["kind"] for e in events] == ["header", "progress"]

    def test_midfile_garbage_raises(self, tmp_path):
        stream = make_stream(tmp_path)
        stream.emit("progress", index=0)
        with open(stream.path, "a") as fp:
            fp.write("not json\n")
            fp.write(json.dumps({"kind": "final", "seq": 9, "ts": 0.0}) + "\n")
        with pytest.raises(SerializationError, match="invalid JSON"):
            read_status(stream.path)
        # Garbage that ends in a newline is corruption even as the tail.
        tail = tmp_path / "tail.status.jsonl"
        tail.write_text(
            Path(stream.path).read_text().split("not json")[0] + "garbage\n"
        )
        with pytest.raises(SerializationError, match="invalid JSON"):
            read_status(str(tail))

    def test_unknown_kind_rejected(self, tmp_path):
        path = tmp_path / "bogus.status.jsonl"
        path.write_text(json.dumps({"kind": "mystery"}) + "\n")
        with pytest.raises(SerializationError, match="unknown kind"):
            read_status(str(path))

    def test_wrong_format_rejected(self, tmp_path):
        path = tmp_path / "wrong.status.jsonl"
        path.write_text(json.dumps({
            "kind": "header", "format": "repro-trace", "version": 1,
            "seq": 0, "ts": 0.0,
        }) + "\n")
        with pytest.raises(SerializationError, match="not a status stream"):
            read_status(str(path))

    def test_missing_and_empty_files_raise(self, tmp_path):
        with pytest.raises(SerializationError, match="cannot read"):
            read_status(str(tmp_path / "nope.status.jsonl"))
        empty = tmp_path / "empty.status.jsonl"
        empty.write_text("")
        with pytest.raises(SerializationError, match="empty"):
            read_status(str(empty))


class TestAmbientHooks:
    def test_publish_is_noop_without_active_stream(self):
        assert active_status() is None
        publish("progress", index=0)  # must not raise

    def test_activate_publish_probe(self, tmp_path):
        stream = make_stream(tmp_path)
        with activate_status(stream):
            assert active_status() is stream
            publish("progress", index=1)
            with probe("fleet", lambda: {"slots": []}):
                assert stream.probe_snapshot() == {"fleet": {"slots": []}}
            assert stream.probe_snapshot() == {}
        assert active_status() is None
        stream.close()
        kinds = [e["kind"] for e in read_status(stream.path)]
        assert kinds == ["header", "progress", "final"]

    def test_probe_noop_without_stream(self):
        with probe("fleet", lambda: {}):
            pass  # must not raise

    def test_raising_probe_reports_error(self, tmp_path):
        stream = make_stream(tmp_path)

        def bad():
            raise RuntimeError("probe boom")

        stream.add_probe("bad", bad)
        snap = stream.probe_snapshot()
        assert "RuntimeError: probe boom" in snap["bad"]["error"]
        stream.close()


class TestStatusSampler:
    def make_inst(self, done=12, total=36):
        inst = Instrumentation(telemetry=Telemetry())
        inst.start(total)
        inst.metrics.count("engine.trials_completed", done)
        inst.metrics.observe("phase.generate.seconds", 0.5)
        inst.metrics.observe("phase.schedule.seconds", 1.5)
        return inst

    def test_snapshot_shape(self, tmp_path):
        stream = make_stream(tmp_path)
        sampler = StatusSampler(
            stream, self.make_inst(), backend="pool", jobs=4
        )
        snap = sampler.snapshot()
        assert snap["trials"] == {"done": 12, "total": 36, "replayed": 0}
        assert snap["throughput"]["overall"] > 0
        assert snap["eta_seconds"] is not None
        assert snap["phases"]["generate"] == 0.5
        assert snap["engine"] == {"backend": "pool", "jobs": 4}
        assert snap["parent"]["pid"] == os.getpid()
        stream.close()

    def test_probe_output_lands_in_snapshot(self, tmp_path):
        stream = make_stream(tmp_path)
        stream.add_probe("fleet", lambda: {"slots": [{"ident": "s0"}]})
        sampler = StatusSampler(stream, self.make_inst())
        snap = sampler.snapshot()
        assert snap["probes"]["fleet"]["slots"][0]["ident"] == "s0"
        stream.close()

    def test_thread_samples_and_final_tick(self, tmp_path):
        stream = make_stream(tmp_path)
        sampler = StatusSampler(stream, self.make_inst(), interval=0.02)
        with sampler:
            time.sleep(0.1)
        stream.close()
        statuses = [
            e for e in read_status(stream.path) if e["kind"] == "status"
        ]
        # several periodic ticks plus the final stop() tick
        assert len(statuses) >= 2
        assert sampler.samples_taken == len(statuses)

    def test_metrics_out_written_atomically(self, tmp_path):
        out = tmp_path / "metrics.prom"
        sampler = StatusSampler(
            None, self.make_inst(), metrics_out=str(out)
        )
        sampler._tick()
        text = out.read_text()
        assert text.endswith("# EOF\n")
        assert "repro_trials_done" in text

    def test_metrics_export_failure_disables_export(self, tmp_path):
        bad = tmp_path / "no" / "such" / "dir" / "m.prom"
        sampler = StatusSampler(
            None, self.make_inst(), metrics_out=str(bad)
        )
        with pytest.warns(ExperimentWarning, match="export disabled"):
            sampler._tick()
        assert sampler.metrics_out is None
        sampler._tick()  # silent no-op now

    def test_nonpositive_interval_rejected(self):
        with pytest.raises(SerializationError, match="interval"):
            StatusSampler(None, self.make_inst(), interval=0)

    def test_recent_rate_uses_delta(self, tmp_path):
        inst = self.make_inst(done=10)
        sampler = StatusSampler(None, inst)
        sampler.snapshot()
        inst.metrics.count("engine.trials_completed", 20)
        snap = sampler.snapshot()
        assert snap["throughput"]["recent"] > 0


class TestBoard:
    def finished_stream(self, tmp_path):
        stream = make_stream(tmp_path)
        inst = Instrumentation()
        inst.start(36)
        inst.metrics.count("engine.trials_completed", 18)
        inst.metrics.observe("phase.schedule.seconds", 1.0)
        sampler = StatusSampler(stream, inst)
        stream.add_probe("fleet", lambda: {"slots": [{
            "ident": "shard-0-of-2", "shard": 0, "state": "running",
            "pid": 4242, "launches": 1, "records_seen": 3,
            "heartbeat_age": 0.4,
        }]})
        stream.emit("status", **sampler.snapshot())
        stream.emit(
            "supervision", event="relaunch", ident="shard-0-of-2",
            detail="exit 86; relaunching in 0.05s",
        )
        stream.close(records=36)
        return stream.path

    def test_render_board_sections(self, tmp_path):
        board = render_board(read_status(self.finished_stream(tmp_path)))
        assert "repro top — fig" in board
        assert "18/36 trials" in board
        assert "shard-0-of-2" in board and "running" in board
        assert "supervision incidents (1)" in board
        assert "relaunch" in board
        assert "[finished]" in board

    def test_render_board_without_snapshots(self, tmp_path):
        stream = make_stream(tmp_path)
        stream.emit("progress", scenario="MDET", index=0, trials=6)
        stream.close()
        board = render_board(read_status(stream.path))
        assert "no status snapshots yet" in board

    def test_find_status_file_picks_newest_in_dir(self, tmp_path):
        older = make_stream(tmp_path, "older")
        older.close()
        time.sleep(0.02)
        newer = make_stream(tmp_path, "newer")
        newer.close()
        os.utime(older.path, (1, 1))
        assert find_status_file(str(tmp_path)) == newer.path

    def test_find_status_file_errors(self, tmp_path):
        with pytest.raises(SerializationError, match="--trace"):
            find_status_file(str(tmp_path))
        with pytest.raises(SerializationError, match="no such"):
            find_status_file(str(tmp_path / "gone.status.jsonl"))

    def test_sparkline(self):
        assert sparkline([]) == ""
        assert sparkline([0.0, 0.0]) == "▁▁"
        line = sparkline([0.0, 5.0, 10.0])
        assert len(line) == 3
        assert line[-1] == "█"


class TestPromExport:
    def test_metric_name_sanitization(self):
        assert metric_name("phase.generate.seconds") == (
            "repro_phase_generate_seconds"
        )
        assert metric_name("weird name!") == "repro_weird_name"
        assert metric_name("9lives") == "repro_m_9lives"

    def test_counters_gauges_histograms(self):
        reg = MetricsRegistry()
        reg.count("engine.retries", 3)
        reg.gauge("worker.rss_max_kb", 1024)
        reg.observe("phase.schedule.seconds", 0.002, buckets=(0.001, 0.01))
        reg.observe("phase.schedule.seconds", 5.0)
        telemetry = Telemetry()
        telemetry.metrics.merge(reg)
        text = openmetrics_text(
            registry=telemetry.metrics, experiment="fig", run_id="r1"
        )
        assert "# TYPE repro_engine_retries counter" in text
        assert (
            'repro_engine_retries_total{experiment="fig",run_id="r1"} 3.0'
            in text
        )
        assert "# TYPE repro_worker_rss_max_kb gauge" in text
        # Histogram buckets are cumulative and end at +Inf.
        assert 'le="0.001"' in text and 'le="+Inf"' in text
        inf_line = next(
            line for line in text.splitlines() if 'le="+Inf"' in line
        )
        assert inf_line.endswith(" 2.0")
        assert "repro_phase_schedule_seconds_count" in text
        assert text.endswith("# EOF\n")

    def test_cumulative_bucket_counts(self):
        reg = MetricsRegistry()
        for v in (0.5, 1.5, 2.5):
            reg.observe("m", v, buckets=(1.0, 2.0))
        text = openmetrics_text(registry=reg)
        buckets = [
            line for line in text.splitlines()
            if line.startswith("repro_m_bucket")
        ]
        counts = [float(line.rsplit(" ", 1)[1]) for line in buckets]
        assert counts == [1.0, 2.0, 3.0]  # cumulative

    def test_empty_exposition_is_valid(self):
        assert openmetrics_text() == "# EOF\n"

    def test_write_openmetrics_atomic(self, tmp_path):
        out = tmp_path / "m.prom"
        write_openmetrics(str(out), snapshot={
            "trials": {"done": 1, "total": 2, "replayed": 0},
            "throughput": {"overall": 1.0, "recent": 2.0},
            "eta_seconds": 3.0,
            "wall_elapsed": 1.0,
            "phases": {"generate": 0.5},
            "faults": {"retries": 1},
            "parent": {"rss_max_kb": 100},
        }, experiment="fig", run_id="r1")
        text = out.read_text()
        assert 'repro_eta_seconds{experiment="fig",run_id="r1"} 3.0' in text
        assert 'phase="generate"' in text
        assert 'fault="retries"' in text
        assert not list(tmp_path.glob("*.tmp"))

    def test_label_escaping(self):
        text = openmetrics_text(
            snapshot={"trials": {}, "throughput": {}},
            experiment='we"ird\\name',
        )
        assert '\\"' in text and "\\\\" in text
