"""The telemetry subsystem: spans, metrics, resources, export, report."""

import json
import pickle

import pytest

from repro.errors import ExperimentError, ExperimentWarning, SerializationError
from repro.feast.instrumentation import Instrumentation
from repro.obs import (
    COUNT_BUCKETS,
    Histogram,
    MetricsRegistry,
    ResourceSample,
    Span,
    SpanRecorder,
    Telemetry,
    chrome_trace,
    events_from_telemetry,
    read_events,
    render_run_report,
    sample_resources,
    validate_events,
    write_chrome_trace,
    write_events,
)
from repro.obs import runtime as obs


class TestSpans:
    def test_nesting(self):
        rec = SpanRecorder()
        with rec.span("run"):
            with rec.span("scenario", scenario="MDET"):
                with rec.span("trial"):
                    pass
                with rec.span("trial"):
                    pass
        roots = rec.finished()
        assert [s.name for s in roots] == ["run"]
        assert [s.name for s in roots[0].children] == ["scenario"]
        assert len(roots[0].find("trial")) == 2
        assert all(s.closed for s in roots[0].walk())

    def test_out_of_order_close_rejected(self):
        rec = SpanRecorder()
        outer = rec.open("outer")
        rec.open("inner")
        with pytest.raises(ExperimentError, match="out of order"):
            rec.close(outer)

    def test_finished_with_open_span_raises(self):
        rec = SpanRecorder()
        rec.open("run")
        with pytest.raises(ExperimentError, match="still open"):
            rec.finished()

    def test_exception_closes_and_marks_span(self):
        rec = SpanRecorder()
        with pytest.raises(ValueError):
            with rec.span("run"):
                with rec.span("trial"):
                    raise ValueError("boom")
        run = rec.finished()[0]
        assert run.closed
        assert run.children[0].attrs["error"] == "ValueError"
        assert run.attrs["error"] == "ValueError"

    def test_spans_picklable_after_close(self):
        rec = SpanRecorder()
        with rec.span("chunk", index=3):
            with rec.span("trial"):
                pass
        roots = rec.finished()
        back = pickle.loads(pickle.dumps(roots))
        assert back[0].name == "chunk"
        assert back[0].attrs == {"index": 3}
        assert back[0].children[0].name == "trial"

    def test_dict_round_trip(self):
        rec = SpanRecorder()
        with rec.span("run", experiment="x"):
            with rec.span("trial", index=0):
                pass
        span = rec.finished()[0]
        assert Span.from_dict(span.as_dict()) == span

    def test_adopt_merges_worker_chunks(self):
        """The parent's run span adopts spans shipped from workers."""
        worker1, worker2 = SpanRecorder(), SpanRecorder()
        with worker1.span("chunk", index=0):
            with worker1.span("trial"):
                pass
        with worker2.span("chunk", index=1):
            pass
        parent = SpanRecorder()
        with parent.span("run"):
            parent.adopt(worker1.finished())
            parent.adopt(worker2.finished())
        run = parent.finished()[0]
        assert [c.name for c in run.children] == ["chunk", "chunk"]
        assert sorted(c.attrs["index"] for c in run.children) == [0, 1]
        assert len(run.find("trial")) == 1

    def test_adopt_open_span_rejected(self):
        rec = SpanRecorder()
        with pytest.raises(ExperimentError, match="open span"):
            rec.adopt([Span(name="chunk", start=0.0)])

    def test_annotate_targets_innermost(self):
        rec = SpanRecorder()
        with rec.span("outer"):
            with rec.span("inner"):
                rec.annotate(nodes=7)
        run = rec.finished()[0]
        assert "nodes" not in run.attrs
        assert run.children[0].attrs == {"nodes": 7}


class TestHistogram:
    def test_bucketing(self):
        hist = Histogram(buckets=(1.0, 5.0, 10.0))
        for value in (0.5, 1.0, 3.0, 7.0, 100.0):
            hist.observe(value)
        # <=1, <=5, <=10, +Inf
        assert hist.counts == [2, 1, 1, 1]
        assert hist.n == 5
        assert hist.total == pytest.approx(111.5)
        assert hist.min == 0.5 and hist.max == 100.0

    def test_boundary_lands_in_lower_bucket(self):
        hist = Histogram(buckets=(1.0, 2.0))
        hist.observe(1.0)
        hist.observe(2.0)
        assert hist.counts == [1, 1, 0]

    def test_merge_adds_pointwise(self):
        a = Histogram(buckets=(1.0, 2.0))
        b = Histogram(buckets=(1.0, 2.0))
        a.observe(0.5)
        b.observe(1.5)
        b.observe(9.0)
        a.merge(b)
        assert a.counts == [1, 1, 1]
        assert a.n == 3
        assert a.min == 0.5 and a.max == 9.0

    def test_merge_rejects_different_buckets(self):
        a = Histogram(buckets=(1.0,))
        b = Histogram(buckets=(2.0,))
        with pytest.raises(ExperimentError, match="different buckets"):
            a.merge(b)

    def test_unsorted_buckets_rejected(self):
        with pytest.raises(ExperimentError, match="sorted"):
            Histogram(buckets=(2.0, 1.0))

    def test_dict_round_trip(self):
        hist = Histogram(buckets=(1.0, 2.0))
        hist.observe(0.1)
        hist.observe(5.0)
        back = Histogram.from_dict(json.loads(json.dumps(hist.as_dict())))
        assert back == hist


class TestMetricsRegistry:
    def test_counters_sum_on_merge(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.count("trials", 3)
        b.count("trials", 4)
        b.count("only_b")
        a.merge(b)
        assert a.counters == {"trials": 7, "only_b": 1}

    def test_gauges_keep_max_on_merge(self):
        """Chunks arrive in arbitrary order; max is order-independent."""
        a, b = MetricsRegistry(), MetricsRegistry()
        a.gauge("rss", 100.0)
        b.gauge("rss", 90.0)
        merged_ab = MetricsRegistry()
        merged_ab.merge(a)
        merged_ab.merge(b)
        merged_ba = MetricsRegistry()
        merged_ba.merge(b)
        merged_ba.merge(a)
        assert merged_ab.gauges == merged_ba.gauges == {"rss": 100.0}

    def test_histograms_merge_pointwise(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.observe("lat", 0.001)
        b.observe("lat", 0.5)
        a.merge(b)
        assert a.histograms["lat"].n == 2

    def test_rebucketing_rejected(self):
        reg = MetricsRegistry()
        reg.observe("x", 1.0, buckets=(1.0, 2.0))
        with pytest.raises(ExperimentError, match="re-bucket"):
            reg.observe("x", 1.0, buckets=(3.0,))

    def test_bool(self):
        reg = MetricsRegistry()
        assert not reg
        reg.count("x")
        assert reg

    def test_picklable(self):
        reg = MetricsRegistry()
        reg.count("c")
        reg.gauge("g", 2.0)
        reg.observe("h", 0.1, buckets=COUNT_BUCKETS)
        back = pickle.loads(pickle.dumps(reg))
        assert back.counters == reg.counters
        assert back.histograms["h"].buckets == COUNT_BUCKETS

    def test_dict_round_trip(self):
        reg = MetricsRegistry()
        reg.count("c", 2)
        reg.gauge("g", 3.5)
        reg.observe("h", 0.2)
        back = MetricsRegistry.from_dict(
            json.loads(json.dumps(reg.as_dict()))
        )
        assert back.as_dict() == reg.as_dict()


class TestRuntime:
    def test_hooks_are_noops_without_session(self):
        obs.count("x")
        obs.gauge("g", 1.0)
        obs.observe("h", 0.5)
        obs.annotate(a=1)
        with obs.span("s") as sp:
            assert sp is None
        with obs.toplevel_span("run") as sp:
            assert sp is None
        assert obs.active() is None

    def test_activate_scopes_session(self):
        session = Telemetry()
        with obs.activate(session):
            assert obs.active() is session
            obs.count("hits")
            with obs.span("work", kind="test"):
                obs.annotate(extra=1)
        assert obs.active() is None
        assert session.metrics.counters == {"hits": 1}
        root = session.spans.finished()[0]
        assert root.name == "work"
        assert root.attrs == {"kind": "test", "extra": 1}

    def test_nested_activate_replaces_and_restores(self):
        outer, inner = Telemetry(), Telemetry()
        with obs.activate(outer):
            with obs.activate(inner):
                obs.count("x")
            obs.count("y")
        assert inner.metrics.counters == {"x": 1}
        assert outer.metrics.counters == {"y": 1}

    def test_toplevel_span_suppressed_under_open_span(self):
        session = Telemetry()
        with obs.activate(session):
            with obs.toplevel_span("run") as outer:
                assert outer is not None
                with obs.toplevel_span("run") as nested:
                    assert nested is None
        assert len(session.spans.finished()) == 1

    def test_adopt_chunk(self):
        worker = SpanRecorder()
        with worker.span("chunk"):
            pass
        sample = sample_resources()
        session = Telemetry()
        with obs.activate(session), obs.span("run"):
            session.adopt_chunk(worker.finished(), [sample])
        run = session.spans.finished()[0]
        assert run.children[0].name == "chunk"
        # Metrics are merged once, by the run's Instrumentation.
        assert not session.metrics
        assert session.resources == [sample]


class TestResources:
    def test_sample_shape(self):
        sample = sample_resources()
        assert sample.pid > 0
        assert sample.cpu_user_s >= 0.0
        assert sample.rss_max_kb >= 0.0

    def test_delta(self):
        before = sample_resources()
        sum(i * i for i in range(200_000))
        after = sample_resources()
        used = after.delta(before)
        assert used.cpu_total_s >= 0.0
        assert used.rss_max_kb >= before.rss_max_kb

    def test_cross_process_delta_rejected(self):
        a = ResourceSample(ts=0, rss_max_kb=1, cpu_user_s=0,
                           cpu_system_s=0, pid=1)
        b = ResourceSample(ts=1, rss_max_kb=1, cpu_user_s=0,
                           cpu_system_s=0, pid=2)
        with pytest.raises(ExperimentError, match="across processes"):
            b.delta(a)

    def test_dict_round_trip(self):
        sample = sample_resources()
        assert ResourceSample.from_dict(sample.as_dict()) == sample


def _recorded_session():
    """A small but fully populated telemetry session."""
    session = Telemetry()
    with obs.activate(session):
        with obs.span("run", experiment="t", jobs=1):
            with obs.span("chunk", scenario="MDET", index=0):
                with obs.span("trial", n_processors=2, method="PURE"):
                    obs.count("engine.trials_measured")
                    obs.observe("phase.distribute.seconds", 0.002)
        obs.gauge("worker.rss_max_kb", 1024.0)
    session.resources.append(sample_resources())
    return session


class TestExport:
    def test_jsonl_schema_round_trip(self, tmp_path):
        session = _recorded_session()
        path = str(tmp_path / "events.jsonl")
        events = write_events(
            path, session, "t",
            summary={"jobs": 1, "n_records": 1},
            failures=[{"fault_kind": "timeout", "scenario": "MDET",
                       "index": 0, "message": "m"}],
        )
        back = read_events(path)
        assert back == json.loads(json.dumps(events))
        kinds = [e["kind"] for e in back]
        assert kinds[0] == "header"
        assert {"span", "metrics", "resource", "failure", "summary"} <= set(
            kinds
        )

    def test_spans_flattened_parent_before_child(self, tmp_path):
        session = _recorded_session()
        events = events_from_telemetry(session, "t")
        spans = [e for e in events if e["kind"] == "span"]
        assert [s["name"] for s in spans] == ["run", "chunk", "trial"]
        assert spans[0]["parent"] is None
        assert spans[1]["parent"] == spans[0]["id"]
        assert spans[2]["parent"] == spans[1]["id"]

    def test_validation_rejects_orphan_span(self):
        events = events_from_telemetry(_recorded_session(), "t")
        orphan = dict(events[1])
        orphan["parent"] = 999
        with pytest.raises(SerializationError, match="parent"):
            validate_events([events[0], orphan])

    def test_validation_rejects_missing_header(self):
        events = events_from_telemetry(_recorded_session(), "t")
        with pytest.raises(SerializationError, match="header"):
            validate_events(events[1:])

    def test_validation_rejects_bad_histogram(self):
        events = events_from_telemetry(_recorded_session(), "t")
        metrics = next(e for e in events if e["kind"] == "metrics")
        bad = json.loads(json.dumps(metrics))
        bad["histograms"]["phase.distribute.seconds"]["count"] = 99
        with pytest.raises(SerializationError, match="histogram"):
            validate_events([events[0], bad])

    def test_read_tolerates_truncated_tail(self, tmp_path):
        session = _recorded_session()
        path = str(tmp_path / "events.jsonl")
        write_events(path, session, "t")
        with open(path, "a") as fp:
            fp.write('{"kind": "resour')  # crash mid-append
        events = read_events(path)
        assert events[0]["kind"] == "header"

    def test_chrome_trace_shape(self, tmp_path):
        session = _recorded_session()
        events = events_from_telemetry(session, "t")
        trace = chrome_trace(events)
        slices = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        metas = [e for e in trace["traceEvents"] if e["ph"] == "M"]
        counters = [e for e in trace["traceEvents"] if e["ph"] == "C"]
        assert {s["name"] for s in slices} == {"run", "chunk", "trial"}
        assert all(s["ts"] >= 0 and s["dur"] >= 0 for s in slices)
        assert any(m["args"]["name"] == "experiment" for m in metas)
        assert counters  # one resource sample -> counter tracks
        # Valid JSON all the way down (what Perfetto actually parses).
        path = str(tmp_path / "trace.json")
        write_chrome_trace(path, events)
        with open(path) as fp:
            assert json.load(fp)["traceEvents"]

    def test_report_renders(self):
        events = events_from_telemetry(
            _recorded_session(), "t", summary={"jobs": 1}
        )
        text = render_run_report(events)
        assert "wall-clock elapsed" in text
        assert "summed phase time" in text
        assert "counters:" in text
        assert "engine.trials_measured" in text


class TestInstrumentationCallbacks:
    def test_raising_callback_detached_with_warning(self):
        inst = Instrumentation()
        seen = []

        def bad(done, total):
            raise RuntimeError("boom")

        inst.add_progress(bad)
        inst.add_progress(lambda done, total: seen.append(done))
        inst.start(3)
        with pytest.warns(ExperimentWarning, match="detached"):
            inst.completed()
        inst.completed()  # the bad callback is gone; no more warnings
        inst.completed()
        assert seen == [1, 2, 3]
        assert len(inst.callback_errors) == 1
        assert "RuntimeError" in inst.callback_errors[0]

    def test_keyboard_interrupt_still_propagates(self):
        inst = Instrumentation()

        def interrupt(done, total):
            raise KeyboardInterrupt

        inst.add_progress(interrupt)
        inst.start(1)
        with pytest.raises(KeyboardInterrupt):
            inst.completed()

    def test_wall_elapsed_separate_from_phase_total(self):
        inst = Instrumentation()
        inst.start(1)
        with inst.phase("generate"):
            pass
        inst.finish()
        assert inst.wall_elapsed > 0.0
        assert inst.timings.total >= 0.0
        frozen = inst.wall_elapsed
        assert inst.wall_elapsed == frozen  # finish() froze it

    def test_parallel_efficiency(self):
        inst = Instrumentation()
        inst.start(1)
        inst.metrics.observe("phase.schedule.seconds", 4.0)
        inst._wall_elapsed = 2.0
        assert inst.parallel_efficiency(4) == pytest.approx(0.5)
        assert Instrumentation().parallel_efficiency(4) is None


class TestObservationDomain:
    """The pinned contract of Histogram.observe for edge-case values."""

    def test_nan_rejected(self):
        hist = Histogram(buckets=(1.0,))
        with pytest.raises(ExperimentError, match="finite"):
            hist.observe(float("nan"))
        assert hist.n == 0  # rejection leaves the histogram untouched

    def test_infinities_rejected(self):
        hist = Histogram(buckets=(1.0,))
        with pytest.raises(ExperimentError, match="finite"):
            hist.observe(float("inf"))
        with pytest.raises(ExperimentError, match="finite"):
            hist.observe(float("-inf"))
        assert hist.n == 0

    def test_registry_observe_propagates_rejection(self):
        registry = MetricsRegistry()
        with pytest.raises(ExperimentError, match="finite"):
            registry.observe("phase.x.seconds", float("nan"))
        assert not registry.histograms

    def test_negative_lands_in_lowest_bucket(self):
        # Documented behavior: negatives are legal (clock skew can
        # produce them) and count toward the first bucket.
        hist = Histogram(buckets=(1.0, 2.0))
        hist.observe(-3.0)
        assert hist.counts == [1, 0, 0]
        assert hist.min == -3.0
        assert hist.total == pytest.approx(-3.0)

    def test_zero_is_fine(self):
        hist = Histogram(buckets=(1.0,))
        hist.observe(0.0)
        assert hist.counts == [1, 0]


class TestSupervisionRoundTrip:
    """supervision.* counters survive JSONL -> Chrome trace -> report."""

    COUNTERS = {
        "supervision.stalls_detected": 1,
        "supervision.kills_escalated": 1,
        "supervision.relaunches": 2,
        "supervision.chunks_replayed": 3,
    }

    def supervised_session(self):
        session = Telemetry()
        with session.spans.span("run"):
            pass
        for name, value in self.COUNTERS.items():
            session.metrics.count(name, value)
        return session

    def test_counters_survive_jsonl_round_trip(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        write_events(path, self.supervised_session(), "t")
        events = read_events(path)
        metrics = next(e for e in events if e["kind"] == "metrics")
        for name, value in self.COUNTERS.items():
            assert metrics["counters"][name] == value

    def test_counters_become_chrome_counter_tracks(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        write_events(path, self.supervised_session(), "t")
        trace = chrome_trace(read_events(path))
        counters = [
            e for e in trace["traceEvents"] if e["ph"] == "C"
        ]
        tracked = {e["name"]: e["args"] for e in counters}
        for name, value in self.COUNTERS.items():
            assert name in tracked, f"{name} missing from counter tracks"
            assert list(tracked[name].values()) == [value]

    def test_report_fault_tolerance_section(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        write_events(path, self.supervised_session(), "t")
        text = render_run_report(read_events(path))
        assert "supervision (fault tolerance):" in text
        assert "worker relaunches" in text
        assert "SIGTERM ignored, escalated to SIGKILL" in text
        assert "chunks replayed from journals" in text

    def test_clean_run_has_no_section(self, tmp_path):
        session = Telemetry()
        with session.spans.span("run"):
            pass
        session.metrics.count("supervision.relaunches", 0)
        path = str(tmp_path / "events.jsonl")
        write_events(path, session, "t")
        text = render_run_report(read_events(path))
        # zero-valued counters must not fabricate an incidents section
        assert "supervision (fault tolerance)" not in text
