"""``repro.obs`` — zero-dependency telemetry for the experiment engine.

Structured span tracing, a metrics registry, per-worker resource
sampling, and trace export, threaded through the whole pipeline:

* :mod:`repro.obs.spans` — nested, picklable :class:`Span` trees
  recorded by a :class:`SpanRecorder`; workers record locally and the
  parent adopts their roots, producing one merged timeline per run.
* :mod:`repro.obs.metrics` — :class:`MetricsRegistry` with counters,
  gauges (max-merged), and fixed-bucket histograms; registries from
  worker chunks fold into the run's registry.
* :mod:`repro.obs.runtime` — the active :class:`Telemetry` session and
  the cheap ambient hooks (:func:`count`, :func:`observe`,
  :func:`span`, ...) instrumented components call unconditionally; all
  are no-ops when tracing is off.
* :mod:`repro.obs.resources` — RSS/CPU sampling via ``resource``/``os``.
* :mod:`repro.obs.export` — the JSONL event log (an
  :mod:`repro.applog` file), schema validation, and Chrome-trace/Perfetto
  conversion.
* :mod:`repro.obs.report` — human-readable run reports.
* :mod:`repro.obs.live` — the *streaming* side: a ``status.jsonl``
  stream that grows during the run (:class:`StatusStream`), the
  :class:`StatusSampler` thread snapshotting progress/liveness, and
  the ambient :func:`publish`/:func:`probe` hooks (no-ops when off).
* :mod:`repro.obs.promexport` — OpenMetrics textfile export
  (``--metrics-out``), rewritten atomically for external scrapers.
* :mod:`repro.obs.registry` — the append-only run registry behind
  ``repro runs list/show/diff`` and its regression gate.
* :mod:`repro.obs.board` — the ``repro top`` status-board renderer.

Enable tracing from the CLI with ``repro run --trace DIR``, then
inspect with ``repro report`` / ``repro trace``; from code, pass a
:class:`Telemetry` to :class:`~repro.feast.instrumentation.Instrumentation`
and hand it to :func:`~repro.feast.runner.run_experiment`.
"""

from repro.obs.metrics import (
    COUNT_BUCKETS,
    LATENCY_BUCKETS,
    Histogram,
    MetricsRegistry,
)
from repro.obs.resources import ResourceSample, sample_resources
from repro.obs.runtime import (
    Telemetry,
    activate,
    active,
    annotate,
    count,
    gauge,
    observe,
    span,
    toplevel_span,
)
from repro.obs.spans import Span, SpanRecorder
from repro.obs.export import (
    TRACE_FORMAT,
    TRACE_VERSION,
    chrome_trace,
    events_from_telemetry,
    read_events,
    validate_events,
    write_chrome_trace,
    write_events,
)
from repro.obs.report import render_run_report
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
from repro.obs.promexport import openmetrics_text, write_openmetrics
from repro.obs.registry import (
    DEFAULT_REGISTRY_DIR,
    RunRecord,
    RunRegistry,
    diff_runs,
    records_digest,
)
from repro.obs.board import render_board

__all__ = [
    "Span",
    "SpanRecorder",
    "Histogram",
    "MetricsRegistry",
    "LATENCY_BUCKETS",
    "COUNT_BUCKETS",
    "ResourceSample",
    "sample_resources",
    "Telemetry",
    "activate",
    "active",
    "annotate",
    "count",
    "gauge",
    "observe",
    "span",
    "toplevel_span",
    "TRACE_FORMAT",
    "TRACE_VERSION",
    "events_from_telemetry",
    "write_events",
    "read_events",
    "validate_events",
    "chrome_trace",
    "write_chrome_trace",
    "render_run_report",
    "STATUS_FORMAT",
    "STATUS_VERSION",
    "StatusStream",
    "StatusSampler",
    "activate_status",
    "active_status",
    "publish",
    "probe",
    "read_status",
    "openmetrics_text",
    "write_openmetrics",
    "DEFAULT_REGISTRY_DIR",
    "RunRecord",
    "RunRegistry",
    "diff_runs",
    "records_digest",
    "render_board",
]
