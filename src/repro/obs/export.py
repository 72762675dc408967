"""Trace export: the JSONL event log and the Chrome-trace converter.

The **event log** is one run's telemetry serialized as JSON Lines — an
:mod:`repro.applog` file, the same shape as the checkpoint journal it
sits next to: a header line pinning format and version, then one
self-describing event object per line (``span``, ``metrics``,
``resource``, ``failure``, ``summary``). The run is finished when the
log is written, so :func:`write_events` writes it in one atomic
replace. Spans are flattened parent-before-child with integer ids, so a
consumer can stream the file without reassembling trees, and
:func:`read_events` validates every line against the schema on the way
in.

The **Chrome-trace converter** (:func:`chrome_trace`) turns an event log
into the Trace Event Format that ``chrome://tracing`` and Perfetto load:
complete (``"ph": "X"``) slices per span on one track per process,
counter tracks for worker resource samples, and process-name metadata.
Timestamps are rebased to the run's first span so the viewer opens at
t=0.
"""

from __future__ import annotations

import json
import os
import time
from typing import Any, Dict, List, Optional

from repro import applog
from repro.errors import SerializationError
from repro.obs.runtime import Telemetry
from repro.obs.spans import Span

TRACE_FORMAT = "repro-trace"
TRACE_VERSION = 1

#: Event kinds a log line may carry.
EVENT_KINDS = ("header", "span", "metrics", "resource", "failure", "summary")


def make_run_id() -> str:
    """A short, filesystem-safe id distinguishing runs on one machine."""
    return f"{int(time.time() * 1000):x}-{os.getpid():x}"


# ----------------------------------------------------------------------
# Telemetry -> events
# ----------------------------------------------------------------------
def _flatten_spans(
    spans: List[Span], events: List[Dict[str, Any]], parent: Optional[int],
    next_id: List[int],
) -> None:
    for span in spans:
        span_id = next_id[0]
        next_id[0] += 1
        events.append({
            "kind": "span",
            "id": span_id,
            "parent": parent,
            "name": span.name,
            "ts": span.start,
            "dur": max(0.0, span.duration),
            "pid": span.pid,
            "attrs": dict(span.attrs),
        })
        _flatten_spans(span.children, events, span_id, next_id)


def events_from_telemetry(
    telemetry: Telemetry,
    experiment: str,
    summary: Optional[Dict[str, Any]] = None,
    failures: Optional[List[Dict[str, Any]]] = None,
    run_id: Optional[str] = None,
) -> List[Dict[str, Any]]:
    """Serialize one run's telemetry as event-log lines (header first)."""
    events: List[Dict[str, Any]] = [{
        "kind": "header",
        "format": TRACE_FORMAT,
        "version": TRACE_VERSION,
        "experiment": experiment,
        "run_id": run_id if run_id is not None else make_run_id(),
        "created": time.time(),
    }]
    _flatten_spans(telemetry.spans.finished(), events, None, [0])
    for sample in telemetry.resources:
        events.append({"kind": "resource", **sample.as_dict()})
    for failure in failures or []:
        events.append({"kind": "failure", **failure})
    if telemetry.metrics:
        events.append({"kind": "metrics", **telemetry.metrics.as_dict()})
    if summary is not None:
        events.append({"kind": "summary", **summary})
    return events


def write_events(
    path: str,
    telemetry: Telemetry,
    experiment: str,
    summary: Optional[Dict[str, Any]] = None,
    failures: Optional[List[Dict[str, Any]]] = None,
    run_id: Optional[str] = None,
) -> List[Dict[str, Any]]:
    """Write a finished run's telemetry to ``path`` as an event log."""
    events = events_from_telemetry(
        telemetry, experiment,
        summary=summary, failures=failures, run_id=run_id,
    )
    applog.atomic_write_text(path, "".join(map(applog.line, events)))
    return events


# ----------------------------------------------------------------------
# Validation and reading
# ----------------------------------------------------------------------
def _require(condition: bool, lineno: int, message: str) -> None:
    if not condition:
        raise SerializationError(
            f"invalid trace event on line {lineno}: {message}"
        )


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def validate_event(
    event: Dict[str, Any], lineno: int, seen_span_ids: set
) -> None:
    """Validate one event-log line against the schema; raises on error."""
    _require(isinstance(event, dict), lineno, "not an object")
    kind = event.get("kind")
    _require(kind in EVENT_KINDS, lineno, f"unknown kind {kind!r}")
    if kind == "header":
        _require(
            event.get("format") == TRACE_FORMAT, lineno,
            f"format is {event.get('format')!r}, not {TRACE_FORMAT!r}",
        )
        _require(
            event.get("version") == TRACE_VERSION, lineno,
            f"unsupported version {event.get('version')!r}",
        )
        _require(
            isinstance(event.get("experiment"), str), lineno,
            "header misses experiment name",
        )
    elif kind == "span":
        for key in ("id", "name", "ts", "dur", "pid", "attrs"):
            _require(key in event, lineno, f"span misses {key!r}")
        _require(
            isinstance(event["id"], int), lineno, "span id must be int"
        )
        _require(
            _is_number(event["ts"]) and _is_number(event["dur"]),
            lineno, "span ts/dur must be numbers",
        )
        _require(event["dur"] >= 0, lineno, "span dur must be >= 0")
        _require(
            isinstance(event["attrs"], dict), lineno,
            "span attrs must be an object",
        )
        parent = event.get("parent")
        _require(
            parent is None or parent in seen_span_ids, lineno,
            f"span parent {parent!r} not seen yet "
            "(spans must be parent-before-child)",
        )
        _require(
            event["id"] not in seen_span_ids, lineno,
            f"duplicate span id {event['id']}",
        )
        seen_span_ids.add(event["id"])
    elif kind == "metrics":
        for key in ("counters", "gauges", "histograms"):
            _require(
                isinstance(event.get(key), dict), lineno,
                f"metrics misses object {key!r}",
            )
        for name, value in {
            **event["counters"], **event["gauges"]
        }.items():
            _require(
                _is_number(value), lineno,
                f"metric {name!r} value must be a number",
            )
        for name, hist in event["histograms"].items():
            _require(
                isinstance(hist, dict)
                and isinstance(hist.get("buckets"), list)
                and isinstance(hist.get("counts"), list),
                lineno, f"histogram {name!r} malformed",
            )
            _require(
                len(hist["counts"]) == len(hist["buckets"]) + 1,
                lineno,
                f"histogram {name!r} needs len(buckets)+1 counts",
            )
            _require(
                sum(hist["counts"]) == hist.get("count"), lineno,
                f"histogram {name!r} counts do not sum to count",
            )
    elif kind == "resource":
        for key in ("ts", "rss_max_kb", "cpu_user_s", "cpu_system_s", "pid"):
            _require(
                _is_number(event.get(key)), lineno,
                f"resource misses numeric {key!r}",
            )
    # "failure" and "summary" carry engine-defined payloads; the kind tag
    # is the whole contract.


def validate_events(events: List[Dict[str, Any]]) -> None:
    """Validate a whole event sequence (header first, spans ordered)."""
    if not events:
        raise SerializationError("empty trace: no header event")
    if events[0].get("kind") != "header":
        raise SerializationError(
            "first trace event must be the header, got "
            f"{events[0].get('kind')!r}"
        )
    seen_span_ids: set = set()
    for lineno, event in enumerate(events, start=1):
        if lineno > 1 and event.get("kind") == "header":
            raise SerializationError(
                f"invalid trace event on line {lineno}: duplicate header"
            )
        validate_event(event, lineno, seen_span_ids)


def read_events(path: str) -> List[Dict[str, Any]]:
    """Read and validate an event log; returns the event dicts.

    A torn tail (a run that crashed mid-write) is dropped; anything
    else malformed raises :class:`SerializationError`.
    """
    try:
        events = [event for _, event in applog.iter_lines(path)]
    except OSError as exc:
        raise SerializationError(
            f"cannot read event log {path!r}: {exc}"
        ) from exc
    validate_events(events)
    return events


# ----------------------------------------------------------------------
# Chrome trace (Perfetto / chrome://tracing)
# ----------------------------------------------------------------------
def chrome_trace(events: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Convert an event log to Chrome Trace Event Format (JSON object).

    Spans become complete ``"X"`` slices (microsecond timestamps rebased
    to the earliest span), resource samples and ``supervision.*``
    counters become ``"C"`` counter tracks, and each process gets a
    ``process_name`` metadata record.
    The result loads directly in Perfetto or ``chrome://tracing``.
    """
    validate_events(events)
    header = events[0]
    spans = [e for e in events if e.get("kind") == "span"]
    resources = [e for e in events if e.get("kind") == "resource"]
    base = min(
        [e["ts"] for e in spans] + [e["ts"] for e in resources],
        default=0.0,
    )
    trace_events: List[Dict[str, Any]] = []
    pids = sorted(
        {e["pid"] for e in spans} | {e["pid"] for e in resources}
    )
    run_pid = min(
        (e["pid"] for e in spans if e.get("parent") is None),
        default=pids[0] if pids else 0,
    )
    for pid in pids:
        name = "experiment" if pid == run_pid else f"worker-{pid}"
        trace_events.append({
            "ph": "M", "name": "process_name", "pid": pid, "tid": 0,
            "args": {"name": name},
        })
    for e in spans:
        trace_events.append({
            "ph": "X",
            "name": e["name"],
            "cat": "repro",
            "ts": (e["ts"] - base) * 1e6,
            "dur": e["dur"] * 1e6,
            "pid": e["pid"],
            "tid": 0,
            "args": dict(e["attrs"]),
        })
    for e in resources:
        ts = (e["ts"] - base) * 1e6
        trace_events.append({
            "ph": "C", "name": "rss_max_kb", "pid": e["pid"], "tid": 0,
            "ts": ts, "args": {"kb": e["rss_max_kb"]},
        })
        trace_events.append({
            "ph": "C", "name": "cpu_seconds", "pid": e["pid"], "tid": 0,
            "ts": ts,
            "args": {
                "user": e["cpu_user_s"], "system": e["cpu_system_s"],
            },
        })
    # Supervision counters are run totals (no timeline of their own), so
    # plot each as a counter track stamped at the end of the trace —
    # Perfetto then shows fault-tolerance incidents next to the spans.
    end = max(
        [(e["ts"] - base + e["dur"]) * 1e6 for e in spans], default=0.0
    )
    for e in events:
        if e.get("kind") != "metrics":
            continue
        for name, value in sorted((e.get("counters") or {}).items()):
            if not name.startswith("supervision."):
                continue
            trace_events.append({
                "ph": "C", "name": name, "pid": run_pid, "tid": 0,
                "ts": end, "args": {"count": value},
            })
    return {
        "traceEvents": trace_events,
        "displayTimeUnit": "ms",
        "otherData": {
            "format": TRACE_FORMAT,
            "experiment": header.get("experiment"),
            "run_id": header.get("run_id"),
        },
    }


def write_chrome_trace(path: str, events: List[Dict[str, Any]]) -> None:
    """Convert ``events`` and write the Chrome trace JSON atomically."""
    applog.atomic_write_text(path, json.dumps(chrome_trace(events)))
