"""Live status stream: what a run is doing *while* it runs.

Everything in :mod:`repro.obs` so far is post-hoc — the event log is
written after the run finishes, ``repro report`` reads a finished file.
This module adds the streaming side: a ``status.jsonl`` file next to
the event log that grows *during* the run, one self-describing JSON
line per event, so ``repro top``, the OpenMetrics exporter, and any
external collector can watch a sweep live by tailing a file.

Three producers feed one stream:

* the :class:`StatusSampler` thread snapshots run state (trials
  done/total, per-phase throughput, ETA, parent RSS/CPU, and whatever
  the registered probes report — per-shard liveness, heartbeat ages)
  every ``interval`` seconds and appends a versioned ``status`` line;
* :class:`~repro.feast.backends.base.ChunkDriver` publishes a
  ``progress`` line per completed chunk through the ambient
  :func:`publish` hook;
* the shard fleet supervisor publishes ``supervision`` lines on every
  liveness transition (stall, kill escalation, relaunch, quarantine).

A ``repro serve`` job's stream is also the job's durable record:
:class:`repro.serve.queue.JobLog` writes it, not :class:`StatusStream`,
and syncs each transition line. Its readers are the same.

No participation
----------------
The stream is **observation only**, same contract as the rest of
:mod:`repro.obs`: producers read counters and file sizes, never mutate
engine state, and every write is wrapped so an I/O failure *disables
the stream* (with one :class:`~repro.errors.ExperimentWarning`) instead
of failing the run. The golden-corpus suite asserts that a run with
live sampling enabled produces byte-identical records to an untraced
run. Like :func:`~repro.obs.runtime.count`, :func:`publish` is a cheap
no-op when no stream is active — one module attribute read and an
``is None`` test.
"""

from __future__ import annotations

import os
import threading
import time
import warnings
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional

from repro import applog
from repro.errors import ExperimentWarning, SerializationError
from repro.obs.resources import sample_resources

STATUS_FORMAT = "repro-status"
STATUS_VERSION = 1

#: Filename suffix of status streams (next to ``.events.jsonl``).
STATUS_SUFFIX = ".status.jsonl"

#: Line kinds a status stream may carry. ``running`` and ``cancel`` are
#: serve job transitions (:class:`repro.serve.queue.JobLog`).
STATUS_KINDS = (
    "header", "status", "progress", "supervision", "running", "cancel", "final",
)

#: Default seconds between sampler snapshots.
DEFAULT_INTERVAL = 1.0

#: A probe: returns a JSON-serializable dict describing some live state.
ProbeFn = Callable[[], Dict[str, Any]]


class StatusStream:
    """Append-only JSONL status stream of one run (thread-safe).

    The stream is an :mod:`repro.applog` log with the event log's shape
    — a header line pinning format/version, then one event object per
    line — built for concurrent producers: every :meth:`emit` takes a
    lock, stamps a monotonic ``seq`` and wall-clock ``ts``, and appends
    one whole line, so a tailing reader sees whole lines in a total
    order. It is not fsynced: the stream observes a run, it does not
    make it durable. Creating a stream empties an existing file, so a
    restarted run starts its stream over. A failing write poisons the
    stream (one warning, then silence) rather than the run.
    """

    def __init__(
        self,
        path: str,
        experiment: str,
        run_id: str,
        created: Optional[float] = None,
    ) -> None:
        self.path = os.path.abspath(path)
        self.experiment = experiment
        self.run_id = run_id
        self._lock = threading.Lock()
        self._seq = 0
        self._probes: Dict[str, ProbeFn] = {}
        self._fd: Optional[int] = applog.open_append(self.path, truncate=True)
        self.emit(
            "header",
            format=STATUS_FORMAT,
            version=STATUS_VERSION,
            experiment=experiment,
            run_id=run_id,
            created=created if created is not None else time.time(),
            pid=os.getpid(),
        )

    # -- writing -------------------------------------------------------
    def emit(self, kind: str, **fields: Any) -> None:
        """Append one status line; never raises into the caller.

        The stream observes the run, so a full disk or a yanked
        directory must not abort the sweep: the first failure warns and
        closes the stream, later emits are no-ops.
        """
        with self._lock:
            if self._fd is None:
                return
            event = {"kind": kind, "seq": self._seq, "ts": time.time()}
            event.update(fields)
            try:
                applog.append_line(self._fd, event)
            except Exception as exc:
                self._close_fd()
                warnings.warn(
                    f"status stream {self.path!r} failed "
                    f"({type(exc).__name__}: {exc}); live telemetry "
                    "disabled for the rest of the run",
                    ExperimentWarning,
                    stacklevel=3,
                )
                return
            self._seq += 1

    def close(self, **final_fields: Any) -> None:
        """Emit the terminal ``final`` line and close the file."""
        self.emit("final", **final_fields)
        with self._lock:
            self._close_fd()

    def _close_fd(self) -> None:
        if self._fd is not None:
            try:
                os.close(self._fd)
            except OSError:
                pass
            self._fd = None

    def __enter__(self) -> "StatusStream":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- probes --------------------------------------------------------
    def add_probe(self, name: str, fn: ProbeFn) -> None:
        """Register a live-state probe merged into ``status`` snapshots."""
        with self._lock:
            self._probes[name] = fn

    def remove_probe(self, name: str) -> None:
        with self._lock:
            self._probes.pop(name, None)

    def probe_snapshot(self) -> Dict[str, Any]:
        """Call every registered probe; a raising probe reports its error
        instead of killing the sampler tick."""
        with self._lock:
            probes = dict(self._probes)
        out: Dict[str, Any] = {}
        for name, fn in probes.items():
            try:
                out[name] = fn()
            except Exception as exc:  # observation only — never propagate
                out[name] = {"error": f"{type(exc).__name__}: {exc}"}
        return out


# ----------------------------------------------------------------------
# Ambient hooks (no-ops when no stream is active)
# ----------------------------------------------------------------------
# Module-global, not thread-local: the fleet supervisor, the chunk
# driver, and the sampler thread all belong to one run in one parent
# process, and publishes must work from any of their threads.
_active: Optional[StatusStream] = None


def active_status() -> Optional[StatusStream]:
    """The process's active status stream, if any."""
    return _active


@contextmanager
def activate_status(stream: Optional[StatusStream]) -> Iterator[None]:
    """Run a block with ``stream`` receiving ambient publishes."""
    global _active
    if stream is None:
        yield
        return
    previous = _active
    _active = stream
    try:
        yield
    finally:
        _active = previous


def detach() -> None:
    """Forget the active stream without writing to or closing it.

    For a process forked mid-run: the stream, its fd, its probes and its
    lock still belong to the parent, which alone may write the stream.
    """
    global _active
    _active = None


def publish(kind: str, **fields: Any) -> None:
    """Publish one status line on the active stream, if any."""
    stream = _active
    if stream is not None:
        stream.emit(kind, **fields)


@contextmanager
def probe(name: str, fn: ProbeFn) -> Iterator[None]:
    """Register ``fn`` as a live probe for the duration of a block."""
    stream = _active
    if stream is None:
        yield
        return
    stream.add_probe(name, fn)
    try:
        yield
    finally:
        stream.remove_probe(name)


# ----------------------------------------------------------------------
# The sampler thread
# ----------------------------------------------------------------------
class StatusSampler:
    """Periodic run-state snapshotter (a daemon thread in the parent).

    Every ``interval`` seconds — and once more on :meth:`stop` — the
    sampler builds a snapshot from the run's
    :class:`~repro.feast.instrumentation.Instrumentation` (trials,
    phase timings, failures), the parent's resource usage, and the
    stream's registered probes (per-shard liveness while the fleet
    drives), emits it as a ``status`` line, and — when ``metrics_out``
    is set — atomically rewrites the OpenMetrics textfile so external
    scrapers always see a complete snapshot.

    The sampler only ever *reads* engine state — the run registry's
    counters and phase histograms, each looked up by key, which is safe
    under the GIL while the engine records (it never iterates the
    registry) — and never blocks the run: it is a daemon thread
    and :meth:`stop` joins it with a bounded timeout.
    """

    def __init__(
        self,
        stream: Optional[StatusStream],
        instrumentation,
        interval: float = DEFAULT_INTERVAL,
        metrics_out: Optional[str] = None,
        backend: Optional[str] = None,
        jobs: Optional[int] = None,
        shards: Optional[int] = None,
    ) -> None:
        if interval <= 0:
            raise SerializationError(
                f"sampler interval must be > 0, got {interval}"
            )
        self.stream = stream
        self.inst = instrumentation
        self.interval = interval
        self.metrics_out = metrics_out
        self.backend = backend
        self.jobs = jobs
        self.shards = shards
        self.samples_taken = 0
        self._started = time.monotonic()
        self._last: Optional[Dict[str, float]] = None  # previous tick
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    # -- snapshot building ---------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """One versioned status snapshot of the run, as plain JSON data."""
        inst = self.inst
        done = inst.trials_completed
        total = inst.total_trials
        wall = inst.wall_elapsed
        now = time.monotonic()
        rate_overall = done / wall if wall > 0 else 0.0
        rate_recent = rate_overall
        if self._last is not None:
            dt = now - self._last["t"]
            if dt > 0:
                rate_recent = (done - self._last["done"]) / dt
        self._last = {"t": now, "done": float(done)}
        remaining = max(0, total - done)
        rate_for_eta = rate_recent if rate_recent > 0 else rate_overall
        eta = remaining / rate_for_eta if rate_for_eta > 0 else None
        parent = sample_resources()
        snap: Dict[str, Any] = {
            "version": STATUS_VERSION,
            "trials": {
                "done": done,
                "total": total,
                "replayed": inst.replayed_trials,
            },
            "throughput": {
                "overall": rate_overall,
                "recent": rate_recent,
            },
            "eta_seconds": eta,
            "wall_elapsed": wall,
            "phases": inst.timings.as_dict(),
            "faults": {
                "failures": len(inst.failures),
                "retries": inst.retries,
                "quarantined": inst.quarantined,
            },
            "parent": {
                "pid": parent.pid,
                "rss_max_kb": parent.rss_max_kb,
                "cpu_user_s": parent.cpu_user_s,
                "cpu_system_s": parent.cpu_system_s,
            },
        }
        if self.backend is not None:
            snap["engine"] = {
                "backend": self.backend,
                "jobs": self.jobs,
                "shards": self.shards,
            }
        if self.stream is not None:
            probes = self.stream.probe_snapshot()
            if probes:
                snap["probes"] = probes
        return snap

    def _tick(self) -> None:
        snap = self.snapshot()
        self.samples_taken += 1
        if self.stream is not None:
            self.stream.emit("status", **snap)
        if self.metrics_out is not None:
            self._export_metrics(snap)

    def _export_metrics(self, snap: Dict[str, Any]) -> None:
        from repro.obs.promexport import write_openmetrics

        try:
            write_openmetrics(
                self.metrics_out,
                telemetry=getattr(self.inst, "telemetry", None),
                snapshot=snap,
                experiment=(
                    self.stream.experiment if self.stream is not None
                    else None
                ),
                run_id=(
                    self.stream.run_id if self.stream is not None else None
                ),
            )
        except Exception as exc:  # observation only — never propagate
            warnings.warn(
                f"OpenMetrics export to {self.metrics_out!r} failed "
                f"({type(exc).__name__}: {exc}); export disabled",
                ExperimentWarning,
                stacklevel=2,
            )
            self.metrics_out = None

    # -- lifecycle -----------------------------------------------------
    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            try:
                self._tick()
            except Exception:  # pragma: no cover — belt and braces
                return

    def start(self) -> "StatusSampler":
        self._thread = threading.Thread(
            target=self._run, name="repro-status-sampler", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        """Stop the thread and take one last snapshot (never raises)."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        try:
            self._tick()
        except Exception:  # pragma: no cover
            pass

    def __enter__(self) -> "StatusSampler":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()


# ----------------------------------------------------------------------
# Reading
# ----------------------------------------------------------------------
def read_status(path: str) -> List[Dict[str, Any]]:
    """Read a status stream, which may be mid-append (it is live).

    A torn tail is dropped under the :mod:`repro.applog` rule; a
    malformed complete line, a missing header, or a format mismatch
    raises :class:`~repro.errors.SerializationError`.
    """
    events: List[Dict[str, Any]] = []
    try:
        for lineno, event in applog.iter_lines(path):
            if not isinstance(event, dict) or event.get("kind") not in STATUS_KINDS:
                raise SerializationError(
                    f"invalid status line {lineno} of {path!r}: "
                    f"unknown kind {event.get('kind') if isinstance(event, dict) else event!r}"
                )
            events.append(event)
    except OSError as exc:
        raise SerializationError(
            f"cannot read status stream {path!r}: {exc}"
        ) from exc
    if not events:
        raise SerializationError(f"empty status stream: {path!r}")
    header = events[0]
    if header.get("kind") != "header":
        raise SerializationError(
            f"status stream {path!r} does not start with a header line"
        )
    if header.get("format") != STATUS_FORMAT:
        raise SerializationError(
            f"{path!r} is not a status stream "
            f"(format {header.get('format')!r})"
        )
    if header.get("version") != STATUS_VERSION:
        raise SerializationError(
            f"unsupported status version {header.get('version')!r} "
            f"in {path!r}"
        )
    return events
