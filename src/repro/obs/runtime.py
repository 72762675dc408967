"""The active telemetry session and the hot-path hooks that feed it.

A :class:`Telemetry` bundles one run's span recorder, metrics registry,
and resource samples. Exactly one session can be *active* per thread
(worker processes activate their own around each chunk); library code
deep in the pipeline — the branch-and-bound scheduler, the expanded-graph
cache, the slicer — reports through the module-level hooks
:func:`count` / :func:`gauge` / :func:`observe` / :func:`span` /
:func:`annotate`, which are **cheap no-ops when no session is active**:
a thread-local attribute read and an ``is None`` test. That is the whole
overhead contract: benchmarks and untraced runs pay one branch per hook
site, never allocation or I/O.

Mirrors the design of :mod:`repro.budget` (thread-local ambient state,
poll-unconditionally), so instrumented components need no telemetry
arguments threaded through their signatures.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Iterator, List, Optional, Sequence

from repro.obs.metrics import MetricsRegistry
from repro.obs.resources import ResourceSample
from repro.obs.spans import Span, SpanRecorder

_state = threading.local()


@dataclass
class Telemetry:
    """One run's telemetry: spans + metrics + resource samples."""

    spans: SpanRecorder = field(default_factory=SpanRecorder)
    metrics: MetricsRegistry = field(default_factory=MetricsRegistry)
    resources: List[ResourceSample] = field(default_factory=list)

    def adopt_chunk(
        self,
        spans: Optional[List[Span]] = None,
        resources: Optional[List[ResourceSample]] = None,
    ) -> None:
        """Graft one worker chunk's span tree and resource samples into
        this session. Its metrics registry is merged by the run's
        :class:`~repro.feast.instrumentation.Instrumentation`, once."""
        if spans:
            self.spans.adopt(spans)
        if resources:
            self.resources.extend(resources)


def active() -> Optional[Telemetry]:
    """The thread's active telemetry session, if any."""
    return getattr(_state, "session", None)


@contextmanager
def activate(session: Optional[Telemetry]) -> Iterator[None]:
    """Run a block with ``session`` active (``None`` = leave untouched).

    Re-activating the already-active session is a no-op, so an engine
    entry point can activate unconditionally even when its caller
    already did.
    """
    previous = active()
    if session is None or session is previous:
        yield
        return
    _state.session = session
    try:
        yield
    finally:
        _state.session = previous


def detach() -> None:
    """Deactivate every inherited session without finishing it.

    For a process forked mid-run: the copy of the parent's session is
    dead, so hot-path hooks must go back to being no-ops.
    """
    global _state
    _state = threading.local()


# ----------------------------------------------------------------------
# Hot-path hooks (no-ops when inactive)
# ----------------------------------------------------------------------
def count(name: str, n: float = 1) -> None:
    """Add ``n`` to counter ``name`` on the active session, if any."""
    session = getattr(_state, "session", None)
    if session is not None:
        session.metrics.count(name, n)


def gauge(name: str, value: float) -> None:
    """Record gauge ``name`` on the active session, if any."""
    session = getattr(_state, "session", None)
    if session is not None:
        session.metrics.gauge(name, value)


def observe(
    name: str, value: float, buckets: Optional[Sequence[float]] = None
) -> None:
    """Histogram observation on the active session, if any."""
    session = getattr(_state, "session", None)
    if session is not None:
        session.metrics.observe(name, value, buckets=buckets)


def annotate(**attrs: Any) -> None:
    """Attach attributes to the innermost open span, if any."""
    session = getattr(_state, "session", None)
    if session is not None:
        session.spans.annotate(**attrs)


class _NullSpan:
    """Reusable no-op context manager for the inactive case."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NULL_SPAN = _NullSpan()


def span(name: str, **attrs: Any):
    """Time a block as a span on the active session (no-op when none).

    Returns the recorder's own context manager directly (not a wrapping
    generator): ``span`` sits on the per-trial hot path, and every layer
    of ``@contextmanager`` indirection is measurable at that frequency.
    """
    session = getattr(_state, "session", None)
    if session is None:
        return _NULL_SPAN
    return session.spans.span(name, **attrs)


def toplevel_span(name: str, **attrs: Any):
    """Like :func:`span`, but only when no span is open yet.

    The engine uses this for the root ``run`` span so that a
    ``run_experiment`` call made inside an already-open span (a caller's
    own span in the same session) does not nest a second root.
    """
    session = getattr(_state, "session", None)
    if session is None or session.spans.depth > 0:
        return _NULL_SPAN
    return session.spans.span(name, **attrs)
