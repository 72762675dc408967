"""Cooperative per-trial wall-clock budgets.

The experiment engine (:mod:`repro.feast.backends`) enforces trial
timeouts in two layers. The outer layer is supervision: the parent kills
a worker whose chunk overruns its budget. This module is the inner,
cooperative layer: before each trial the worker publishes a deadline
here, and long-running components deep in the pipeline — most notably
the branch-and-bound scheduler (:mod:`repro.sched.optimal`), whose
search is exponential in the worst case — poll it and degrade gracefully
(return their incumbent) instead of overrunning.

The deadline is an absolute :func:`time.monotonic` timestamp stored in
thread-local state, so concurrently executing trials in one process
never share a budget, and nested deadlines restore their parent on exit.
A ``None`` deadline means "no budget" and every query is a cheap no-op,
so components can poll unconditionally.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Iterator, Optional

from repro.errors import TrialTimeoutError

_state = threading.local()


def set_trial_deadline(deadline: Optional[float]) -> None:
    """Publish an absolute monotonic deadline (``None`` clears it)."""
    _state.deadline = deadline


def current_trial_deadline() -> Optional[float]:
    """The active trial's absolute monotonic deadline, if any."""
    return getattr(_state, "deadline", None)


def remaining() -> Optional[float]:
    """Seconds until the active deadline (negative when past it)."""
    deadline = current_trial_deadline()
    if deadline is None:
        return None
    return deadline - time.monotonic()


def expired() -> bool:
    """Whether the active trial has exhausted its budget."""
    left = remaining()
    return left is not None and left <= 0.0


def check(context: str = "trial") -> None:
    """Raise :class:`TrialTimeoutError` if the active budget is spent."""
    if expired():
        raise TrialTimeoutError(
            f"{context} exceeded its wall-clock budget"
        )


@contextmanager
def trial_deadline(seconds: Optional[float]) -> Iterator[None]:
    """Run a block under a budget of ``seconds`` from now.

    ``None`` leaves any enclosing deadline untouched. Nested deadlines
    never extend an enclosing one: the effective deadline is the minimum
    of the new and the current.
    """
    if seconds is None:
        yield
        return
    previous = current_trial_deadline()
    deadline = time.monotonic() + seconds
    if previous is not None and previous < deadline:
        deadline = previous
    set_trial_deadline(deadline)
    try:
        yield
    finally:
        set_trial_deadline(previous)
