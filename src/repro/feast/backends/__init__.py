"""Pluggable execution backends for the trial engine.

The work-unit contract lives in :mod:`.work`, the backend interface and
shared chunk driver in :mod:`.base`, and three implementations ship
in-tree:

======================  ==========================================
``serial``              chunks run one at a time in this process
``subprocess``          a supervised fleet of forked worker
                        processes merged through checkpoint journals
``pool``                another name of ``subprocess``
======================  ==========================================

``run_experiment(jobs=N)`` picks ``serial`` for ``N == 1`` and the
fleet otherwise; ``backend=`` / ``repro run --backend`` names one, and
``jobs`` sizes the fleet either way. :func:`register_backend` adds
custom ones (see docs/EXTENDING.md). Every backend produces
byte-identical canonical records — ``tests/test_backends.py`` holds
them to it.
"""

from __future__ import annotations

from typing import Callable, Dict, List

from repro._lazy import lazy_exports
from repro.errors import ExperimentError
from repro.feast import faultinject
from repro.feast.backends.base import ExecutionBackend
from repro.feast.backends.serial import SerialBackend

__all__ = ["BACKENDS", "backend_names", "make_backend", "register_backend"]
__all__ += lazy_exports(__name__, {
    ".base": (
        "BackendOutcome",
        "ChunkDriver",
        "ChunkState",
        "ExecutionBackend",
        "ExecutionRequest",
        "SupervisionStats",
        "assemble_records",
    ),
    ".serial": ("SerialBackend", "run_classic_serial"),
    ".shards": ("SubprocessBackend",),
    ".work": (
        "ChunkKey",
        "ChunkResult",
        "RetryPolicy",
        "TrialSpec",
        "default_jobs",
        "execute_chunk",
        "resolve_jobs",
        "run_chunk",
    ),
})


def _subprocess() -> ExecutionBackend:
    from repro.feast.backends.shards import SubprocessBackend

    return SubprocessBackend()


#: Name → zero-argument backend factory. The fleet loads its module in
#: :func:`make_backend`, which a run calls before its first fork, so a
#: forked worker never imports. ``pool`` is an alias of ``subprocess``.
BACKENDS: Dict[str, Callable[[], ExecutionBackend]] = {
    "serial": SerialBackend,
    "pool": _subprocess,
    "subprocess": _subprocess,
}


def register_backend(
    name: str, factory: Callable[[], ExecutionBackend]
) -> None:
    """Register a custom execution backend under ``name``.

    ``factory()`` must return an :class:`ExecutionBackend`. Registering
    an existing name (including the built-ins) replaces it.
    """
    BACKENDS[name] = factory


def backend_names() -> List[str]:
    """The currently registered backend names, sorted."""
    return sorted(BACKENDS)


def make_backend(name: str) -> ExecutionBackend:
    """Instantiate the backend registered under ``name``.

    Also imports the ``REPRO_FAULT_PLUGIN`` module, if one is named, so
    its fault kinds are registered before a run's first fork.
    """
    faultinject.load_plugin()
    try:
        factory = BACKENDS[name]
    except KeyError:
        raise ExperimentError(
            f"unknown execution backend {name!r}; expected one of "
            f"{backend_names()}"
        ) from None
    return factory()
