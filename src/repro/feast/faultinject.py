"""Deterministic fault injection for the experiment engine.

The fault-tolerance layer (:mod:`repro.feast.backends`) is only
trustworthy if its failure paths are exercised on every push, and real
worker crashes are not reproducible. This module injects them on demand:
a :class:`FaultPlan` names which (scenario, graph-index, attempt)
coordinates fail and how, and the engine's worker entry point calls
:func:`maybe_inject` before running each chunk.

Fault kinds
-----------
``crash``
    SIGKILL the worker process — the classic OOM-killer simulation.
``error``
    Raise :class:`InjectedFaultError` inside the worker (retryable).
``hang``
    Sleep ``seconds`` — a stalled worker. Responds to SIGTERM, so the
    supervisor's first escalation rung recovers it.
``stubborn-hang``
    Ignore SIGTERM, then sleep — a wedged worker that only SIGKILL can
    reap; exercises the supervisor's full escalation ladder.
``spin``
    Busy-loop ``seconds`` of CPU — a livelocked worker (still dies to
    SIGTERM's default disposition, but burns a core until then).
``slow-io``
    Sleep ``seconds`` (conventionally short) — degraded storage or
    network, slowing the chunk without failing it.
``exit``
    ``os._exit`` with a nonzero code mid-chunk — the worker vanishes
    without journaling the chunk it was executing.
``truncate-journal``
    Chop ``amount`` bytes off the worker's checkpoint journal
    (mid-line, simulating a write torn by a crash) and exit nonzero;
    the relaunched worker must repair the torn tail and re-run that
    chunk. Requires the journal context (:func:`set_journal_context`,
    installed by the shard worker); a no-op where no journal exists.

Add custom kinds with :func:`register_fault_kind` — see
docs/EXTENDING.md ("Custom fault kinds").

Plans activate through an environment variable rather than module state
so that a plan set in the shell (``REPRO_FAULT_PLAN=... repro run``)
reaches a CLI-driven run, and every fleet worker — forked at each
launch, relaunches included — reads the plan active at that moment.
Injection is fully deterministic: the same plan against the same config
fails the same chunks on the same attempts, every run.

Fire-once faults
----------------
A chunk's driver-side attempt counter resets whenever its worker
process is relaunched, so a fault keyed on ``attempts=(0,)`` would
re-fire on every relaunch and never let the chunk pass. Specs with
``once=True`` instead fire a single time per campaign: the first
process to reach the coordinates atomically creates a marker file in
the plan's ``state_dir`` (``O_CREAT | O_EXCL`` — race-free across
shards) and later arrivals skip the fault. :func:`install` provisions a
state directory automatically when a plan needs one, and a named
``state_dir`` that does not exist yet is created at the first claim.

Process-killing kinds (``crash``, ``exit``, ``truncate-journal``) and
``stubborn-hang`` act on whatever process runs the chunk, like a real
segfault or OOM kill. On the worker fleet that is always a worker: the
parent charges each death to the chunk and quarantines a chunk that
kills its worker on every allowed attempt, which is what guarantees
chaos campaigns terminate. On a serial run they take the run down, so
a serial campaign draws only in-process kinds.

This is a test harness. Nothing here runs unless a plan is installed.
"""

from __future__ import annotations

import importlib
import json
import os
import random
import signal
import tempfile
import time
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Callable, Dict, Iterator, Optional, Tuple

from repro.errors import ExperimentError

#: Environment variable carrying the active plan (JSON).
ENV_VAR = "REPRO_FAULT_PLAN"

#: Optional module a run imports before its first fork
#: (:func:`load_plugin`), so a CLI-driven run (``repro run`` with a plan
#: in its environment) can register custom fault kinds (see
#: docs/EXTENDING.md).
PLUGIN_ENV_VAR = "REPRO_FAULT_PLUGIN"


class InjectedFaultError(ExperimentError):
    """The exception an ``error`` fault spec raises inside a worker."""


@dataclass(frozen=True)
class FaultSpec:
    """One injected fault at (scenario, graph-index) coordinates.

    ``attempts`` selects which execution attempts fire (0-based count of
    the chunk's prior failures); ``None`` fires on *every* attempt —
    i.e. a deterministic fault the engine must quarantine, inside the
    worker (``error``) or from the fleet parent (process-killing kinds).
    ``once=True`` makes the spec fire a single time per campaign
    regardless of attempts (see module docstring).
    """

    scenario: str
    index: int
    kind: str
    attempts: Optional[Tuple[int, ...]] = (0,)
    #: ``hang``/``spin``/``slow-io`` only: how long the worker stalls.
    seconds: float = 60.0
    message: str = "injected fault"
    #: Fire at most once per campaign (needs the plan's state_dir).
    once: bool = False
    #: ``truncate-journal`` only: bytes chopped off the journal tail.
    amount: int = 20

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ExperimentError(
                f"unknown fault kind {self.kind!r}; expected one of "
                f"{sorted(FAULT_KINDS)} (register custom kinds with "
                f"register_fault_kind)"
            )

    def fires_on(self, attempt: int) -> bool:
        return self.attempts is None or attempt in self.attempts


@dataclass(frozen=True)
class FaultPlan:
    """A set of fault specs."""

    faults: Tuple[FaultSpec, ...] = ()
    #: Directory holding fire-once marker files; provisioned by
    #: :func:`install` when any spec has ``once=True``.
    state_dir: str = ""

    def find(
        self, scenario: str, index: int, attempt: int
    ) -> Optional[FaultSpec]:
        for spec in self.faults:
            if (
                spec.scenario == scenario
                and spec.index == index
                and spec.fires_on(attempt)
            ):
                return spec
        return None

    def to_json(self) -> str:
        return json.dumps(
            {
                "state_dir": self.state_dir,
                "faults": [
                    {
                        "scenario": s.scenario,
                        "index": s.index,
                        "kind": s.kind,
                        "attempts": (
                            None if s.attempts is None else list(s.attempts)
                        ),
                        "seconds": s.seconds,
                        "message": s.message,
                        "once": s.once,
                        "amount": s.amount,
                    }
                    for s in self.faults
                ],
            },
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        data = json.loads(text)
        return cls(
            faults=tuple(
                FaultSpec(
                    scenario=f["scenario"],
                    index=f["index"],
                    kind=f["kind"],
                    attempts=(
                        None if f["attempts"] is None
                        else tuple(f["attempts"])
                    ),
                    seconds=f["seconds"],
                    message=f["message"],
                    once=bool(f.get("once", False)),
                    amount=int(f.get("amount", 20)),
                )
                for f in data["faults"]
            ),
            state_dir=str(data.get("state_dir", "")),
        )

    @classmethod
    def seeded(
        cls,
        seed: int,
        scenarios: Tuple[str, ...],
        n_graphs: int,
        rate: float = 0.1,
        kind: str = "error",
        attempts: Optional[Tuple[int, ...]] = (0,),
        seconds: float = 60.0,
    ) -> "FaultPlan":
        """A reproducible random plan: each (scenario, index) chunk fails
        with probability ``rate``, drawn from ``random.Random(seed)``."""
        rng = random.Random(seed)
        faults = tuple(
            FaultSpec(
                scenario=scenario,
                index=index,
                kind=kind,
                attempts=attempts,
                seconds=seconds,
                message=f"seeded fault ({seed})",
            )
            for scenario in scenarios
            for index in range(n_graphs)
            if rng.random() < rate
        )
        return cls(faults=faults)


# ----------------------------------------------------------------------
# Worker-side context: facts only the executing process knows (its
# checkpoint journal), consumed by fault kinds that corrupt local state.
# ----------------------------------------------------------------------
_context: Dict[str, Optional[str]] = {"journal": None}


def set_journal_context(path: Optional[str]) -> None:
    """Tell the injector which journal this process appends to.

    Installed by the shard worker before its driver runs; the
    ``truncate-journal`` kind is a no-op in processes without one.
    """
    _context["journal"] = path


def install(plan: FaultPlan) -> FaultPlan:
    """Activate ``plan`` for this process and all (future) workers.

    Fills in — when any spec is fire-once — a state directory for the
    markers; returns the (possibly augmented) plan actually installed.
    """
    if not plan.state_dir and any(s.once for s in plan.faults):
        plan = replace(
            plan, state_dir=tempfile.mkdtemp(prefix="repro-faults-")
        )
    os.environ[ENV_VAR] = plan.to_json()
    return plan


def uninstall() -> None:
    """Deactivate any installed plan."""
    os.environ.pop(ENV_VAR, None)


@contextmanager
def active(plan: FaultPlan) -> Iterator[None]:
    """Install ``plan`` for the duration of a block (tests use this).

    A state directory provisioned by :func:`install` for this block is
    removed again on exit.
    """
    provisioned = not plan.state_dir
    installed = install(plan)
    try:
        yield
    finally:
        uninstall()
        if provisioned and installed.state_dir:
            import shutil

            shutil.rmtree(installed.state_dir, ignore_errors=True)


def _claim_once(plan: FaultPlan, spec: FaultSpec) -> bool:
    """Atomically claim a fire-once fault; ``False`` if already fired."""
    if not plan.state_dir:
        return True  # no marker dir: behave like an ordinary spec
    safe = "".join(
        c if c.isalnum() or c in "-_" else "_" for c in spec.scenario
    )
    marker = os.path.join(
        plan.state_dir, f"{spec.kind}-{safe}-{spec.index}.fired"
    )
    # A plan set from the shell may name a directory nothing created.
    os.makedirs(plan.state_dir, exist_ok=True)
    try:
        fd = os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o644)
    except FileExistsError:
        return False
    os.close(fd)
    return True


# ----------------------------------------------------------------------
# Fault-kind handlers (the registry is the extension point)
# ----------------------------------------------------------------------
def _fault_crash(spec: FaultSpec) -> None:
    sigkill = getattr(signal, "SIGKILL", None)
    if sigkill is None:  # pragma: no cover — non-POSIX fallback
        os._exit(173)
    os.kill(os.getpid(), sigkill)


def _fault_exit(spec: FaultSpec) -> None:
    os._exit(17)


def _fault_hang(spec: FaultSpec) -> None:
    time.sleep(spec.seconds)


def _fault_stubborn_hang(spec: FaultSpec) -> None:
    previous = signal.signal(signal.SIGTERM, signal.SIG_IGN)
    try:
        time.sleep(spec.seconds)
    finally:
        signal.signal(signal.SIGTERM, previous)


def _fault_spin(spec: FaultSpec) -> None:
    deadline = time.monotonic() + spec.seconds
    while time.monotonic() < deadline:
        pass


def _fault_truncate_journal(spec: FaultSpec) -> None:
    path = _context.get("journal")
    if path is None or not os.path.exists(path):
        return  # no journal in this process: nothing to corrupt
    with open(path, "rb") as fp:
        data = fp.read()
    header_end = data.find(b"\n") + 1
    if header_end <= 0 or len(data) <= header_end:
        return  # only a header (or torn header): nothing to chop
    cut = max(header_end, len(data) - max(1, spec.amount))
    if cut == len(data):
        return
    with open(path, "rb+") as fp:
        fp.truncate(cut)
        fp.flush()
        os.fsync(fp.fileno())
    # Die immediately: appending after the truncation would bury the
    # torn line under complete ones, which no recovery path repairs.
    os._exit(19)


def _fault_error(spec: FaultSpec) -> None:
    raise InjectedFaultError(spec.message)


#: Kind name → handler. :func:`register_fault_kind` extends this.
FAULT_KINDS: Dict[str, Callable[[FaultSpec], None]] = {
    "crash": _fault_crash,
    "error": _fault_error,
    "hang": _fault_hang,
    "stubborn-hang": _fault_stubborn_hang,
    "spin": _fault_spin,
    "slow-io": _fault_hang,
    "exit": _fault_exit,
    "truncate-journal": _fault_truncate_journal,
}

#: Back-compat: the original kind tuple (pre-chaos API).
KINDS = ("crash", "hang", "error")


def register_fault_kind(
    name: str, handler: Callable[[FaultSpec], None]
) -> None:
    """Register a custom fault kind under ``name``.

    ``handler(spec)`` runs inside the process executing the chunk.
    Forked shard workers inherit registrations made before the run. For
    a run driven from the CLI, where no code of yours runs first, put
    the registration in an importable module and point
    ``REPRO_FAULT_PLUGIN`` at it — see docs/EXTENDING.md.
    """
    FAULT_KINDS[name] = handler


def load_plugin() -> None:
    """Import the ``REPRO_FAULT_PLUGIN`` module, if one is named.

    :func:`repro.feast.backends.make_backend` calls this, so a run's
    process imports the plugin before its first fork and a forked
    worker never imports it.
    """
    module = os.environ.get(PLUGIN_ENV_VAR)
    if module:
        importlib.import_module(module)


def maybe_inject(scenario: str, index: int, attempt: int) -> None:
    """Fire the planned fault for these coordinates, if any.

    Called by the engine's worker entry point before each chunk runs.
    With no plan installed this is a single dict lookup.
    """
    raw = os.environ.get(ENV_VAR)
    if not raw:
        return
    plan = FaultPlan.from_json(raw)
    spec = plan.find(scenario, index, attempt)
    if spec is None:
        return
    if spec.once and not _claim_once(plan, spec):
        return
    handler = FAULT_KINDS[spec.kind]
    if spec.kind == "error":
        raise InjectedFaultError(
            f"{spec.message} [scenario={scenario} index={index}]"
        )
    handler(spec)
