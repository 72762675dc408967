"""Deterministic chaos campaigns against the execution backends.

A chaos campaign is the backend layer's end-to-end robustness proof:
run a small schedulability sweep twice — once clean and serial, once on
the backend under test while a seeded :class:`~.faultinject.FaultPlan`
hangs, crashes, corrupts, and kills its workers — and assert the two
runs produce **byte-identical** records. Determinism makes the
assertion exact (no tolerances): every re-execution of a chunk, on any
worker, after any fault, must reproduce the same bytes, so any
divergence is an engine bug, not noise.

The campaign also asserts that the interesting recovery machinery
actually *ran*: expectations derived from the plan (a ``hang`` spec ⇒
stall detection fired; an always-on ``exit`` spec ⇒ a shard failed
over; …) are checked against the run's
:class:`~.backends.base.SupervisionStats`, so a refactor that silently
stops exercising a path fails the campaign even if the records stay
correct.

Plans are backend-aware. Worker-killing kinds need worker processes:
the worker fleet (``subprocess`` and its alias ``pool``) gets the full
menu (stall → escalation, journal truncation, failover-forcing exits);
``serial`` gets only in-process kinds (``error``/``slow-io``/``spin``).
Everything is derived from the seed — the same ``(seed, backend,
shards)`` triple always injects the same faults at the same chunks.

CLI: ``repro chaos --seed N --backend subprocess --faults K [--out DIR]``
(see :func:`repro.cli.cmd_chaos`); CI runs one campaign per backend.
"""

from __future__ import annotations

import json
import os
import random
import warnings
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import ExperimentError, ExperimentWarning
from repro.feast import faultinject
from repro.feast.backends.base import SupervisionStats
from repro.feast.backends.work import RetryPolicy
from repro.feast.config import ExperimentConfig, MethodSpec
from repro.feast.faultinject import FaultPlan, FaultSpec
from repro.feast.instrumentation import Instrumentation
from repro.graph.generator import RandomGraphConfig
from repro.obs import runtime as obs

#: In-process-safe fault kinds, usable on every backend.
_SOFT_KINDS = ("error", "slow-io", "spin")

#: Backend names that run the multi-process worker fleet.
_FLEET = ("pool", "subprocess")


def chaos_config(
    seed: int,
    scenarios: Tuple[str, ...] = ("MDET", "LDET"),
    n_graphs: int = 6,
) -> ExperimentConfig:
    """The small, fast sweep a chaos campaign runs twice.

    Sized so that every shard of a 3-shard fleet owns several chunks
    (12 chunks by default) while a full campaign — clean reference plus
    chaotic run — stays CI-fast.
    """
    return ExperimentConfig(
        name="chaos",
        description="chaos-campaign sweep (clean vs faulted identity)",
        methods=(
            MethodSpec(label="PURE", metric="PURE"),
            MethodSpec(label="ADAPT", metric="ADAPT"),
        ),
        graph_config=RandomGraphConfig(
            n_subtasks_range=(10, 14), depth_range=(3, 5)
        ),
        scenarios=scenarios,
        n_graphs=n_graphs,
        system_sizes=(2, 4),
        seed=seed,
    )


def chaos_policy(backend: str) -> RetryPolicy:
    """The retry/supervision policy a campaign runs under.

    Fleet campaigns enable stall detection (2 s of journal silence
    ⇒ SIGTERM, 1 s grace ⇒ SIGKILL) and enough launch attempts to climb
    the whole recovery ladder: stall-kill, truncation repair, and still
    one spare.
    """
    return RetryPolicy(
        max_attempts=4,
        backoff_base=0.05,
        backoff_factor=2.0,
        backoff_max=0.25,
        stall_timeout=2.0 if backend in _FLEET else None,
        stall_grace=1.0,
    )


def build_fault_plan(
    seed: int,
    config: ExperimentConfig,
    backend: str,
    shards: int,
    extra_faults: int = 3,
) -> FaultPlan:
    """The seeded fault schedule for one campaign.

    For the worker fleet the plan *guarantees* the coverage
    the acceptance campaign requires, pinned to chunk ordinals so the
    victims span at least two shards:

    * a fire-once ``hang`` on shard 0's first chunk — no journal
      progress, so the supervisor must stall-detect and SIGTERM it;
    * a fire-once ``truncate-journal`` on shard 0's third chunk — by
      then two chunks are journaled, so the truncation tears a real
      record that the relaunch must repair and replay around;
    * an every-attempt ``exit`` on shard 1's second chunk — the shard
      dies mid-sweep on every launch, exhausts its cap, and must fail
      over its remaining chunks to the survivors (the parent's terminal
      sweep absorbs the poisoned chunk itself, where the fault is
      inert by the parent-pid guard).

    Every backend gets ``extra_faults`` additional seeded in-process
    faults (``error``/``slow-io``/``spin``) on coordinates drawn from
    ``random.Random(seed)``.
    """
    keys = list(config.chunk_keys())
    faults: List[FaultSpec] = []
    taken = set()

    def pin(ordinal: int, **kwargs: Any) -> None:
        scenario, index = keys[ordinal % len(keys)]
        faults.append(FaultSpec(scenario=scenario, index=index, **kwargs))
        taken.add((scenario, index))

    if backend in _FLEET:
        if shards < 2:
            raise ExperimentError(
                f"a {backend} chaos campaign needs >= 2 shards, got {shards}"
            )
        pin(0, kind="hang", once=True, seconds=30.0,
            message="chaos: wedge shard 0")
        pin(2 * shards, kind="truncate-journal", once=True, amount=25,
            message="chaos: tear shard 0's journal")
        pin(1 + shards, kind="exit", attempts=None,
            message="chaos: poison shard 1")
    rng = random.Random(seed)
    open_keys = [k for k in keys if k not in taken]
    rng.shuffle(open_keys)
    for scenario, index in open_keys[:max(0, extra_faults)]:
        kind = rng.choice(_SOFT_KINDS)
        faults.append(FaultSpec(
            scenario=scenario,
            index=index,
            kind=kind,
            attempts=(0,),
            seconds=0.05,
            message=f"chaos: seeded {kind}",
        ))
    return FaultPlan(faults=tuple(faults))


@dataclass
class Expectation:
    """One supervision counter the plan predicts must have fired."""

    counter: str
    at_least: int
    actual: int = 0

    @property
    def met(self) -> bool:
        return self.actual >= self.at_least

    def as_dict(self) -> Dict[str, Any]:
        return {
            "counter": self.counter,
            "at_least": self.at_least,
            "actual": self.actual,
            "met": self.met,
        }


def plan_expectations(plan: FaultPlan, backend: str) -> List[Expectation]:
    """The supervision outcomes ``plan`` must provoke on ``backend``."""
    if backend not in _FLEET:
        return []
    kinds = [spec.kind for spec in plan.faults]
    expectations: List[Expectation] = []
    if "hang" in kinds or "stubborn-hang" in kinds:
        expectations.append(Expectation("stalls_detected", 1))
    if "stubborn-hang" in kinds:
        expectations.append(Expectation("kills_escalated", 1))
    lethal = any(
        spec.kind in ("exit", "crash") and spec.attempts is None
        for spec in plan.faults
    )
    if lethal:
        expectations.append(Expectation("shards_failed_over", 1))
        expectations.append(Expectation("chunks_reassigned", 1))
    if any(k in kinds for k in ("hang", "truncate-journal", "exit", "crash")):
        expectations.append(Expectation("relaunches", 1))
    if "truncate-journal" in kinds or lethal:
        expectations.append(Expectation("chunks_replayed", 1))
    return expectations


@dataclass
class ChaosReport:
    """The verdict of one campaign: identity + exercised machinery."""

    backend: str
    seed: int
    shards: int
    n_faults: int
    n_records: int
    identical: bool
    quarantined: List[Tuple[str, int]]
    supervision: SupervisionStats
    expectations: List[Expectation] = field(default_factory=list)
    warnings_observed: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return (
            self.identical
            and not self.quarantined
            and all(e.met for e in self.expectations)
        )

    def as_dict(self) -> Dict[str, Any]:
        return {
            "backend": self.backend,
            "seed": self.seed,
            "shards": self.shards,
            "n_faults": self.n_faults,
            "n_records": self.n_records,
            "identical": self.identical,
            "quarantined": [list(k) for k in self.quarantined],
            "supervision": self.supervision.as_dict(),
            "expectations": [e.as_dict() for e in self.expectations],
            "warnings_observed": self.warnings_observed,
            "ok": self.ok,
        }


def run_chaos(
    seed: int,
    backend: str = "subprocess",
    shards: int = 3,
    extra_faults: int = 3,
    out: Optional[str] = None,
    config: Optional[ExperimentConfig] = None,
    plan: Optional[FaultPlan] = None,
    policy: Optional[RetryPolicy] = None,
) -> ChaosReport:
    """Run one chaos campaign and return its report.

    Clean serial reference first, then the same sweep on ``backend``
    under the seeded fault plan; the two record lists must be
    byte-identical (compared as dicts) and the plan's expectations must
    hold on the run's supervision stats. ``out`` (a directory) persists
    the artifacts: the fault schedule, the campaign report, the chaotic
    run's telemetry event log, and its checkpoint journals.
    """
    from repro.feast.runner import run_experiment
    from repro.feast.sweep import write_run_events

    config = config if config is not None else chaos_config(seed)
    plan = plan if plan is not None else build_fault_plan(
        seed, config, backend, shards, extra_faults
    )
    policy = policy if policy is not None else chaos_policy(backend)

    reference = run_experiment(config, jobs=1)
    expected = [r.as_dict() for r in reference.records]

    checkpoint = None
    if out is not None:
        os.makedirs(out, exist_ok=True)
        with open(os.path.join(out, "fault-plan.json"), "w") as fp:
            fp.write(plan.to_json() + "\n")
        if backend in _FLEET:
            checkpoint = os.path.join(out, "journals")

    inst = Instrumentation(telemetry=obs.Telemetry())
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ExperimentWarning)
        with faultinject.active(plan):
            result = run_experiment(
                config,
                backend=backend,
                # ``pool`` sizes the fleet by ``jobs``, ``subprocess``
                # by ``shards``; the plan assumes ``shards`` workers.
                jobs=shards if backend in _FLEET else 1,
                shards=shards,
                retry=policy,
                checkpoint=checkpoint,
                instrumentation=inst,
            )

    actual = [r.as_dict() for r in result.records]
    expectations = plan_expectations(plan, backend)
    counters = result.supervision.as_dict()
    for expectation in expectations:
        expectation.actual = counters.get(expectation.counter, 0)

    report = ChaosReport(
        backend=backend,
        seed=seed,
        shards=shards,
        n_faults=len(plan.faults),
        n_records=len(actual),
        identical=actual == expected,
        quarantined=list(result.quarantined),
        supervision=result.supervision,
        expectations=expectations,
        warnings_observed=[
            str(w.message) for w in caught
            if issubclass(w.category, ExperimentWarning)
        ],
    )
    if out is not None:
        write_run_events(
            os.path.join(out, "chaos.events.jsonl"), result, inst
        )
        with open(os.path.join(out, "report.json"), "w") as fp:
            json.dump(report.as_dict(), fp, indent=2, sort_keys=True)
            fp.write("\n")
    return report


def render_chaos_report(report: ChaosReport) -> str:
    """Human-readable campaign verdict for the CLI."""
    lines = [
        f"chaos campaign: backend={report.backend} seed={report.seed} "
        f"shards={report.shards} faults={report.n_faults}",
        f"  records: {report.n_records} "
        f"({'byte-identical to clean serial' if report.identical else 'DIVERGED from clean serial'})",
    ]
    if report.quarantined:
        lines.append(
            f"  quarantined: {len(report.quarantined)} chunk(s) "
            f"{report.quarantined} (chaos faults must never quarantine)"
        )
    stats = report.supervision.as_dict()
    if any(stats.values()):
        lines.append("  supervision: " + "  ".join(
            f"{name}={value}" for name, value in stats.items() if value
        ))
    for expectation in report.expectations:
        mark = "ok" if expectation.met else "UNMET"
        lines.append(
            f"  expect {expectation.counter} >= {expectation.at_least}: "
            f"{expectation.actual} [{mark}]"
        )
    lines.append(f"  verdict: {'PASS' if report.ok else 'FAIL'}")
    return "\n".join(lines)
