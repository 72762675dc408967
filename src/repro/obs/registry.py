"""Persistent run registry: the project's perf trajectory on disk.

Every traced run appends one JSON line describing itself — run id,
experiment, config fingerprint, backend/jobs, wall-clock,
per-phase timings, throughput, supervision counters, and a digest of
the records it produced — to ``runs.jsonl`` under the registry
directory (default :data:`DEFAULT_REGISTRY_DIR`). The file is an
:mod:`repro.applog` log, fsynced per record like the checkpoint
journal, so concurrent runs on one machine interleave whole lines and
a crash can at worst tear the final line, which
:meth:`RunRegistry.load` drops.

On top of the log sit the comparison tools behind ``repro runs``:
:func:`diff_runs` compares two registered runs phase by phase, and
:meth:`RunDiff.regressions` applies a percentage gate — CI appends a
run, diffs it against a chosen baseline, and fails the build on a
regression. The records digest doubles as a cheap cross-run
bit-identity check: two runs of the same fingerprint must agree.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro import applog
from repro.errors import SerializationError

#: Default registry location, relative to the working directory.
DEFAULT_REGISTRY_DIR = os.path.join(".repro", "registry")

#: Registry record schema version.
REGISTRY_VERSION = 1

#: Phases below this baseline (seconds) are ignored by the regression
#: gate — percentage deltas on sub-10ms phases are timer noise.
MIN_GATE_SECONDS = 0.01


def records_digest(records: Sequence[Any]) -> str:
    """Order-sensitive blake2b digest of a run's trial records.

    Hashes the canonical JSON of each record's dict form, so two runs
    produced byte-identical records iff their digests match — the same
    contract the golden corpus asserts, persisted per run.
    """
    h = hashlib.blake2b(digest_size=16)
    for record in records:
        data = record.as_dict() if hasattr(record, "as_dict") else record
        h.update(
            json.dumps(data, sort_keys=True, separators=(",", ":")).encode()
        )
        h.update(b"\n")
    return h.hexdigest()


@dataclass
class RunRecord:
    """One registered run (plain JSON-serializable data)."""

    run_id: str
    experiment: str
    fingerprint: str = ""
    backend: str = ""
    jobs: int = 1
    started: float = 0.0
    wall_seconds: float = 0.0
    n_trials: int = 0
    n_records: int = 0
    streamed_trials: int = 0
    replayed_trials: int = 0
    failures: int = 0
    retries: int = 0
    quarantined: int = 0
    phase_seconds: Dict[str, float] = field(default_factory=dict)
    supervision: Dict[str, float] = field(default_factory=dict)
    records_digest: str = ""
    trace_path: str = ""
    version: int = REGISTRY_VERSION

    @property
    def throughput(self) -> float:
        """Measured trials per wall-clock second (0 when unmeasured).

        Trials replayed from a checkpoint journal cost no computation,
        so they are left out: a fully resumed run measures nothing.
        """
        if self.wall_seconds <= 0:
            return 0.0
        return (self.n_trials - self.replayed_trials) / self.wall_seconds

    def as_dict(self) -> Dict[str, Any]:
        return {
            "version": self.version,
            "run_id": self.run_id,
            "experiment": self.experiment,
            "fingerprint": self.fingerprint,
            "backend": self.backend,
            "jobs": self.jobs,
            "started": self.started,
            "wall_seconds": self.wall_seconds,
            "n_trials": self.n_trials,
            "n_records": self.n_records,
            "streamed_trials": self.streamed_trials,
            "replayed_trials": self.replayed_trials,
            "failures": self.failures,
            "retries": self.retries,
            "quarantined": self.quarantined,
            "phase_seconds": dict(self.phase_seconds),
            "supervision": dict(self.supervision),
            "records_digest": self.records_digest,
            "trace_path": self.trace_path,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "RunRecord":
        try:
            return cls(
                run_id=str(data["run_id"]),
                experiment=str(data["experiment"]),
                fingerprint=str(data.get("fingerprint", "")),
                backend=str(data.get("backend", "")),
                jobs=int(data.get("jobs", 1)),
                started=float(data.get("started", 0.0)),
                wall_seconds=float(data.get("wall_seconds", 0.0)),
                n_trials=int(data.get("n_trials", 0)),
                n_records=int(data.get("n_records", 0)),
                streamed_trials=int(data.get("streamed_trials", 0)),
                replayed_trials=int(data.get("replayed_trials", 0)),
                failures=int(data.get("failures", 0)),
                retries=int(data.get("retries", 0)),
                quarantined=int(data.get("quarantined", 0)),
                phase_seconds={
                    str(k): float(v)
                    for k, v in (data.get("phase_seconds") or {}).items()
                },
                supervision={
                    str(k): float(v)
                    for k, v in (data.get("supervision") or {}).items()
                },
                records_digest=str(data.get("records_digest", "")),
                trace_path=str(data.get("trace_path", "")),
                version=int(data.get("version", REGISTRY_VERSION)),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise SerializationError(
                f"malformed registry record: {exc}"
            ) from exc


class RunRegistry:
    """The append-only ``runs.jsonl`` log under one registry directory."""

    def __init__(self, directory: str = DEFAULT_REGISTRY_DIR) -> None:
        self.directory = os.path.abspath(directory)
        self.path = os.path.join(self.directory, "runs.jsonl")

    def append(self, record: RunRecord) -> None:
        """Durably append one run record (one whole line + fsync)."""
        os.makedirs(self.directory, exist_ok=True)
        fd = applog.open_append(self.path)
        try:
            applog.append_line(fd, record.as_dict())
            os.fsync(fd)
        finally:
            os.close(fd)
        applog.fsync_directory(self.directory)

    def load(self) -> List[RunRecord]:
        """All registered runs, oldest first.

        A missing registry is an empty one. A torn tail (a crash
        mid-append) is dropped; a malformed complete line raises
        :class:`~repro.errors.SerializationError`.
        """
        records: List[RunRecord] = []
        try:
            for lineno, data in applog.iter_lines(self.path):
                if not isinstance(data, dict):
                    raise SerializationError(
                        f"registry line {lineno} of {self.path!r} is not "
                        "an object"
                    )
                records.append(RunRecord.from_dict(data))
        except FileNotFoundError:
            return []
        except OSError as exc:
            raise SerializationError(
                f"cannot read run registry {self.path!r}: {exc}"
            ) from exc
        return records

    def get(self, run_ref: str) -> RunRecord:
        """Look up one run by id, unique id prefix, or ``last``.

        ``last`` (and ``last~N`` for the N-th most recent) address runs
        positionally; otherwise ``run_ref`` must match exactly one
        registered run id or be a unique prefix of one.
        """
        records = self.load()
        if not records:
            raise SerializationError(
                f"run registry {self.path!r} is empty"
            )
        if run_ref == "last" or run_ref.startswith("last~"):
            back = 0
            if run_ref.startswith("last~"):
                try:
                    back = int(run_ref[len("last~"):])
                except ValueError:
                    raise SerializationError(
                        f"bad run reference {run_ref!r}"
                    ) from None
            if back >= len(records):
                raise SerializationError(
                    f"{run_ref!r} reaches past the {len(records)} "
                    "registered runs"
                )
            return records[-1 - back]
        exact = [r for r in records if r.run_id == run_ref]
        if len(exact) == 1:
            return exact[0]
        matches = [r for r in records if r.run_id.startswith(run_ref)]
        unique_ids = {r.run_id for r in matches}
        if len(unique_ids) == 1 and matches:
            return matches[-1]  # latest entry of that run id
        if not matches:
            raise SerializationError(
                f"no registered run matches {run_ref!r}"
            )
        raise SerializationError(
            f"run reference {run_ref!r} is ambiguous: "
            f"{sorted(unique_ids)}"
        )


# ----------------------------------------------------------------------
# Comparison / regression gating
# ----------------------------------------------------------------------
@dataclass
class RunDiff:
    """Phase-by-phase comparison of two registered runs."""

    baseline: RunRecord
    candidate: RunRecord
    #: phase -> (baseline seconds, candidate seconds, delta percent).
    phase_deltas: Dict[str, Tuple[float, float, float]] = field(
        default_factory=dict
    )
    #: (baseline, candidate, delta percent) throughput in trials/s.
    throughput_delta: Tuple[float, float, float] = (0.0, 0.0, 0.0)
    wall_delta: Tuple[float, float, float] = (0.0, 0.0, 0.0)

    @property
    def comparable(self) -> bool:
        """Same config fingerprint — timings mean the same workload."""
        return (
            bool(self.baseline.fingerprint)
            and self.baseline.fingerprint == self.candidate.fingerprint
        )

    @property
    def digests_match(self) -> Optional[bool]:
        """Records bit-identity across the two runs (None if unrecorded)."""
        if not self.baseline.records_digest or not self.candidate.records_digest:
            return None
        return self.baseline.records_digest == self.candidate.records_digest

    def regressions(self, gate_pct: float) -> List[str]:
        """Human-readable regression descriptions beyond ``gate_pct``.

        A phase regresses when the candidate is more than ``gate_pct``
        percent *slower* than a baseline of at least
        :data:`MIN_GATE_SECONDS`; throughput regresses when it drops by
        more than ``gate_pct`` percent. Empty list = gate passes.
        """
        problems: List[str] = []
        for phase, (base, cand, pct) in sorted(self.phase_deltas.items()):
            if base >= MIN_GATE_SECONDS and pct > gate_pct:
                problems.append(
                    f"phase {phase}: {base:.3f}s -> {cand:.3f}s "
                    f"(+{pct:.1f}% > gate {gate_pct:g}%)"
                )
        base_t, cand_t, pct_t = self.throughput_delta
        if base_t > 0 and pct_t < -gate_pct:
            problems.append(
                f"throughput: {base_t:.2f} -> {cand_t:.2f} trials/s "
                f"({pct_t:.1f}% < gate -{gate_pct:g}%)"
            )
        if self.digests_match is False:
            problems.append(
                "records digest mismatch: "
                f"{self.baseline.records_digest[:12]} != "
                f"{self.candidate.records_digest[:12]} "
                "(same fingerprint must produce identical records)"
                if self.comparable
                else "records digest differs (configs differ too)"
            )
        return problems


def _pct(base: float, cand: float) -> float:
    if base <= 0:
        return 0.0
    return (cand - base) / base * 100.0


def diff_runs(baseline: RunRecord, candidate: RunRecord) -> RunDiff:
    """Compare ``candidate`` against ``baseline`` phase by phase."""
    deltas: Dict[str, Tuple[float, float, float]] = {}
    phases = set(baseline.phase_seconds) | set(candidate.phase_seconds)
    for phase in phases:
        base = baseline.phase_seconds.get(phase, 0.0)
        cand = candidate.phase_seconds.get(phase, 0.0)
        deltas[phase] = (base, cand, _pct(base, cand))
    return RunDiff(
        baseline=baseline,
        candidate=candidate,
        phase_deltas=deltas,
        throughput_delta=(
            baseline.throughput,
            candidate.throughput,
            _pct(baseline.throughput, candidate.throughput),
        ),
        wall_delta=(
            baseline.wall_seconds,
            candidate.wall_seconds,
            _pct(baseline.wall_seconds, candidate.wall_seconds),
        ),
    )


# ----------------------------------------------------------------------
# Rendering (the `repro runs` views)
# ----------------------------------------------------------------------
def _fmt_age(seconds: float) -> str:
    if seconds < 120:
        return f"{seconds:.0f}s ago"
    if seconds < 7200:
        return f"{seconds / 60:.0f}m ago"
    if seconds < 172800:
        return f"{seconds / 3600:.1f}h ago"
    return f"{seconds / 86400:.1f}d ago"


def render_run_list(records: List[RunRecord], now: Optional[float] = None) -> str:
    """The ``repro runs list`` table (newest first)."""
    if not records:
        return "no registered runs"
    now = time.time() if now is None else now
    lines = [
        f"{'RUN':<22} {'EXPERIMENT':<12} {'BACKEND':<11} "
        f"{'TRIALS':>7} {'WALL':>8} {'TRIALS/S':>9} {'FAULTS':>7}  WHEN"
    ]
    for r in reversed(records):
        faults = r.failures + r.quarantined
        sup = sum(r.supervision.values())
        fault_cell = str(faults) if not sup else f"{faults}+{sup:g}s"
        lines.append(
            f"{r.run_id:<22} {r.experiment:<12} "
            f"{(r.backend or '?'):<11} {r.n_trials:>7} "
            f"{r.wall_seconds:>7.2f}s {r.throughput:>9.2f} "
            f"{fault_cell:>7}  {_fmt_age(max(0.0, now - r.started))}"
        )
    return "\n".join(lines)


def render_run_show(r: RunRecord) -> str:
    """The ``repro runs show`` detail view."""
    lines = [
        f"run {r.run_id} ({r.experiment})",
        f"  fingerprint      {r.fingerprint or '(unrecorded)'}",
        f"  backend          {r.backend or '?'} "
        f"(jobs={r.jobs})",
        f"  wall-clock       {r.wall_seconds:.3f}s",
        f"  trials           {r.n_trials} "
        f"({r.replayed_trials} replayed, {r.streamed_trials} streamed)",
        f"  records          {r.n_records}",
        f"  throughput       {r.throughput:.2f} trials/s",
        f"  faults           failures={r.failures} retries={r.retries} "
        f"quarantined={r.quarantined}",
    ]
    if r.phase_seconds:
        lines.append("  phases:")
        for phase, seconds in sorted(r.phase_seconds.items()):
            lines.append(f"    {phase:<12} {seconds:>9.3f}s")
    if any(r.supervision.values()):
        lines.append("  supervision:")
        for name, value in sorted(r.supervision.items()):
            if value:
                lines.append(f"    {name:<24} {value:>6g}")
    if r.records_digest:
        lines.append(f"  records digest   {r.records_digest}")
    if r.trace_path:
        lines.append(f"  trace            {r.trace_path}")
    return "\n".join(lines)


def render_run_diff(diff: RunDiff, gate_pct: float) -> str:
    """The ``repro runs diff`` report (regressions flagged with ``!``)."""
    a, b = diff.baseline, diff.candidate
    lines = [
        f"diff {a.run_id} (baseline) -> {b.run_id} (candidate)",
        f"  experiment       {a.experiment} -> {b.experiment}",
        f"  fingerprint      "
        + ("identical" if diff.comparable else "DIFFERENT — timings "
           "compare different workloads"),
    ]
    base_w, cand_w, pct_w = diff.wall_delta
    lines.append(
        f"  wall-clock       {base_w:.3f}s -> {cand_w:.3f}s "
        f"({pct_w:+.1f}%)"
    )
    base_t, cand_t, pct_t = diff.throughput_delta
    lines.append(
        f"  throughput       {base_t:.2f} -> {cand_t:.2f} trials/s "
        f"({pct_t:+.1f}%)"
    )
    if diff.phase_deltas:
        lines.append("  phases:")
        for phase, (base, cand, pct) in sorted(diff.phase_deltas.items()):
            flag = (
                " !" if base >= MIN_GATE_SECONDS and pct > gate_pct else ""
            )
            lines.append(
                f"    {phase:<12} {base:>9.3f}s -> {cand:>9.3f}s "
                f"({pct:+7.1f}%){flag}"
            )
    if diff.digests_match is True:
        lines.append("  records digest   identical")
    elif diff.digests_match is False:
        lines.append("  records digest   MISMATCH")
    regressions = diff.regressions(gate_pct)
    if regressions:
        lines.append(f"  REGRESSIONS (gate {gate_pct:g}%):")
        for problem in regressions:
            lines.append(f"    {problem}")
    else:
        lines.append(f"  gate             pass (≤ {gate_pct:g}%)")
    return "\n".join(lines)
