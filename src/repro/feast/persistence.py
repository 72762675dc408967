"""Persistence of experiment results: JSON save/load, run comparison,
and the sweep checkpoint journal.

Full-scale experiments take minutes; their raw trial records are worth
keeping. The on-disk result format is a single JSON document with the
config's identifying fields and one record object per trial, versioned
so old runs stay readable. :func:`compare` diffs two runs of the same
experiment — the regression-tracking primitive for "did my change move
the curves?".

Two crash-safety layers live here as well:

* :func:`save_result` writes **atomically** — the document is serialized
  in memory, written to a temp file in the destination directory,
  fsynced, and ``os.replace``d into place, so an interrupt can never
  leave a truncated or half-written JSON behind;
* :class:`CheckpointJournal` is the append-only journal behind
  ``run_experiment(..., checkpoint=directory)``: the engine appends one
  line per completed trial chunk (an :mod:`repro.applog` log, fsynced)
  to a ``*.ckpt`` file in the checkpoint directory, and a resumed run
  replays every journal there (:func:`read_journals`) and re-runs only
  the missing chunks, under any worker count. The header pins a
  fingerprint of the record-determining config fields, so resuming
  with a changed experiment raises :class:`CheckpointError` instead of
  silently mixing incompatible records.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import warnings
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro import applog
from repro.errors import CheckpointError, ExperimentWarning, SerializationError
from repro.feast.config import ExperimentConfig, MethodSpec
from repro.feast.instrumentation import PHASES, PhaseTimings, TrialFailure
from repro.feast.runner import ExperimentResult, TrialRecord

FORMAT = "repro-experiment-result"
VERSION = 1

CHECKPOINT_FORMAT = "repro-sweep-checkpoint"
CHECKPOINT_VERSION = 1

#: The ``timings`` value of every journaled chunk. Journal lines carry
#: records, not measurements (those travel in the run's metrics
#: registry); the key stays so the on-disk format is unchanged.
_JOURNAL_TIMINGS = dict.fromkeys(PHASES, 0.0)


def result_to_dict(result: ExperimentResult) -> Dict[str, Any]:
    """Encode a result (config identity + all trial records)."""
    config = result.config
    return {
        "format": FORMAT,
        "version": VERSION,
        "config": {
            "name": config.name,
            "description": config.description,
            "scenarios": list(config.scenarios),
            "n_graphs": config.n_graphs,
            "seed": config.seed,
            "system_sizes": list(config.system_sizes),
            "topology": config.topology,
            "policy": config.policy,
            "respect_release_times": config.respect_release_times,
            "speed_profile": config.speed_profile,
            "trial_timeout": config.trial_timeout,
            "max_retries": config.max_retries,
            "methods": [
                {
                    "label": m.label,
                    "metric": m.metric,
                    "comm": m.comm,
                    "surplus": m.surplus,
                    "threshold_factor": m.threshold_factor,
                    "cost_per_item": m.cost_per_item,
                    "baseline": m.baseline,
                    "capacity_aware": m.capacity_aware,
                    "clamp_to_anchors": m.clamp_to_anchors,
                }
                for m in config.methods
            ],
        },
        "elapsed_seconds": result.elapsed_seconds,
        "jobs": result.jobs,
        "timings": (
            result.timings.as_dict() if result.timings is not None else None
        ),
        "failures": [f.as_dict() for f in result.failures],
        "quarantined": [[s, i] for s, i in result.quarantined],
        "records": [r.as_dict() for r in result.records],
    }


def result_from_dict(data: Dict[str, Any]) -> ExperimentResult:
    """Decode a result saved by :func:`result_to_dict`.

    The reconstructed config carries the run's identity (name, methods,
    sweep); custom ``graph_factory`` callables are not serializable and
    come back as ``None`` — fine for analysis, not for re-running factory
    experiments from the file alone. Documents written before the
    fault-tolerance fields existed decode with empty failure/quarantine
    lists; an older document's ``fallback_reason`` key is ignored.
    """
    if not isinstance(data, dict) or data.get("format") != FORMAT:
        raise SerializationError(f"not a {FORMAT} document")
    if data.get("version") != VERSION:
        raise SerializationError(
            f"unsupported version {data.get('version')!r}"
        )
    try:
        c = data["config"]
        config = ExperimentConfig(
            name=c["name"],
            description=c["description"],
            methods=tuple(
                MethodSpec(
                    label=m["label"],
                    metric=m["metric"],
                    comm=m["comm"],
                    surplus=m["surplus"],
                    threshold_factor=m["threshold_factor"],
                    cost_per_item=m.get("cost_per_item", 1.0),
                    baseline=m.get("baseline"),
                    capacity_aware=m.get("capacity_aware", False),
                    clamp_to_anchors=m.get("clamp_to_anchors", True),
                )
                for m in c["methods"]
            ),
            scenarios=tuple(c["scenarios"]),
            n_graphs=c["n_graphs"],
            seed=c["seed"],
            system_sizes=tuple(c["system_sizes"]),
            topology=c["topology"],
            policy=c["policy"],
            respect_release_times=c["respect_release_times"],
            speed_profile=c.get("speed_profile", "uniform"),
            trial_timeout=c.get("trial_timeout"),
            max_retries=c.get("max_retries", 2),
        )
        records = [TrialRecord(**r) for r in data["records"]]
        failures = [TrialFailure(**f) for f in data.get("failures", [])]
        quarantined = [
            (str(s), int(i)) for s, i in data.get("quarantined", [])
        ]
    except (KeyError, TypeError) as exc:
        raise SerializationError(f"malformed result document: {exc}") from exc
    result = ExperimentResult(config=config, records=records)
    result.elapsed_seconds = float(data.get("elapsed_seconds", 0.0))
    result.jobs = int(data.get("jobs", 1))
    result.failures = failures
    result.quarantined = quarantined
    timings = data.get("timings")
    if timings is not None:
        result.timings = PhaseTimings.of(timings)
    return result


def save_result(result: ExperimentResult, path: str) -> None:
    """Write a result to ``path`` as JSON, atomically."""
    applog.atomic_write_text(path, json.dumps(result_to_dict(result)))


def load_result(path: str) -> ExperimentResult:
    """Read a result written by :func:`save_result`."""
    with open(path) as fp:
        try:
            data = json.load(fp)
        except json.JSONDecodeError as exc:
            raise SerializationError(f"invalid JSON in {path!r}: {exc}") from exc
    return result_from_dict(data)


# ----------------------------------------------------------------------
# Sweep checkpoint journal
# ----------------------------------------------------------------------
def _config_identity(config: ExperimentConfig) -> Dict[str, Any]:
    """The record-determining fields of a config, as plain JSON data.

    Deliberately excludes ``description`` (cosmetic) and the
    fault-tolerance knobs ``trial_timeout``/``max_retries`` (they bound
    *how* trials run, never what a completed trial records), so a sweep
    can be resumed with, say, a longer timeout. A ``graph_factory`` is
    represented by its qualified name — the best identity available for
    an arbitrary callable.
    """
    factory = config.graph_factory
    return {
        "name": config.name,
        "seed": config.seed,
        "scenarios": list(config.scenarios),
        "n_graphs": config.n_graphs,
        "system_sizes": list(config.system_sizes),
        "topology": config.topology,
        "policy": config.policy,
        "respect_release_times": config.respect_release_times,
        "speed_profile": config.speed_profile,
        "methods": [asdict(m) for m in config.methods],
        "graph_config": asdict(config.graph_config),
        "graph_factory": (
            None if factory is None
            else getattr(factory, "__qualname__", repr(factory))
        ),
    }


def config_fingerprint(config: ExperimentConfig) -> str:
    """Stable hash of the record-determining config fields."""
    blob = json.dumps(_config_identity(config), sort_keys=True)
    return hashlib.blake2b(blob.encode("utf-8"), digest_size=16).hexdigest()


@dataclass
class ReplayedChunk:
    """One completed chunk read back from a checkpoint journal.

    Duck-compatible with :class:`repro.feast.backends.work.ChunkResult` where
    the engine needs it (``records``, ``failures``, ``n_trials``).
    """

    scenario: str
    index: int
    records: Dict[Tuple[int, str], TrialRecord]
    failures: List[TrialFailure] = field(default_factory=list)

    @property
    def n_trials(self) -> int:
        return len(self.records)


def _decode_chunk_line(
    data: Dict[str, Any], path: str, lineno: int
) -> ReplayedChunk:
    """Decode one journal chunk line (shared by replay and streaming)."""
    try:
        if data.get("kind") != "chunk":
            raise KeyError("kind")
        return ReplayedChunk(
            scenario=str(data["scenario"]),
            index=int(data["index"]),
            records={
                (int(e["size"]), str(e["method"])): TrialRecord(
                    **e["record"]
                )
                for e in data["records"]
            },
            failures=[
                TrialFailure(**f) for f in data.get("failures", [])
            ],
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(
            f"malformed chunk on checkpoint line {lineno} in "
            f"{path!r}: {exc}"
        ) from exc


def _chunk_data(chunk) -> Dict[str, Any]:
    """One completed chunk as its journal line's JSON value."""
    return {
        "kind": "chunk",
        "scenario": chunk.scenario,
        "index": chunk.index,
        "records": [
            {"size": size, "method": method, "record": record.as_dict()}
            for (size, method), record in chunk.records.items()
        ],
        "timings": _JOURNAL_TIMINGS,
        "failures": [f.as_dict() for f in chunk.failures],
    }


def _journal_lines(path: str) -> Iterator[Tuple[int, Any]]:
    """A journal's complete lines, with read errors worded as
    :class:`CheckpointError`."""
    try:
        yield from applog.iter_lines(path)
    except applog.CorruptLine as exc:
        if exc.lineno == 1:
            raise CheckpointError(
                f"{path!r} is not a checkpoint journal: bad header"
            ) from exc
        raise CheckpointError(
            f"corrupt checkpoint line {exc.lineno} in {path!r}"
        ) from None
    except OSError as exc:
        raise CheckpointError(
            f"cannot read checkpoint {path!r}: {exc}"
        ) from exc


def _open_journal(
    path: str, fingerprint: Optional[str] = None
) -> Tuple[Optional[Dict[str, Any]], Iterator[Tuple[int, Any]]]:
    """Validate a journal's header: ``(header, remaining lines)``.

    A journal without a complete header line — a zero-byte file, or a
    crash inside the header's append — is empty: ``header`` is None.
    When ``fingerprint`` is given, a journal written by a different
    config is rejected.
    """
    lines = _journal_lines(path)
    first = next(lines, None)
    if first is None:
        return None, lines
    header = first[1]
    if not isinstance(header, dict) or header.get("format") != CHECKPOINT_FORMAT:
        raise CheckpointError(f"{path!r} is not a {CHECKPOINT_FORMAT} journal")
    if header.get("version") != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"unsupported checkpoint version {header.get('version')!r} "
            f"in {path!r}"
        )
    if fingerprint is not None and header.get("fingerprint") != fingerprint:
        raise CheckpointError(
            f"checkpoint {path!r} was written by a different experiment "
            f"configuration (journal fingerprint "
            f"{header.get('fingerprint')!r}, expected {fingerprint!r}); "
            "refusing to mix their records — delete the file or use a "
            "fresh checkpoint path"
        )
    return header, lines


class CheckpointJournal:
    """Append-only journal of completed trial chunks.

    Line 1 is a header (format, version, config fingerprint); every
    further line is one completed chunk's records and non-fatal failure
    events. The journal is an :mod:`repro.applog` log: each
    append is one whole line followed by an ``fsync``, so shard
    workers appending to *separate* journals (or a crashed-and-relaunched
    worker reopening its own) never interleave partial records, and
    after a crash the journal holds every chunk whose append returned —
    at worst plus one torn tail, which reopening truncates away (the
    interrupted chunk is simply re-run).
    """

    def __init__(self, path: str, config: ExperimentConfig) -> None:
        self.path = os.path.abspath(path)
        self.fingerprint = config_fingerprint(config)
        self.experiment = config.name
        self._fd: Optional[int] = None
        directory = os.path.dirname(self.path)
        if not os.path.isdir(directory):
            raise CheckpointError(
                f"checkpoint directory does not exist: {directory!r}"
            )
        try:
            has_header = os.path.exists(self.path) and self._check()
            self._fd = applog.open_append(self.path)
            if not has_header:
                applog.append_line(self._fd, {
                    "format": CHECKPOINT_FORMAT,
                    "version": CHECKPOINT_VERSION,
                    "fingerprint": self.fingerprint,
                    "experiment": self.experiment,
                })
                os.fsync(self._fd)
                # Appends fsync the file; creation must also fsync the
                # parent directory, or a crash right after shard spawn
                # could lose the journal's directory entry despite the
                # synced header.
                applog.fsync_directory(directory)
        except OSError as exc:
            self.close()
            raise CheckpointError(
                f"cannot open checkpoint {self.path!r}: {exc}"
            ) from exc

    def _check(self) -> bool:
        """Validate an existing journal's lines and cut its torn tail
        (its chunks are read back by :func:`read_journals`).

        Returns whether the journal has a header; one without is empty
        and gets a fresh header.
        """
        header, lines = _open_journal(self.path, self.fingerprint)
        for lineno, data in lines:
            _decode_chunk_line(data, self.path, lineno)
        if applog.repair(self.path):
            warnings.warn(
                f"checkpoint {self.path!r} ends in a partial line "
                "(interrupted append); dropping it and re-running that "
                "chunk",
                ExperimentWarning,
                stacklevel=4,
            )
        return header is not None

    def append(self, chunk) -> None:
        """Journal one completed chunk (single atomic append + fsync)."""
        if self._fd is None:
            raise CheckpointError(
                f"checkpoint {self.path!r} is closed"
            )
        applog.append_line(self._fd, _chunk_data(chunk))
        os.fsync(self._fd)

    def close(self) -> None:
        if self._fd is not None:
            os.close(self._fd)
            self._fd = None

    def __enter__(self) -> "CheckpointJournal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


# ----------------------------------------------------------------------
# Journal reading, inspection, and compaction (the shard-merge and
# `repro checkpoint` toolbox)
# ----------------------------------------------------------------------
def read_journal_header(path: str) -> Dict[str, Any]:
    """The validated header (format/version/fingerprint/experiment)."""
    header, _ = _open_journal(path)
    if header is None:
        raise CheckpointError(
            f"{path!r} is not a checkpoint journal: bad header"
        )
    return header


def iter_journal(
    path: str, fingerprint: Optional[str] = None
) -> Iterator[Tuple[Tuple[str, int], ReplayedChunk]]:
    """Stream a journal's chunks one line at a time, bounded memory.

    Unlike opening a :class:`CheckpointJournal` (which materializes
    every replayed chunk, and opens the file for appending), this holds
    exactly one chunk in memory at a time — what the shard merge and
    streaming aggregation need to keep peak resident records bounded by
    chunk size. Torn tails and corruption follow the :mod:`repro.applog`
    rule, and a journal without a complete header yields nothing. When
    ``fingerprint`` is given, a journal written by a different config is
    rejected up front.
    """
    _, lines = _open_journal(path, fingerprint)
    for lineno, data in lines:
        chunk = _decode_chunk_line(data, path, lineno)
        yield (chunk.scenario, chunk.index), chunk


@dataclass
class JournalInfo:
    """What :func:`inspect_journal` found in one journal file."""

    path: str
    fingerprint: str
    experiment: str
    #: Distinct chunk keys present, in file order.
    chunks: List[Tuple[str, int]] = field(default_factory=list)
    #: Keys journaled more than once (within this one file).
    duplicates: List[Tuple[str, int]] = field(default_factory=list)
    #: Whether the file ends in a torn (interrupted) append.
    torn_tail: bool = False

    @property
    def n_chunks(self) -> int:
        return len(self.chunks)


def inspect_journal(path: str) -> JournalInfo:
    """Summarize one journal: identity, chunk coverage, anomalies.

    Read-only and line-streamed; malformed *complete* lines raise, a
    torn tail is reported on :attr:`JournalInfo.torn_tail`.
    """
    header = read_journal_header(path)
    info = JournalInfo(
        path=os.path.abspath(path),
        fingerprint=str(header.get("fingerprint")),
        experiment=str(header.get("experiment")),
    )
    seen = set()
    for key, _chunk in iter_journal(path):
        if key in seen:
            info.duplicates.append(key)
            continue
        seen.add(key)
        info.chunks.append(key)
    info.torn_tail = applog.is_torn(path)
    return info


def journal_paths(directory: str) -> List[str]:
    """The checkpoint journal files inside ``directory``, sorted."""
    try:
        names = sorted(os.listdir(directory))
    except OSError as exc:
        raise CheckpointError(
            f"cannot list journal directory {directory!r}: {exc}"
        ) from exc
    return [
        os.path.join(directory, name)
        for name in names
        if name.endswith(".ckpt")
    ]


#: The journal a serial run appends to in its checkpoint directory: the
#: name a one-worker fleet uses and :func:`compact_journals` writes.
SERIAL_JOURNAL = "shard-0-of-1.ckpt"


def checkpoint_directory(path: str) -> str:
    """Create the checkpoint directory ``path`` if it is new; return it.
    A file there (an older version's single-file journal) is refused."""
    if os.path.isfile(path):
        raise CheckpointError(
            f"checkpoint {path!r} is a file, but a checkpoint is a "
            f"directory of journals; move an older single-file journal "
            f"into one with `mkdir D && mv {path} D/{SERIAL_JOURNAL}` "
            f"and pass D"
        )
    os.makedirs(path, exist_ok=True)
    return path


def _chunk_digest(chunk) -> str:
    """Content hash of a chunk's records, for duplicate arbitration."""
    blob = json.dumps(
        sorted(
            [size, method, record.as_dict()]
            for (size, method), record in chunk.records.items()
        ),
        sort_keys=True,
    )
    return hashlib.blake2b(blob.encode("utf-8"), digest_size=16).hexdigest()


def read_journals(
    directory: str, fingerprint: str
) -> Iterator[Tuple[Tuple[str, int], ReplayedChunk]]:
    """Every distinct chunk the journals in ``directory`` hold, each
    written by the config of ``fingerprint``.

    Reads each ``*.ckpt`` file in name order, one line at a time, and
    yields each chunk key once, at its first occurrence. A key journaled
    again with identical records (a chunk re-executed after a fault)
    collapses; one with different records raises
    :class:`CheckpointError`: the merge never guesses which side is
    right. Only one digest per key is kept, so memory stays bounded by
    chunk size.
    """
    seen: Dict[Tuple[str, int], str] = {}
    for path in journal_paths(directory):
        for key, chunk in iter_journal(path, fingerprint):
            digest = _chunk_digest(chunk)
            if key in seen:
                if seen[key] != digest:
                    raise CheckpointError(
                        f"conflicting duplicate chunk (scenario={key[0]}, "
                        f"graph={key[1]}) across journals in "
                        f"{directory!r}: records differ; refusing to merge"
                    )
                continue
            seen[key] = digest
            yield key, chunk


#: A fleet worker's journal, and the files the fleet keeps beside it.
_SHARD_JOURNAL = re.compile(r"shard-\d+-of-\d+\.ckpt")
_SHARD_SIDECARS = (
    ".log", ".summary.json", ".ckpt.inflight",
)


def compact_journals(directory: str) -> str:
    """Merge every journal in ``directory`` into one deduplicated file.

    The merged journal is written atomically as ``shard-0-of-1.ckpt``
    (:data:`SERIAL_JOURNAL`, which a resume under any worker count
    reads like any other journal), with the chunks
    :func:`read_journals` yields, in its order; then the source journals
    are removed. So are the sidecars a fleet run leaves next to a
    ``shard-i-of-N.ckpt`` (``.log``, ``.summary.json``,
    ``.ckpt.inflight``): they describe the old partitioning. Conflicting
    duplicates raise :class:`CheckpointError`. Returns the merged
    journal's path.
    """
    paths = journal_paths(directory)
    if not paths:
        raise CheckpointError(
            f"no checkpoint journals (*.ckpt) in {directory!r}"
        )
    header = None
    for path in paths:
        header, _ = _open_journal(path)
        if header is not None:
            break
    else:
        raise CheckpointError(
            f"no checkpoint journal in {directory!r} has a header"
        )
    lines = [applog.line(header)] + [
        applog.line(_chunk_data(chunk))
        for _, chunk in read_journals(directory, header.get("fingerprint"))
    ]
    merged = os.path.join(directory, SERIAL_JOURNAL)
    applog.atomic_write_text(merged, "".join(lines))
    for path in paths:
        stem = path[:-len(".ckpt")]
        doomed = (
            [stem + suffix for suffix in _SHARD_SIDECARS]
            if _SHARD_JOURNAL.fullmatch(os.path.basename(path)) else []
        )
        if os.path.abspath(path) != os.path.abspath(merged):
            doomed.append(path)
        for name in doomed:
            try:
                os.remove(name)
            except FileNotFoundError:
                pass
    return merged


@dataclass(frozen=True)
class SeriesDelta:
    """Change of one (scenario, method, size) mean between two runs."""

    scenario: str
    method: str
    n_processors: int
    before: float
    after: float

    @property
    def delta(self) -> float:
        return self.after - self.before

    @property
    def relative(self) -> float:
        return self.delta / abs(self.before) if self.before else float("inf")


def compare(
    before: ExperimentResult,
    after: ExperimentResult,
    threshold: float = 0.0,
) -> List[SeriesDelta]:
    """Per-point differences of mean max lateness between two runs.

    Returns the points present in both runs whose absolute change exceeds
    ``threshold``, worst regressions (most positive delta) first.
    """
    from repro.feast.aggregate import mean_max_lateness

    means_before = mean_max_lateness(before.records)
    means_after = mean_max_lateness(after.records)
    deltas = [
        SeriesDelta(
            scenario=key[0],
            method=key[1],
            n_processors=key[2],
            before=means_before[key],
            after=means_after[key],
        )
        for key in means_before
        if key in means_after
    ]
    return sorted(
        (d for d in deltas if abs(d.delta) > threshold),
        key=lambda d: -d.delta,
    )
