"""Crash tests for the append-only logs: a cut at every byte offset.

A crash can stop a log's append anywhere, so each log — the checkpoint
journal, the run registry, the live status stream and the trace event
log — is written with several records and a copy is truncated at every
offset from 0 to its full length. At each cut the log's reader must
return exactly the records whose lines survived whole (the
:mod:`repro.applog` torn-tail rule) and never report corruption. For
the journal, the cut must also reopen, append and resume cleanly.
"""

from __future__ import annotations

import json
import os
import shutil
import warnings

import pytest

from repro.errors import CheckpointError, ExperimentWarning, SerializationError
from repro.feast.config import ExperimentConfig, MethodSpec
from repro.feast.persistence import (
    SERIAL_JOURNAL,
    CheckpointJournal,
    compact_journals,
    inspect_journal,
    iter_journal,
)
from repro.feast.runner import run_experiment
from repro.graph.generator import RandomGraphConfig
from repro.obs import RunRecord, RunRegistry, StatusStream, read_status
from repro.obs import runtime as obs
from repro.obs.export import read_events, write_events
from repro.obs.runtime import Telemetry


def crash_config() -> ExperimentConfig:
    """Three one-trial chunks of tiny graphs: a journal of ~2 KB."""
    return ExperimentConfig(
        name="crash",
        description="crash test",
        methods=(MethodSpec(label="PURE", metric="PURE"),),
        graph_config=RandomGraphConfig(
            n_subtasks_range=(3, 4), depth_range=(2, 2)
        ),
        scenarios=("MDET",),
        n_graphs=3,
        system_sizes=(2,),
        seed=11,
    )


def record_dicts(result):
    return [r.as_dict() for r in result.records]


def line_ends(data: bytes):
    """Offsets just past each ``\\n`` in ``data``."""
    return [i + 1 for i, byte in enumerate(data) if byte == ord("\n")]


def complete_lines(data: bytes, cut: int) -> int:
    """How many whole lines survive a cut of ``data`` at ``cut``."""
    return sum(1 for end in line_ends(data) if end <= cut)


def write_cut(path: str, data: bytes, cut: int) -> None:
    with open(path, "wb") as fp:
        fp.write(data[:cut])


@pytest.fixture(autouse=True)
def no_fsync(monkeypatch):
    """Thousands of cuts per test: skip the disk flushes, which a
    truncation-simulated crash never depends on."""
    monkeypatch.setattr(os, "fsync", lambda fd: None)


@pytest.fixture(scope="module")
def journal(tmp_path_factory):
    """A complete journal's bytes, its chunk keys and the clean records."""
    cfg = crash_config()
    ck = str(tmp_path_factory.mktemp("journal") / "run.ckpt")
    clean = run_experiment(cfg, checkpoint=ck)
    path = os.path.join(ck, SERIAL_JOURNAL)
    with open(path, "rb") as fp:
        data = fp.read()
    keys = [key for key, _ in iter_journal(path)]
    assert len(keys) == len(cfg.chunk_keys()) == 3
    return data, keys, record_dicts(clean)


class TestJournalEveryOffset:
    def test_reader_returns_the_complete_line_prefix(self, tmp_path, journal):
        data, keys, _ = journal
        path = str(tmp_path / "cut.ckpt")
        for cut in range(len(data) + 1):
            write_cut(path, data, cut)
            # Line 1 is the header; a cut inside it is an empty journal.
            survivors = max(0, complete_lines(data, cut) - 1)
            got = [key for key, _ in iter_journal(path)]
            assert got == keys[:survivors], f"cut at byte {cut}"

    def test_reopen_then_append_reads_in_full(self, tmp_path, journal):
        data, keys, _ = journal
        cfg = crash_config()
        path = str(tmp_path / "cut.ckpt")
        source = str(tmp_path / "full.ckpt")
        with open(source, "wb") as fp:
            fp.write(data)
        chunks = dict(iter_journal(source))
        for cut in range(len(data) + 1):
            write_cut(path, data, cut)
            survivors = max(0, complete_lines(data, cut) - 1)
            torn = cut not in [0] + line_ends(data)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                ck = CheckpointJournal(path, cfg)
            partial = [w for w in caught if "partial line" in str(w.message)]
            assert bool(partial) == torn, f"cut at byte {cut}"
            assert [key for key, _ in iter_journal(path)] == keys[:survivors]
            for key in keys[survivors:]:
                ck.append(chunks[key])
            ck.close()
            assert [key for key, _ in iter_journal(path)] == keys
            assert not inspect_journal(path).torn_tail

    def test_resume_matches_an_uninterrupted_run(self, tmp_path, journal):
        data, _, clean = journal
        cfg = crash_config()
        ck = tmp_path / "cut"
        ck.mkdir()
        path = str(ck / SERIAL_JOURNAL)
        for cut in range(len(data) + 1):
            write_cut(path, data, cut)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", ExperimentWarning)
                resumed = run_experiment(cfg, checkpoint=str(ck))
            assert record_dicts(resumed) == clean, f"cut at byte {cut}"

    def test_compaction_keeps_the_complete_line_prefix(
        self, tmp_path, journal
    ):
        data, keys, _ = journal
        header_end = line_ends(data)[0]
        for cut in range(len(data) + 1):
            directory = tmp_path / f"cut{cut}"
            directory.mkdir()
            write_cut(str(directory / "shard-0-of-2.ckpt"), data, cut)
            if cut < header_end:
                with pytest.raises(CheckpointError, match="header"):
                    compact_journals(str(directory))
                continue
            merged = compact_journals(str(directory))
            survivors = complete_lines(data, cut) - 1
            got = [key for key, _ in iter_journal(merged)]
            assert got == keys[:survivors], f"cut at byte {cut}"
            shutil.rmtree(directory)


def test_newline_only_cut_drops_the_chunk_everywhere(tmp_path, journal):
    """A journal missing only its final ``\\n`` — the cut a
    ``truncate-journal`` fault with ``amount=1`` makes — loses that
    chunk in every tool: inspect, stream, resume and compaction."""
    data, keys, clean = journal
    cfg = crash_config()
    directory = tmp_path / "shards"
    directory.mkdir()
    path = str(directory / "shard-0-of-1.ckpt")
    write_cut(path, data, len(data) - 1)

    info = inspect_journal(path)
    assert info.torn_tail and info.chunks == keys[:-1]
    assert [key for key, _ in iter_journal(path)] == keys[:-1]
    (tmp_path / "resume").mkdir()
    resume = str(tmp_path / "resume" / SERIAL_JOURNAL)
    shutil.copy(path, resume)
    merged = compact_journals(str(directory))
    assert [key for key, _ in iter_journal(merged)] == keys[:-1]

    with pytest.warns(ExperimentWarning, match="partial line"):
        ck = CheckpointJournal(resume, cfg)
    assert [key for key, _ in iter_journal(resume)] == keys[:-1]
    ck.close()
    resumed = run_experiment(cfg, checkpoint=str(tmp_path / "resume"))
    assert record_dicts(resumed) == clean


def test_registry_every_offset(tmp_path):
    registry = RunRegistry(str(tmp_path / "reg"))
    runs = [
        RunRecord(run_id=f"run-{i}", experiment="crash", n_trials=i)
        for i in range(4)
    ]
    for run in runs:
        registry.append(run)
    with open(registry.path, "rb") as fp:
        data = fp.read()
    for cut in range(len(data) + 1):
        write_cut(registry.path, data, cut)
        assert registry.load() == runs[:complete_lines(data, cut)], (
            f"cut at byte {cut}"
        )


def test_status_stream_every_offset(tmp_path):
    stream = StatusStream(
        str(tmp_path / "crash.status.jsonl"), "crash", "run-0", created=0.0
    )
    for index in range(3):
        stream.emit("progress", index=index)
    stream.close(complete=True)
    with open(stream.path, "rb") as fp:
        data = fp.read()
    expected = [json.loads(line) for line in data.splitlines()]
    path = str(tmp_path / "cut.status.jsonl")
    for cut in range(len(data) + 1):
        write_cut(path, data, cut)
        survivors = complete_lines(data, cut)
        if survivors == 0:
            with pytest.raises(SerializationError, match="empty status stream"):
                read_status(path)
            continue
        assert read_status(path) == expected[:survivors], f"cut at byte {cut}"


def test_event_log_every_offset(tmp_path):
    telemetry = Telemetry()
    with obs.activate(telemetry):
        with obs.span("run", experiment="crash"):
            with obs.span("chunk", scenario="MDET", index=0):
                obs.count("engine.trials_measured")
    full = str(tmp_path / "full.events.jsonl")
    events = write_events(full, telemetry, "crash", run_id="run-0")
    with open(full, "rb") as fp:
        data = fp.read()
    assert len(events) >= 3
    path = str(tmp_path / "cut.events.jsonl")
    for cut in range(len(data) + 1):
        write_cut(path, data, cut)
        survivors = complete_lines(data, cut)
        if survivors == 0:
            with pytest.raises(SerializationError, match="empty trace"):
                read_events(path)
            continue
        got = read_events(path)
        assert got == json.loads(json.dumps(events[:survivors])), (
            f"cut at byte {cut}"
        )


def test_malformed_complete_line_is_corruption(tmp_path, journal):
    """The other half of the rule: a bad line that ends in ``\\n`` raises,
    even when it is the last line."""
    data, _, _ = journal
    path = str(tmp_path / "bad.ckpt")
    with open(path, "wb") as fp:
        fp.write(data + b"garbage\n")
    with pytest.raises(CheckpointError, match="corrupt checkpoint line"):
        list(iter_journal(path))
    with pytest.raises(CheckpointError, match="corrupt checkpoint line"):
        CheckpointJournal(path, crash_config())
    assert os.path.getsize(path) == len(data) + len(b"garbage\n")
