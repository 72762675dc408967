"""In-process execution: the serial backend.

:class:`SerialBackend` runs the chunks one at a time in this process
through the shared :class:`~.base.ChunkDriver`, the same chunk loop
that is the engine inside every fleet worker. A plain
``run_experiment(jobs=1)`` uses it unsupervised (fail-fast: the first
trial error propagates); any fault-tolerance feature makes it
supervised (retry, quarantine, checkpoint journaling, streaming).
A checkpoint's every journal is replayed, a fleet run's included; new
chunks go to ``shard-0-of-1.ckpt`` there.
"""

from __future__ import annotations

import os

from repro.feast.backends.base import (
    BackendOutcome,
    ChunkDriver,
    ExecutionBackend,
    ExecutionRequest,
)


class SerialBackend(ExecutionBackend):
    """Chunked in-process execution behind the backend interface.

    Crash/hang protection needs worker processes and is unavailable
    here.
    """

    name = "serial"

    def run(self, request: ExecutionRequest) -> BackendOutcome:
        return run_classic_serial(request)


def run_classic_serial(request: ExecutionRequest) -> BackendOutcome:
    """Run every chunk of ``request`` in this process, one at a time.

    Unsupervised requests are fail-fast: a chunk's exception propagates
    unchanged and no later chunk runs.
    """
    journal = None
    replayed = {}
    try:
        if request.checkpoint is not None:
            from repro.feast import persistence

            directory = persistence.checkpoint_directory(request.checkpoint)
            journal = persistence.CheckpointJournal(
                os.path.join(directory, persistence.SERIAL_JOURNAL),
                request.config,
            )
            replayed = dict(
                persistence.read_journals(directory, journal.fingerprint)
            )
        driver = ChunkDriver(
            request.config,
            request.instrumentation,
            request.policy,
            journal=journal,
            replayed=replayed,
            on_chunk=request.on_chunk,
            keep_records=request.keep_records,
        )
        driver.run_in_process(fail_fast=not request.supervised)
    finally:
        if journal is not None:
            journal.close()
    return driver.outcome()
