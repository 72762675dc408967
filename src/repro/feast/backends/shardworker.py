"""Shard worker process: ``python -m repro.feast.backends.shardworker``.

The subprocess backend forks its workers from the supervisor and calls
:func:`main` in the child (:mod:`.shards`); ``python -m`` runs the same
:func:`main` in a fresh interpreter, for a worker launched by hand or on
another host that shares the journal directory.

One worker owns one shard of a sweep: the chunks whose ordinal in
``config.chunk_keys()`` is congruent to the shard index modulo the
shard count. It executes them through the same :class:`~.base.ChunkDriver`
as every other backend, journaling each completed chunk into its own
config-fingerprinted checkpoint journal — the journal *is* the
transport: the parent merges shard journals, so a worker that dies at
any point loses at most the chunk it was executing, and a relaunched
worker replays its journal and re-runs only what is missing.

The worker receives a pickled payload path on argv (config, shard
coordinates, journal/summary paths, retry policy, trace flag). A worker
whose partition lost a quarantined chunk instead receives an explicit
``keys`` list; everything else is identical. The worker names each
chunk before it executes it in ``<journal>.inflight``
(:func:`inflight_path`), so a parent whose worker dies — any exit, any
signal, a stall kill — knows which chunk to charge.
On success the worker atomically writes a JSON summary: fault
accounting, its metrics registry (phase seconds and ``engine.*``
counters — the parent's only source for this shard's measurements),
and — when tracing — its serialized span trees and resource samples,
which the parent grafts under the run span
(:meth:`repro.obs.Telemetry.adopt_chunk`).

Exit codes: 0 = shard complete (summary written); ``86`` = injected
kill (testing hook, below); negative = killed by that signal; anything
else = crashed, relaunch me.

Testing hook
------------
``REPRO_SHARD_KILL_AFTER=K`` makes a worker exit with code 86 after
journaling ``K`` *new* chunks — but only once per journal (a marker
file remembers the kill), so the parent's relaunch then completes the
shard. ``REPRO_SHARD_KILL_SHARD=i`` restricts the kill to shard ``i``.
This gives the kill-and-resume tests a deterministic victim without
timing games.
"""

from __future__ import annotations

import json
import os
import pickle
import sys
from typing import Optional

from repro.applog import atomic_write_text
from repro.feast import faultinject
from repro.feast.backends.base import ChunkDriver
from repro.feast.backends.work import ChunkKey, shard_keys
from repro.feast.instrumentation import Instrumentation
from repro.feast.persistence import CheckpointJournal
from repro.obs import runtime as obs

#: Exit code of a deliberately injected kill (see module docstring).
KILL_EXIT_CODE = 86


def inflight_path(journal: str) -> str:
    """Where the worker journaling into ``journal`` names the chunk it
    is executing (see module docstring)."""
    return journal + ".inflight"


def read_inflight(journal: str) -> Optional[ChunkKey]:
    """The chunk last named in ``journal``'s in-flight marker."""
    try:
        with open(inflight_path(journal)) as fp:
            scenario, index = json.load(fp)
    except (OSError, ValueError, TypeError):
        return None
    return str(scenario), int(index)


class _InjectedKill(Exception):
    """Raised by the kill hook to unwind out of the driver loop."""


def _kill_after(shard: int) -> Optional[int]:
    """Chunks to journal before the injected kill, or ``None``."""
    raw = os.environ.get("REPRO_SHARD_KILL_AFTER")
    if raw is None:
        return None
    victim = os.environ.get("REPRO_SHARD_KILL_SHARD")
    if victim is not None and int(victim) != shard:
        return None
    return int(raw)


def run_shard(payload: dict) -> int:
    """Execute one shard per ``payload``; returns the exit code."""
    config = payload["config"]
    shard = payload["shard"]
    n_shards = payload["n_shards"]
    # A worker that lost a quarantined chunk receives an explicit key
    # list; the others derive their partition arithmetically.
    keys = payload.get("keys")
    if keys is None:
        keys = shard_keys(config, shard, n_shards)
    # Local-state fault kinds (journal truncation) need to know which
    # journal this process owns; inert unless a plan injects them.
    faultinject.set_journal_context(payload["journal"])
    telemetry = obs.Telemetry() if payload["trace"] else None
    inst = Instrumentation(telemetry=telemetry)
    inst.start(len(keys) * config.trials_per_graph)

    kill_after = _kill_after(shard)
    marker = payload["journal"] + ".killmark"
    if kill_after is not None and os.path.exists(marker):
        kill_after = None
    armed = False
    fresh_chunks = 0

    def on_chunk(key, chunk) -> None:
        nonlocal fresh_chunks
        if not armed or kill_after is None:
            return  # journal replay during driver construction
        fresh_chunks += 1
        if fresh_chunks >= kill_after:
            # The chunk's journal append already happened (the driver
            # journals before it streams), so dying here is exactly the
            # worst-case crash the journal is built for.
            with open(marker, "w") as fp:
                fp.write("killed once\n")
            raise _InjectedKill()

    inflight = inflight_path(payload["journal"])

    def on_start(key) -> None:
        with open(inflight, "w") as fp:
            json.dump(list(key), fp)

    journal = CheckpointJournal(payload["journal"], config)
    try:
        driver = ChunkDriver(
            config, inst, payload["policy"], journal=journal,
            keys=keys, on_chunk=on_chunk, on_start=on_start,
        )
        armed = True
        try:
            driver.run_in_process()
        except _InjectedKill:
            return KILL_EXIT_CODE
    finally:
        journal.close()
    inst.finish()

    summary = {
        "shard": shard,
        "n_shards": n_shards,
        "completed": sorted([s, i] for s, i in driver.done),
        "quarantined": [
            [s, i, reason]
            for (s, i), reason in sorted(driver.quarantined.items())
        ],
        "failures": [f.as_dict() for f in driver.failures],
        "metrics": inst.metrics.as_dict(),
    }
    if telemetry is not None:
        summary["telemetry"] = {
            "spans": [s.as_dict() for s in telemetry.spans.finished()],
            "resources": [r.as_dict() for r in telemetry.resources],
        }
    atomic_write_text(payload["summary"], json.dumps(summary))
    return 0


def main(argv) -> int:
    if len(argv) != 1:
        print(
            "usage: python -m repro.feast.backends.shardworker PAYLOAD",
            file=sys.stderr,
        )
        return 2
    with open(argv[0], "rb") as fp:
        payload = pickle.load(fp)
    return run_shard(payload)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
