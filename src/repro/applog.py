"""The append-only JSON Lines log behind every log file the project keeps.

Four logs share it: the sweep checkpoint journal
(:mod:`repro.feast.persistence`), the run registry
(:mod:`repro.obs.registry`), the live status stream
(:mod:`repro.obs.live`) and the trace event log
(:mod:`repro.obs.export`). A record is one line,
``json.dumps(obj, sort_keys=True) + "\\n"``, written by one loop of
``os.write`` on an ``O_APPEND`` descriptor (:func:`append_line`), so
appenders interleave whole lines and a crash can cut at most the last
one. Callers that promise durability (the journal, the registry)
``fsync`` after the append; the status stream does not.

One torn-tail rule holds for every reader (:func:`iter_lines`):

* a final segment that does not end in ``\\n`` is **torn** — an append
  cut short by a crash — and is dropped, whether or not it parses;
* a malformed line that does end in ``\\n`` is **corruption** and
  raises :class:`CorruptLine`.

A writer that resumes a log calls :func:`repair` first, which truncates
the file to its last ``\\n``. Documents that must never be seen half
written (results, traces, summaries) go through
:func:`atomic_write_text` instead.
"""

from __future__ import annotations

import json
import os
import tempfile
from typing import Any, Iterator, Tuple

from repro.errors import SerializationError

#: Bytes read per step when scanning back from EOF for the last newline.
_TAIL_BLOCK = 65536


class CorruptLine(SerializationError):
    """A complete (newline-terminated) log line that is not valid JSON."""

    def __init__(self, path: str, lineno: int, cause: Exception) -> None:
        super().__init__(
            f"invalid JSON on line {lineno} of {path!r}: {cause}"
        )
        self.lineno = lineno


def line(obj: Any) -> str:
    """``obj`` framed as one log line (canonical JSON plus ``\\n``)."""
    return json.dumps(obj, sort_keys=True) + "\n"


def open_append(path: str, truncate: bool = False) -> int:
    """Open ``path`` for appending, creating it if needed.

    ``truncate`` empties an existing file first — for logs that start
    over each time their owner starts, like a status stream.
    """
    flags = os.O_WRONLY | os.O_CREAT | os.O_APPEND
    if truncate:
        flags |= os.O_TRUNC
    return os.open(path, flags, 0o644)


def append_line(fd: int, obj: Any) -> None:
    """Append ``obj`` as one line to a descriptor from :func:`open_append`.

    ``os.write`` may legally write fewer bytes than asked; the loop
    covers that, and since the descriptor is ``O_APPEND`` every partial
    write lands contiguously at end-of-file, so a crash can tear only
    this line, never an earlier one.
    """
    view = memoryview(line(obj).encode("utf-8"))
    while view:
        view = view[os.write(fd, view):]


def iter_lines(path: str) -> Iterator[Tuple[int, Any]]:
    """Stream ``(lineno, value)`` for each complete line of ``path``.

    Holds one line in memory at a time. Blank lines are skipped; a torn
    final segment ends the stream; a malformed complete line raises
    :class:`CorruptLine`. ``OSError`` from opening or reading
    propagates for the caller to word.
    """
    with open(path, "rb") as fp:
        for lineno, raw in enumerate(fp, start=1):
            if not raw.endswith(b"\n"):
                return
            if not raw.strip():
                continue
            try:
                value = json.loads(raw)
            except ValueError as exc:
                raise CorruptLine(path, lineno, exc) from exc
            yield lineno, value


def _complete_length(fp) -> Tuple[int, int]:
    """``(complete, size)`` of an open binary file: the bytes up to and
    including its last ``\\n``, and all its bytes."""
    size = end = fp.seek(0, os.SEEK_END)
    while end > 0:
        start = max(0, end - _TAIL_BLOCK)
        fp.seek(start)
        newline = fp.read(end - start).rfind(b"\n")
        if newline >= 0:
            return start + newline + 1, size
        end = start
    return 0, size


def is_torn(path: str) -> bool:
    """Whether ``path`` ends in a torn (unterminated) segment."""
    with open(path, "rb") as fp:
        complete, size = _complete_length(fp)
    return complete < size


def repair(path: str) -> bool:
    """Truncate a torn tail off ``path``; returns whether one was cut."""
    with open(path, "r+b") as fp:
        complete, size = _complete_length(fp)
        if complete == size:
            return False
        fp.truncate(complete)
        os.fsync(fp.fileno())
    return True


def fsync_directory(directory: str) -> None:
    """Flush a directory's entries to disk, best-effort.

    ``fsync`` on a *file* persists its contents, not the directory entry
    naming it: after a crash, a freshly created (or renamed-into-place)
    file can vanish even though its bytes were synced. Syncing the
    parent directory closes that window. Platforms or filesystems that
    refuse ``open``/``fsync`` on directories are silently tolerated —
    this only ever *adds* durability.
    """
    try:
        fd = os.open(directory or ".", os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def atomic_write_text(path: str, text: str) -> None:
    """Write ``text`` to ``path`` atomically (temp file + fsync + replace).

    Either the old content or the complete new content exists at ``path``
    at every instant; a crash mid-write leaves the destination untouched
    and no partial temp file behind; the parent directory is synced
    after the rename so the *name* survives a crash too.
    """
    path = os.path.abspath(path)
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(
        dir=directory, prefix=os.path.basename(path) + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w") as fp:
            fp.write(text)
            fp.flush()
            os.fsync(fp.fileno())
        os.replace(tmp, path)
        fsync_directory(directory)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
