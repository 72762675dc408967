"""Shared type aliases used across the ``repro`` package.

Keeping the aliases in one module gives the rest of the code a single
vocabulary for the domain: node identifiers are strings, time is measured in
abstract *time units* (the paper's bus moves one data item per time unit),
and processors are small non-negative integers.
"""

from __future__ import annotations

from typing import Tuple

#: Identifier of a computation subtask (a node of the task graph).
NodeId = str

#: Identifier of a precedence arc / message, as an ordered (src, dst) pair.
EdgeId = Tuple[NodeId, NodeId]

#: Abstract time unit used throughout (execution times, deadlines, lateness).
Time = float

#: Index of a processor in the platform, ``0 .. n_processors - 1``.
ProcessorId = int

#: The one numerical slack for comparing :data:`Time` values.
#:
#: Producers and checkers share it — the bus reservation search, the
#: branch-and-bound incumbent test, the simulator, the slicer's
#: telescoping check, validation of windows, schedule consistency checks
#: and the qa oracles — so "A is consistent with B" means the same thing
#: everywhere, and a reservation the bus accepts is one the validator
#: accepts.
TIME_EPS: float = 1e-6
