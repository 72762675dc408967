"""The reference clock: the host's speed, measured with fixed work.

The host the ledger was made on drifts through slow and fast phases —
identical rounds read 25% apart within two minutes, and a fixed kernel
ran at less than half its best speed for an hour. A time multiplied by
the kernel's speed over :data:`REF_NODES_PER_S` is in *reference
seconds*: the time on a host running the kernel at that speed, which
keeps the program's cost and drops the host's phase.

Wall times are scaled by the kernel's speed in wall time; CPU times by
its speed in CPU time (``time.thread_time``), which leaves out the time
the thread waited for a vCPU.
"""

from __future__ import annotations

import heapq
import os
import random
import time
from typing import Callable, List

#: Task-graph nodes per calibration slice (about 20 ms here).
KERNEL_NODES = 5_000
#: Nodes per graph the kernel builds and schedules.
GRAPH_NODES = 50
#: Kernel nodes per reference second: about one wall second on the
#: 2-vCPU host the baseline was recorded on, in a fast phase.
REF_NODES_PER_S = 250_000.0

Clock = Callable[[], float]


class _Task:
    __slots__ = ("cost", "ready", "succ")

    def __init__(self, cost: float) -> None:
        self.cost = cost
        self.ready = 0.0
        self.succ: List["_Task"] = []


def reference_kernel(nodes: int = KERNEL_NODES,
                     clock: Clock = time.perf_counter) -> float:
    """This host's current speed, in task-graph nodes per second of
    ``clock``.

    Fixed work of the solver's kind that no change to the program can
    speed up: build small random task graphs of objects, give each task
    its earliest start by a longest-path pass, and list-schedule the
    tasks from a heap onto four processors. On the reference host a
    kernel of plain dict, list and float arithmetic swung more with the
    host's phases than the program did, so rates scaled by it fell as
    the host sped up; timed side by side on the same runs, this kernel
    spread the reference rates 6-32% less and set-up medians a third as
    much.
    """
    rng = random.Random(7)
    began = clock()
    for _ in range(nodes // GRAPH_NODES):
        tasks = [_Task(rng.random()) for _ in range(GRAPH_NODES)]
        for i, task in enumerate(tasks[:-1]):
            task.succ = [tasks[j] for j in rng.sample(
                range(i + 1, GRAPH_NODES), min(3, GRAPH_NODES - 1 - i))]
        for task in tasks:
            finish = task.ready + task.cost
            for succ in task.succ:
                if succ.ready < finish:
                    succ.ready = finish
        heap = [(task.ready, i, task) for i, task in enumerate(tasks)]
        heapq.heapify(heap)
        free = [0.0] * 4
        while heap:
            ready, _, task = heapq.heappop(heap)
            p = min(range(4), key=free.__getitem__)
            free[p] = max(free[p], ready) + task.cost
    return nodes / (clock() - began)


def host_speed(width: int = 1, clock: Clock = time.perf_counter) -> float:
    """Mean speed of ``width`` kernel slices run at once, one per process
    (``width - 1`` forked children): the host's speed per vCPU while
    ``width`` vCPUs are busy. A workload that keeps both vCPUs of a
    shared host busy can run at a different speed per vCPU than one
    that keeps one busy, and only a clock loading the host the same way
    sees it."""
    children = []
    for _ in range(width - 1):
        read, write = os.pipe()
        # The child takes no lock another thread may hold (it computes,
        # writes one pipe and leaves through os._exit), so a fork from a
        # process with threads, such as a pool's parent, is safe.
        pid = os.fork()
        if pid == 0:
            try:
                os.close(read)
                os.write(write, repr(reference_kernel(clock=clock)).encode())
            finally:
                os._exit(0)
        os.close(write)
        children.append((pid, read))
    speeds = [reference_kernel(clock=clock)]
    for pid, read in children:
        with os.fdopen(read) as fp:
            speeds.append(float(fp.read()))
        os.waitpid(pid, 0)
    return sum(speeds) / width


def process_cpu_s(pid: int) -> float:
    """User plus system CPU seconds of a live process so far, all its
    threads included (``/proc/<pid>/stat``, in clock ticks)."""
    with open(f"/proc/{pid}/stat") as fp:
        fields = fp.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")
