"""Per-layer counters and self-times, measured from outside the program.

The probe wraps each layer's public callables in place — the module
attribute and every ``from ... import`` alias of it, or the class
attribute for methods — and changes nothing under ``src/``:

==========  ===========================================================
layer       wrapped callables
==========  ===========================================================
generate    ``repro.graph.generator.generate_task_graph``
index       ``GraphIndex.__init__`` (one compiled index per graph)
expand      ``ExpandedGraph.__init__`` (one expansion per estimator)
cp          ``repro.core.criticalpath.find_critical_path_indexed``
slicer      ``DeadlineDistributor.distribute``
list        ``ListScheduler.schedule``
bus         ``LinkTimelines.probe_transfer``/``commit_transfer``,
            ``LinkTimeline.earliest_slot``/``reserve``
route       ``route`` of every ``Interconnect`` subclass
analysis    ``repro.sched.analysis.schedule_metrics``
engine      ``run_classic_serial`` and ``run_chunk``: the trial loops
            themselves (a parent waiting on workers is no layer's time)
==========  ===========================================================

A layer's self time is the wall time inside its wrapped callables minus
the time spent in wrapped callees; the probe's own cost goes to a
separate total (see :class:`LayerClock`). Hot call sites keep only
counters and timers, never spans.

Every process of a traced workload carries the probe: the workload
child and its descendants install it through ``probe/sitecustomize.py``
(``python -m`` shard workers and the ``repro serve`` process), and pool
workers inherit it across ``fork``. Each process writes its totals to
``<dir>/layers-<pid>.json`` when it exits; :func:`merge` adds them up.
"""

from __future__ import annotations

import atexit
import json
import multiprocessing.util
import os
import statistics
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Optional
from weakref import WeakKeyDictionary

#: Directory the traced processes write their totals to.
ENV_DIR = "PERFLEDGER_LAYERS_DIR"

LAYERS = (
    "generate", "index", "expand", "cp", "slicer", "list", "bus", "route",
    "analysis", "engine",
)
COUNTERS = (
    "cp.cells", "list.candidate_evals", "bus.probes", "bus.probe_unique",
    "bus.commits", "bus.slot_searches", "bus.timeline_len_sum",
)

# Per-thread table: (stack of child-time accumulators, per-layer
# [calls, total_s, self_s], counters, bus probes seen since the last
# commit per LinkTimelines, [probe bookkeeping seconds]).
_Table = tuple


def _noop(a, b, c, d) -> None:
    return None


class LayerClock:
    """Counters and self-timers of one process (thread-safe by sharding:
    each thread owns its table; :meth:`snapshot` adds them up).

    The probe's own cost — wrapper entry and exit, the timer reads,
    counter hooks — is charged to no layer: it goes to a separate
    ``probe_s`` total, so each layer's self time estimates what it costs
    untraced, and ``sum(self_s) + probe_s`` still equals the wall time of
    the outermost wrapped calls. How close the estimate comes is measured
    against an untraced run, not by that sum (``ledger.measure_layers``).
    """

    def __init__(self, directory: str) -> None:
        self.directory = directory
        self._local = threading.local()
        self._lock = threading.Lock()
        self._tables: List[_Table] = []
        self._slot = {name: i for i, name in enumerate(LAYERS)}
        #: Seconds a wrapped call spends outside its own timers (call
        #: dispatch into the wrapper and the bookkeeping after the last
        #: clock read); set by :meth:`calibrate`.
        self.overhead = 0.0
        #: Seconds a wrapped call's own timer reads beyond a plain call of
        #: the callee (the timer reads and the forwarding call); set by
        #: :meth:`calibrate`.
        self.inner = 0.0

    def _table(self) -> _Table:
        table = getattr(self._local, "table", None)
        if table is None:
            table = (
                [0.0],
                [[0, 0.0, 0.0] for _ in LAYERS],
                dict.fromkeys(COUNTERS, 0),
                WeakKeyDictionary(),
                [0.0],
            )
            self._local.table = table
            with self._lock:
                self._tables.append(table)
        return table

    def timed(self, layer: str, fn: Callable, hook: Optional[Callable] = None):
        """``fn`` wrapped to time ``layer``; ``hook(table, args, kwargs)``
        updates counters first, on the probe's own time."""
        slot = self._slot[layer]
        perf = time.perf_counter
        table_of = self._table
        clock = self

        def wrapper(*args, **kwargs):
            entered = perf()
            table = table_of()
            if hook is not None:
                hook(table, args, kwargs)
            stack = table[0]
            stack.append(0.0)
            began = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                ended = perf()
                elapsed = ended - began - clock.inner
                child = stack.pop()
                spent = ended - entered + clock.overhead
                stack[-1] += spent
                stats = table[1][slot]
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += elapsed - child
                table[4][0] += spent - elapsed

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", "wrapper")
        wrapper.__qualname__ = getattr(fn, "__qualname__", wrapper.__name__)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def calibrate(self, calls: int = 20000, reps: int = 5) -> None:
        """Measure :attr:`overhead` and :attr:`inner` on a wrapped no-op
        (medians of ``reps`` repetitions).

        Per call, with ``loop`` the cost of an empty loop iteration:
        ``overhead`` = wrapped-loop time − ``loop`` − the time between
        the wrapper's first and last clock reads; ``inner`` = the time
        its own timer reads − a plain call of the no-op (plain-loop time
        − ``loop``), so a wrapped call's self time keeps what the call
        costs untraced.
        """
        perf = time.perf_counter
        outer, inner = [], []
        for _ in range(reps):
            probe = LayerClock(self.directory)
            wrapped = probe.timed("engine", _noop)
            began = perf()
            for _ in range(calls):
                pass
            empty = perf() - began
            began = perf()
            for _ in range(calls):
                _noop(1, 2, 3, 4)
            bare = perf() - began
            began = perf()
            for _ in range(calls):
                wrapped(1, 2, 3, 4)
            total = perf() - began
            (_, stats, _, _, spent), = probe._tables
            timed = stats[self._slot["engine"]][1]
            outer.append((total - empty - timed - spent[0]) / calls)
            inner.append((timed - (bare - empty)) / calls)
        self.overhead = max(0.0, statistics.median(outer))
        self.inner = max(0.0, statistics.median(inner))

    def reset(self) -> None:
        """Start from zero: a forked child must not re-report its parent.

        The forking thread may sit inside wrapped calls; the child never
        returns through them (it leaves via ``os._exit``), so fresh
        tables are all it needs.
        """
        self._lock = threading.Lock()
        self._tables = []
        self._local = threading.local()

    def snapshot(self) -> Dict[str, Any]:
        """This process's totals as plain JSON data."""
        with self._lock:
            tables = list(self._tables)
        return merge([
            {"layers": {name: {"calls": calls, "total_s": total,
                               "self_s": own}
                        for name, (calls, total, own) in zip(LAYERS, stats)},
             "counters": counters, "probe_s": spent[0]}
            for _, stats, counters, _, spent in tables
        ], pid=os.getpid())

    def dump(self) -> None:
        """Write :meth:`snapshot` to ``<directory>/layers-<pid>.json``."""
        snap = self.snapshot()
        if not any(v["calls"] for v in snap["layers"].values()):
            return
        path = os.path.join(self.directory, f"layers-{os.getpid()}.json")
        tmp = path + ".tmp"
        with open(tmp, "w") as fp:
            json.dump(snap, fp)
        os.replace(tmp, path)


def merge(snapshots: List[Dict[str, Any]], **extra: Any) -> Dict[str, Any]:
    """Sum snapshots (of threads or processes) into one."""
    layers = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
              for name in LAYERS}
    counters = dict.fromkeys(COUNTERS, 0)
    probe = 0.0
    for snap in snapshots:
        for name, entry in snap["layers"].items():
            for key, value in entry.items():
                layers[name][key] += value
        for name, value in snap["counters"].items():
            counters[name] += value
        probe += snap["probe_s"]
    return {**extra, "layers": layers, "counters": counters,
            "probe_s": probe}


def collect(directory: str, exclude_pid: Optional[int] = None) -> List[Dict]:
    """Every snapshot other processes dumped into ``directory``."""
    out = []
    for name in sorted(os.listdir(directory)):
        if not (name.startswith("layers-") and name.endswith(".json")):
            continue
        with open(os.path.join(directory, name)) as fp:
            snap = json.load(fp)
        if snap.get("pid") != exclude_pid:
            out.append(snap)
    return out


def per_trial(merged: Dict[str, Any], trials: int,
              scale: float = 1.0) -> Dict[str, float]:
    """The per-layer metrics of ``spec.PER_LAYER`` from merged totals;
    self times are multiplied by ``scale`` (reference seconds per wall
    second of the run)."""
    n = max(1, trials)
    layers, counters = merged["layers"], merged["counters"]
    out: Dict[str, float] = {}
    for name in LAYERS:
        out[f"{name}.self_us"] = layers[name]["self_s"] * 1e6 * scale / n
    out["generate.calls"] = layers["generate"]["calls"] / n
    out["index.builds"] = layers["index"]["calls"] / n
    out["expand.calls"] = layers["expand"]["calls"] / n
    out["cp.calls"] = layers["cp"]["calls"] / n
    out["cp.cells"] = counters["cp.cells"] / n
    out["slicer.calls"] = layers["slicer"]["calls"] / n
    out["list.calls"] = layers["list"]["calls"] / n
    out["list.candidate_evals"] = counters["list.candidate_evals"] / n
    out["bus.probes"] = counters["bus.probes"] / n
    out["bus.commits"] = counters["bus.commits"] / n
    out["bus.slot_searches"] = counters["bus.slot_searches"] / n
    searches = counters["bus.slot_searches"]
    out["bus.timeline_len_mean"] = (
        counters["bus.timeline_len_sum"] / searches if searches else 0.0
    )
    probes = counters["bus.probes"]
    out["bus.probe_unique_ratio"] = (
        counters["bus.probe_unique"] / probes if probes else 0.0
    )
    out["route.calls"] = layers["route"]["calls"] / n
    out["analysis.calls"] = layers["analysis"]["calls"] / n
    return out


# ----------------------------------------------------------------------
# Counter hooks (run before the wrapped call, outside its own time)
# ----------------------------------------------------------------------
# The program calls every hooked callable positionally.
def _cp_hook(table, args, kwargs) -> None:
    table[2]["cp.cells"] += len(args[2])  # remaining


def _list_hook(table, args, kwargs) -> None:
    scheduler, graph = args[0], args[1]
    pinned = len(graph.pinned_subtasks())
    table[2]["list.candidate_evals"] += (
        pinned + (graph.n_subtasks - pinned) * scheduler.system.n_processors
    )


def _make_probe_hook(route_of: Dict[type, Callable]):
    def hook(table, args, kwargs) -> None:
        links, src, dst, size, ready = args
        counters = table[2]
        counters["bus.probes"] += 1
        interconnect = links.interconnect
        route = route_of[type(interconnect)](interconnect, src, dst)
        key = (tuple(route), interconnect.hop_cost(size), ready)
        seen = table[3].get(links)
        if seen is None:
            seen = table[3][links] = set()
        if key not in seen:
            seen.add(key)
            counters["bus.probe_unique"] += 1
    return hook


def _commit_hook(table, args, kwargs) -> None:
    table[2]["bus.commits"] += 1
    table[3].pop(args[0], None)


def _slot_hook(table, args, kwargs) -> None:
    counters = table[2]
    counters["bus.slot_searches"] += 1
    counters["bus.timeline_len_sum"] += len(args[0].reservations())


# ----------------------------------------------------------------------
# Installation
# ----------------------------------------------------------------------
def _replace_everywhere(original: Callable, wrapper: Callable) -> None:
    """Point every ``repro`` module attribute bound to ``original`` at
    ``wrapper`` (the defining module and all ``from`` imports)."""
    for name, module in list(sys.modules.items()):
        if module is None or not name.startswith("repro"):
            continue
        namespace = getattr(module, "__dict__", {})
        for attr, value in list(namespace.items()):
            if value is original:
                setattr(module, attr, wrapper)


def _wrap_method(clock: LayerClock, cls: type, attr: str, layer: str,
                 hook=None) -> Callable:
    original = cls.__dict__[attr]
    setattr(cls, attr, clock.timed(layer, original, hook))
    return original


def _subclasses(cls: type) -> List[type]:
    out = []
    for sub in cls.__subclasses__():
        out.append(sub)
        out.extend(_subclasses(sub))
    return out


def _install(clock: LayerClock) -> None:
    # Import every module that binds a wrapped callable by name first,
    # so the identity sweep below reaches all of them.
    import repro.feast  # noqa: F401  (runner, backends, experiments)
    import repro.feast.backends.serial as serial
    import repro.feast.backends.work as work
    from repro.core import criticalpath
    from repro.core.expanded import ExpandedGraph
    from repro.core.slicer import DeadlineDistributor
    from repro.graph import generator
    from repro.graph.indexed import GraphIndex
    from repro.machine.topology import Interconnect
    from repro.sched import analysis
    from repro.sched.bus import LinkTimeline, LinkTimelines
    from repro.sched.list_scheduler import ListScheduler

    for module, attr, layer, hook in (
        (generator, "generate_task_graph", "generate", None),
        (criticalpath, "find_critical_path_indexed", "cp", _cp_hook),
        (analysis, "schedule_metrics", "analysis", None),
        (serial, "run_classic_serial", "engine", None),
        (work, "run_chunk", "engine", None),
    ):
        original = getattr(module, attr)
        _replace_everywhere(original, clock.timed(layer, original, hook))

    _wrap_method(clock, GraphIndex, "__init__", "index")
    _wrap_method(clock, ExpandedGraph, "__init__", "expand")
    _wrap_method(clock, DeadlineDistributor, "distribute", "slicer")
    _wrap_method(clock, ListScheduler, "schedule", "list", _list_hook)

    route_of: Dict[type, Callable] = {}
    for cls in _subclasses(Interconnect):
        if "route" in cls.__dict__:
            route_of[cls] = _wrap_method(clock, cls, "route", "route")
    for cls in _subclasses(Interconnect):
        if cls not in route_of:
            base = next(b for b in cls.__mro__ if b in route_of)
            route_of[cls] = route_of[base]

    _wrap_method(clock, LinkTimelines, "probe_transfer", "bus",
                 _make_probe_hook(route_of))
    _wrap_method(clock, LinkTimelines, "commit_transfer", "bus", _commit_hook)
    _wrap_method(clock, LinkTimeline, "earliest_slot", "bus", _slot_hook)
    _wrap_method(clock, LinkTimeline, "reserve", "bus")


_CLOCK: Optional[LayerClock] = None


def current() -> Optional[LayerClock]:
    """The process's installed clock, if any."""
    return _CLOCK


def _arm_forked_child(clock: LayerClock) -> None:
    # multiprocessing children leave through os._exit, which skips
    # atexit; its own finalizers still run on the way out.
    multiprocessing.util.Finalize(clock, clock.dump, exitpriority=10)


def install(directory: str) -> LayerClock:
    """Wrap every layer in this process; idempotent."""
    global _CLOCK
    if _CLOCK is not None:
        return _CLOCK
    clock = LayerClock(directory)
    clock.calibrate()
    _install(clock)
    _CLOCK = clock
    atexit.register(clock.dump)
    os.register_at_fork(after_in_child=clock.reset)
    multiprocessing.util.register_after_fork(clock, _arm_forked_child)
    return clock


def install_from_env() -> Optional[LayerClock]:
    """:func:`install` when :data:`ENV_DIR` names a directory."""
    directory = os.environ.get(ENV_DIR)
    if not directory:
        return None
    return install(directory)
