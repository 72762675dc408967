"""One workload run, in a fresh interpreter launched by ``ledger.py``.

    python perfledger/workload.py --workload NAME --seed S --seconds T \
        --trace 0|1 --workdir DIR --out RESULT.json

Runs rounds of the workload through the public entry points —
``run_experiment`` for the sweeps, ``repro serve`` over HTTP for the
service — until their measured segments add up to ``--seconds``, then
checks the outputs outside the timed region and writes one JSON result. Round ``r`` of
seed ``S`` uses experiment seed ``S * 1000 + r``, so a seed fixes every
input. ``--setup-only`` imports the run path, builds round 0's configs
and exits: the cold start ``setup_s`` times.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import multiprocessing
import os
import resource
import statistics
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
if HERE not in sys.path:
    sys.path.insert(0, HERE)

from refclock import REF_NODES_PER_S, host_speed  # noqa: E402

#: Graphs per scenario in one round of each sweep workload. Rounds are
#: short (about 1-4 s here) so a time-bounded run ends near its target.
ROUND_GRAPHS = {"relaxed-bus": 4, "strict-locality": 16, "sweep-fleet": 8}

#: Every this-many-th trial of a sweep is re-scheduled and replayed.
REPLAY_EVERY = 50

#: Serve: untimed jobs before timing, and served jobs checked against an
#: in-process run of the same document.
SERVE_WARMUP = 100
SERVE_CHECKED = 5
SERVE_CLIENTS = 2
SERVE_WORKERS = 2
#: Serve: jobs in one metered segment of the timed loop (2-5 s here).
SERVE_SEGMENT_JOBS = 200
#: Serve: timed jobs after which the server's peak RSS is read (a 20-s
#: run serves 750-1600 here).
SERVE_RSS_JOBS = 600

#: vCPUs each workload keeps busy: the width of its calibration slices.
BUSY_VCPUS = {"relaxed-bus": 1, "strict-locality": 1, "sweep-fleet": 2,
              "serve-closed-loop": 2}


class SpeedMeter:
    """Measured segments of a run, on the reference clock.

    A calibration slice (:func:`refclock.host_speed`, ``width`` kernels
    at once) runs before the first segment and after each one; slices
    are part of no segment and run from the working process straight
    after the work, so they see the host it saw. A segment's *busy time*
    counts in *reference seconds* — the time on a host running the
    kernel at :data:`REF_NODES_PER_S` — scaled by the mean speed of the two
    slices around it. Busy time is the segment's wall time; on a meter
    with ``cpu=True`` it is the CPU seconds the program spent in the
    segment, and the slices are timed in CPU time too.
    """

    def __init__(self, width: int = 1, cpu: bool = False) -> None:
        self.width = width
        self.cpu = cpu
        self.clock = time.thread_time if cpu else time.perf_counter
        self.wall = 0.0
        self.ref = 0.0
        self._wall_at_speed = 0.0
        #: ``(trials, wall seconds, reference seconds)`` of each segment.
        self.segments: List[Tuple[int, float, float]] = []
        self._speed = host_speed(width, self.clock)

    def add(self, wall: float, trials: int,
            cpu_s: Optional[float] = None) -> None:
        speed = host_speed(self.width, self.clock)
        factor = (self._speed + speed) / 2 / REF_NODES_PER_S
        ref = (cpu_s if self.cpu else wall) * factor
        self.segments.append((trials, wall, ref))
        self.ref += ref
        self.wall += wall
        self._wall_at_speed += wall * factor
        self._speed = speed

    @property
    def speed_scale(self) -> float:
        """The host's mean speed over the segments, relative to the
        reference (reference seconds per wall second of work)."""
        return self._wall_at_speed / self.wall


def round_seed(seed: int, r: int) -> int:
    """Experiment seed of round ``r`` (``r`` stays far below 500)."""
    return seed * 1000 + r


def serve_document(seed: int, i: int) -> Dict[str, Any]:
    """Timed job ``i`` (warm-up jobs use negative ``i``)."""
    import serveload

    return serveload.reference_job(f"ledger-{seed}-{i}", seed * 1_000_003 + i)


# ----------------------------------------------------------------------
# Sweep workloads
# ----------------------------------------------------------------------
def sweep_round(workload: str, seed: int, r: int,
                workdir: str) -> List[Tuple[Any, Dict[str, Any]]]:
    """``(config, run_experiment kwargs)`` calls making up round ``r``."""
    from repro.feast.config import PAPER_SYSTEM_SIZES
    from repro.feast.experiments import ext_locality, figure2, figure5

    graphs = ROUND_GRAPHS[workload]
    s = round_seed(seed, r)
    if workload == "relaxed-bus":
        # Each figure draws its own graphs: twice the distinct graphs per
        # second of a shared set, so a run's mean leans less on a few.
        configs = figure2(n_graphs=graphs, seed=s) + figure5(
            n_graphs=graphs, seed=s + 500)
        return [(c, {"jobs": 1}) for c in configs]
    if workload == "strict-locality":
        configs = ext_locality(fractions=(1.0,), n_graphs=graphs, seed=s,
                               system_sizes=PAPER_SYSTEM_SIZES)
        return [(c, {"jobs": 1}) for c in configs]
    if workload == "sweep-fleet":
        (config,) = figure5(n_graphs=graphs, seed=s)
        journal_dir = os.path.join(workdir, f"journal-{r}")
        return [
            (config, {"jobs": 2}),
            (config, {"backend": "subprocess", "shards": 2,
                      "checkpoint": journal_dir}),
        ]
    raise ValueError(f"not a sweep workload: {workload}")


@dataclasses.dataclass
class Call:
    """One timed ``run_experiment`` call, kept without its records."""

    round: int
    config: Any
    kwargs: Dict[str, Any]
    seconds: float
    records: int
    quarantined: int
    #: Phase seconds the call's workers spent (``result.timings.total``).
    busy_s: float
    supervision_events: int

    @property
    def backend(self) -> str:
        return self.kwargs.get("backend") or (
            "pool" if self.kwargs.get("jobs", 1) > 1 else "serial")


class SweepCheck:
    """The correctness checks of a sweep run.

    Each round is checked as it ends, outside the timed segments, and
    only the records to be re-scheduled (every :data:`REPLAY_EVERY`-th)
    outlive it, so the benchmark's own memory does not grow with the
    length of the run and ``peak_rss_mb`` reads the program's. The
    replays run after the run, outside any layer totals.
    """

    def __init__(self, workload: str) -> None:
        self.fleet = workload == "sweep-fleet"
        self.short: List[str] = []
        self.mismatched: List[str] = []
        self.digest = ""
        self.to_replay: List[Tuple[Any, Any]] = []

    def add_round(self, r: int, done: List[Tuple[Call, Any]]) -> None:
        from repro.obs.registry import records_digest

        for c, result in done:
            if c.records != c.config.n_trials or c.quarantined:
                self.short.append(
                    f"round {r} {c.config.name} [{c.backend}]: "
                    f"{c.records}/{c.config.n_trials} records"
                    + (f", quarantined {c.quarantined}"
                       if c.quarantined else ""))
        if self.fleet:
            digests = {c.backend: records_digest(result.records)
                       for c, result in done}
            if len(set(digests.values())) != 1:
                self.mismatched.append(f"round {r}: {digests}")
        if r == 0:
            first = done[:1] if self.fleet else done
            self.digest = records_digest(
                [rec for _, result in first for rec in result.records])
        for c, result in done:
            if c.backend != "subprocess":  # same records as the pool's
                self.to_replay += [(c.config, record) for record in
                                   result.records[::REPLAY_EVERY]]

    def checks(self) -> List[Dict]:
        bad = [problem for problem in
               (replay_trial(config, record)
                for config, record in self.to_replay)
               if problem is not None]
        out = [_check("record counts equal n_trials", not self.short,
                      "; ".join(self.short))]
        if self.fleet:
            out.append(_check("pool and subprocess digests equal",
                              not self.mismatched,
                              "; ".join(self.mismatched)))
        out.append(_check(
            f"{len(self.to_replay)} re-scheduled trials replay cleanly",
            not bad, "; ".join(bad[:3])))
        return out


def run_sweep(workload: str, seed: int, seconds: float, workdir: str,
              telemetry=None, clock=None, rounds: Optional[int] = None,
              ) -> Tuple[List[Call], SpeedMeter, SweepCheck]:
    """Whole rounds until ``seconds`` have been measured, or exactly
    ``rounds`` rounds; each ``run_experiment`` call is one metered
    segment. A traced run re-calibrates the layer ``clock`` before each
    call, outside the segment, so the probe's per-call cost follows the
    host's speed."""
    from repro.feast import Instrumentation, run_experiment

    calls: List[Call] = []
    meter = SpeedMeter(BUSY_VCPUS[workload])
    check = SweepCheck(workload)
    r = 0
    while True:
        done = []
        for config, kwargs in sweep_round(workload, seed, r, workdir):
            inst = (Instrumentation(telemetry=telemetry)
                    if telemetry is not None else None)
            if clock is not None:
                clock.calibrate()
            t0 = time.perf_counter()
            result = run_experiment(config, instrumentation=inst, **kwargs)
            elapsed = time.perf_counter() - t0
            meter.add(elapsed, len(result.records))
            supervision = result.supervision
            done.append((Call(
                r, config, kwargs, elapsed, len(result.records),
                result.quarantined, result.timings.total,
                sum(dataclasses.asdict(supervision).values())
                if supervision is not None else 0), result))
        check.add_round(r, done)
        calls += [c for c, _ in done]
        del done, result
        r += 1
        if r == rounds or (rounds is None and meter.wall >= seconds):
            break
    return calls, meter, check


def replay_trial(config, record) -> Optional[str]:
    """Re-schedule one trial from scratch and replay it event by event;
    ``None`` when the replay is clean and the record reproduces."""
    from repro.feast.config import speeds_for
    from repro.feast.runner import distribute_for_trial, graph_for_trial, \
        make_record
    from repro.machine.system import System
    from repro.machine.topology import make_interconnect
    from repro.qa.oracles import replay_schedule
    from repro.sched.analysis import schedule_metrics
    from repro.sched.list_scheduler import ListScheduler
    from repro.sched.policies import make_policy

    method = next(m for m in config.methods if m.label == record.method)
    graph = graph_for_trial(
        config, config.graph_config.with_scenario(record.scenario),
        record.scenario, record.graph_index,
    )
    n = record.n_processors
    speeds = speeds_for(config.speed_profile, n)
    system = System(n, interconnect=make_interconnect(config.topology, n),
                    speeds=speeds)
    assignment = distribute_for_trial(
        method, method.build(), graph, n, float(sum(speeds)), {},
        (method.label, record.graph_index),
    )
    schedule = ListScheduler(
        system, policy=make_policy(config.policy),
        respect_release_times=config.respect_release_times,
    ).schedule(graph, assignment)
    report = replay_schedule(schedule, assignment)
    if not report.ok:
        return f"replay violations: {report.violations[:3]}"
    again = make_record(config, record.scenario, n, method,
                        record.graph_index, assignment,
                        schedule_metrics(schedule, assignment))
    if again != record:
        return f"re-scheduled record differs: {again} != {record}"
    return None


def sweep_metrics(workload: str, calls: List[Call]) -> Dict[str, Any]:
    attempted = sum(c.config.n_trials for c in calls)
    trials = sum(c.records for c in calls)
    out: Dict[str, Any] = {
        "attempted": attempted,
        "failed": attempted - trials,
        "trials": trials,
        "rounds": len({c.round for c in calls}),
    }
    if workload == "sweep-fleet":
        for backend in ("pool", "subprocess"):
            mine = [c for c in calls if c.backend == backend]
            seconds = sum(c.seconds for c in mine)
            out[f"fleet.{backend}.trials_per_s"] = (
                sum(c.records for c in mine) / seconds)
            out[f"fleet.{backend}.efficiency"] = (
                sum(c.busy_s for c in mine) / (seconds * 2))
        out["fleet.supervision_events"] = sum(
            c.supervision_events for c in calls)
        journaled = [c for c in calls if c.backend == "subprocess"]
        size, lines = journal_usage([c.kwargs["checkpoint"]
                                     for c in journaled])
        records = sum(c.records for c in journaled)
        out["journal.bytes"] = size / records
        out["journal.lines"] = lines / records
    return out


def journal_usage(paths: List[str]) -> Tuple[int, int]:
    """Total bytes and lines of the ``.ckpt`` journals under ``paths``."""
    size = lines = 0
    for path in paths:
        for name in os.listdir(path):
            if name.endswith(".ckpt"):
                with open(os.path.join(path, name), "rb") as fp:
                    data = fp.read()
                size += len(data)
                lines += data.count(b"\n")
    return size, lines


def batch_timing(config, reps: int = 3) -> Dict[str, float]:
    """Scalar vs batch distribute over the requests of one scenario of
    round 0 (fresh graphs per side, so neither reuses the other's
    expansion cache); medians of ``reps`` alternating repetitions."""
    from repro.core.batch import DistributeRequest, distribute_many
    from repro.feast.config import speeds_for
    from repro.feast.runner import graph_for_trial

    scenario = config.scenarios[0]

    def requests() -> List[Any]:
        gc = config.graph_config.with_scenario(scenario)
        graphs = [graph_for_trial(config, gc, scenario, i)
                  for i in range(config.n_graphs)]
        out = []
        for method in config.methods:
            distributor = method.build()
            sizes = config.system_sizes if method.needs_system_size else [None]
            for n in sizes:
                capacity = (None if n is None else
                            float(sum(speeds_for(config.speed_profile, n))))
                out.extend(DistributeRequest(g, distributor, n, capacity)
                           for g in graphs)
        return out

    def scalar(batch: List[Any]) -> None:
        for req in batch:
            kwargs = {}
            if req.n_processors is not None:
                kwargs = {"n_processors": req.n_processors,
                          "total_capacity": req.total_capacity}
            req.distributor.distribute(req.graph, **kwargs)

    scalar_s, batch_s = [], []
    for _ in range(reps):
        todo = requests()
        t0 = time.perf_counter()
        scalar(todo)
        scalar_s.append(time.perf_counter() - t0)
        todo = requests()
        t0 = time.perf_counter()
        distribute_many(todo)
        batch_s.append(time.perf_counter() - t0)
    return {"scalar_s": statistics.median(scalar_s),
            "batch_s": statistics.median(batch_s)}


# ----------------------------------------------------------------------
# Serve workload
# ----------------------------------------------------------------------
def run_serve(seed: int, seconds: float, workdir: str,
              warmup: int) -> Tuple[Any, Any, SpeedMeter, float, str]:
    """Warm-up, then the timed closed loop; returns (warm-up loop, timed
    loop, its meter, the server's peak RSS in MB, data directory). The
    server is stopped and reaped on return.

    The timed loop runs in segments of :data:`SERVE_SEGMENT_JOBS` jobs:
    clients finish their jobs at the end of each, the server falls idle,
    and a calibration slice runs on the quiet host before the next, as
    between the ``run_experiment`` calls of a sweep. A slice taken while
    the server works would read how busy it keeps the two vCPUs, not the
    host's speed. The meter runs on the server's CPU time: a closed loop
    leaves the vCPUs idle while jobs wait on polls, and how long a shared
    host takes to wake an idle vCPU moves its wall time more than any
    change to the program does.

    The server's resident set grows with the jobs it has served, so its
    peak is read after :data:`SERVE_RSS_JOBS` timed jobs (or at the end
    of a shorter run), not after however many a run's seconds allowed."""
    import serveload

    data_dir = os.path.join(workdir, "serve-data")
    server = serveload.ServeProcess(
        data_dir, os.path.join(workdir, "serve.log"), workers=SERVE_WORKERS)
    server.start()
    rss_mb = 0.0
    try:
        warm = serveload.closed_loop(
            server.port, lambda i: serve_document(seed, -1 - i),
            SERVE_CLIENTS, max_jobs=warmup, alive=lambda: server.alive)
        outcomes: List[Any] = []
        meter = SpeedMeter(BUSY_VCPUS["serve-closed-loop"], cpu=True)
        while meter.wall < seconds:
            cpu = server.cpu_s()
            segment = serveload.closed_loop(
                server.port, lambda i: serve_document(seed, i),
                SERVE_CLIENTS, max_jobs=SERVE_SEGMENT_JOBS,
                alive=lambda: server.alive, first=len(outcomes))
            outcomes += segment.outcomes
            meter.add(segment.wall_s,
                      len(segment.completed) * serveload.TRIALS_PER_JOB,
                      server.cpu_s() - cpu)
            if not rss_mb and len(outcomes) >= SERVE_RSS_JOBS:
                rss_mb = server.peak_rss_mb()
        if not rss_mb:
            rss_mb = server.peak_rss_mb()
    finally:
        code = server.stop()
    if code != 0:
        raise RuntimeError(f"repro serve exited {code}: {server.log_tail()}")
    return (warm, serveload.LoopResult(outcomes, meter.wall), meter, rss_mb,
            data_dir)


def check_serve(warm, timed) -> Tuple[List[Dict], str]:
    import serveload
    from repro.feast import run_experiment
    from repro.obs.registry import records_digest
    from repro.serve.jobs import compile_job

    checks: List[Dict] = []
    errors = [o.error for o in warm.outcomes + timed.outcomes if not o.ok]
    checks.append(_check("every job completed", not errors,
                         "; ".join(errors[:3])))
    short = [o.document["name"] for o in timed.completed
             if len(o.records) != serveload.TRIALS_PER_JOB]
    checks.append(_check("every job served all its records", not short,
                         ", ".join(short[:3])))
    first = timed.outcomes[:SERVE_CHECKED]
    differs = []
    for outcome in first:
        local = run_experiment(compile_job(outcome.document))
        if [r.as_dict() for r in local.records] != outcome.records:
            differs.append(outcome.document["name"])
    checks.append(_check(
        f"first {len(first)} served results equal in-process runs",
        len(first) == SERVE_CHECKED and not differs, ", ".join(differs)))
    digest = records_digest([rec for o in first for rec in o.records])
    return checks, digest


def serve_spans(outcomes) -> List[Any]:
    """Client-side spans of the timed jobs (one ``job`` span each)."""
    from repro.obs.spans import Span

    spans = []
    for o in outcomes:
        job = Span("job", start=o.began_epoch, duration=o.latency_s,
                   attrs={"name": o.document["name"], "ok": o.ok,
                          "polls": len(o.poll_s)})
        job.children.append(Span("submit", start=o.began_epoch,
                                 duration=o.submit_s))
        if o.ok:
            job.children.append(Span(
                "result", start=o.began_epoch + o.latency_s - o.result_s,
                duration=o.result_s))
        spans.append(job)
    return spans


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------
def _check(name: str, ok: bool, detail: str = "") -> Dict[str, Any]:
    return {"name": name, "ok": bool(ok), "detail": detail}


def load_pins() -> Dict[str, Any]:
    with open(os.path.join(HERE, "pins.json")) as fp:
        return json.load(fp)


def check_pin(pins: Dict[str, Any], workload: str, seed: int,
              digest: str) -> Dict[str, Any]:
    """Compare a run's round-0 digest with the pinned one (pinned seed
    only: other seeds have no reference)."""
    if seed != pins["seed"]:
        return _check(f"digest pinned for seed {pins['seed']} only", True)
    expected = pins["digests"].get(workload)
    return _check("records digest equals the pinned digest",
                  digest == expected,
                  f"got {digest}, pinned {expected}")


def peak_rss_mb() -> float:
    """Largest resident set of this process and its reaped descendants."""
    deadline = time.monotonic() + 60
    while multiprocessing.active_children() and time.monotonic() < deadline:
        time.sleep(0.01)
    peak_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                  resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak_kb / 1024


def layer_metrics(clock, trials: int, scale: float) -> Dict[str, Any]:
    """Per-trial layer metrics over every traced process (self times in
    reference microseconds)."""
    import layers

    own = clock.snapshot()
    snapshots = [own] + layers.collect(clock.directory, exclude_pid=own["pid"])
    merged = layers.merge(snapshots, processes=len(snapshots))
    return {
        "layers": layers.per_trial(merged, trials, scale),
        "layer_totals": merged,
    }


def run(args) -> Dict[str, Any]:
    telemetry = None
    clock = None
    if args.trace:
        import layers
        from repro.obs.runtime import Telemetry

        clock = layers.current()
        if clock is None:
            raise RuntimeError(
                f"--trace 1 needs the probe: set {layers.ENV_DIR} and put "
                "perfledger/probe on PYTHONPATH")
        telemetry = Telemetry()
    out: Dict[str, Any] = {"workload": args.workload, "seed": args.seed,
                           "trace": bool(args.trace)}
    serve = args.workload == "serve-closed-loop"
    if serve:
        import serveload
        from repro.serve.jobs import compile_job

        warm, timed, meter, out["peak_rss_mb"], data_dir = run_serve(
            args.seed, args.seconds, args.workdir, args.warmup)
        out.update(serveload.summarize_loop(timed))
        # Layers and journals saw the warm-up jobs too.
        served = (len(warm.completed) + len(timed.completed)) * \
            serveload.TRIALS_PER_JOB
        size, lines = journal_usage([os.path.join(data_dir, "jobs")])
        out.update({"journal.bytes": size / served,
                    "journal.lines": lines / served})
        out.update(attempted=warm.attempted + timed.attempted,
                   failed=warm.failed + timed.failed,
                   trials=len(timed.completed) * serveload.TRIALS_PER_JOB)
    else:
        calls, meter, sweep_check = run_sweep(
            args.workload, args.seed, args.seconds, args.workdir, telemetry,
            clock, args.rounds)
        out["peak_rss_mb"] = peak_rss_mb()
        out.update(sweep_metrics(args.workload, calls))
        served = out["trials"]
    wall, ref, scale = meter.wall, meter.ref, meter.speed_scale
    out.update(wall_s=wall, ref_s=ref, speed_scale=scale,
               segments=meter.segments,
               trials_per_s=out["trials"] / wall,
               trials_per_ref_s=out["trials"] / ref)
    for backend in ("pool", "subprocess"):
        name = f"fleet.{backend}.trials_per_s"
        if name in out:
            out[f"fleet.{backend}.trials_per_ref_s"] = out.pop(name) / scale
    if clock is not None:
        out.update(layer_metrics(clock, served, scale))
    if serve:
        if telemetry is not None:
            telemetry.spans.adopt(serve_spans(timed.outcomes))
        checks, digest = check_serve(warm, timed)
    else:
        checks, digest = sweep_check.checks(), sweep_check.digest
    if args.batch:
        batch = batch_timing(compile_job(serve_document(args.seed, 0))
                             if serve else calls[0].config)
        out.update({"batch.scalar_ms": batch["scalar_s"] * 1000 * scale,
                    "batch.batch_ms": batch["batch_s"] * 1000 * scale,
                    "batch.speedup": batch["scalar_s"] / batch["batch_s"]})
    out["failed_frac"] = out["failed"] / max(1, out["attempted"])
    checks.append(check_pin(load_pins(), args.workload, args.seed, digest))
    out["digest"] = digest
    out["checks"] = checks
    out["correct"] = all(c["ok"] for c in checks)
    if telemetry is not None:
        from repro.obs.export import write_events

        os.makedirs(os.path.dirname(args.trace_out), exist_ok=True)
        write_events(args.trace_out, telemetry, experiment=args.workload,
                     summary={"workload": args.workload, "seed": args.seed,
                              "layers": out["layers"]})
        out["trace_path"] = args.trace_out
    return out


def setup_only(workload: str) -> None:
    """The cold start ``setup_s`` times: import the run path, build the
    first round's configs."""
    if workload == "serve-closed-loop":
        raise ValueError("serve set-up is timed by ledger.py (spawn → healthy)")
    from repro.feast import run_experiment  # noqa: F401

    sweep_round(workload, 1, 0, ".")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--rounds", type=int,
                        help="sweeps: run exactly this many rounds instead")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--batch", action="store_true",
                        help="also time core.batch against scalar distribute")
    parser.add_argument("--warmup", type=int, default=SERVE_WARMUP)
    parser.add_argument("--workdir")
    parser.add_argument("--out")
    parser.add_argument("--trace-out")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    if args.setup_only:
        setup_only(args.workload)
        return 0
    os.makedirs(args.workdir, exist_ok=True)
    result = run(args)
    with open(args.out, "w") as fp:
        json.dump(result, fp, indent=1, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
