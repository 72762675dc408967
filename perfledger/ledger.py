"""The performance ledger: four workloads, end-to-end and per-layer metrics.

Commands (run from anywhere; the program is built from ``src/`` next to
this directory, nothing is installed)::

    python3 perfledger/ledger.py run [--seed S] [--runs N] [--smoke]
    python3 perfledger/ledger.py trace [--seed S]
    python3 perfledger/ledger.py compare A.json B.json
    python3 perfledger/ledger.py bench --workload W --seed S \
        --seconds T --trace 0|1

``run`` measures every workload ``--runs`` times, each run in a fresh
child interpreter with its own seed, checks the outputs, prints every
end-to-end metric with its unit and writes medians and quartiles as
JSON. ``trace`` makes the separate traced run that gives the per-layer
numbers and writes each workload's spans as a ``repro-trace`` event log
that ``repro trace`` and ``repro report`` open. ``compare`` gives each
workload × metric a verdict and exits 1 on a regression. ``bench`` is
one run of one workload; its last stdout line is one JSON object with
the metrics ``BENCHMARK.json`` lists.

Everything a run writes stays under ``.perfledger/`` at the repository
root. See README.md for the workloads, metrics and bounds.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
if HERE not in sys.path:
    sys.path.insert(0, HERE)

import layers  # noqa: E402
import ledgerstats  # noqa: E402
import spec  # noqa: E402

ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
PROBE = os.path.join(HERE, "probe")
STATE = os.path.join(ROOT, ".perfledger")
#: Set for a timed cold start: the file its calibration slice reports to.
CALIBRATE_ENV = "PERFLEDGER_CALIBRATE"

#: Seed whose round-0 records digests ``pins.json`` pins.
DEFAULT_SEED = 1
#: Cold starts per run; ``setup_s`` is their median.
SETUP_SAMPLES = 5
#: Default measured seconds per run (BENCHMARK.json's ``run_seconds``).
RUN_SECONDS = 20
#: ``--smoke``: about 1/20 of a run — one round, one cold start.
SMOKE_SECONDS = 0.5
SMOKE_WARMUP = 5
#: A child that outlives its measured seconds by this much is killed.
CHILD_GRACE_S = 120
#: ``compare`` marks layer self times slower by more than this (percent);
#: informational — layers have no bound.
LAYER_FLAG_PCT = 10.0
#: Workloads whose trial loop runs inside this one traced process.
SERIAL_SWEEPS = ("relaxed-bus", "strict-locality")


class BenchError(RuntimeError):
    """A run could not produce a result."""


# ----------------------------------------------------------------------
# Child processes
# ----------------------------------------------------------------------
def check_program() -> None:
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise BenchError(f"no program to measure: {SRC}/repro is missing")


def child_env(workdir: str, traced: bool) -> Dict[str, str]:
    env = dict(os.environ)
    paths = [SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env.pop(layers.ENV_DIR, None)
    env.pop(CALIBRATE_ENV, None)
    if traced:
        paths.insert(0, PROBE)
        env[layers.ENV_DIR] = os.path.join(workdir, "layers")
        os.makedirs(env[layers.ENV_DIR], exist_ok=True)
    env["PYTHONPATH"] = os.pathsep.join(paths)
    env["TMPDIR"] = os.path.join(workdir, "tmp")
    os.makedirs(env["TMPDIR"], exist_ok=True)
    return env


def run_child(argv: List[str], env: Dict[str, str], log: str,
              timeout: float) -> None:
    """Run one child to completion; kill it after ``timeout`` seconds."""
    with open(log, "ab") as fp:
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=fp,
                                stderr=fp, env=env, cwd=ROOT)
        try:
            code = proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise BenchError(f"{' '.join(argv[1:5])} killed after "
                             f"{timeout:.0f}s") from None
    if code != 0:
        raise BenchError(f"{' '.join(argv[1:5])} exited {code}: "
                         + tail_of(log))


def tail_of(path: str, lines: int = 8) -> str:
    with open(path, "rb") as fp:
        text = fp.read().decode("utf-8", "replace")
    return "\n".join(text.strip().splitlines()[-lines:])


def children_cpu_s() -> float:
    """CPU seconds of this process's reaped children so far."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def measure_setup(workload: str, workdir: str, samples: int) -> List[float]:
    """Cold starts in reference seconds: a fresh interpreter importing the
    run path and building the configs (sweeps), or ``repro serve`` from
    spawn to a healthy ``/v1/healthz`` (serve).

    A sample is the CPU time of the cold process (the sweep child once
    reaped; the server when it first answers healthy), scaled by the
    speed of one slice of the reference kernel the cold process runs
    first (``probe/sitecustomize.py``), in CPU time as well; the slice's
    own CPU time is taken out. A cold start lands on a vCPU that was
    idle, and on a shared host its wall time follows how long that vCPU
    takes to wake and warm up more than it follows the program; only a
    slice in that same process sees the host it ran on."""
    import serveload
    from refclock import REF_NODES_PER_S

    env = child_env(workdir, traced=False)
    env["PYTHONPATH"] = os.pathsep.join([PROBE, env["PYTHONPATH"]])
    log = os.path.join(workdir, "setup.log")
    times = []
    for i in range(samples):
        env[CALIBRATE_ENV] = calib = os.path.join(workdir, f"calib-{i}.json")
        if workload == "serve-closed-loop":
            server = serveload.ServeProcess(
                os.path.join(workdir, f"setup-serve-{i}"),
                os.path.join(workdir, f"setup-serve-{i}.log"), env=env)
            try:
                server.start()
                cpu = server.cpu_s()
            finally:
                server.stop()
        else:
            before = children_cpu_s()
            run_child([sys.executable, os.path.join(HERE, "workload.py"),
                       "--workload", workload, "--setup-only"],
                      env, log, CHILD_GRACE_S)
            cpu = children_cpu_s() - before
        with open(calib) as fp:
            slice_ = json.load(fp)
        times.append((cpu - slice_["cpu_s"]) * slice_["speed"]
                     / REF_NODES_PER_S)
    return times


def run_workload(workload: str, seed: int, seconds: float, traced: bool,
                 workdir: str, smoke: bool, rounds: Optional[int] = None,
                 batch: bool = False) -> Dict[str, Any]:
    """One workload child; returns its result document. A sweep given
    ``rounds`` runs exactly that many rounds instead of ``seconds``;
    ``batch`` adds the ``batch.*`` side measurement."""
    tag = "traced" if traced else "plain"
    out = os.path.join(workdir, f"{tag}.json")
    argv = [sys.executable, os.path.join(HERE, "workload.py"),
            "--workload", workload, "--seed", str(seed),
            "--seconds", repr(seconds), "--trace", str(int(traced)),
            "--workdir", os.path.join(workdir, tag), "--out", out]
    if rounds is not None:
        argv += ["--rounds", str(rounds)]
    if batch:
        argv.append("--batch")
    if smoke:
        argv += ["--warmup", str(SMOKE_WARMUP)]
    if traced:
        # Relative to the repository root (the child's working directory),
        # so ledgers name the trace without naming the machine.
        argv += ["--trace-out", os.path.relpath(os.path.join(
            STATE, "traces", f"{workload}-seed{seed}.events.jsonl"), ROOT)]
    run_child(argv, child_env(workdir, traced),
              os.path.join(workdir, f"{tag}.log"), seconds + CHILD_GRACE_S)
    with open(out) as fp:
        return json.load(fp)


def new_workdir(workload: str) -> str:
    path = os.path.join(STATE, "work", f"{workload}-{os.getpid()}-"
                        f"{time.time_ns() % 10**9}")
    os.makedirs(path)
    return path


# ----------------------------------------------------------------------
# One run
# ----------------------------------------------------------------------
def measure(workload: str, seed: int, seconds: float,
            smoke: bool = False) -> Dict[str, Any]:
    """One untraced run: set-up samples, then the workload child. Returns
    the child's result plus ``setup_s``."""
    workdir = new_workdir(workload)
    try:
        samples = 1 if smoke else SETUP_SAMPLES
        setup = measure_setup(workload, workdir, samples)
        result = run_workload(workload, seed, seconds, False, workdir, smoke)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result["setup_s"] = statistics.median(setup)
    result["setup_samples"] = setup
    return result


def measure_layers(workload: str, seed: int, seconds: float,
                   smoke: bool = False) -> Dict[str, Any]:
    """A plain and a traced child on the same seed: the plain one runs
    ``seconds / 2``, the traced one the same rounds (the same trials) on
    a sweep, ``seconds / 2`` on serve. The traced one gives the layers,
    the plain one the overhead base, the untraced cost the layers' self
    times are checked against, and the side measurements tracing would
    distort."""
    workdir = new_workdir(workload)
    try:
        plain = run_workload(workload, seed, seconds / 2, False, workdir,
                             smoke, batch=True)
        traced = run_workload(workload, seed, seconds / 2, True, workdir,
                              smoke, plain.get("rounds"))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    metrics: Dict[str, Any] = dict(traced["layers"])
    for m in spec.PER_LAYER:
        if m.name in plain:
            metrics[m.name] = plain[m.name]
    metrics["trace.overhead_pct"] = (
        plain["trials_per_ref_s"] / traced["trials_per_ref_s"] - 1) * 100
    for m in spec.PER_LAYER:
        metrics.setdefault(m.name, 0.0)
    return {
        "workload": workload, "seed": seed,
        "correct": plain["correct"] and traced["correct"],
        "checks": plain["checks"] + traced["checks"],
        "attempted": plain["attempted"] + traced["attempted"],
        "failed": plain["failed"] + traced["failed"],
        "digest": plain["digest"],
        "coverage_pct": coverage_pct(workload, plain, traced),
        "layer_totals": traced["layer_totals"],
        "trace_path": traced.get("trace_path"),
        **metrics,
    }


def coverage_pct(workload: str, plain: Dict[str, Any],
                 traced: Dict[str, Any]) -> Optional[float]:
    """The traced layers' summed self times per trial over the untraced
    run's cost per trial, on the same trials, both in reference seconds.

    100% means the self times add up to what the trials cost without the
    probe; above it, the probe inflates them by the excess. Only the
    serial sweeps run their whole trial loop inside wrapped layers of one
    process, so only they give a figure (``None`` elsewhere)."""
    if workload not in SERIAL_SWEEPS:
        return None
    self_us = sum(traced["layers"][f"{name}.self_us"]
                  for name in layers.LAYERS)
    return self_us * plain["trials_per_ref_s"] / 1e4


def unit_of(name: str) -> str:
    return spec.METRICS[name].unit


def print_run(result: Dict[str, Any], metrics: List[str]) -> None:
    for name in metrics:
        value = result.get(name)
        print(f"  {name:<30} {ledgerstats.fmt(value):>12} {unit_of(name)}")
    for check in result["checks"]:
        mark = "ok  " if check["ok"] else "FAIL"
        detail = f" — {check['detail']}" if check["detail"] and not \
            check["ok"] else ""
        print(f"  [{mark}] {check['name']}{detail}")


def e2e_names(workload: str) -> List[str]:
    return [m.name for m in spec.END_TO_END if m.applies_to(workload)]


def layer_names(workload: str) -> List[str]:
    return [m.name for m in spec.PER_LAYER if m.applies_to(workload)]


def describe(result: Dict[str, Any]) -> str:
    bits = [f"{result.get('trials', 0)} trials in "
            f"{result.get('wall_s', 0):.2f}s"]
    if "rounds" in result:
        bits.append(f"{result['rounds']} rounds")
    if "samples" in result:
        tail = result.get("tail")
        bits.append(f"n={result['samples']} latency samples" + (
            f", highest resolvable tail p{tail['q'] * 100:g} = "
            f"{tail['ms']:.2f} ms" if tail else ""))
    return ", ".join(bits)


def cmd_bench(args) -> int:
    check_program()
    print(f"perfledger bench: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    if args.trace:
        result = measure_layers(args.workload, args.seed, args.seconds)
        listed = [m.name for m in spec.PER_LAYER if m.listed]
        print_run(result, layer_names(args.workload))
        print_layer_shares(result)
    else:
        result = measure(args.workload, args.seed, args.seconds)
        listed = [m.name for m in spec.END_TO_END if m.listed]
        print(f"  ({describe(result)}; host at {result['speed_scale']:.2f}x "
              f"reference speed; setup median of "
              f"{len(result['setup_samples'])} cold starts)")
        print_run(result, e2e_names(args.workload))
    line = {
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {name: {"value": result[name], "unit": unit_of(name)}
                    for name in listed},
    }
    print(json.dumps(line))
    return 0 if result["correct"] else 1


# ----------------------------------------------------------------------
# Ledgers: many runs, summaries, comparison
# ----------------------------------------------------------------------
def host() -> Dict[str, Any]:
    model = platform.machine()
    try:
        with open("/proc/cpuinfo") as fp:
            for line in fp:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": model,
            "python": platform.python_version(),
            "platform": platform.platform()}


def summarize_runs(runs: List[Dict[str, Any]],
                   names: List[str]) -> Dict[str, Dict[str, float]]:
    out = {}
    for name in names:
        values = [r[name] for r in runs if r.get(name) is not None]
        if values:
            out[name] = {**ledgerstats.summarize(values),
                         "unit": unit_of(name)}
    return out


def print_summary(kind: str, workload: str,
                  summary: Dict[str, Dict[str, float]]) -> None:
    print(f"{workload} ({kind}):")
    for name, s in summary.items():
        print(f"  {name:<30} median {ledgerstats.fmt(s['median']):>10} "
              f"[{ledgerstats.fmt(s['q1'])} .. {ledgerstats.fmt(s['q3'])}] "
              f"{s['unit']} (n={s['n']})")


def write_ledger(path: str, document: Dict[str, Any]) -> None:
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w") as fp:
        json.dump(document, fp, indent=1, sort_keys=True)
        fp.write("\n")
    print(f"wrote {path}")


def cmd_run(args, kind: str) -> int:
    check_program()
    workloads = args.workload or list(spec.WORKLOAD_NAMES)
    seconds = SMOKE_SECONDS if args.smoke else args.seconds
    runs = 1 if args.smoke else args.runs
    document: Dict[str, Any] = {
        "format": "perfledger", "version": 1, "kind": kind,
        "created": time.time(), "host": host(), "seed": args.seed,
        "seconds": seconds, "smoke": args.smoke, "workloads": {},
    }
    incorrect = []
    for workload in workloads:
        results = []
        for i in range(runs):
            seed = args.seed + i
            if kind == "trace":
                result = measure_layers(workload, seed, seconds, args.smoke)
            else:
                result = measure(workload, seed, seconds, args.smoke)
            results.append(result)
            failed = [c for c in result["checks"] if not c["ok"]]
            print(f"{workload} seed {seed}: "
                  + ("correct" if result["correct"] else "INCORRECT")
                  + (f" ({describe(result)})" if kind == "run" else ""),
                  flush=True)
            for c in failed:
                print(f"  [FAIL] {c['name']} — {c['detail']}")
                incorrect.append(f"{workload} seed {seed}: {c['name']}")
        names = e2e_names(workload) if kind == "run" else layer_names(workload)
        summary = summarize_runs(results, names)
        document["workloads"][workload] = {"runs": results,
                                           "summary": summary}
        print_summary(kind, workload, summary)
        if kind == "trace":
            print_layer_shares(results[0])
            coverage = [r["coverage_pct"] for r in results
                        if r["coverage_pct"] is not None]
            if len(coverage) > 1:
                print(f"  layer self times over untraced cost: median "
                      f"{statistics.median(coverage):.1f}% "
                      f"(min {min(coverage):.1f}%, max {max(coverage):.1f}%, "
                      f"{len(coverage)} runs)")
    write_ledger(args.out or os.path.join(STATE, f"{kind}.json"), document)
    if incorrect:
        print("correctness gate FAILED: " + "; ".join(incorrect),
              file=sys.stderr)
        return 1
    return 0


def print_layer_shares(result: Dict[str, Any]) -> None:
    totals = result["layer_totals"]
    own = {name: v["self_s"] for name, v in totals["layers"].items()}
    total = sum(own.values()) or 1.0
    ranked = sorted(own.items(), key=lambda kv: -kv[1])
    print(f"  self-time shares over {totals['processes']} process(es): "
          + ", ".join(f"{name} {seconds / total * 100:.1f}%"
                      for name, seconds in ranked))
    print(f"  probe bookkeeping {totals['probe_s']:.2f}s beside "
          f"{total:.2f}s of layer self time")
    if result["coverage_pct"] is not None:
        print(f"  layer self times sum to {result['coverage_pct']:.1f}% of "
              f"the untraced cost of the same trials")
    print(f"  trace: {result.get('trace_path')}")


def load_ledger(path: str) -> Dict[str, Any]:
    with open(path) as fp:
        document = json.load(fp)
    if document.get("format") != "perfledger":
        raise BenchError(f"{path} is not a perfledger file")
    return document


def layer_record(document: Dict[str, Any], workload: str, label: str):
    """A ``RunRecord`` whose phases are the layers' median self times, in
    seconds per thousand trials, for ``repro.obs.registry.diff_runs``."""
    from repro.obs.registry import RunRecord

    entry = document["workloads"][workload]
    phases = {
        name[: -len(".self_us")]: s["median"] / 1000
        for name, s in entry["summary"].items() if name.endswith(".self_us")
    }
    pinned = [r["digest"] for r in entry["runs"]
              if r.get("seed") == DEFAULT_SEED]
    return RunRecord(
        run_id=f"{label}:{workload}", experiment=workload,
        fingerprint=f"{workload}:seed{document['seed']}",
        n_trials=1000, n_records=1000, wall_seconds=sum(phases.values()),
        phase_seconds=phases, records_digest=pinned[0] if pinned else "",
    )


def cmd_compare(args) -> int:
    a, b = load_ledger(args.baseline), load_ledger(args.candidate)
    if a.get("kind") == b.get("kind") == "trace":
        check_program()
        sys.path.insert(0, SRC)  # layer diffs go through repro.obs.registry
    fmt = ledgerstats.fmt
    print("metric: baseline median [q1..q3] -> candidate median [q1..q3] "
          "unit, change (+ = better), verdict (bound)")
    worse = []
    for workload in spec.WORKLOAD_NAMES:
        if workload not in a["workloads"] or workload not in b["workloads"]:
            continue
        ra, rb = a["workloads"][workload], b["workloads"][workload]
        print(f"{workload}:")
        for name in ra["summary"]:
            m = spec.METRICS[name]
            if m.bound is None or name not in rb["summary"]:
                continue
            va = [r[name] for r in ra["runs"] if r.get(name) is not None]
            vb = [r[name] for r in rb["runs"] if r.get(name) is not None]
            verdict, change = ledgerstats.verdict(va, vb, m.better, m.bound,
                                                  m.absolute)
            sa, sb = ra["summary"][name], rb["summary"][name]
            change_text = (f"{change + 0.0:+.4g}" if m.absolute
                           else f"{change * 100:+.1f}%")
            bound_text = "any" if m.absolute else f"{m.bound:.0%}"
            print(f"  {name:<24} {fmt(sa['median']):>8} "
                  f"[{fmt(sa['q1'])}..{fmt(sa['q3'])}] -> "
                  f"{fmt(sb['median']):>8} [{fmt(sb['q1'])}..{fmt(sb['q3'])}]"
                  f" {m.unit:<12} {change_text:>7}  "
                  f"{verdict.upper() if verdict == 'worse' else verdict}"
                  f" ({bound_text})")
            if verdict == "worse":
                worse.append(f"{workload} {name}")
        if a.get("kind") == b.get("kind") == "trace":
            from repro.obs.registry import diff_runs, render_run_diff

            diff = diff_runs(layer_record(a, workload, "A"),
                             layer_record(b, workload, "B"))
            print("  layer self times (reference seconds per 1000 trials):")
            for line in render_run_diff(diff, LAYER_FLAG_PCT) \
                    .splitlines()[1:]:
                print("  " + line)
    if worse:
        print("REGRESSION: " + "; ".join(worse), file=sys.stderr)
        return 1
    return 0


# ----------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ledger.py", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    bench = sub.add_parser("bench", help="one run of one workload")
    bench.add_argument("--workload", required=True,
                       choices=spec.WORKLOAD_NAMES)
    bench.add_argument("--seed", type=int, default=DEFAULT_SEED)
    bench.add_argument("--seconds", type=float, default=RUN_SECONDS)
    bench.add_argument("--trace", type=int, choices=(0, 1), default=0)

    for name, text in (("run", "measure every workload --runs times"),
                       ("trace", "traced runs: per-layer numbers")):
        p = sub.add_parser(name, help=text)
        p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                       help="seed of the first run; run i uses seed + i")
        p.add_argument("--runs", type=int, default=5 if name == "run" else 1)
        p.add_argument("--seconds", type=float, default=RUN_SECONDS)
        p.add_argument("--workload", action="append",
                       choices=spec.WORKLOAD_NAMES,
                       help="repeatable; default: all four")
        p.add_argument("--smoke", action="store_true",
                       help="one short run per workload, gate on")
        p.add_argument("--out", help=f"ledger JSON (default "
                       f".perfledger/{name}.json)")

    compare = sub.add_parser("compare", help="verdicts between two ledgers")
    compare.add_argument("baseline")
    compare.add_argument("candidate")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "bench":
            return cmd_bench(args)
        if args.command == "compare":
            return cmd_compare(args)
        return cmd_run(args, args.command)
    except BenchError as exc:
        print(f"perfledger: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
