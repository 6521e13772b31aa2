"""Benchmark of platehom's cell, thin-plate and limit-plate solves.

One workload, as the last stdout line a JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` (end-to-end metrics with
``--trace 0``, per-layer metrics with ``--trace 1``)::

    python3 perfbench/run.py --workload cell-sweep --seed 0 --seconds 20 --trace 0

Every workload, each in a fresh process, untraced and traced, with a table
of all metrics::

    python3 perfbench/run.py --workload all --seed 0

Run it from anywhere; it reads the program from ``src/`` of the checkout
that holds this directory and writes only under ``.bench_out/`` there.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import common

common.pin_threads()

import inputs  # noqa: E402  (imports numpy, after the thread pinning)
import spans  # noqa: E402
from workloads import WORKLOADS, Round  # noqa: E402

SETUP_REPEATS = 5
CHILD_TIMEOUT_S = 600

TRACED_MODULES = ("algebra", "microstructure", "fem3d", "cell", "plate2d",
                  "convergence", "gclosure", "cli")


def declared_units(kind: str) -> dict[str, str]:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics."""
    doc = json.loads((common.ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in doc[kind]}


def digests(root: Path) -> dict[str, str]:
    """SHA-256 of every file under ``root`` except manifests (which carry a
    timestamp), by relative path."""
    return {str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*"))
            if p.is_file() and p.name != "manifest.json"}


def spawn_and_wait(argv: list[str]) -> None:
    """Run ``argv`` to completion, killed after CHILD_TIMEOUT_S.

    ``Popen.wait`` with a timeout polls in steps of up to 50 ms, which would
    quantize the set-up times; a timer does the killing instead.
    """
    proc = subprocess.Popen(argv)
    killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    killer.start()
    try:
        rc = proc.wait()
    finally:
        killer.cancel()
    if rc != 0:
        raise subprocess.CalledProcessError(rc, argv)


def set_up(name: str, seed: int, work: Path, repeats: int) -> tuple[float, Path]:
    """Median wall time of ``repeats`` fresh processes that each import the
    program and write the inputs; returns it with the first inputs."""
    times, dirs = [], []
    for k in range(repeats):
        d = work / f"setup{k}"
        t0 = time.perf_counter()
        spawn_and_wait([sys.executable, str(common.HERE / "inputs.py"),
                        "--workload", name, "--seed", str(seed), "--out", str(d)])
        times.append(time.perf_counter() - t0)
        dirs.append(d)
    first = digests(dirs[0])
    if any(digests(d) != first for d in dirs[1:]):
        raise RuntimeError("set-ups wrote different inputs for one seed")
    return statistics.median(times), dirs[0]


def play(rnd: Round, ops, tracer: spans.Tracer | None, platehom) -> None:
    """Run one round's operations, timing each one."""
    modules = [getattr(platehom, m) for m in TRACED_MODULES]
    for op in ops:
        traced = tracer is not None and op.timed
        if traced:
            tracer.install(modules, platehom.__name__)
        t0 = time.perf_counter()
        try:
            if traced:
                rnd.results[op.name] = tracer.run(f"bench.{op.name}", op.call)
            else:
                rnd.results[op.name] = op.call()
        except Exception as exc:  # a crashing operation is a failed one
            rnd.results[op.name] = exc
        rnd.times[op.name] = time.perf_counter() - t0
        if traced:
            tracer.uninstall()


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    platehom = common.import_program()
    work = common.OUT / f"{name}-s{seed}-p{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    setup_s, inp = set_up(name, seed, work, 1 if trace else SETUP_REPEATS)
    wl = WORKLOADS[name](platehom, inp, seed)

    # untraced rounds until the next one would overrun ``seconds``; a traced
    # run makes a warm-up round, an untraced one and a traced one
    rounds: list[Round] = []
    tracer = spans.Tracer() if trace else None
    start = time.perf_counter()
    while True:
        rnd = Round(out=work / f"round{len(rounds)}")
        ops = wl.ops(rnd.out)
        t0 = time.perf_counter()
        play(rnd, ops, tracer if trace and len(rounds) == 2 else None, platehom)
        rounds.append(rnd)
        elapsed = time.perf_counter() - start
        if trace:
            if len(rounds) == 3:
                break
        elif elapsed + (time.perf_counter() - t0) > seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    problems: list[str] = []
    for rnd in rounds:
        wl.check(rnd, problems)
    first = digests(rounds[0].out)
    if any(digests(r.out) != first for r in rounds[1:]):
        problems.append("artifacts differ between rounds")
    wl.final_check(problems)

    if trace:
        metrics = traced_metrics(name, seed, tracer, rounds, ops)
        units = declared_units("per_layer")
    else:
        metrics = {"setup_s": (setup_s, "s"),
                   "run_s": (statistics.median(r.timed_seconds(ops)
                                               for r in rounds), "s"),
                   "peak_rss_mb": (peak_rss_mb, "MB")}
        metrics.update({f"op_s.{op.name}": (statistics.median(
            r.times[op.name] for r in rounds), "s") for op in ops if op.timed})
        units = declared_units("end_to_end")
    # undeclared metrics (module detail, single operations) go to stderr
    for key, (value, unit) in sorted(metrics.items()):
        if key not in units:
            print(f"detail {key} {value:.6g} {unit}", file=sys.stderr)
    for key, unit in units.items():
        if key not in metrics:
            problems.append(f"declared metric {key} not measured")
        elif metrics[key][1] != unit:
            problems.append(f"metric {key} in {metrics[key][1]}, declared {unit}")
    shutil.rmtree(work)
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    return {
        "correct": not problems,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()
                    if k in units},
    }


def traced_metrics(name, seed, tracer, rounds, ops) -> dict:
    """Per-layer metrics of the traced round, checked to add up to it."""
    untraced, traced = rounds[1:]
    out = spans.layer_metrics(tracer.spans)
    run_s = traced.timed_seconds(ops)
    accounted = sum(v for k, (v, _) in out.items() if k.endswith(".self_s"))
    if abs(accounted - run_s) > 1e-3 * run_s:
        raise RuntimeError(f"layer self times sum to {accounted}, "
                           f"traced run took {run_s}")
    # the program's time outside the pooled solves and assemblies and the
    # command line, so that these five add up to trace.run_s
    out["other.self_s"] = (run_s - sum(out[k][0] for k in (
        "solve.pcg_s", "assemble.total_s", "cli.self_s", "bench.self_s")
        if k in out), "s")
    out["trace.run_s"] = (run_s, "s")
    out["trace.overhead_s"] = (run_s - untraced.timed_seconds(ops), "s")
    out["cli.artifact_bytes"] = (sum(
        p.stat().st_size for p in traced.out.rglob("*") if p.is_file()), "B")
    tracer.dump(common.OUT / f"trace-{name}-s{seed}.json")
    return out


def run_all(seed: int, seconds: float) -> int:
    """Each workload in a fresh process, untraced then traced."""
    results = {}
    for name in inputs.WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                 "--seed", str(seed), "--seconds", str(seconds),
                 "--trace", str(trace)],
                stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
            if proc.returncode != 0:
                print(f"{name} --trace {trace}: exit {proc.returncode}",
                      file=sys.stderr)
                return proc.returncode
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            results[f"{name}/trace{trace}"] = res
            print(f"\n{name} (trace {trace}): correct={res['correct']} "
                  f"attempted={res['attempted']} failed={res['failed']}")
            for key, m in res["metrics"].items():
                print(f"  {key:32s} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", default="all",
                   choices=("all", *inputs.WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0,
                   help="rounds start while they fit in this many seconds")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    try:
        if args.workload == "all":
            common.import_program()
            return run_all(args.seed, args.seconds)
        result = run_workload(args.workload, args.seed, args.seconds,
                              bool(args.trace))
    except common.MissingProgram as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
