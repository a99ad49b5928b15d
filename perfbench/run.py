"""Benchmark of the kakeya package: certified search, construct/verify, CLI.

Run from the repository root:

    python3 perfbench/run.py --workload search-proven --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all

One run sets up seven times, each a fresh-interpreter import of the package
plus the seeded inputs, and reports the median set-up time.  It then
repeats timed passes over them for --seconds (at least three), checks every
output, and prints the metrics named in BENCHMARK.json.  Every time is busy
CPU time scaled to a reference speed (see busyclock.py): the machine is
shared, and both waiting for a CPU and the speed of the CPU change with
its neighbours' load.  Each operation's time is the median over the run's
passes and verify rounds.  A metric sums those times over its operations;
the near-miss percentiles are taken over the 50 near-misses of a pass.
--trace 0 prints the end-to-end metrics; --trace 1 alternates untraced and
traced passes and prints the per-layer metrics, each the median over the
traced passes, with the tracing overhead.
The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from busyclock import CLOCK

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_REPEATS = 7
MEASURE_CAP_S = 120.0  # stop adding passes past this, whatever the minimum


def _environment() -> dict:
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "cpu": cpu,
        "commit": _git_commit(),
    }


def _git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def nearest_rank(samples: list[float], pct: int) -> float:
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


def import_seconds() -> float:
    """Busy time to import the package in a fresh interpreter."""
    code = ("import sys; sys.path[:0] = sys.argv[1:3]; from busyclock import CLOCK\n"
            "with CLOCK.installed():\n"
            "    t = CLOCK.start(); import kakeya.cli; print(CLOCK.since(t))")
    out = subprocess.run([sys.executable, "-c", code, str(SRC), str(HERE)], cwd=ROOT, check=True,
                         stdout=subprocess.PIPE, text=True, timeout=60)
    return float(out.stdout)


def measure(workload, seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    """One benchmark run: set-ups, timed passes, checks; returns the result."""
    try:
        with CLOCK.installed():
            return _timed_run(workload, seed, seconds, trace, workdir)
    finally:
        gc.unfreeze()


def _timed_run(workload, seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    import spans
    import workloads

    tracer = spans.Tracer() if trace else None
    tally = workloads.Tally()
    setup_times = []
    for k in range(SETUP_REPEATS):
        import_s = 0.0 if trace else import_seconds()
        gc.collect()
        t0 = CLOCK.start()
        if tracer is not None:
            tracer.phase = ("setup", k)
            with tracer.installed():
                inputs = workloads.setup(workload, seed, workdir)
            tracer.phase = None
        else:
            inputs = workloads.setup(workload, seed, workdir)
        setup_times.append(import_s + CLOCK.since(t0))
    # The inputs stay alive for the whole run; keep them out of the
    # collector's way so the program's own collections do not scan them.
    gc.collect()
    gc.freeze()

    min_passes = 4 if trace else 3
    passes: list = []
    traced_phases = []
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if passes and (elapsed > MEASURE_CAP_S or len(passes) >= min_passes
                       and elapsed * (len(passes) + 1) / len(passes) > seconds):
            break  # the next pass would end past --seconds
        gc.collect()
        index = len(passes)
        if tracer is not None and index % 2 == 1:
            p = workloads.Pass(tally, tracer, index)
            with tracer.installed():
                p.run(inputs)
            traced_phases.append(index)
        else:
            p = workloads.Pass(tally)
            p.run(inputs)
        passes.append(p)

    typical = {key: statistics.median(dt for p in passes for dt in p.samples.get(key, ()))
               for key in passes[0].samples}
    rejects_ms = [1000.0 * dt for (metric, _), dt in typical.items() if metric == "reject"]
    if tracer is not None:
        busy = [sum(map(sum, p.samples.values())) for p in passes]
        metrics = spans.layer_metrics(tracer, [("setup", k) for k in range(SETUP_REPEATS)],
                                      traced_phases)
        metrics["trace.overhead_ratio"] = (
            statistics.median(busy[i] for i in traced_phases)
            / statistics.median(b for i, b in enumerate(busy) if i not in traced_phases))
    else:
        metrics = {"setup_s": statistics.median(setup_times)}
        for name in workloads.PASS_METRICS:
            metrics[name] = sum(dt for (metric, _), dt in typical.items() if metric == name)
        # with no near-miss timed, the run is already marked incorrect
        metrics["verify_reject_p50_ms"] = statistics.median(rejects_ms) if rejects_ms else 0.0
        metrics["verify_reject_p80_ms"] = nearest_rank(rejects_ms, 80) if rejects_ms else 0.0
    return {
        "metrics": metrics,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "messages": tally.messages,
        "passes": len(passes),
        "elapsed_s": elapsed,
        "reject_samples": len(rejects_ms),
        "nodes": passes[-1].nodes,
    }


def _units(bench: dict) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}


def _run_all(args, bench: dict) -> int:
    """Run every workload in its own process and print one combined line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in bench["workloads"]:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", w["name"],
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
        lines = out.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if out.returncode != 0 or not lines:
            print(f"error: workload {w['name']} exited with {out.returncode}", file=sys.stderr)
            return 1
        res = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for name, m in res["metrics"].items():
            combined["metrics"][f"{w['name']}/{name}"] = m
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "kakeya" / "__init__.py").is_file():
        print(f"error: no kakeya sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return _run_all(args, bench)

    sys.path[:0] = [str(SRC), str(HERE)]
    import workloads

    workdir = ROOT / ".perfbench_work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        res = measure(workloads.WORKLOADS[args.workload], args.seed, args.seconds,
                      bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    units = _units(bench)
    wanted = [m["name"] for m in bench["per_layer" if args.trace else "end_to_end"]]
    share = res["failed"] / res["attempted"]
    print(f"# workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{res['passes']} passes in {res['elapsed_s']:.1f} s")
    print(f"# env {json.dumps(_environment())}")
    print(f"# search nodes per cell {json.dumps(res['nodes'])}")
    if not args.trace:
        print(f"# near-miss rejections: {res['reject_samples']} samples, each the median "
              f"over {res['passes']} passes; p80 leaves ten samples beyond it at 50")
    else:
        print("# core.point_evals is computed from input sizes and verdicts, not counted")
    for msg in res["messages"]:
        print(f"# FAILED {msg}", file=sys.stderr)
    for name in wanted:
        print(f"{name} = {res['metrics'][name]:.6g} {units[name]}")
    print(f"failed_share = {share:.6g} ({res['failed']}/{res['attempted']})")
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": res["metrics"][name], "unit": units[name]}
                    for name in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
