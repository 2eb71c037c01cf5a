#!/usr/bin/env python3
"""Builds bench_system from source and runs one workload.

    python3 bench/system/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 bench/system/run.py --smoke [--binary <path>] [--workload <name>]

The normal form prints the bench_system JSON line (host identity, counts,
every measured metric) and then, as the last line, the summary
{"correct", "attempted", "failed", "metrics"} holding the end_to_end metrics
of BENCHMARK.json (--trace 0) or its per_layer metrics (--trace 1). The
build goes to $CARGO_TARGET_DIR (default .bench_build) under the checkout
root. --smoke runs every workload shrunken and checks that each metric
BENCHMARK.json lists is emitted and that no answer is wrong.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
WORKLOADS = ["rwr-interactive", "rank-global", "mixed-small", "graph-churn"]
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "bench_system"


def build():
    """Configures once, then builds the bench_system target; returns its path."""
    out = build_dir()
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not any((out / f).exists() for f in ("Makefile", "build.ninja")):
        steps.append(["cmake", "-S", str(ROOT / "bench" / "system"), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "--target", "bench_system", "-j", jobs])
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only results.
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=max(1.0, deadline - time.monotonic()))
        if done.returncode != 0:
            raise SystemExit(f"run.py: build step failed: {' '.join(cmd)}")
    return out / "bench_system"


def run_binary(binary, flags):
    """Runs bench_system; returns its last stdout line parsed as JSON."""
    cmd = [str(binary)] + flags
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"run.py: {' '.join(cmd)} exited {done.returncode}")
    return lines[-1], json.loads(lines[-1])


def metric_names(kind):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec[kind]]


def summary(result, names):
    missing = [n for n in names if n not in result["metrics"]]
    if missing:
        raise SystemExit(f"run.py: {result['workload']} did not report {missing}")
    return {
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {n: {"value": result["metrics"][n]["value"],
                        "unit": result["metrics"][n]["unit"]} for n in names},
    }


def run_one(args, binary):
    work = build_dir() / "work" / f"{args.workload}-{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    flags = [f"--workload={args.workload}", f"--seed={args.seed}",
             f"--seconds={args.seconds}", f"--data={work}"]
    if args.trace:
        # A fresh ceiling per traced run, in its own process, so the triad
        # arrays never count toward a workload's peak RSS.
        host_json = work / "host.json"
        run_binary(binary, ["--workload=host", f"--host={host_json}"])
        trace_dir = build_dir() / "trace" / args.workload
        flags += [f"--trace={trace_dir}", f"--host={host_json}"]
    line, result = run_binary(binary, flags)
    shutil.rmtree(work, ignore_errors=True)
    if args.save_dir:
        save = Path(args.save_dir)
        save.mkdir(parents=True, exist_ok=True)
        name = f"{args.workload}-s{args.seed}-t{args.trace}-{time.time_ns()}.json"
        (save / name).write_text(line + "\n")
    print(line)
    print(json.dumps(summary(result, metric_names("per_layer" if args.trace else "end_to_end"))),
          flush=True)


def run_smoke(args, binary):
    work = Path.cwd() / "bench_system_smoke"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    host_json = work / "host.json"
    run_binary(binary, ["--workload=host", "--smoke", f"--host={host_json}"])
    wanted = metric_names("end_to_end") + metric_names("per_layer")
    failures = 0
    for workload in [args.workload] if args.workload else WORKLOADS:
        _, result = run_binary(binary, [f"--workload={workload}", "--seed=1", "--smoke",
                                        f"--data={work}", f"--trace={work / workload}",
                                        f"--host={host_json}"])
        missing = [n for n in wanted if n not in result["metrics"]]
        ok = not missing and result["wrong"] == 0 and result["correct"]
        failures += not ok
        print(f"{'PASS' if ok else 'FAIL'} {workload}: {result['checked']} answers checked, "
              f"{result['wrong']} wrong, missing metrics {missing}", flush=True)
    shutil.rmtree(work, ignore_errors=True)
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--binary", help="use this bench_system instead of building")
    parser.add_argument("--save-dir", help="also write the full JSON line here (compare.py input)")
    args = parser.parse_args()
    if not args.smoke and not args.workload:
        parser.error("--workload is required")
    binary = Path(args.binary) if args.binary else build()
    if args.smoke:
        return run_smoke(args, binary)
    run_one(args, binary)
    return 0


if __name__ == "__main__":
    sys.exit(main())
