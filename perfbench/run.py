#!/usr/bin/env python3
"""Build the benchmark and run one workload.

    python3 perfbench/run.py --workload summa-2d --seed 1 --seconds 35 --trace 0

Run from the repository root. The first run configures and builds
perfbench/ (the CAGNET library from src/ plus the benchmark program) under
$CARGO_TARGET_DIR or .bench_build/; later runs only rebuild what changed.

Prints a human-readable table, then, as the last line of standard output,
one JSON object: {"correct", "attempted", "failed", "metrics"}. With
--trace 0 the metrics are the end_to_end list of BENCHMARK.json, with
--trace 1 the per_layer list. The exit code is nonzero when a check failed,
an epoch threw, or the build failed.

Extra flags:
  --record FILE   append the full result (all metrics and the host stamp)
                  as one JSON line, the input format of perfbench/compare.py
  --self-test     build and run perfbench_selftest instead of a workload
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time

BENCH_DIR = "perfbench"
# The whole run, build check included, must end well inside 180 s.
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    return os.path.join(os.environ.get("CARGO_TARGET_DIR") or ".bench_build",
                        "perfbench-cmake")


def build(target):
    """Configure once, then build `target`; all output goes to stderr."""
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    # A configure that failed leaves a cache but no build system behind.
    if not any(os.path.exists(os.path.join(out, f))
               for f in ("Makefile", "build.ninja")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs, "--target", target])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if proc.returncode != 0:
            fail(f"build step failed: {' '.join(cmd)}")
    return os.path.join(out, target)


def load_benchmark():
    try:
        with open("BENCHMARK.json") as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")


def git_commit():
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def source_digest():
    """sha256 over src/ and perfbench/ sources: identifies the code measured
    when the checkout is not a git repository."""
    h = hashlib.sha256()
    for root in ("src", BENCH_DIR):
        for dirpath, dirnames, filenames in os.walk(root):
            dirnames.sort()
            for name in sorted(filenames):
                if not name.endswith((".cpp", ".hpp", ".txt", ".py")):
                    continue
                path = os.path.join(dirpath, name)
                h.update(path.encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def fmt(value):
    if value == 0 or 1e-3 <= abs(value) < 1e7:
        return f"{value:.6g}"
    return f"{value:.4e}"


def print_table(result, names):
    metrics = result["metrics"]
    stamp = result["stamp"]
    print(f"workload {result['workload']}  seed {result['seed']}  "
          f"trace {result['trace']}  measured epochs "
          f"{result['measured_epochs']}")
    print("stamp " + json.dumps(stamp, sort_keys=True))
    print(f"{'metric':40s} {'value':>14s}  unit")
    for name, m in metrics.items():
        mark = "*" if name in names else " "
        print(f"{mark}{name:39s} {fmt(m['value']):>14s}  {m['unit']}")
    print("(* = reported in the result line)")
    if result["trace"]:
        print_layer_table(metrics)


def print_layer_table(metrics):
    """Self time and call counts per layer on the slowest rank, per epoch;
    the rows add up to core.engine.epoch_s."""
    epoch = metrics["core.engine.epoch_s"]["value"]
    rows = [("core.engine.self", metrics["core.engine.self_s"]["value"], "")]
    rows.append(("core.sampler", metrics["core.sampler.s"]["value"], ""))
    for name in metrics:
        if name.startswith("core.algebra.") and name.endswith("_s"):
            op = name[len("core.algebra."):-2]
            calls = metrics[f"core.algebra.{op}.calls"]["value"]
            rows.append((f"core.algebra.{op}", metrics[name]["value"],
                         fmt(calls)))
    total = sum(r[1] for r in rows)
    print(f"\nper-layer self time per epoch, slowest rank "
          f"(epoch {epoch * 1e3:.3f} ms)")
    print(f"{'layer':34s} {'ms':>10s} {'share':>7s} {'calls':>6s}")
    for name, secs, calls in rows:
        share = secs / epoch if epoch > 0 else 0.0
        print(f"{name:34s} {secs * 1e3:10.3f} {share:7.1%} {calls:>6s}")
    print(f"{'sum':34s} {total * 1e3:10.3f} "
          f"{(total / epoch if epoch > 0 else 0.0):7.1%}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    started = time.monotonic()

    if args.self_test:
        binary = build("perfbench_selftest")
        sys.exit(subprocess.run([binary]).returncode)

    spec = load_benchmark()
    names = {m["name"]: m["unit"] for m in
             spec["per_layer" if args.trace else "end_to_end"]}
    workloads = [w["name"] for w in spec["workloads"]]
    if args.workload not in workloads:
        fail(f"unknown workload {args.workload!r}; choose from {workloads}")

    binary = build("perfbench")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        trace_dir = os.path.join(os.path.dirname(build_dir()), "traces")
        os.makedirs(trace_dir, exist_ok=True)
        trace_path = os.path.join(
            trace_dir, f"{args.workload}-seed{args.seed}.json")
        cmd += ["--trace-out", trace_path]
    remaining = RUN_TIMEOUT_S - (time.monotonic() - started)
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=max(remaining, 60))
    except subprocess.TimeoutExpired:
        fail("workload timed out", 4)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail(f"no result from {binary} (exit {proc.returncode})", 3)

    result["stamp"]["commit"] = git_commit()
    result["stamp"]["source_sha256"] = source_digest()
    print_table(result, names)
    if args.trace:
        print(f"chrome trace: {trace_path}")
    if args.record:
        with open(args.record, "a") as f:
            f.write(json.dumps(result, sort_keys=True) + "\n")

    correct = bool(result["correct"]) and proc.returncode == 0
    metrics = {}
    if correct:
        for name, unit in names.items():
            m = result["metrics"].get(name)
            if m is None or m["unit"] != unit:
                fail(f"metric {name} missing or not in {unit}", 3)
            metrics[name] = {"value": m["value"], "unit": unit}
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
