#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1> [--tiny]

Run it from the repository root. The first run configures and builds a
Release tree under $CARGO_TARGET_DIR (default .bench_build)/perfbench;
later runs reuse it. The last line of stdout is the result object
{"correct", "attempted", "failed", "metrics"}, checked here against the
metric names and units declared in BENCHMARK.json. The exit code is 0 only
when the build succeeded, the program's correctness checks passed and the
result matches the declaration.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("te_periodic", "telemetry_sweep", "mc_b4")
# A run must finish within 180 s; leave room for start-up and the checks.
RUN_TIMEOUT_S = 170


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build(build_dir):
    """Configures (once) and builds the benchmark; returns the binary."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not (build_dir / "CMakeCache.txt").exists():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = ["cmake", "-S", str(HERE), "-B", str(build_dir),
                     "-DCMAKE_BUILD_TYPE=Release"] + generator
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return None
    compile_cmd = ["cmake", "--build", str(build_dir), "-j", jobs]
    if subprocess.run(compile_cmd, stdout=sys.stderr).returncode != 0:
        return None
    return build_dir / "perfbench"


def declared_metrics(trace):
    """Name -> unit of the metrics BENCHMARK.json declares for this mode."""
    with open(ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def check_result(line, expected):
    """Returns a list of problems with the printed result object."""
    try:
        result = json.loads(line)
    except json.JSONDecodeError as e:
        return [f"last line is not JSON: {e}"]
    problems = []
    if not isinstance(result, dict) or set(result) != {
            "correct", "attempted", "failed", "metrics"}:
        return ["result keys must be correct, attempted, failed, metrics"]
    if not isinstance(result["correct"], bool):
        problems.append("correct is not a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or isinstance(result[key], bool):
            problems.append(f"{key} is not a whole number")
    if isinstance(result["attempted"], int) and result["attempted"] < 1:
        problems.append("attempted < 1")
    metrics = result["metrics"]
    if not isinstance(metrics, dict):
        return problems + ["metrics is not an object"]
    if set(metrics) != set(expected):
        missing = sorted(set(expected) - set(metrics))
        extra = sorted(set(metrics) - set(expected))
        problems.append(f"metric set differs: missing {missing}, extra {extra}")
    for name, unit in expected.items():
        m = metrics.get(name)
        if not isinstance(m, dict) or set(m) != {"value", "unit"}:
            continue
        if m["unit"] != unit:
            problems.append(f"{name}: unit {m['unit']!r}, declared {unit!r}")
        value = m["value"]
        if (not isinstance(value, (int, float)) or isinstance(value, bool)
                or not math.isfinite(value)):
            problems.append(f"{name}: value {value!r} is not a finite number")
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--tiny", action="store_true",
                        help="self-test size: a few operations per workload")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")

    build_root = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build_root.is_absolute():
        build_root = ROOT / build_root
    binary = build(build_root / "perfbench")
    if binary is None or not binary.exists():
        log("perfbench: build failed")
        return 2

    command = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", repr(args.seconds),
               "--trace", str(args.trace)]
    if args.trace:
        trace_dir = build_root / "perfbench" / "traces"
        trace_dir.mkdir(parents=True, exist_ok=True)
        command += ["--trace-out",
                    str(trace_dir / f"{args.workload}-seed{args.seed}.jsonl")]
    if args.tiny:
        command.append("--tiny")
    try:
        proc = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"perfbench: run exceeded {RUN_TIMEOUT_S} s")
        return 4

    lines = proc.stdout.rstrip("\n").split("\n")
    last = lines[-1] if lines else ""
    for line in lines[:-1]:
        print(line)
    if not last.startswith("{"):
        print(last)
        log(f"perfbench: no result (exit code {proc.returncode})")
        return proc.returncode or 3
    problems = check_result(last, declared_metrics(args.trace))
    if problems:
        for p in problems:
            log("perfbench: " + p)
        return 3
    print(last, flush=True)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
