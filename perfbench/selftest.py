#!/usr/bin/env python3
"""Fast self-test of the benchmark: a tiny-size run of every workload, untraced
and traced, on two seeds. Each run must exit 0, end with a result line that
parses, pass its correctness checks, and print every metric BENCHMARK.json
declares for its mode with the declared unit. Both seeds must print the same
metric set.

    python3 perfbench/selftest.py      # from the repository root
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("te_periodic", "telemetry_sweep", "mc_b4")
SEEDS = (7, 8)


def main():
    with open(ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    declared = {trace: {m["name"]: m["unit"]
                        for m in spec["per_layer" if trace else "end_to_end"]}
                for trace in (0, 1)}
    failures = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            names_by_seed = []
            for seed in SEEDS:
                label = f"{workload} trace={trace} seed={seed}"
                proc = subprocess.run(
                    [sys.executable, str(HERE / "run.py"), "--workload",
                     workload, "--seed", str(seed), "--seconds", "1",
                     "--trace", str(trace), "--tiny"],
                    cwd=ROOT, stdout=subprocess.PIPE, text=True)
                lines = proc.stdout.strip().split("\n")
                if proc.returncode != 0:
                    failures.append(f"{label}: exit code {proc.returncode}")
                    continue
                try:
                    result = json.loads(lines[-1])
                except json.JSONDecodeError:
                    failures.append(f"{label}: last line is not JSON")
                    continue
                if result.get("correct") is not True:
                    failures.append(f"{label}: correctness checks failed")
                metrics = result.get("metrics", {})
                for name, unit in declared[trace].items():
                    if name not in metrics:
                        failures.append(f"{label}: {name} not printed")
                    elif metrics[name].get("unit") != unit:
                        failures.append(f"{label}: {name} has unit "
                                        f"{metrics[name].get('unit')!r}")
                names_by_seed.append(sorted(metrics))
                print(f"ok   {label}: {len(metrics)} metrics", flush=True)
            if len(names_by_seed) == 2 and names_by_seed[0] != names_by_seed[1]:
                failures.append(f"{workload} trace={trace}: the two seeds "
                                "print different metric sets")
    for failure in failures:
        print("FAIL " + failure)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
