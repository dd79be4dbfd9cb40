"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py

Runs every workload at the tiny size, untraced and traced, and checks
that each run exits 0, emits every metric BENCHMARK.json names for that
mode and no other, and answers every query correctly (fail ratio 0).
Takes a few seconds.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    wanted = {
        0: {m["name"] for m in spec["end_to_end"]},
        1: {m["name"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                   "--seed", "1", "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
            label = f"{workload} trace={trace}"
            if proc.returncode != 0:
                problems.append(f"{label}: exit {proc.returncode}: {proc.stderr[-500:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            emitted = set(result["metrics"])
            if emitted != wanted[trace]:
                problems.append(f"{label}: missing {sorted(wanted[trace] - emitted)}, "
                                f"unexpected {sorted(emitted - wanted[trace])}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{label}: failed {result['failed']} of {result['attempted']}")
            print(f"{label}: {result['attempted']} queries, {result['failed']} failed, "
                  f"{len(emitted)} metrics", flush=True)
    for problem in problems:
        print(f"FAIL {problem}")
    print("smoke: " + ("FAIL" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
