"""The filteralg benchmark driver.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0

Load model: closed loop, one client.  This process starts one child
interpreter at a time (``child.py``); each child imports ``filteralg``
cold, generates the workload's inputs from the seed and runs its
queries in sequence, with no extra threads or processes.  Passes repeat
until the next one would end after ``--seconds``; at least two run
(one untraced and one traced with ``--trace 1``).  So a run takes about
``--seconds`` whatever the speed of the machine.

With ``--trace 0`` the result holds the end-to-end metrics, as medians
over the run's children:

* ``setup_s``: child start to ready-to-query (interpreter start,
  ``import filteralg``, inputs generated, filter files written);
  setup-only children add samples so the median rests on at least 15;
* ``wall_s``: first query issued to last answer checked, one pass;
* ``peak_rss_mb``: peak resident memory of the child.

With ``--trace 1`` untraced and traced passes alternate and the result
holds the per-layer metrics of the traced ones, plus
``trace.overhead_s``, the traced minus the untraced median ``wall_s``.

Every answer is checked; ``failed / attempted`` is the fail ratio.  The
last line of output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it are for people.  The
driver reads and writes only inside the checkout (``.perfbench_out``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import workloads
from tracer import LAYER_METRICS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUTDIR = os.path.join(ROOT, ".perfbench_out")
CHILD = os.path.join(HERE, "child.py")

MIN_SETUP_SAMPLES = 15
MIN_PASSES = 2
# A run must end within 180 s; leave room for the setup probes.
DEADLINE_S = 160


class ChildFailed(RuntimeError):
    pass


def run_child(workload, seed, size, trace, setup_only, deadline) -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("FILTERALG_DIM_CAP", None)  # default caps only
    cmd = [sys.executable, CHILD, workload, str(seed), size,
           "1" if trace else "0", "1" if setup_only else "0", OUTDIR]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(1.0, deadline - spawned))
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"{workload} pass did not finish before the deadline") from None
    if proc.returncode != 0:
        raise ChildFailed(f"{workload} child exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    record["setup_s"] = record["ready"] - spawned
    return record


def run_workload(workload: str, seed: int, seconds: int, trace: bool, size: str) -> dict:
    start = time.monotonic()
    deadline = start + DEADLINE_S
    # Unmeasured warm-up: byte-compiles the package in a fresh checkout.
    run_child(workload, seed, size, False, True, deadline)
    plain, traced = [], []
    while True:
        kind = traced if trace and len(traced) < len(plain) else plain
        rec = run_child(workload, seed, size, kind is traced, False, deadline)
        kind.append(rec)
        print(f"  pass {'traced' if kind is traced else 'plain '} wall_s={rec['wall_s']:.4f} "
              f"setup_s={rec['setup_s']:.4f} peak_rss_mb={rec['peak_rss_mb']:.2f} "
              f"failed={rec['failed']}/{rec['attempted']}", flush=True)
        for err in rec["errors"]:
            print(f"    failed: {err}", flush=True)
        enough = len(traced) >= 1 and len(plain) >= 1 if trace else len(plain) >= MIN_PASSES
        next_kind = traced if trace and len(traced) < len(plain) else plain
        estimate = statistics.median(r["wall_s"] + r["setup_s"] for r in next_kind or plain)
        if enough and time.monotonic() - start + estimate > seconds:
            break
    passes = plain + traced
    setups = [r["setup_s"] for r in passes]
    while len(setups) < MIN_SETUP_SAMPLES:
        setups.append(run_child(workload, seed, size, False, True, deadline)["setup_s"])
    attempted = sum(r["attempted"] for r in passes)
    failed = sum(r["failed"] for r in passes)
    wall = statistics.median(r["wall_s"] for r in plain)
    if trace:
        metrics = {}
        for name, unit in LAYER_METRICS:
            if name == "trace.overhead_s":
                value = statistics.median(r["wall_s"] for r in traced) - wall
            else:
                value = statistics.median(r["layers"][name] for r in traced)
            metrics[name] = {"value": value, "unit": unit}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "wall_s": {"value": wall, "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(r["peak_rss_mb"] for r in plain), "unit": "MiB"},
        }
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "fail_ratio": failed / attempted,
        "passes": len(plain),
    }


def git_sha() -> str:
    """The checkout's commit, read from .git without running git."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(ROOT, ".git", ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def metadata(args) -> dict:
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "seed": args.seed,
        "seconds": args.seconds,
        "size": args.size,
        "trace": args.trace,
    }


def summary_line(workload: str, res: dict) -> str:
    parts = [f"{workload}:"]
    for name, m in res["metrics"].items():
        parts.append(f"{name}={m['value']:.6g} {m['unit']}")
    parts.append(f"fail_ratio={res['fail_ratio']:.6g} (failed {res['failed']} of "
                 f"{res['attempted']} queries, {res['passes']} passes)")
    return " ".join(parts)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=workloads.SIZES, default="full",
                        help="tiny runs a cut-down query list, for the smoke test")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "filteralg", "__init__.py")):
        print(f"error: no filteralg package under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    os.makedirs(OUTDIR, exist_ok=True)
    print("meta " + json.dumps(metadata(args)), flush=True)
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            print(f"{name}:", flush=True)
            results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace), args.size)
            print(summary_line(name, results[name]), flush=True)
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    keys = ("correct", "attempted", "failed", "metrics")
    if args.workload == "all":
        print(json.dumps({name: {k: res[k] for k in keys} for name, res in results.items()}))
    else:
        print(json.dumps({k: results[args.workload][k] for k in keys}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
