"""One pass of one workload, in a fresh interpreter so memo caches are cold.

    python3 perfbench/child.py WORKLOAD SEED SIZE TRACE SETUP_ONLY OUTDIR
    python3 perfbench/child.py --record

The first form imports ``filteralg`` from the checkout's ``src``,
generates the inputs (writing the filter files the CLI queries read),
then, unless SETUP_ONLY is 1, runs every query in sequence and checks
each answer.  It prints one JSON line: the monotonic time at which it
was ready to query, the pass wall time, its peak resident memory and
the query counts, plus the per-layer metrics when TRACE is 1.

``--record`` runs the fixed queries of every workload and size and
rewrites ``expected.json`` with their answers.
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import sys
import time

import workloads
from tracer import Tracer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def import_package():
    """Import ``filteralg`` from this checkout, never from elsewhere."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import filteralg
    import filteralg.cli  # noqa: F401  (cli is not imported by the package)

    if not os.path.abspath(filteralg.__file__).startswith(src + os.sep):
        raise ImportError(f"filteralg imported from {filteralg.__file__}, not {src}")
    return filteralg


def run_queries(fa, queries, expected, tracer=None) -> dict:
    """Run the queries in order, checking each answer; time the whole pass."""
    attempted = failed = cap_exceeded = 0
    errors = []
    start = time.perf_counter()
    for q in queries:
        attempted += 1
        try:
            answer = q.run()
            ok = q.check(answer) if q.check else workloads.canon(answer) == expected.get(q.qid)
            reason = "wrong answer"
        except fa.CapExceeded as exc:
            cap_exceeded += 1
            ok, reason = False, f"CapExceeded: {exc}"
        except Exception as exc:  # a failed query is counted, not fatal
            ok, reason = False, f"{type(exc).__name__}: {exc}"
        if not ok:
            failed += 1
            errors.append(f"{q.qid}: {reason}")
    wall_s = time.perf_counter() - start
    if tracer is not None:
        tracer.counts["oracle.cap_exceeded"] += cap_exceeded
    return {
        "wall_s": wall_s,
        "attempted": attempted,
        "failed": failed,
        "cap_exceeded": cap_exceeded,
        "errors": errors[:10],
    }


def one_pass(workload: str, seed: int, size: str, trace: bool, setup_only: bool, outdir: str) -> dict:
    fa = import_package()
    tmpdir = os.path.join(outdir, f"tmp-{os.getpid()}")
    os.makedirs(tmpdir)
    try:
        queries = workloads.build(fa, workload, seed, size, tmpdir)
        expected = workloads.load_expected()
        record = {"ready": time.monotonic()}
        if setup_only:
            return record
        tracer = Tracer(f"{workload}:{seed}:{os.getpid()}") if trace else None
        if tracer:
            tracer.install(fa)
        record.update(run_queries(fa, queries, expected, tracer))
        if tracer:
            record["layers"] = tracer.metrics(fa)
            tracer.write_spans(os.path.join(outdir, f"spans-{workload}.json"))
        record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        return record
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)


def record_expected(outdir: str) -> None:
    fa = import_package()
    answers = {}
    tmpdir = os.path.join(outdir, f"tmp-{os.getpid()}")
    os.makedirs(tmpdir)
    try:
        for workload in workloads.WORKLOADS:
            for size in workloads.SIZES:
                for q in workloads.build(fa, workload, 0, size, tmpdir):
                    if q.check is None:
                        answers[q.qid] = workloads.canon(q.run())
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
    with open(workloads.EXPECTED_PATH, "w") as fh:
        json.dump(answers, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"recorded {len(answers)} answers in {workloads.EXPECTED_PATH}")


def main(argv) -> int:
    if argv == ["--record"]:
        outdir = os.path.join(ROOT, ".perfbench_out")
        os.makedirs(outdir, exist_ok=True)
        record_expected(outdir)
        return 0
    workload, seed, size, trace, setup_only, outdir = argv
    record = one_pass(workload, int(seed), size, trace == "1", setup_only == "1", outdir)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
