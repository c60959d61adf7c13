#!/usr/bin/env python3
"""The repo's benchmark: one workload, one seed, one run.

    python benchmarks/perf/run.py --workload NAME --seed S [--trace 1]

Runs from any directory with a bare ``python``: it finds ``src/`` next
to itself, pins BLAS to one thread, keeps every file it writes under
``benchmarks/perf/out/`` and reaps the worker processes it starts.  It
prints every metric by name with its unit and ends with one JSON line
``{"correct", "attempted", "failed", "metrics"}`` — the end-to-end
metrics of ``BENCHMARK.json`` with ``--trace 0``, the per-layer metrics
with ``--trace 1``.  The exit code is non-zero for a wrong answer, a
failed op, a tripped workload guard or a missing metric — never for a
timing.  ``--selfcheck`` runs the noise check instead (see selfcheck.py).
"""

from __future__ import annotations

import os

# Before numpy is imported anywhere: one BLAS thread, so the yardstick
# and the program's kernels compete for nothing but the one core.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import atexit
import json
import math
import shutil
import signal
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT = HERE / "out"


def declared() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def parse_args(doc: dict) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[w["name"] for w in doc["workloads"]])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--seconds", type=float, default=float(doc["run_seconds"]),
        help="target measured seconds on the reference host; rescales the op counts",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", type=float, default=1.0,
        help="multiply the op counts (smoke runs); guards need >= 1",
    )
    parser.add_argument("--selfcheck", action="store_true", help="run the noise check")
    parser.add_argument("--runs", type=int, default=5, help="selfcheck: runs per set")
    args = parser.parse_args()
    if not args.selfcheck and args.workload is None:
        parser.error("--workload is required")
    return args


def main() -> int:
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    doc = declared()
    args = parse_args(doc)
    if args.selfcheck:
        sys.path.insert(0, str(HERE))
        from selfcheck import selfcheck

        return selfcheck(doc, args)

    # Import the program from this checkout, in this process and in any
    # worker the pool spawns rather than forks.
    src = str(ROOT / "src")
    sys.path[:0] = [str(HERE), src]
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    )
    # Everything the run writes — the pool's shard artifact included —
    # stays under out/, and goes away with the run.
    OUT.mkdir(exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="tmp-", dir=OUT)
    tempfile.tempdir = os.environ["TMPDIR"] = scratch
    atexit.register(shutil.rmtree, scratch, ignore_errors=True)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    from harness import Run
    from workloads import WORKLOADS

    run = Run(
        WORKLOADS[args.workload], args.seed, args.seconds, args.scale, bool(args.trace)
    )
    atexit.register(run.close)
    try:
        started = time.perf_counter()
        run.setup()
        setup_wall = time.perf_counter() - started
        run.execute()
        measured_wall = time.perf_counter() - started - setup_wall
        counts = run.exact_counts()
        tripped = run.check_guards(counts)
        if args.trace:
            measured = run.per_layer(counts)
            run.replay.write(str(OUT / f"trace_{args.workload}.json"))
            shares = run.replay.root_shares()
        else:
            measured = run.end_to_end()
            shares = {}
    finally:
        run.close()

    wanted = doc["per_layer"] if args.trace else doc["end_to_end"]
    metrics = {}
    missing = []
    for entry in wanted:
        value = measured.get(entry["name"])
        if value is None or not math.isfinite(value):
            missing.append(entry["name"])
            continue
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
        print(f"{entry['name']:36s} {value:16.6f} {entry['unit']}")
    for name, share in shares.items():
        print(f"share of root span: {name:24s} {share:8.4f}")
    print(
        f"cycles {len(run.samples.batch_scans)}  single samples "
        f"{len(run.samples.single_scans)}  insert samples {len(run.samples.insert_scans)}  "
        f"wall: set-up {setup_wall:.1f} s, measured {measured_wall:.1f} s"
    )
    for message in tripped:
        print(f"GUARD: {message}", file=sys.stderr)
    if missing:
        print(f"MISSING METRICS: {', '.join(missing)}", file=sys.stderr)
    correct = run.failed == 0 and not tripped and not missing
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
