"""Noise check: is the benchmark steadier than its own bounds?

``python benchmarks/perf/run.py --selfcheck [--runs N] [--workload W]``
runs two sets A and B of the same code, each ``N`` full runs per
workload on seeds ``seed .. seed + N - 1``, alternating A, B seed by
seed so both sets see the same host conditions.  Per workload and
end-to-end metric it prints both medians, both quartile spreads
(``(q3 - q1) / median`` by ``statistics.quantiles(n=4)``), how much
worse B's median is than A's, and ``EXCEEDS`` where a spread (except
``setup_s``) or the worsening is larger than the metric's bound — the
rule the benchmark is accepted by.  A timing metric that comes within a
third of its bound wants more cycles, not a wider bound.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def one_run(workload: str, seed: int, seconds: float) -> dict[str, float]:
    """End-to-end metrics of one full ``--trace 0`` run (raises if it failed)."""
    done = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, timeout=600, check=False,
    )
    if done.returncode != 0:
        raise RuntimeError(
            f"{workload} seed {seed} exited {done.returncode}:\n{done.stderr[-2000:]}"
        )
    result = json.loads(done.stdout.strip().splitlines()[-1])
    return {name: entry["value"] for name, entry in result["metrics"].items()}


def spread(values: list[float]) -> float:
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(statistics.median(values))


def worsening(first: float, second: float, better: str) -> float:
    """How much worse ``second`` is than ``first``, as a share of ``first``."""
    change = (second - first) / abs(first)
    return change if better == "lower" else -change


def selfcheck(doc: dict, args) -> int:
    runs = max(2, args.runs)  # quartiles need two values
    workloads = [args.workload] if args.workload else [w["name"] for w in doc["workloads"]]
    exceeded = 0
    for workload in workloads:
        sets: dict[str, list[dict[str, float]]] = {"A": [], "B": []}
        for i in range(runs):
            for label in ("A", "B") if i % 2 == 0 else ("B", "A"):
                sets[label].append(one_run(workload, args.seed + i, args.seconds))
                print(f"  {workload} set {label} seed {args.seed + i} done", file=sys.stderr)
        raw = Path(__file__).resolve().parent / "out" / f"selfcheck_{workload}.json"
        raw.write_text(json.dumps(sets, indent=1), encoding="utf-8")
        print(f"\n{workload}: {runs} runs per set, seeds {args.seed}..{args.seed + runs - 1}")
        print(f"  {'metric':24s} {'median A':>12s} {'median B':>12s} "
              f"{'spread A':>9s} {'spread B':>9s} {'B worse':>8s} {'bound':>6s}")
        for entry in doc["end_to_end"]:
            name, bound = entry["name"], entry["bound"]
            a = [r[name] for r in sets["A"]]
            b = [r[name] for r in sets["B"]]
            worse = worsening(statistics.median(a), statistics.median(b), entry["better"])
            spreads = (spread(a), spread(b))
            over = worse > bound or (name != "setup_s" and max(spreads) > bound)
            exceeded += over
            print(f"  {name:24s} {statistics.median(a):12.5f} {statistics.median(b):12.5f} "
                  f"{spreads[0]:9.4f} {spreads[1]:9.4f} {worse:+8.4f} {bound:6.3f}"
                  f"{'  EXCEEDS' if over else ''}")
    print(f"\n{exceeded} metric(s) exceed their bound" if exceeded else "\nno EXCEEDS")
    return 1 if exceeded else 0
