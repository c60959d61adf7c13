#!/usr/bin/env python3
"""Smoke check of the benchmark itself (about 2 min; not collected by pytest).

    python benchmarks/perf/check_smoke.py

* every workload at ``--scale 0.05`` exits 0 and emits every declared
  end-to-end metric (``--trace 0``) and per-layer metric (``--trace 1``)
  as a finite number with zero failed ops;
* on ``mixed_batch`` and ``sparse_single`` the layer replay accounts for
  the root span: ``harness.unattributed_fraction`` < 0.10 (these two
  traced runs use ``--scale 0.3``: the metric is a median over traced
  cycles, and 0.05 leaves only two of them);
* the oracle rejects a deliberately corrupted answer (one id beyond the
  radius injected) and an unordered one, and accepts the true answer.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from oracle import Oracle  # noqa: E402


def check_oracle() -> None:
    rng = np.random.default_rng(0)
    points = rng.normal(size=(500, 8))
    oracle = Oracle(points, radius=2.5, capacity=500)
    queries = points[:4] + 0.01
    answers = oracle.scan(queries)
    d2 = oracle.squared_distances(queries)
    truth = oracle.truth(queries)
    for row, (ids, _distances) in enumerate(answers):
        valid, found, expected = truth.judge(row, ids)
        assert valid and found == expected == ids.size > 0, "oracle rejects its own answer"
        outsider = int(np.argmax(d2[row]))
        corrupted = np.sort(np.append(ids, outsider))
        assert not truth.judge(row, corrupted)[0], "oracle accepts an id beyond r"
        assert not truth.judge(row, ids[::-1])[0], "oracle accepts unordered ids"
        assert not truth.judge(row, np.append(ids, 500))[0], "oracle accepts an unknown id"
        assert truth.judge(row, ids[1:])[:2] == (True, expected - 1), "missing id is recall"
    print("oracle: ok")


ATTRIBUTED = ("mixed_batch", "sparse_single")


def check_workload(doc: dict, workload: str, trace: int) -> None:
    scale = "0.3" if trace and workload in ATTRIBUTED else "0.05"
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "0",
         "--scale", scale, "--trace", str(trace)],
        capture_output=True, text=True, timeout=300, check=False,
    )
    assert done.returncode == 0, f"{workload} trace {trace} exited {done.returncode}:\n{done.stderr}"
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, sorted(result)
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = doc["per_layer"] if trace else doc["end_to_end"]
    assert set(result["metrics"]) == {entry["name"] for entry in declared}
    for entry in declared:
        metric = result["metrics"][entry["name"]]
        assert metric["unit"] == entry["unit"], entry["name"]
        assert math.isfinite(metric["value"]), entry["name"]
    if trace and workload in ATTRIBUTED:
        unattributed = result["metrics"]["harness.unattributed_fraction"]["value"]
        assert unattributed < 0.10, f"{workload}: unattributed {unattributed:.3f}"
    print(f"{workload} --trace {trace}: ok ({result['attempted']} ops)")


def main() -> int:
    check_oracle()
    with open(HERE.parents[1] / "BENCHMARK.json", encoding="utf-8") as handle:
        doc = json.load(handle)
    for workload in (w["name"] for w in doc["workloads"]):
        for trace in (0, 1):
            check_workload(doc, workload, trace)
    print("smoke: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
