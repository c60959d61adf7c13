#!/usr/bin/env python3
"""A/B the repo benchmark: a parent commit against this checkout.

    python benchmarks/ab.py PARENT_REF [--pairs 10] [--workloads W ...]
                            [--seconds S] [--scale X] [--layers NAME ...]

Checks ``PARENT_REF`` out into a temporary ``git worktree``, then per
workload runs the command ``BENCHMARK.json`` declares in both trees —
each from its own root, so each measures its own ``src/`` — on seeds
``SEED0 + i``, alternating which side goes first.  Prints one markdown
row per workload x end-to-end metric: parent and change median
``[q1, q3]``, the change of the median, pairs won, and a verdict by the
``simplicity-review`` rules with ``better`` and ``bound`` read from
``BENCHMARK.json`` (see :func:`verdict`).  Exits 1 on any ``regressed``
row or when the change fails more ops than the parent.  With
``--layers NAME ...`` it then runs three more alternating pairs per
workload under ``--trace 1`` and prints both sides' medians of the named
per-layer metrics — the decomposition a perf change cites, with no
verdict and no effect on the exit code.  The worktree is always
removed; the runs write only under each tree's ``benchmarks/perf/out/``.
Stdlib only.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
#: First seed of a comparison; pair ``i`` runs both sides on ``SEED0 + i``.
SEED0 = 1000
#: The guides' floor for claiming a gain ("run at least ten pairs").
MIN_PAIRS_FOR_GAIN = 10
#: Traced pairs per workload behind a ``--layers`` table.
LAYER_PAIRS = 3


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)``; a single run is its own quartiles."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def wins_and_ties(parent: list[float], change: list[float], better: str) -> tuple[int, int]:
    """Pairs the change won, and pairs that read the same on both sides."""
    lower = better == "lower"
    wins = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
    return wins, sum(c == p for p, c in zip(parent, change))


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> str:
    """Judge one metric on one workload from paired runs.

    ``parent[i]`` and ``change[i]`` are the two sides of pair ``i``;
    ``bound`` is the share of the parent's median the metric may worsen.

    * ``regressed`` — the change's median is worse by more than ``bound``;
    * ``unresolved`` — the parent's own quartile spread is wider than
      ``bound``, unless every change run beats every parent run;
    * ``gain`` — at least ten pairs, at least nine tenths of the untied
      ones won, and the medians further apart than the parent's spread;
    * ``unchanged`` — none of the above.
    """
    wins, ties = wins_and_ties(parent, change, better)
    untied = len(parent) - ties
    sign = 1.0 if better == "lower" else -1.0  # as costs: lower is better
    parent = [sign * value for value in parent]
    change = [sign * value for value in change]
    q1, parent_median, q3 = quartiles(parent)
    change_median = statistics.median(change)
    base = abs(parent_median) or 1.0
    spread = q3 - q1
    if (change_median - parent_median) / base > bound:
        return "regressed"
    if spread / base > bound and max(change) >= min(parent):
        return "unresolved"
    if (
        len(parent) >= MIN_PAIRS_FOR_GAIN
        and untied
        and wins >= 0.9 * untied
        and parent_median - change_median > spread
    ):
        return "gain"
    return "unchanged"


def _row(workload: str, entry: dict, parent: list[float], change: list[float]) -> tuple[str, str]:
    """One markdown table row and its verdict."""
    wins, ties = wins_and_ties(parent, change, entry["better"])
    (pq1, pmed, pq3), (cq1, cmed, cq3) = quartiles(parent), quartiles(change)
    delta = 100.0 * (cmed - pmed) / (abs(pmed) or 1.0)
    outcome = verdict(parent, change, entry["better"], entry["bound"])
    return (
        f"| `{workload}` | `{entry['name']}` | {pmed:.4g} [{pq1:.4g}, {pq3:.4g}] | "
        f"{cmed:.4g} [{cq1:.4g}, {cq3:.4g}] | {delta:+.1f} % | "
        f"{wins}/{len(parent)} (ties {ties}) | {outcome} |"
    ), outcome


def layer_rows(
    workload: str,
    names: list[str],
    parent: dict[str, list[float]],
    change: dict[str, list[float]],
) -> list[str]:
    """One markdown row per named per-layer metric: both sides' medians.

    ``parent`` / ``change`` map metric names to the values of the traced
    runs; a metric a side never emitted on this workload reads ``n/a``.
    """
    rows = []
    for name in names:
        sides = [statistics.median(side[name]) if side.get(name) else None
                 for side in (parent, change)]
        cells = ["n/a" if value is None else f"{value:.4g}" for value in sides]
        delta = "n/a"
        if None not in sides:
            delta = f"{100.0 * (sides[1] - sides[0]) / (abs(sides[0]) or 1.0):+.1f} %"
        rows.append(f"| `{workload}` | `{name}` | {cells[0]} | {cells[1]} | {delta} |")
    return rows


def _run(tree: Path, argv: list[str]) -> dict:
    """One benchmark run from ``tree``'s root; its last stdout line, parsed."""
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run(argv, cwd=tree, env=env, capture_output=True, text=True)
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        raise SystemExit(
            f"{tree}: {' '.join(argv)} exited {proc.returncode} without a "
            f"result line\n{proc.stderr[-2000:]}"
        ) from None


def main(argv: list[str] | None = None) -> int:
    doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in doc["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_ref", metavar="PARENT_REF")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--workloads", nargs="+", choices=names, default=names)
    parser.add_argument("--seconds", type=float, help="passed through to the benchmark")
    parser.add_argument("--scale", type=float, help="passed through to the benchmark")
    parser.add_argument(
        "--layers", nargs="+", metavar="NAME", default=[],
        choices=[entry["name"] for entry in doc["per_layer"]],
        help=f"also print these per-layer medians from {LAYER_PAIRS} traced pairs",
    )
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    passthrough = [
        token
        for flag in ("seconds", "scale")
        if getattr(args, flag) is not None
        for token in (f"--{flag}", str(getattr(args, flag)))
    ]

    # A terminated comparison still removes its worktree (the finally below).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    scratch = Path(tempfile.mkdtemp(prefix="repro-ab-"))
    parent_tree = scratch / "parent"
    rows, outcomes, layers = [], [], []
    failed = {"parent": 0, "change": 0}
    try:
        subprocess.run(
            ["git", "worktree", "add", "--detach", str(parent_tree), args.parent_ref],
            cwd=ROOT, check=True, stdout=subprocess.DEVNULL,
        )
        trees = {"parent": parent_tree, "change": ROOT}

        def paired(workload: str, pairs: int, what: str, tally: dict, *extra: str) -> dict:
            """``{side: {metric: [value per pair]}}`` of alternating runs;
            failed ops are added to ``tally`` per side."""
            values: dict[str, dict[str, list[float]]] = {"parent": {}, "change": {}}
            for i in range(pairs):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                for side in order:
                    result = _run(trees[side], [
                        *doc["command"], "--workload", workload,
                        "--seed", str(SEED0 + i), *passthrough, *extra,
                    ])
                    tally[side] += result["failed"]
                    for name, metric in result["metrics"].items():
                        values[side].setdefault(name, []).append(metric["value"])
                print(f"{workload}: {what} {i + 1}/{pairs} done", file=sys.stderr)
            return values

        for workload in args.workloads:
            values = paired(workload, args.pairs, "pair", failed)
            for entry in doc["end_to_end"]:
                parent = values["parent"].get(entry["name"], [])
                change = values["change"].get(entry["name"], [])
                if len(parent) != args.pairs or len(change) != args.pairs:
                    raise SystemExit(f"{workload}: a run did not emit {entry['name']}")
                row, outcome = _row(workload, entry, parent, change)
                rows.append(row)
                outcomes.append(outcome)
        for workload in args.workloads if args.layers else ():
            # Not judged: the traced runs' failed ops stay out of the exit code.
            traced = paired(
                workload, LAYER_PAIRS, "traced pair", dict(failed), "--trace", "1"
            )
            layers += layer_rows(workload, args.layers, traced["parent"], traced["change"])
    finally:
        subprocess.run(
            ["git", "worktree", "remove", "--force", str(parent_tree)],
            cwd=ROOT, check=False, capture_output=True,
        )
        shutil.rmtree(scratch, ignore_errors=True)
        subprocess.run(["git", "worktree", "prune"], cwd=ROOT, check=False)

    print(f"{args.parent_ref} vs this checkout, {args.pairs} alternating pair(s), "
          f"seeds {SEED0}-{SEED0 + args.pairs - 1}")
    print()
    print("| workload | metric | parent | change | Δ median | wins | verdict |")
    print("|---|---|---|---|---|---|---|")
    print("\n".join(rows))
    print()
    if layers:
        print(f"per-layer medians, {LAYER_PAIRS} alternating `--trace 1` pair(s):")
        print()
        print("| workload | layer metric | parent | change | Δ median |")
        print("|---|---|---|---|---|")
        print("\n".join(layers))
        print()
    print(f"failed ops: parent {failed['parent']}, change {failed['change']}")
    return 1 if "regressed" in outcomes or failed["change"] > failed["parent"] else 0


if __name__ == "__main__":
    sys.exit(main())
