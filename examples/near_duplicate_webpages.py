"""Near-duplicate web page detection — the paper's first motivating use.

rNNR under cosine distance over document vectors reports *every* page
within a small distance of a query page, which is exactly the
near-duplicate detection primitive of Henzinger (SIGIR 2006).  On
web-scale corpora the duplicate structure is extreme: spam farms
replicate one template thousands of times, so some queries return half
the corpus while others return nothing — the hard/easy split that
defeats pure LSH and motivates the hybrid strategy.

This example runs on the Webspam stand-in, reports duplicate groups,
and contrasts the three strategies' behaviour on a farm page vs. a
legitimate page.

Run:  python examples/near_duplicate_webpages.py
"""

from __future__ import annotations

import time

import numpy as np

from repro import Index, IndexSpec, LinearScan, LSHSearch
from repro.datasets import split_queries, webspam_like


def main() -> None:
    dataset = webspam_like(n=6000, seed=3)
    data, queries = split_queries(dataset.points, num_queries=40, seed=3)
    radius = 0.08  # near-duplicate threshold on cosine distance

    index = Index.build(data, IndexSpec(
        metric="cosine", radius=radius, num_tables=50,
        cost_ratio=dataset.beta_over_alpha, seed=3,
    ))
    # The served index's own searcher, and pure LSH over the same tables.
    hybrid = index.engine.searcher
    lsh = LSHSearch(index.engine.index)
    linear = LinearScan(data, "cosine")

    print(f"corpus: {data.shape[0]} pages, d = {data.shape[1]}, r = {radius}")
    print(f"farm structure: {dataset.extras['farms']}\n")

    # --- duplicate-group census over the query sample ------------------
    group_sizes = [hybrid.query(q, radius).output_size for q in queries]
    group_sizes = np.asarray(group_sizes)
    print("duplicate-group sizes over 40 sampled pages:")
    print(f"  min {group_sizes.min()}, median {int(np.median(group_sizes))}, "
          f"max {group_sizes.max()} (n/2 = {data.shape[0] // 2})")

    hard = queries[int(np.argmax(group_sizes))]
    easy = queries[int(np.argmin(group_sizes))]

    # --- strategy comparison on one hard and one easy page -------------
    for name, page in (("hard (farm) page", hard), ("easy page", easy)):
        print(f"\n{name}:")
        for label, searcher in (("hybrid", hybrid), ("lsh", lsh), ("linear", linear)):
            start = time.perf_counter()
            result = searcher.query(page, radius)
            elapsed = time.perf_counter() - start
            extra = (
                f" -> dispatched to {result.stats.strategy.value}"
                if label == "hybrid"
                else ""
            )
            print(f"  {label:>7}: {result.output_size:>5} duplicates "
                  f"in {1000 * elapsed:7.2f} ms{extra}")

    index.close()
    print("\nThe hybrid searcher pays the LSH price on easy pages and the "
          "linear price on farm pages — never the worst case of either.")


if __name__ == "__main__":
    main()
