"""Content-based image retrieval — the paper's third motivating use.

Reproduces the paper's full MNIST pipeline: raw images are reduced to
64-bit SimHash fingerprints (Yu et al.'s circulant binary embedding is
the cited industrial variant), and spherical range reporting under
Hamming distance retrieves every image whose fingerprint is within
``r`` bits of the query's.  Retrieval quality is evaluated by class
purity: the fraction of retrieved images sharing the query's digit
class.

Run:  python examples/image_retrieval.py
"""

from __future__ import annotations

import numpy as np

from repro import Index, IndexSpec, QuerySpec
from repro.datasets import mnist_like, split_queries


def main() -> None:
    dataset = mnist_like(n=8000, seed=5)
    fingerprints = dataset.points
    labels = dataset.extras["labels"]

    # Keep fingerprints and labels aligned through the query split.
    ids = np.arange(dataset.n).reshape(-1, 1).astype(np.float64)
    combined = np.hstack([fingerprints.astype(np.float64), ids])
    data_rows, query_rows = split_queries(combined, num_queries=30, seed=5)
    data = data_rows[:, :-1].astype(np.uint8)
    data_labels = labels[data_rows[:, -1].astype(int)]
    queries = query_rows[:, :-1].astype(np.uint8)
    query_labels = labels[query_rows[:, -1].astype(int)]

    print(f"gallery: {data.shape[0]} images as 64-bit fingerprints")
    index = Index.build(data, IndexSpec(
        metric="hamming", radius=14.0, num_tables=50,
        cost_ratio=dataset.beta_over_alpha, seed=5,
    ))

    print(f"\n{'radius':>6} {'avg found':>10} {'class purity':>13} {'%linear':>8}")
    for radius in dataset.radii:
        found, purity, linear_calls = [], [], 0
        for q, q_label in zip(queries, query_labels):
            result = index.query(QuerySpec(q, radius=float(radius)))
            found.append(result.output_size)
            if result.output_size:
                purity.append(float(np.mean(data_labels[result.ids] == q_label)))
            linear_calls += result.strategy == "linear"
        print(
            f"{radius:>6g} {np.mean(found):>10.1f} "
            f"{np.mean(purity) if purity else float('nan'):>13.2f} "
            f"{100 * linear_calls / len(queries):>7.0f}%"
        )

    index.close()
    print("\nGrowing the radius trades precision (class purity) for recall "
          "(matches found) — the retrieval knob rNNR exposes.")


if __name__ == "__main__":
    main()
