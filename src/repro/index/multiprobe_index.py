"""Multi-probe LSH index — the paper's named future-work extension.

Multi-probe LSH (Lv et al., VLDB 2007) examines several "close" buckets
per table instead of multiplying tables, trading memory for probes.
The paper's conclusion observes that hybrid search "fits well with the
multi-probe LSH schemes ... which typically require a large number of
probes" — more probed buckets means more collisions and more duplicate
removal, so cost estimation matters even more.

:class:`MultiProbeLSHIndex` extends :class:`~repro.index.lsh_index.LSHIndex`
with a ``num_probes`` parameter: each table contributes its home bucket
plus up to ``num_probes`` perturbed buckets.  The perturbation scheme is
chosen per family: bit flips for binary hash values (SimHash, bit
sampling), ±1 coordinate offsets for the integer values of p-stable
quantisers.  All sketch/collision primitives transparently cover the
probed buckets, so :class:`~repro.core.hybrid.HybridSearcher` works on
this index unchanged — which is precisely the claim the A4 extension
benchmark exercises.
"""

from __future__ import annotations

import numpy as np

from repro.hashing.composite import encode_rows
from repro.hashing.probing import probe_deltas
from repro.index.bucket import Bucket
from repro.index.lsh_index import LSHIndex, QueryLookup

__all__ = ["MultiProbeLSHIndex"]


class MultiProbeLSHIndex(LSHIndex):
    """LSH index that probes ``1 + num_probes`` buckets per table.

    Parameters
    ----------
    num_probes:
        Additional buckets examined per table beyond the home bucket.
    (remaining parameters as in :class:`~repro.index.lsh_index.LSHIndex`)
    """

    variant = "multiprobe"

    def __init__(self, *args, num_probes: int = 2, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        if num_probes < 0:
            from repro.exceptions import ConfigurationError

            raise ConfigurationError(f"num_probes must be >= 0, got {num_probes}")
        self.num_probes = int(num_probes)
        # One classification + enumeration shared with the frozen
        # layout (repro.hashing.probing.probe_deltas), so the two
        # layouts can never probe different bucket sets.
        self._binary_values, self._probe_deltas = probe_deltas(
            self.family, self.k, self.num_probes
        )

    def _probe_keys(self, hash_row: np.ndarray) -> list[bytes]:
        """Keys of the perturbed buckets for one table's hash row."""
        if self._probe_deltas.shape[0] == 0:
            return []
        row = np.asarray(hash_row, dtype=np.int64)[None, :]
        if self._binary_values:
            return encode_rows(row ^ self._probe_deltas)
        return encode_rows(row + self._probe_deltas)

    def _lookup_from_rows(self, rows: np.ndarray, home_keys: list[bytes]) -> QueryLookup:
        """Assemble one query's home + probe buckets from its hash rows.

        Shared by :meth:`lookup` and :meth:`lookup_batch` so the probed
        bucket set (and its order) can never diverge between the
        single-query and batched paths.
        """
        keys: list[bytes] = []
        buckets: list[Bucket | None] = []
        for table, row, home_key in zip(self.tables, rows, home_keys):
            keys.append(home_key)
            buckets.append(table.get(home_key))
            for key in self._probe_keys(row):
                keys.append(key)
                buckets.append(table.get(key))
        return QueryLookup(keys=keys, buckets=buckets, hash_rows=list(rows))

    def lookup(self, query: np.ndarray) -> QueryLookup:
        """Locate home + probe buckets in every table.

        The returned :class:`~repro.index.lsh_index.QueryLookup` lists
        one entry per probed bucket (so ``len(keys)`` is up to
        ``L * (1 + num_probes)``); all downstream primitives — collision
        count, sketch merge, candidate retrieval — operate on the full
        probed set without modification.
        """
        self._require_built()
        rows = self._batched.query_rows(query)  # validates dim; (L, k)
        return self._lookup_from_rows(rows, encode_rows(rows))

    def lookup_batch(self, queries: np.ndarray) -> list[QueryLookup]:
        """Batched home + probe lookups (one fused hashing pass).

        Overridden so the batched serving stack sees exactly the same
        probed bucket set as :meth:`lookup` — the base implementation
        would silently return home buckets only.
        """
        from repro.utils.validation import check_matrix

        self._require_built()
        queries = check_matrix(queries, dim=self.dim, name="queries")
        all_rows = self._batched.hash_points(queries)  # (q, L, k)
        num_queries = all_rows.shape[0]
        flat_keys = encode_rows(all_rows.reshape(num_queries * self.num_tables, self.k))
        return [
            self._lookup_from_rows(
                rows, flat_keys[qi * self.num_tables : (qi + 1) * self.num_tables]
            )
            for qi, rows in enumerate(all_rows)
        ]

    def lookup_batch_adaptive(
        self,
        queries: np.ndarray,
        target_candidates: int,
        min_probes: int = 0,
    ) -> tuple[list[QueryLookup], np.ndarray, np.ndarray]:
        """Per-query probe budgets on the dict layout (reference path).

        The rule of
        :meth:`~repro.index.frozen.FrozenLSHIndex.lookup_batch_adaptive`,
        written plainly: each query's bucket sketches are merged ring by
        ring (ring ``j`` holds probe ``j`` of every table; ring 0 the home
        buckets), and probing stops at the first ring ``j >= min_probes``
        whose prefix *certifies* ``target_candidates`` — its merged HLL
        estimate, clamped to the prefix's exact bounds ``[largest bucket,
        min(#collisions, n)]``, reaches the target.  Here every ring is
        merged and clamped; the frozen layout merges only the prefixes
        the bounds leave open, which cannot change a stop ring.

        Returns ``(lookups, probes_used, certified)`` with the same
        contract as the frozen layout's implementation.
        """
        from repro.exceptions import ConfigurationError
        from repro.sketches.hyperloglog import HyperLogLog

        self._require_built()
        if not self.with_sketches or self._hll_hashes is None:
            raise ConfigurationError("index was built with with_sketches=False")
        full = self.lookup_batch(queries)
        q = len(full)
        rings = 1 + self._probe_deltas.shape[0]
        min_ring = min(max(int(min_probes), 0), rings - 1)
        target = float(target_candidates)
        probes = np.full(q, rings - 1, dtype=np.int64)
        certified = np.zeros(q, dtype=bool)
        lookups = []
        for i, lk in enumerate(full):
            merged = HyperLogLog(p=self.hll_precision, seed=self.hll_seed)
            collisions = largest = 0
            for j in range(rings):
                for t in range(self.num_tables):
                    bucket = lk.buckets[t * rings + j]
                    if bucket is not None and len(bucket):
                        bucket.contribute_to(merged, self._hll_hashes)
                        collisions += len(bucket)
                        largest = max(largest, len(bucket))
                clamped = min(max(merged.estimate(), largest), min(collisions, self.n))
                if j >= min_ring and clamped >= target:
                    probes[i], certified[i] = j, True
                    break
            stop = int(probes[i])
            if stop == rings - 1:
                lookups.append(lk)
                continue
            keep = [
                t * rings + j
                for t in range(self.num_tables)
                for j in range(stop + 1)
            ]
            lookups.append(
                QueryLookup(
                    keys=[lk.keys[s] for s in keep],
                    buckets=[lk.buckets[s] for s in keep],
                    hash_rows=lk.hash_rows,
                )
            )
        return lookups, probes, certified

    def freeze(self, refreeze_threshold: int | None = None):
        """Compact into the frozen CSR layout (multi-probe fast path).

        Returns a
        :class:`~repro.index.frozen_probing.FrozenMultiProbeLSHIndex`
        sharing this index's points and hash kernel: the tables compact
        into the same contiguous arrays as the plain layout (multi-probe
        changes queries, not construction) and the probe-sequence
        lookups become batched ``searchsorted`` calls — bit-identical
        answers, including after ``insert``.  The source index is left
        untouched.
        """
        from repro.index.frozen_probing import FrozenMultiProbeLSHIndex

        self._require_built()
        return FrozenMultiProbeLSHIndex.from_dict_index(
            self, refreeze_threshold=refreeze_threshold
        )

    def __repr__(self) -> str:
        base = super().__repr__()
        return base[:-1] + f", probes={self.num_probes})"
