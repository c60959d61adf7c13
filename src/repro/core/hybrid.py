"""Hybrid search — Algorithm 2 of the paper, and the public facade.

Per query the hybrid strategy:

1. looks up the query's bucket in each of the ``L`` tables (Step S1;
   the lookup is shared with whichever strategy runs next);
2. reads the exact ``#collisions`` and the largest probed bucket from
   the stored bucket sizes — exact bounds on the candidate-set size,
   ``largest bucket <= candSize <= min(#collisions, n)``;
3. evaluates ``LSHCost = alpha * #collisions + beta * candSize``
   against ``LinearCost = beta * n`` *at the bounds first*: LSH when it
   wins even at the upper bound, linear when it loses even at the lower
   one (``LSHCost`` is monotone in ``candSize``, so no estimate inside
   the bounds could say otherwise);
4. only for the rows the bounds leave open, merges the buckets'
   HyperLogLog sketches (``O(mL)``) to estimate ``candSize``, clamps
   the estimate to the bounds, and dispatches to LSH-based search if
   ``LSHCost < LinearCost``, else to linear search.

The verdict is Equation (1) at the clamped estimate on every row; it
differs from estimating every row only where the raw estimate fell
outside the exact bounds, i.e. where the HLL estimate was provably wrong.
The ``O(mL)`` estimation overhead, comparable to the hash computations
of Step S1, is paid only where it can change the answer, so the hybrid
query is never much slower than the better of the two pure strategies —
and on mixtures of easy and hard queries it beats both, which is the
paper's headline result.  The reported
:class:`~repro.core.results.QueryStats` stay finite and self-consistent
throughout: ``estimated_candidates`` is the value the verdict was taken
at (clamped estimate / exact count of an upper-bound LSH row, which
Step S2 materialises anyway / lower bound of a lower-bound scan row; a
row a probe budget certified reports its exact count too) and
``estimated_lsh_cost`` is Equation (1) at it.

:class:`HybridSearcher` works on any built sketched index (a
multi-probe one included: its probed buckets are simply more buckets);
the index it serves comes from :meth:`repro.api.Index.build`
(``index.engine.searcher``).
"""

from __future__ import annotations

import numpy as np

from repro.core.adaptive import AdaptivePolicy
from repro.core.cost_model import CostModel
from repro.core.linear_scan import LinearScan
from repro.core.lsh_search import LSHSearch
from repro.core.overlap import PartitionHelper
from repro.core.results import QueryResult, QueryStats, Strategy
from repro.index.lsh_index import LSHIndex
from repro.observability import StageTrace, stage_timer
from repro.utils.validation import check_positive, check_vector

__all__ = ["HybridSearcher"]


class HybridSearcher:
    """Algorithm 2: cost-estimated dispatch between LSH and linear search.

    Parameters
    ----------
    index:
        A built :class:`~repro.index.lsh_index.LSHIndex` with sketches
        enabled.
    cost_model:
        The calibrated :class:`~repro.core.cost_model.CostModel`.

    ``candSize`` is the paper's merged-HLL estimate, consulted only on
    rows the exact bounds leave open.

    ``partition_helper`` (``None`` by default) is the
    :class:`~repro.core.overlap.PartitionHelper` a batch's linear
    partition runs on, beside its LSH partition; an unsharded
    ``Index`` sets one on its engine's searcher, and the engine's
    ``close`` joins it.
    """

    def __init__(self, index: LSHIndex, cost_model: CostModel) -> None:
        if not index.is_built:
            from repro.exceptions import EmptyIndexError

            raise EmptyIndexError("HybridSearcher requires a built index")
        if not index.with_sketches:
            from repro.exceptions import ConfigurationError

            raise ConfigurationError(
                "HybridSearcher requires an index built with sketches "
                "(with_sketches=True)"
            )
        self.index = index
        self.cost_model = cost_model
        self._lsh = LSHSearch(index)
        self._linear: LinearScan | None = None
        self.partition_helper: PartitionHelper | None = None

    def _verdict_from_bounds(self, lookup, n: int) -> tuple[bool | None, float | None]:
        """Equation (1) from the exact ``candSize`` bounds alone, for an
        index of ``n`` points.

        ``(True, None)`` — LSH wins even at the upper bound (Step S2
        will supply the exact count); ``(False, lower)`` — it loses
        even at the lower bound; ``(None, None)`` — open, estimate it.
        """
        collisions = lookup.num_collisions
        lower = lookup.largest_bucket
        certain, possible = self.cost_model.lsh_bounds(
            collisions, lower, min(collisions, n), n
        )
        if certain:
            return True, None
        return (None, None) if possible else (False, float(lower))

    def _verdict_at(self, lookup, estimate: float, n: int) -> tuple[bool, float]:
        """Equation (1) at ``estimate`` clamped to the exact bounds — by
        monotonicity what :meth:`_verdict_from_bounds` says wherever it
        says anything."""
        collisions = lookup.num_collisions
        clamped = float(min(max(estimate, lookup.largest_bucket), min(collisions, n)))
        lsh_cost = self.cost_model.lsh_cost(collisions, clamped)
        return lsh_cost < self.cost_model.linear_cost(n), clamped

    def _verdicts(self, lookups, n: int) -> list[tuple[bool, float | None]]:
        """Bound-first Equation (1) per lookup: ``(go LSH?, candSize)``,
        ``candSize`` being the value the verdict was taken at (``None``:
        the exact count Step S2 is about to materialise).

        The one verdict of all three entry points — a single query is a
        batch of one — so sequential == batched holds by construction.
        The per-row arithmetic is scalar (a vectorised pass costs more
        than it saves below ~25 rows); only the register merge of two
        or more open rows is batched.
        """
        verdicts = [self._verdict_from_bounds(lookup, n) for lookup in lookups]
        open_rows = [i for i, (go_lsh, _) in enumerate(verdicts) if go_lsh is None]
        if open_rows:
            open_lookups = [lookups[i] for i in open_rows]
            if len(open_lookups) == 1:
                # The same floats as the batch merge (pinned by the
                # layouts' own tests) at half its fixed cost for one
                # row: 70 vs 142 us, medians over the open rows of the
                # frozen `mixed_batch` index (L = 50), timed interleaved.
                estimates = [self.index.merged_sketch(open_lookups[0]).estimate()]
            else:
                # One vectorised pass over the open rows' merged registers.
                estimates = self.index.merged_estimates_batch(open_lookups).tolist()
            for i, estimate in zip(open_rows, estimates):
                verdicts[i] = self._verdict_at(lookups[i], estimate, n)
        return verdicts

    def _stats(
        self,
        num_collisions: int,
        verdict: tuple[bool, float | None],
        examined: int,
        probes_used: int,
        linear_cost: float,
    ) -> QueryStats:
        """One row's decision diagnostics, built once.  ``verdict`` is the
        ``(go LSH?, candSize)`` :meth:`_verdicts` returned; a ``None``
        ``candSize`` reports the exact count ``examined``, so the stats
        stay finite and ``estimated_lsh_cost < linear_cost`` keeps
        matching the strategy."""
        go_lsh, cand_size = verdict
        if cand_size is None:
            cand_size = float(examined)
        return QueryStats(
            num_collisions=num_collisions,
            estimated_candidates=cand_size,
            exact_candidates=examined,
            estimated_lsh_cost=self.cost_model.lsh_cost(num_collisions, cand_size),
            linear_cost=linear_cost,
            strategy=Strategy.LSH if go_lsh else Strategy.LINEAR,
            probes_used=probes_used,
            # A linear scan is exact by construction; an LSH answer is not.
            exact=not go_lsh,
        )

    def _linear_scan(self) -> LinearScan:
        """The exact-scan fallback, refreshed after incremental inserts.

        ``index.insert`` publishes a new points array (view), so a
        cached scan would silently search the stale rows; rebuilding is
        cheap — the scan holds references to the index's points and
        their prepared state (:meth:`prepared_points`), which the
        index keeps current.
        """
        points, state = self.index.prepared_points()
        if self._linear is None or self._linear.points is not points:
            self._linear = LinearScan(points, self.index.family.metric, prepared=state)
        return self._linear

    def query(self, query: np.ndarray, radius: float) -> QueryResult:
        """Answer one rNNR query with the cost-optimal strategy.

        The returned result's :class:`~repro.core.results.QueryStats`
        records the decision inputs (collisions, estimated candidates,
        both cost estimates) and which strategy ran.  It is
        :meth:`query_batch` of one row, so sequential == batched holds
        by construction.
        """
        query = check_vector(query, dim=self.index.dim, name="query")
        return self.query_batch(query[None, :], radius)[0]

    def query_batch(
        self,
        queries: np.ndarray,
        radius: float,
        dedup: str | None = None,
        trace: StageTrace | None = None,
        adaptive: AdaptivePolicy | None = None,
    ) -> list[QueryResult]:
        """Answer a query set; Step S1 is hashed for all queries at once.

        Produces exactly the same results as looping :meth:`query`:
        the per-query hashing overhead is amortised through
        :meth:`~repro.index.lsh_index.LSHIndex.lookup_batch`, and all
        queries the cost model sends to linear search are answered by
        one :meth:`~repro.core.linear_scan.LinearScan.scan_batch`
        distance-matrix pass (same kernel per row, so bit-identical
        answers).  Equation (1) is decided bound-first, as in
        :meth:`query` (see the module docstring): only the rows the
        exact ``candSize`` bounds leave open are estimated, in one
        vectorised merge over just those rows.

        The LSH rows run Steps S2 and S3 once for the batch: the frozen
        layout's ``candidate_ids_batch`` (one sort for rows of at most
        ``n / 8`` collisions), then ``LSHSearch.filter_candidates_batch``
        (one distance pass per block of up to 256 KiB of candidates).
        With a :attr:`partition_helper`, a batch that has both
        partitions scans its linear rows on the helper thread while this
        thread runs the LSH rows; same kernels, same inputs, so the
        answers and stats are those of the serial order.

        ``dedup`` is forwarded to the LSH branch's candidate retrieval;
        both dedup implementations return the identical candidate set,
        so it only affects speed (:class:`~repro.service.BatchQueryEngine`
        passes ``"vectorized"``).

        ``trace`` (a :class:`~repro.observability.StageTrace`) opts into
        per-stage wall-time attribution — ``hash`` / ``estimate`` /
        ``linear`` / ``candidates``.  The spans bracket the existing
        computation without touching it, so traced answers are
        bit-identical to untraced ones.  Each span is its stage's own
        wall time, so ``linear`` and ``candidates`` overlap when the
        helper ran the scan.

        ``adaptive`` (an :class:`~repro.core.adaptive.AdaptivePolicy`
        with a ``target_candidates`` budget) switches Step S1 to the
        index's per-query probe-budget lookup where the layout supports
        it: probing beyond the home bucket stops at the first ring whose
        probed prefix *certifies* the target — its ``candSize``
        estimate, clamped to the prefix's exact bounds, reaches it (the
        bounds alone decide most rows; see the index's
        ``lookup_batch_adaptive``).  A certified row answers from its
        LSH candidate set, even where Equation (1) favours the scan, so
        a budgeted query never examines all ``n`` points once enough
        candidates are certified (its answers stay a subset of the
        scan's).  Every other row kept the full fan-out and gets the
        fixed path's bound-first verdict, so with a budget the full
        fan-out cannot certify the answers and stats are bit-identical
        to the fixed path's; otherwise the trimmed candidate set is a
        subset of the fixed one at equal-or-fewer probes.
        """
        radius = check_positive(radius, "radius")
        queries = np.asarray(queries)
        index = self.index
        n = index.n  # one size for the whole batch's verdicts and stats
        if (
            adaptive is not None
            and adaptive.bounds_probes
            and hasattr(index, "lookup_batch_adaptive")
        ):
            with stage_timer(trace, "hash"):
                lookups, probes_used, certified = index.lookup_batch_adaptive(
                    queries,
                    adaptive.target_candidates,
                    min_probes=adaptive.min_probes,
                )
            with stage_timer(trace, "estimate"):
                # The budget's cap: a row whose probed prefix certifies
                # ``target_candidates`` answers from its LSH candidate set
                # even where Equation (1) favours the scan (the scan is
                # exactly the over-examination a budget exists to avoid);
                # its stats report the exact count Step S2 materialises.
                uncertified = np.flatnonzero(~certified).tolist()
                verdicts = [(True, None)] * len(lookups)
                decided = self._verdicts([lookups[i] for i in uncertified], n)
                for i, verdict in zip(uncertified, decided):
                    verdicts[i] = verdict
            probes = probes_used.tolist()
        else:
            with stage_timer(trace, "hash"):
                lookups = index.lookup_batch(queries)
            with stage_timer(trace, "estimate"):
                verdicts = self._verdicts(lookups, n)
            # The effective probe set (the enumeration may run dry
            # below ``num_probes``), as a full-ring adaptive lookup
            # reports it.
            probes = [index.probe_count] * len(lookups)
        linear_cost = self.cost_model.linear_cost(n)
        results: list[QueryResult | None] = [None] * len(lookups)
        linear_rows = [i for i, (go_lsh, _) in enumerate(verdicts) if not go_lsh]
        lsh_rows = [i for i, (go_lsh, _) in enumerate(verdicts) if go_lsh]
        # Resolved on the caller: an insert may replace ``index.points``
        # while a helper thread scans.
        scan = self._linear_scan() if linear_rows else None

        def linear_partition() -> list[tuple[np.ndarray, np.ndarray]]:
            return scan.scan_batch(queries[linear_rows], radius)

        def lsh_partition() -> None:
            with stage_timer(trace, "candidates"):
                if len(lsh_rows) == len(lookups):  # every row: no gathers
                    lsh_lookups, lsh_queries = lookups, queries
                else:
                    lsh_lookups = [lookups[i] for i in lsh_rows]
                    lsh_queries = queries.take(lsh_rows, axis=0)
                # Step S2 once for the batch on the frozen layout; other
                # layouts deduplicate per query.
                batch_dedup = getattr(index, "candidate_ids_batch", None)
                if batch_dedup is not None:
                    candidate_sets = batch_dedup(lsh_lookups, dedup=dedup)
                else:
                    candidate_sets = [index.candidate_ids(lk, dedup=dedup) for lk in lsh_lookups]
                filtered = self._lsh.filter_candidates_batch(lsh_queries, radius, candidate_sets)
                for i, candidates, (ids, distances) in zip(lsh_rows, candidate_sets, filtered):
                    # LSH rows report the materialised candidate-set size.
                    stats = self._stats(
                        lookups[i].num_collisions, verdicts[i], int(candidates.size),
                        probes[i], linear_cost,
                    )
                    results[i] = QueryResult(ids=ids, distances=distances, radius=radius, stats=stats)

        helper = self.partition_helper
        if linear_rows and lsh_rows and helper is not None:
            scanned, linear_s, _ = helper.run_beside(linear_partition, lsh_partition)
            if trace is not None:
                # Added after the join, on this thread: StageTrace is not
                # thread-safe.  It is the scan's own wall time, so the
                # span overlaps "candidates".
                trace.add("linear", linear_s)
        else:
            scanned = []
            if linear_rows:
                with stage_timer(trace, "linear"):
                    scanned = linear_partition()
            if lsh_rows:
                lsh_partition()
        for i, (ids, distances) in zip(linear_rows, scanned):
            # A linear scan genuinely examines every point.
            stats = self._stats(
                lookups[i].num_collisions, verdicts[i], n, probes[i], linear_cost
            )
            results[i] = QueryResult(ids=ids, distances=distances, radius=radius, stats=stats)
        return results

    def decide(self, query: np.ndarray) -> Strategy:
        """The dispatch decision only (no candidate retrieval).

        Useful for the Figure 3 experiment, which tracks the fraction
        of linear-search calls without needing the answers.
        """
        query = check_vector(query, dim=self.index.dim, name="query")
        ((go_lsh, _),) = self._verdicts([self.index.lookup(query)], self.index.n)
        return Strategy.LSH if go_lsh else Strategy.LINEAR

    def __repr__(self) -> str:
        return f"HybridSearcher(index={self.index!r}, cost_model={self.cost_model!r})"
