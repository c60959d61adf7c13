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
Step S2 materialises anyway / lower bound of a lower-bound scan row) and
``estimated_lsh_cost`` is Equation (1) at it.

:class:`HybridSearcher` works on any built sketched index (including
:class:`~repro.index.multiprobe_index.MultiProbeLSHIndex`).
:class:`HybridLSH` is the one-call facade: pick the family for the
metric, apply the paper's parameter presets, build the index, calibrate
the cost model, answer queries.
"""

from __future__ import annotations

import numpy as np

from repro.core.adaptive import AdaptivePolicy
from repro.core.calibration import calibrate_cost_model
from repro.core.cost_model import CostModel
from repro.core.linear_scan import LinearScan
from repro.core.lsh_search import LSHSearch
from repro.core.presets import paper_parameters
from repro.core.results import QueryResult, QueryStats, Strategy
from repro.index.lsh_index import LSHIndex
from repro.observability import StageTrace, stage_timer
from repro.utils.rng import RandomState
from repro.utils.validation import check_positive, check_vector

__all__ = ["HybridSearcher", "HybridLSH"]


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
        self._linear = LinearScan(index.points, index.family.metric)

    def _verdict_from_bounds(self, lookup) -> tuple[bool | None, float | None]:
        """Equation (1) from the exact ``candSize`` bounds alone.

        ``(True, None)`` — LSH wins even at the upper bound (Step S2
        will supply the exact count); ``(False, lower)`` — it loses
        even at the lower bound; ``(None, None)`` — open, estimate it.
        """
        n = self.index.n
        collisions = lookup.num_collisions
        lower = lookup.largest_bucket
        certain, possible = self.cost_model.lsh_bounds(
            collisions, lower, min(collisions, n), n
        )
        if certain:
            return True, None
        return (None, None) if possible else (False, float(lower))

    def _verdict_at(self, lookup, estimate: float) -> tuple[bool, float]:
        """Equation (1) at ``estimate`` clamped to the exact bounds — by
        monotonicity what :meth:`_verdict_from_bounds` says wherever it
        says anything, so the adaptive ring walk's estimates need only this."""
        n = self.index.n
        collisions = lookup.num_collisions
        clamped = float(min(max(estimate, lookup.largest_bucket), min(collisions, n)))
        lsh_cost = self.cost_model.lsh_cost(collisions, clamped)
        return lsh_cost < self.cost_model.linear_cost(n), clamped

    def _verdicts(
        self, lookups, estimates: np.ndarray | None = None
    ) -> list[tuple[bool, float | None]]:
        """Bound-first Equation (1) per lookup: ``(go LSH?, candSize)``,
        ``candSize`` being the value the verdict was taken at (``None``:
        the exact count Step S2 is about to materialise).

        The one verdict of all three entry points — a single query is a
        batch of one — so sequential == batched holds by construction.
        The per-row arithmetic is scalar (a vectorised pass costs more
        than it saves below ~25 rows); only the register merge of two
        or more open rows is batched.  ``estimates`` hands in what the
        lookup pass already produced (the adaptive ring walk): nothing
        is merged, and the clamp keeps a non-binding budget's verdicts
        equal to the fixed path's.
        """
        if estimates is not None:
            return [
                self._verdict_at(lookup, estimate)
                for lookup, estimate in zip(lookups, estimates.tolist())
            ]
        verdicts = [self._verdict_from_bounds(lookup) for lookup in lookups]
        open_rows = [i for i, (go_lsh, _) in enumerate(verdicts) if go_lsh is None]
        if open_rows:
            open_lookups = [lookups[i] for i in open_rows]
            if len(open_lookups) == 1:
                # The same floats as the batch merge (pinned by the
                # layouts' own tests) at half its fixed cost for one row:
                # 28 vs 62 us on the frozen layout, L = 50.
                estimates = [self.index.merged_sketch(open_lookups[0]).estimate()]
            else:
                # One vectorised pass over the open rows' merged registers.
                estimates = self.index.merged_estimates_batch(open_lookups).tolist()
            for i, estimate in zip(open_rows, estimates):
                verdicts[i] = self._verdict_at(lookups[i], estimate)
        return verdicts

    def _stats(
        self,
        num_collisions: int,
        cand_size: float | None,
        go_lsh: bool,
        examined: int,
        probes_used: int,
    ) -> QueryStats:
        """One row's decision diagnostics, built once.  ``cand_size`` is
        what :meth:`_verdicts` returned; ``None`` reports the exact count
        ``examined``, so the stats stay finite and ``estimated_lsh_cost
        < linear_cost`` keeps matching the strategy."""
        if cand_size is None:
            cand_size = float(examined)
        return QueryStats(
            num_collisions=num_collisions,
            estimated_candidates=cand_size,
            exact_candidates=examined,
            estimated_lsh_cost=self.cost_model.lsh_cost(num_collisions, cand_size),
            linear_cost=self.cost_model.linear_cost(self.index.n),
            strategy=Strategy.LSH if go_lsh else Strategy.LINEAR,
            probes_used=probes_used,
            # A linear scan is exact by construction; an LSH answer is not.
            exact=not go_lsh,
        )

    def _fixed_probes(self) -> int:
        """Probe rings beyond the home bucket the fixed fan-out examines.

        Derived from the index's *effective* probe set (the enumeration
        may run dry below the configured ``num_probes``), so a full-ring
        adaptive lookup reports the same ``probes_used`` as the fixed
        path — a precondition for the bit-identity properties.
        """
        index = self.index
        num_slots = getattr(index, "num_slots", None)
        if num_slots is not None:  # frozen layouts: slots per table - 1
            return int(num_slots) // int(index.num_tables) - 1
        deltas = getattr(index, "_probe_deltas", None)
        if deltas is not None:  # dict multi-probe: effective enumeration
            return int(deltas.shape[0])
        return 0

    def _linear_scan(self) -> LinearScan:
        """The exact-scan fallback, refreshed after incremental inserts.

        ``index.insert`` replaces the points array, so a cached scan
        would silently search the stale copy; rebuilding is cheap (the
        scan object only holds references).
        """
        if self._linear.points is not self.index.points:
            self._linear = LinearScan(self.index.points, self.index.family.metric)
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
        one :meth:`~repro.core.linear_scan.LinearScan.query_batch`
        distance-matrix pass (same kernel per row, so bit-identical
        answers).  Equation (1) is decided bound-first, as in
        :meth:`query` (see the module docstring): only the rows the
        exact ``candSize`` bounds leave open are estimated, in one
        vectorised merge over just those rows.

        The LSH rows run Steps S2 and S3 once for the batch: the frozen
        layout's ``candidate_ids_batch`` (one sort for rows of at most
        ``n / 8`` collisions), then ``LSHSearch.filter_candidates_batch``
        (one distance pass per block of up to 256 KiB of candidates).

        ``dedup`` is forwarded to the LSH branch's candidate retrieval;
        both dedup implementations return the identical candidate set,
        so it only affects speed (:class:`~repro.service.BatchQueryEngine`
        passes ``"vectorized"``).

        ``trace`` (a :class:`~repro.observability.StageTrace`) opts into
        per-stage wall-time attribution — ``hash`` / ``estimate`` /
        ``linear`` / ``candidates``.  The spans bracket the existing
        computation without touching it, so traced answers are
        bit-identical to untraced ones.

        ``adaptive`` (an :class:`~repro.core.adaptive.AdaptivePolicy`
        with a ``target_candidates`` budget) switches Step S1 to the
        index's per-query probe-budget lookup where the layout supports
        it: probing beyond the home bucket stops once the merged HLL
        estimate of the candidates collected so far reaches the target.
        With a budget the full fan-out cannot reach — or ``min_probes``
        covering every ring — the answers are bit-identical to the
        fixed path; otherwise the trimmed candidate set is a subset of
        the fixed one at equal-or-fewer probes.  The budget also caps
        dispatch: a row whose estimate certifies ``target_candidates``
        answers from its LSH candidate set even when Equation (1)
        favours the scan, so a budgeted query never examines all ``n``
        points once enough candidates are certified (its answers stay a
        subset of the scan's).  The ring walk's estimates are the
        decision input here — nothing further is merged — clamped to
        the trimmed lookup's exact bounds like any other estimate, so a
        non-binding budget dispatches exactly as the fixed path does.
        """
        radius = check_positive(radius, "radius")
        queries = np.asarray(queries)
        use_adaptive = (
            adaptive is not None
            and adaptive.bounds_probes
            and hasattr(self.index, "lookup_batch_adaptive")
        )
        probes_used: np.ndarray | None = None
        ring_estimates: np.ndarray | None = None
        with stage_timer(trace, "hash"):
            if use_adaptive:
                # The adaptive lookup *is* the estimate pass (ring-prefix
                # merges), so the whole decision input lands here.
                lookups, probes_used, ring_estimates = (
                    self.index.lookup_batch_adaptive(
                        queries,
                        adaptive.target_candidates,
                        min_probes=adaptive.min_probes,
                    )
                )
            else:
                lookups = self.index.lookup_batch(queries)
        with stage_timer(trace, "estimate"):
            verdicts = self._verdicts(lookups, ring_estimates)
        go_lsh = [lsh for lsh, _ in verdicts]
        if use_adaptive:
            # Under an adaptive budget, a row whose (trimmed) estimate
            # already certifies ``target_candidates`` keeps the LSH
            # candidate set even when Equation (1) favours the scan: the
            # budget's contract is to stop examining candidates once
            # enough are certified, and a linear pass over all n points
            # is exactly the over-examination it exists to avoid.  The
            # distance filter still runs, so the row's answers remain a
            # subset of what the scan would return.
            target = float(adaptive.target_candidates)
            go_lsh = [
                lsh or est >= target
                for lsh, est in zip(go_lsh, ring_estimates.tolist())
            ]

        fixed_probes = self._fixed_probes()

        def stats_of(i: int, examined: int) -> QueryStats:
            return self._stats(
                lookups[i].num_collisions,
                verdicts[i][1],
                go_lsh[i],
                examined,
                int(probes_used[i]) if probes_used is not None else fixed_probes,
            )

        results: list[QueryResult | None] = [None] * len(lookups)
        linear_rows = [i for i, lsh in enumerate(go_lsh) if not lsh]
        if linear_rows:
            with stage_timer(trace, "linear"):
                scanned = self._linear_scan().query_batch(queries[linear_rows], radius)
            for i, result in zip(linear_rows, scanned):
                # A linear scan genuinely examines every point.
                result.stats = stats_of(i, self.index.n)
                results[i] = result
        lsh_rows = [i for i, lsh in enumerate(go_lsh) if lsh]
        with stage_timer(trace if lsh_rows else None, "candidates"):
            # Step S2 once for the batch on the frozen layout; other
            # layouts deduplicate per query.
            batch_dedup = getattr(self.index, "candidate_ids_batch", None)
            if batch_dedup is not None and lsh_rows:
                candidate_sets = batch_dedup([lookups[i] for i in lsh_rows], dedup=dedup)
            else:
                candidate_sets = [
                    self.index.candidate_ids(lookups[i], dedup=dedup) for i in lsh_rows
                ]
            filtered = self._lsh.filter_candidates_batch(
                queries.take(lsh_rows, axis=0), radius, candidate_sets
            )
            for i, candidates, (ids, distances) in zip(lsh_rows, candidate_sets, filtered):
                results[i] = QueryResult(
                    ids=ids,
                    distances=distances,
                    radius=radius,
                    # LSH rows report the materialised candidate-set size.
                    stats=stats_of(i, int(candidates.size)),
                )
        return results

    def decide(self, query: np.ndarray) -> Strategy:
        """The dispatch decision only (no candidate retrieval).

        Useful for the Figure 3 experiment, which tracks the fraction
        of linear-search calls without needing the answers.
        """
        query = check_vector(query, dim=self.index.dim, name="query")
        ((go_lsh, _),) = self._verdicts([self.index.lookup(query)])
        return Strategy.LSH if go_lsh else Strategy.LINEAR

    def __repr__(self) -> str:
        return f"HybridSearcher(index={self.index!r}, cost_model={self.cost_model!r})"


class HybridLSH:
    """Facade: build a paper-configured hybrid rNNR searcher in one call.

    Parameters
    ----------
    points:
        ``(n, d)`` data matrix.
    metric:
        ``"l2"``, ``"l1"``, ``"cosine"``, ``"hamming"`` or ``"jaccard"``.
    radius:
        The radius the index parameters are tuned for (queries may pass
        a different radius, but the ``1 - delta`` guarantee is stated
        at this one).
    num_tables / delta / hll_precision:
        Paper defaults 50 / 0.1 / 7 (= 128 registers).
    cost_model:
        Pass a :class:`~repro.core.cost_model.CostModel` (e.g. built
        via :meth:`CostModel.from_ratio` with the paper's ratios) to
        skip timing-based calibration; ``None`` runs
        :func:`~repro.core.calibration.calibrate_cost_model`.
    seed:
        Master randomness (family sampling + calibration sampling).

    Examples
    --------
    >>> import numpy as np
    >>> rng = np.random.default_rng(7)
    >>> points = rng.normal(size=(1000, 24))
    >>> hybrid = HybridLSH(points, metric="l2", radius=2.0,
    ...                    cost_model=CostModel.from_ratio(6.0), seed=1)
    >>> result = hybrid.query(points[3])
    >>> 3 in result.ids
    True
    """

    def __init__(
        self,
        points: np.ndarray,
        metric: str,
        radius: float,
        num_tables: int = 50,
        delta: float = 0.1,
        hll_precision: int = 7,
        cost_model: CostModel | None = None,
        lazy_threshold: int | None = None,
        seed: RandomState = None,
    ) -> None:
        points = np.asarray(points)
        params = paper_parameters(
            metric,
            dim=points.shape[1],
            radius=radius,
            num_tables=num_tables,
            delta=delta,
            seed=seed,
        )
        self.params = params
        self.radius = float(radius)
        self.index = LSHIndex(
            params.family,
            k=params.k,
            num_tables=params.num_tables,
            hll_precision=hll_precision,
            lazy_threshold=lazy_threshold,
        ).build(points)
        if cost_model is None:
            cost_model = calibrate_cost_model(points, params.family.metric, seed=seed).model
        self.searcher = HybridSearcher(self.index, cost_model)

    @classmethod
    def from_index(
        cls,
        index: LSHIndex,
        radius: float,
        cost_model: CostModel,
        delta: float = 0.1,
    ) -> HybridLSH:
        """Wrap an already-built index (e.g. one loaded from disk).

        Skips parameter derivation and construction entirely — the
        index's own family, ``k`` and ``L`` are taken as-is, so a
        persisted index reopened through here answers bit-identically
        to the instance that saved it.
        """
        from repro.core.presets import PaperParameters

        self = cls.__new__(cls)
        self.params = PaperParameters(
            family=index.family,
            # The covering variant has no uniform composite width; its
            # per-table widths follow the block partition.
            k=getattr(index, "k", 0),
            num_tables=index.num_tables,
            p1=index.family.collision_probability(radius),
            radius=float(radius),
            delta=float(delta),
        )
        self.radius = float(radius)
        self.index = index
        self.searcher = HybridSearcher(index, cost_model)
        return self

    def freeze(self, refreeze_threshold: int | None = None) -> HybridLSH:
        """Compact the underlying index into the frozen CSR layout.

        Replaces ``self.index`` with its
        :class:`~repro.index.frozen.FrozenLSHIndex` (bit-identical
        answers, vectorised batch primitives) and rewires the searcher.
        Returns ``self`` for chaining.
        """
        self.index = self.index.freeze(refreeze_threshold=refreeze_threshold)
        self.searcher = HybridSearcher(self.index, self.searcher.cost_model)
        return self

    @property
    def cost_model(self) -> CostModel:
        """The cost model driving the per-query dispatch."""
        return self.searcher.cost_model

    def query(self, query: np.ndarray, radius: float | None = None) -> QueryResult:
        """Answer one query; defaults to the tuned radius."""
        return self.searcher.query(query, self.radius if radius is None else radius)

    def query_batch(
        self,
        queries: np.ndarray,
        radius: float | None = None,
        adaptive: AdaptivePolicy | None = None,
    ) -> list[QueryResult]:
        """Answer a query set (one result per row, batched Step S1)."""
        return self.searcher.query_batch(
            np.asarray(queries),
            self.radius if radius is None else radius,
            adaptive=adaptive,
        )

    def __repr__(self) -> str:
        return (
            f"HybridLSH(metric={self.params.family.metric_name}, r={self.radius}, "
            f"k={self.params.k}, L={self.params.num_tables})"
        )
