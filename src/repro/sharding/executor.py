"""Query fan-out over shards with globally consistent ranking.

A query against a sharded archive runs in three stages:

1. **fan-out** — every shard matches the query independently (its own
   merged lists, jump indexes, commit-time index, and disposition log),
   one shard after another in the caller's thread, producing per-shard
   candidate sets;
2. **global re-rank** — candidates are scored with the engine's
   configured scorer (BM25 or cosine) under *aggregated* collection
   statistics (global document count, global document frequencies,
   global average length), so a document's score does not depend on
   which shard it landed on;
3. **k-way merge** — per-shard ranked runs, already sorted by
   ``(-score, global_id)``, are merged with a heap
   (:func:`heapq.merge`) and cut at ``top_k``.

Because the aggregated statistics equal what a single unsharded engine
would compute over the same corpus, a K-shard archive returns the same
result set — and the same scores — as a 1-shard archive (property-tested
in ``tests/sharding``).

The fan-out is a loop, not a pool: a shard run is interpreter work over
state already in memory, so threads only pass the GIL around, and worker
processes cost a journal replay after every write (DESIGN §6, *Fan-out
is a loop*, has the measurements).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from itertools import islice
from time import perf_counter
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import WorkloadError
from repro.observability.metrics import MetricsRegistry
from repro.search.analyzer import Analyzer
from repro.search.engine import EngineConfig, SearchResult
from repro.search.query import Query, parse_query
from repro.search.ranking import BM25Scorer, CollectionStats, CosineScorer, rank
from repro.sharding.router import ShardRouter


@dataclass(frozen=True)
class AggregatedTermStats:
    """Collection-level statistics aggregated across every shard.

    Term keys are *positions in the query's term tuple* — a shard-neutral
    vocabulary, since each shard grows its own term-ID space.
    """

    df: Dict[int, int]
    num_docs: int
    avg_doc_length: float

    @classmethod
    def of(
        cls, df: Dict[int, int], num_docs: int, total_length: int
    ) -> "AggregatedTermStats":
        """From cross-shard sums — exactly the statistics a single
        unsharded engine would hold for the same corpus."""
        avg = max(1.0, total_length / num_docs) if num_docs else 1.0
        return cls(df=df, num_docs=num_docs, avg_doc_length=avg)


class _ShardScopedStats:
    """A :class:`CollectionStats`-compatible view for scoring one shard.

    Global quantities (document count, document frequencies, average
    length) come from the cross-shard aggregate; per-document lengths are
    answered by the owning shard's own statistics, keyed by local ID.
    """

    __slots__ = ("df", "num_docs", "avg_doc_length", "doc_length", "lengths_of")

    def __init__(self, aggregate: AggregatedTermStats, local: CollectionStats):
        self.df = aggregate.df
        self.num_docs = aggregate.num_docs
        self.avg_doc_length = aggregate.avg_doc_length
        self.doc_length = local.doc_length
        self.lengths_of = local.lengths_of


def _merge_key(result: SearchResult) -> Tuple[float, int]:
    return (-result.score, result.doc_id)


def _merge_runs(
    runs: Sequence[List[SearchResult]], top_k: int, trace
) -> List[SearchResult]:
    """K-way heap merge of per-shard runs sorted by ``_merge_key``."""
    merge_start = perf_counter()
    results = list(islice(heapq.merge(*runs, key=_merge_key), top_k))
    if trace is not None:
        trace.record(
            "merge",
            start=merge_start,
            end=perf_counter(),
            runs=len(runs),
            results=len(results),
        )
    return results


def _score_shard(
    engine, query: Query, aggregate: AggregatedTermStats, ranking: str, top_k: int
) -> List[Tuple[int, float]]:
    """Match + globally score one shard; its best ``top_k`` as a
    shard-local ``(id, score)`` run.

    Candidates from the shard's own index, ranked by
    :func:`repro.search.ranking.rank` with term IDs keyed by query
    position (the shard-neutral vocabulary of ``aggregate``), under
    aggregated df/num_docs/avg length with shard-local document lengths.
    Ordering by ``(-score, local_id)`` matches the global sort because
    local IDs are assigned in the same arrival order as global IDs
    within a shard, so no document past a shard's ``top_k`` can reach
    the global ``top_k``.
    """
    candidates = engine.match(query)
    if not candidates:
        return []
    position_of: Dict[int, int] = {}
    for position, term in enumerate(query.terms):
        term_id = engine.term_id(term)
        if term_id is not None:
            position_of[term_id] = position
    stats = _ShardScopedStats(aggregate, engine.stats)
    scorer = BM25Scorer(stats) if ranking == "bm25" else CosineScorer(stats)
    return rank(scorer, candidates, top_k, position_of)


class ParallelQueryExecutor:
    """Runs a query on every shard in turn and merges the ranked runs.

    Parallel in name only (``bench/layers.py`` binds the name): the
    shards are visited by a loop in the calling thread, which starts no
    thread and no process.  Concurrent callers meet only inside the
    shard engines.

    Parameters
    ----------
    shards:
        The per-shard :class:`TrustworthySearchEngine` instances.
    router:
        Translates shard-local document IDs back to global IDs.
    config:
        Engine configuration (selects the ranking scorer).
    analyzer:
        Query analyzer; defaults to a fresh :class:`Analyzer` matching
        the shard engines' defaults.
    metrics:
        Metrics registry; the sharded engine passes the registry its
        shards share, so fan-out timings land next to per-shard engine
        series.  Defaults to a fresh registry.
    """

    def __init__(
        self,
        shards: Sequence,
        router: ShardRouter,
        config: EngineConfig,
        *,
        analyzer: Optional[Analyzer] = None,
        metrics=None,
    ):
        self.shards = list(shards)
        self.router = router
        self.config = config
        self.analyzer = analyzer or Analyzer()
        #: Whether :meth:`close` has been called.
        self.closed = False
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._metrics_on = bool(self.metrics.enabled)
        self._c_fanout = self.metrics.counter(
            "repro_fanout_queries_total",
            "Queries fanned out across shards by the executor",
        )
        run_family = self.metrics.histogram(
            "repro_shard_run_seconds",
            "Time a shard sub-query spent matching and scoring",
            labels=("shard",),
        )
        self._run_series = [run_family.labels(shard=i) for i in range(len(self.shards))]

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Refuse further queries (idempotent)."""
        self.closed = True

    # ------------------------------------------------------------------
    # query path
    # ------------------------------------------------------------------
    def search(self, query, *, top_k: int = 10, trace=None) -> List[SearchResult]:
        """Run ``query`` across all shards; returns global ranked results.

        With a :class:`~repro.observability.trace.QueryTrace` attached,
        each shard contributes a ``shard`` span and the final heap merge
        a ``merge`` span.  A shard's exception propagates with its type
        kept and ``shard_index`` attached; later shards are not visited.
        """
        if self.closed:
            raise WorkloadError(
                "query executor is closed; open a new engine to run queries"
            )
        if isinstance(query, str):
            query = parse_query(query, analyzer=self.analyzer)
        self._c_fanout.inc()
        aggregate = self.aggregate_term_stats(query.terms)
        runs = []
        try:
            for shard_index in range(len(self.shards)):
                runs.append(self._timed_shard_run(shard_index, query, aggregate, top_k, trace))
        except Exception as exc:
            # Type-preserving, so TamperDetectedError handling upstream
            # keeps working.
            try:
                exc.shard_index = shard_index
            except AttributeError:  # pragma: no cover - slotted exc
                pass
            if hasattr(exc, "add_note"):  # Python 3.11+
                exc.add_note(f"raised by shard {shard_index} during query fan-out")
            raise
        return _merge_runs(runs, top_k, trace)

    def aggregate_term_stats(
        self, terms: Sequence[str]
    ) -> AggregatedTermStats:
        """Cross-shard collection statistics for one query's terms.

        Sums per-shard document frequencies, document counts, and total
        lengths — exactly the statistics a single unsharded engine would
        hold for the same corpus.
        """
        df: Dict[int, int] = {}
        for position, term in enumerate(terms):
            total = 0
            for shard in self.shards:
                term_id = shard.term_id(term)
                if term_id is not None:
                    total += shard.stats.df.get(term_id, 0)
            df[position] = total
        return AggregatedTermStats.of(
            df,
            sum(shard.stats.num_docs for shard in self.shards),
            sum(shard.stats.total_length for shard in self.shards),
        )

    def _timed_shard_run(
        self,
        shard_index: int,
        query: Query,
        aggregate: AggregatedTermStats,
        top_k: int,
        trace,
    ) -> List[SearchResult]:
        """Run one shard sub-query under the run-time series and a span."""
        run_start = perf_counter()
        result = self._shard_run(shard_index, query, aggregate, top_k)
        run_end = perf_counter()
        if self._metrics_on:
            self._run_series[shard_index].observe(run_end - run_start)
        if trace is not None:
            trace.record(
                "shard",
                start=run_start,
                end=run_end,
                shard=shard_index,
                results=len(result),
            )
        return result

    def _shard_run(
        self,
        shard_index: int,
        query: Query,
        aggregate: AggregatedTermStats,
        top_k: int,
    ) -> List[SearchResult]:
        """Match + globally score one shard; returns a sorted run."""
        to_global = self.router.to_global
        return [
            SearchResult(doc_id=to_global(shard_index, local_id), score=score)
            for local_id, score in _score_shard(
                self.shards[shard_index], query, aggregate, self.config.ranking, top_k
            )
        ]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ParallelQueryExecutor(shards={len(self.shards)})"
