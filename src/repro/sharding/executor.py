"""Query fan-out over shards with globally consistent ranking.

A query against a sharded archive runs in two stages:

1. **fan-out** — every shard matches the query independently (its own
   merged lists, jump indexes, commit-time index, and disposition log),
   one shard after another in the caller's thread, and scores every
   candidate it matched with the engine's configured scorer (BM25 or
   cosine) under *aggregated* collection statistics (global document
   count, global document frequencies, global average length), so a
   document's score does not depend on which shard it landed on;
2. **one cut** — the shards' scores are taken together and cut once at
   the ``top_k``-th best.  Only the documents that can still make the
   answer are mapped to global IDs and sorted by ``(-score, global_id)``.

The aggregated statistics equal what a single unsharded engine would
compute over the same corpus, so a K-shard archive returns the same
result IDs as a 1-shard archive (property-tested in
``tests/sharding``).  Scores agree up to reassociation: a shard sums a
document's terms in ascending *shard-local* term ID (ROADMAP item 24(a)),
so a sharded score may differ from the unsharded one in the last bit.

The fan-out is a loop, not a pool: a shard run is interpreter work over
state already in memory, so threads only pass the GIL around, and worker
processes cost a journal replay after every write (DESIGN §6, *Fan-out
is a loop*, has the measurements).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate
from time import perf_counter
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import WorkloadError
from repro.observability.metrics import MetricsRegistry
from repro.search.analyzer import Analyzer
from repro.search.engine import EngineConfig, SearchResult
from repro.search.query import Query, parse_query
from repro.search.ranking import BM25Scorer, CollectionStats, CosineScorer, contenders, cut, score
from repro.sharding.router import ShardRouter

#: A shard's scored candidates: its local IDs, ascending, beside their
#: scores (lists or arrays, as :func:`~repro.search.ranking.score` gives).
ShardRun = Tuple[object, object]


@dataclass(frozen=True)
class AggregatedTermStats:
    """Collection-level statistics aggregated across every shard.

    Document frequencies are keyed by the query's terms, a shard-neutral
    vocabulary, since each shard grows its own term-ID space; a shard
    scores under its own term IDs (:meth:`ParallelQueryExecutor._shard_run`).
    """

    df: Dict[str, int]
    num_docs: int
    avg_doc_length: float

    @classmethod
    def of(
        cls, df: Dict[str, int], num_docs: int, total_length: int
    ) -> "AggregatedTermStats":
        """From cross-shard sums — exactly the statistics a single
        unsharded engine would hold for the same corpus."""
        avg = max(1.0, total_length / num_docs) if num_docs else 1.0
        return cls(df=df, num_docs=num_docs, avg_doc_length=avg)


class _ShardScopedStats:
    """A :class:`CollectionStats`-compatible view for scoring one shard.

    Global quantities (document count, average length) come from the
    cross-shard aggregate, and ``df`` holds its document frequencies
    under the shard's own term IDs; per-document lengths are answered by
    the owning shard's own statistics, keyed by local ID.
    """

    __slots__ = ("df", "num_docs", "avg_doc_length", "doc_length", "lengths_of")

    def __init__(self, aggregate: AggregatedTermStats, local: CollectionStats, df: Dict[int, int]):
        self.df = df
        self.num_docs = aggregate.num_docs
        self.avg_doc_length = aggregate.avg_doc_length
        self.doc_length = local.doc_length
        self.lengths_of = local.lengths_of


class ParallelQueryExecutor:
    """Runs a query on every shard in turn and cuts their scores once.

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
        each shard contributes a ``shard`` span and the one cut across
        shards a ``merge`` span.  A shard's exception propagates with its
        type kept and ``shard_index`` attached; later shards are not
        visited.
        """
        if self.closed:
            raise WorkloadError("query executor is closed; open a new engine to run queries")
        if isinstance(query, str):
            query = parse_query(query, analyzer=self.analyzer)
        self._c_fanout.inc()
        aggregate = self.aggregate_term_stats(query.terms)
        runs = []
        try:
            for shard_index in range(len(self.shards)):
                start = perf_counter()
                run = self._shard_run(shard_index, query, aggregate)
                end = perf_counter()
                if self._metrics_on:
                    self._run_series[shard_index].observe(end - start)
                if trace is not None:
                    trace.record(
                        "shard", start=start, end=end, shard=shard_index, results=len(run[0])
                    )
                runs.append(run)
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
        return self._cut(runs, top_k, trace)

    def aggregate_term_stats(self, terms: Sequence[str]) -> AggregatedTermStats:
        """Cross-shard collection statistics for one query's terms.

        Sums per-shard document frequencies, document counts, and total
        lengths — exactly the statistics a single unsharded engine would
        hold for the same corpus.
        """
        df: Dict[str, int] = {}
        for term in terms:
            total = 0
            for shard in self.shards:
                term_id = shard.term_id(term)
                if term_id is not None:
                    total += shard.stats.df.get(term_id, 0)
            df[term] = total
        return AggregatedTermStats.of(
            df,
            sum(shard.stats.num_docs for shard in self.shards),
            sum(shard.stats.total_length for shard in self.shards),
        )

    def _shard_run(
        self, shard_index: int, query: Query, aggregate: AggregatedTermStats
    ) -> ShardRun:
        """Match one shard and score every candidate, uncut: the shard's
        own index, scored as an unsharded engine scores under its own
        term IDs, with aggregated df/num_docs/avg length and shard-local
        document lengths."""
        engine = self.shards[shard_index]
        candidates = engine.match(query)
        if not len(candidates):
            return (), ()
        df: Dict[int, int] = {}
        for term, count in aggregate.df.items():
            term_id = engine.term_id(term)
            if term_id is not None:
                df[term_id] = count
        stats = _ShardScopedStats(aggregate, engine.stats, df)
        scorer = BM25Scorer(stats) if self.config.ranking == "bm25" else CosineScorer(stats)
        return score(scorer, candidates)

    def _cut(self, runs: Sequence[ShardRun], top_k: int, trace) -> List[SearchResult]:
        """The ``top_k`` best of every shard's scored candidates, in
        global IDs, by :func:`~repro.search.ranking.cut`: exactly sorting
        every candidate by ``(-score, global_id)`` and cutting.

        One threshold, the ``top_k``-th best score of them all, picks
        the contenders, ties at it included, whichever shards they are
        on; only those are mapped to global IDs and sorted.
        """
        start = perf_counter()
        shards = [at for at, run in enumerate(runs) if len(run[0])] if top_k > 0 else []
        results: List[SearchResult] = []
        if shards:
            every_score = np.concatenate([runs[at][1] for at in shards])
            best = contenders(every_score, top_k)
            ends = list(accumulate(len(runs[at][0]) for at in shards))
            owners = [shards[bisect_right(ends, at)] for at in best.tolist()]
            local_ids = np.concatenate([runs[at][0] for at in shards])[best].tolist()
            global_ids = list(map(self.router.to_global, owners, local_ids))
            scores = every_score[best].tolist()
            results = [SearchResult(doc_id=d, score=s) for d, s in cut(global_ids, scores, top_k)]
        if trace is not None:
            end = perf_counter()
            trace.record("merge", start=start, end=end, runs=len(runs), results=len(results))
        return results

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ParallelQueryExecutor(shards={len(self.shards)})"
