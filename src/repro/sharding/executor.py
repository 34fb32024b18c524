"""Query fan-out over shards with globally consistent ranking.

A query against a sharded archive runs in two stages:

1. **fan-out** — every shard matches the query independently (its own
   merged lists, jump indexes, commit-time index, and disposition log),
   one shard after another in the caller's thread, resolving each query
   term once;
2. **one ranking** — the shards' statistics for the query's terms add up
   to one :class:`~repro.search.ranking.QueryStats` (document
   frequencies, document count, total length), exactly the record an
   unsharded engine over the same corpus would score with.  Each shard
   scores every candidate it matched under that record with the
   engine's configured scorer (BM25 or cosine), and the shards' scores
   are cut once at the ``top_k``-th best.  Only the documents that can
   still make the answer are mapped to global IDs and sorted by
   ``(-score, global_id)``.

Every engine sums a document's score over its terms in ascending
canonical term text, which no shard assignment changes, so a K-shard
archive returns the same results with the same scores, bit for bit, as
a 1-shard archive (``tests/sharding``, ``tests/search/test_ranked_answers.py``).

The fan-out is a loop, not a pool: a shard run is interpreter work over
state already in memory, so threads only pass the GIL around, and worker
processes cost a journal replay after every write (DESIGN §6, *Fan-out
is a loop*, has the measurements).
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import accumulate
from time import perf_counter
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import WorkloadError
from repro.observability.metrics import MetricsRegistry
from repro.search.analyzer import Analyzer
from repro.search.engine import Candidates, EngineConfig, SearchResult
from repro.search.query import parse_query
from repro.search.ranking import SCORERS, QueryStats, contenders, cut, score
from repro.sharding.router import ShardRouter

#: A shard's scored candidates: its local IDs, ascending, beside their
#: scores (lists or arrays, as :func:`~repro.search.ranking.score` gives).
ShardRun = Tuple[object, object]


class ParallelQueryExecutor:
    """Matches a query on every shard in turn, scores each shard's
    candidates under the shards' summed statistics, and cuts once.

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
            "Time a shard sub-query spent matching",
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
        each shard's match contributes a ``shard`` span, and scoring
        with the one cut across shards a ``merge`` span.  A shard's
        exception propagates with its type kept and ``shard_index``
        attached; later shards are not visited.
        """
        if self.closed:
            raise WorkloadError("query executor is closed; open a new engine to run queries")
        if isinstance(query, str):
            query = parse_query(query, analyzer=self.analyzer)
        self._c_fanout.inc()
        matched: List[Candidates] = []
        try:
            for shard_index, shard in enumerate(self.shards):
                start = perf_counter()
                candidates = shard.match(query)
                end = perf_counter()
                if self._metrics_on:
                    self._run_series[shard_index].observe(end - start)
                if trace is not None:
                    trace.record(
                        "shard", start=start, end=end, shard=shard_index, results=len(candidates)
                    )
                matched.append(candidates)
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
        start = perf_counter()
        # Each shard's statistics under the term IDs its match resolved,
        # summed: the record a single unsharded engine would give.
        records = [shard.stats.query_stats(c.terms) for shard, c in zip(self.shards, matched)]
        stats = sum(records[1:], records[0])
        runs = [self._shard_run(at, candidates, stats) for at, candidates in enumerate(matched)]
        results = self._cut(runs, top_k)
        if trace is not None:
            end = perf_counter()
            trace.record("merge", start=start, end=end, runs=len(runs), results=len(results))
        return results

    def _shard_run(self, shard_index: int, candidates: Candidates, stats: QueryStats) -> ShardRun:
        """Score every candidate one shard matched, uncut, under the
        summed ``stats`` and the shard's own document lengths."""
        if not len(candidates):
            return (), ()
        lengths = self.shards[shard_index].stats
        return score(SCORERS[self.config.ranking](stats, lengths), candidates)

    def _cut(self, runs: Sequence[ShardRun], top_k: int) -> List[SearchResult]:
        """The ``top_k`` best of every shard's scored candidates, in
        global IDs, by :func:`~repro.search.ranking.cut`: exactly sorting
        every candidate by ``(-score, global_id)`` and cutting.

        One threshold, the ``top_k``-th best score of them all, picks
        the contenders, ties at it included, whichever shards they are
        on; only those are mapped to global IDs and sorted.
        """
        shards = [at for at, run in enumerate(runs) if len(run[0])] if top_k > 0 else []
        if not shards:
            return []
        every_score = np.concatenate([runs[at][1] for at in shards])
        best = contenders(every_score, top_k)
        ends = list(accumulate(len(runs[at][0]) for at in shards))
        owners = [shards[bisect_right(ends, at)] for at in best.tolist()]
        local_ids = np.concatenate([runs[at][0] for at in shards])[best].tolist()
        global_ids = list(map(self.router.to_global, owners, local_ids))
        scores = every_score[best].tolist()
        return [SearchResult(doc_id=d, score=s) for d, s in cut(global_ids, scores, top_k)]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ParallelQueryExecutor(shards={len(self.shards)})"
