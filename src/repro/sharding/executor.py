"""Parallel query fan-out over shards with globally consistent ranking.

A query against a sharded archive runs in three stages:

1. **fan-out** — every shard matches the query independently (its own
   merged lists, jump indexes, commit-time index, and disposition log),
   on a thread pool, producing per-shard candidate sets;
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
"""

from __future__ import annotations

import heapq
import multiprocessing
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import islice
from time import perf_counter
from typing import Dict, List, Optional, Sequence, Tuple

import repro.errors as _errors
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


def _fanout_metrics(metrics, num_shards: int):
    """Register the executor metric families; returns the fan-out
    counter and the per-shard queue-wait and run-time series."""
    fanout = metrics.counter(
        "repro_fanout_queries_total",
        "Queries fanned out across shards by the executor",
    )
    queue_family = metrics.histogram(
        "repro_shard_queue_seconds",
        "Time a shard sub-query waited for a fan-out worker",
        labels=("shard",),
    )
    run_family = metrics.histogram(
        "repro_shard_run_seconds",
        "Time a shard sub-query spent matching and scoring",
        labels=("shard",),
    )
    return (
        fanout,
        [queue_family.labels(shard=i) for i in range(num_shards)],
        [run_family.labels(shard=i) for i in range(num_shards)],
    )


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

    The one shard run both executors share: candidates from the shard's
    own index, ranked by :func:`repro.search.ranking.rank` with term IDs
    keyed by query position (the shard-neutral vocabulary of
    ``aggregate``), under aggregated df/num_docs/avg length with
    shard-local document lengths.  Ordering by ``(-score, local_id)``
    matches the global sort because local IDs are assigned in the same
    arrival order as global IDs within a shard, so no document past a
    shard's ``top_k`` can reach the global ``top_k``.
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
    """Fans queries out to every shard and merges the ranked runs.

    Parameters
    ----------
    shards:
        The per-shard :class:`TrustworthySearchEngine` instances.
    router:
        Translates shard-local document IDs back to global IDs.
    config:
        Engine configuration (selects the ranking scorer).
    max_workers:
        Thread-pool width; defaults to one thread per shard.  The pool
        is created lazily on the first multi-shard query, so ingest-only
        sessions never spawn threads.
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
        max_workers: Optional[int] = None,
        analyzer: Optional[Analyzer] = None,
        metrics=None,
    ):
        self.shards = list(shards)
        self.router = router
        self.config = config
        self.analyzer = analyzer or Analyzer()
        self._max_workers = max_workers or max(1, len(self.shards))
        self._pool: Optional[ThreadPoolExecutor] = None
        self._closed = False
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._metrics_on = bool(self.metrics.enabled)
        self._c_fanout, self._queue_series, self._run_series = _fanout_metrics(
            self.metrics, len(self.shards)
        )

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has been called."""
        return self._closed

    @property
    def pool(self) -> ThreadPoolExecutor:
        """The (lazily created) fan-out thread pool.

        Raises :class:`~repro.errors.WorkloadError` after :meth:`close`:
        silently respawning the pool would resurrect an executor its
        owner already released (and leak the new pool, since the owner
        will not close twice).
        """
        if self._closed:
            raise WorkloadError(
                "query executor is closed; open a new engine to run queries"
            )
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=self._max_workers,
                thread_name_prefix="shard-query",
            )
        return self._pool

    def close(self) -> None:
        """Shut down the fan-out pool (idempotent; queries now error)."""
        if self._closed:
            return
        self._closed = True
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    # ------------------------------------------------------------------
    # query path
    # ------------------------------------------------------------------
    def search(self, query, *, top_k: int = 10, trace=None) -> List[SearchResult]:
        """Run ``query`` across all shards; returns global ranked results.

        With a :class:`~repro.observability.trace.QueryTrace` attached,
        each shard contributes a ``shard`` span (recorded from its worker
        thread) whose ``queue_seconds`` attribute separates pool wait
        from execution; the final heap merge gets a ``merge`` span.
        """
        if self._closed:
            raise WorkloadError(
                "query executor is closed; open a new engine to run queries"
            )
        if isinstance(query, str):
            query = parse_query(query, analyzer=self.analyzer)
        self._c_fanout.inc()
        aggregate = self.aggregate_term_stats(query.terms)
        submitted = perf_counter()
        if len(self.shards) == 1:
            runs = [self._timed_shard_run(0, query, aggregate, top_k, submitted, trace)]
        else:
            futures = [
                self.pool.submit(
                    self._timed_shard_run, i, query, aggregate, top_k, submitted, trace
                )
                for i in range(len(self.shards))
            ]
            runs = []
            shard_index = -1
            try:
                for shard_index, future in enumerate(futures):
                    runs.append(future.result())
            except Exception as exc:
                # One shard failed: stop sibling shards that have not
                # started, then surface the failure with the shard
                # attached (type-preserving, so TamperDetectedError
                # handling upstream keeps working).
                for pending in futures:
                    pending.cancel()
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
        submitted: float,
        trace,
    ) -> List[SearchResult]:
        """Run one shard sub-query, splitting pool-queue wait from execution."""
        run_start = perf_counter()
        result = self._shard_run(shard_index, query, aggregate, top_k)
        run_end = perf_counter()
        if self._metrics_on:
            self._queue_series[shard_index].observe(run_start - submitted)
            self._run_series[shard_index].observe(run_end - run_start)
        if trace is not None:
            trace.record(
                "shard",
                start=run_start,
                end=run_end,
                shard=shard_index,
                queue_seconds=run_start - submitted,
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
        state = "idle" if self._pool is None else "pooled"
        return (
            f"ParallelQueryExecutor(shards={len(self.shards)}, "
            f"workers={self._max_workers}, {state})"
        )


# ----------------------------------------------------------------------
# process-level fan-out
# ----------------------------------------------------------------------
def _open_shard_engine(shard_path: str, config: EngineConfig):
    """Reopen one shard's journal as a read-serving engine (worker side).

    The journaled device replays committed state on open and only writes
    on mutation; a search-only worker never mutates, so reopening the
    parent's shard journal is conflict-free and yields a point-in-time
    snapshot of the shard.
    """
    from repro.observability.metrics import NullMetricsRegistry
    from repro.search.engine import TrustworthySearchEngine
    from repro.worm.persistent import JournaledWormDevice
    from repro.worm.storage import CachedWormStore

    device = JournaledWormDevice(shard_path, fsync=False, group_commit=1)
    store = CachedWormStore(None, device=device)
    return TrustworthySearchEngine(
        config, store=store, metrics=NullMetricsRegistry()
    )


def _shard_worker_main(conn, shard_index: int, shard_path: str, config) -> None:
    """Worker process entry point: serve stats/query requests over a pipe.

    Protocol (parent -> worker / worker -> parent), one reply per
    request, all payloads plain picklable values:

    * ``("stats", terms)`` -> ``("ok", (df_list, num_docs, total_length))``
    * ``("query", query, aggregate, top_k)`` ->
      ``("ok", ([(local_id, score), ...], run_seconds))`` with the run
      the shard's best ``top_k``, sorted by ``(-score, local_id)``
    * ``("close",)`` -> worker exits (no reply)
    * any failure -> ``("error", exception_type_name, message)``
    """
    try:
        engine = _open_shard_engine(shard_path, config)
    except Exception as exc:  # noqa: BLE001 - forwarded to the parent
        conn.send(("error", type(exc).__name__, str(exc)))
        conn.close()
        return
    conn.send(("ok", len(engine.documents)))
    try:
        while True:
            try:
                request = conn.recv()
            except EOFError:
                break
            op = request[0]
            if op == "close":
                break
            try:
                if op == "stats":
                    terms = request[1]
                    df = []
                    for term in terms:
                        term_id = engine.term_id(term)
                        df.append(
                            engine.stats.df.get(term_id, 0)
                            if term_id is not None
                            else 0
                        )
                    conn.send(
                        ("ok", (df, engine.stats.num_docs, engine.stats.total_length))
                    )
                elif op == "query":
                    _, query, aggregate, top_k = request
                    started = perf_counter()
                    run = _score_shard(engine, query, aggregate, config.ranking, top_k)
                    conn.send(("ok", (run, perf_counter() - started)))
                else:
                    conn.send(
                        ("error", "WorkloadError", f"unknown request {op!r}")
                    )
            except Exception as exc:  # noqa: BLE001 - forwarded to the parent
                conn.send(("error", type(exc).__name__, str(exc)))
    finally:
        conn.close()


class ProcessShardExecutor:
    """Fans queries out to per-process shard engines (GIL-free scoring).

    Each shard gets a dedicated worker process (``spawn`` start method)
    that reopens the shard's WORM journal read-only-in-practice and
    serves a small request protocol over a pipe.  Matching and bulk
    scoring then run on separate interpreters — true parallelism where
    the thread executor serializes CPU-bound work behind the GIL — at
    the cost of per-query serialization (query + aggregate out, ranked
    run back).

    Statistics aggregation, global-ID translation, the heap merge, and
    result verification all stay in the parent, using the identical
    arithmetic of :class:`ParallelQueryExecutor`, so both executors
    return byte-identical results over the same committed state.

    **Snapshot semantics**: workers replay their journal at spawn time
    and see nothing committed afterwards, so whoever commits must call
    :meth:`refresh` — :class:`~repro.sharding.engine.ShardedSearchEngine`
    does after every mutating call — and the next query respawns the
    workers against the journals as they then stand.  Lifecycle
    mirrors the thread executor: lazy spawn on first query,
    :meth:`close` is idempotent, queries after close raise.
    """

    def __init__(
        self,
        shard_paths: Sequence[str],
        router: ShardRouter,
        config: EngineConfig,
        *,
        analyzer: Optional[Analyzer] = None,
        metrics=None,
    ):
        if not shard_paths:
            raise WorkloadError("process executor needs at least one shard path")
        self.shard_paths = [str(path) for path in shard_paths]
        self.router = router
        self.config = config
        self.analyzer = analyzer or Analyzer()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._metrics_on = bool(self.metrics.enabled)
        self._c_fanout, self._queue_series, self._run_series = _fanout_metrics(
            self.metrics, len(self.shard_paths)
        )
        self._workers: Optional[List[Tuple[object, object]]] = None
        self._closed = False
        # The pipe protocol is strictly request/reply per worker; one
        # lock serializes whole fan-out rounds so concurrent callers
        # (service worker threads, load-test clients) cannot interleave
        # messages.  Shard-level parallelism is across processes, inside
        # a round, so this costs concurrency only between queries.
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has been called."""
        return self._closed

    def _ensure_workers(self) -> None:
        if self._closed:
            raise WorkloadError(
                "query executor is closed; open a new engine to run queries"
            )
        if self._workers is not None:
            return
        context = multiprocessing.get_context("spawn")
        workers: List[Tuple[object, object]] = []
        for index, path in enumerate(self.shard_paths):
            parent_conn, child_conn = context.Pipe()
            process = context.Process(
                target=_shard_worker_main,
                args=(child_conn, index, path, self.config),
                name=f"shard-query-{index}",
                daemon=True,
            )
            process.start()
            child_conn.close()
            workers.append((process, parent_conn))
        self._workers = workers
        for index, (_process, conn) in enumerate(workers):
            self._receive(index, conn)  # ready handshake (replay done)

    def refresh(self) -> None:
        """Mark workers stale: the next query respawns them, so it sees
        the current journals (free while none is running)."""
        with self._lock:
            self._stop_workers()

    def close(self) -> None:
        """Terminate the worker processes (idempotent; queries now error)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._stop_workers()

    def _stop_workers(self) -> None:
        workers, self._workers = self._workers, None
        if not workers:
            return
        for process, conn in workers:
            try:
                conn.send(("close",))
            except (OSError, ValueError):
                pass
            conn.close()
        for process, _conn in workers:
            process.join(timeout=10)
            if process.is_alive():  # pragma: no cover - defensive
                process.terminate()
                process.join(timeout=10)

    def __enter__(self) -> "ProcessShardExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # query path
    # ------------------------------------------------------------------
    def search(self, query, *, top_k: int = 10, trace=None) -> List[SearchResult]:
        """Run ``query`` across all shard workers; global ranked results.

        Stage structure and trace spans mirror the thread executor: one
        ``shard`` span per worker (``queue_seconds`` = pipe round-trip
        minus in-worker execution), then a ``merge`` span.
        """
        if isinstance(query, str):
            query = parse_query(query, analyzer=self.analyzer)
        with self._lock:
            return self._search_locked(query, top_k=top_k, trace=trace)

    def _search_locked(
        self, query: Query, *, top_k: int, trace
    ) -> List[SearchResult]:
        self._ensure_workers()
        self._c_fanout.inc()
        aggregate = self._aggregate_from_workers(query.terms)
        submitted = perf_counter()
        for _process, conn in self._workers:
            conn.send(("query", query, aggregate, top_k))
        runs: List[List[SearchResult]] = []
        to_global = self.router.to_global
        for index, (_process, conn) in enumerate(self._workers):
            local_run, run_seconds = self._receive(index, conn)
            received = perf_counter()
            run = [
                SearchResult(doc_id=to_global(index, local_id), score=score)
                for local_id, score in local_run
            ]
            run.sort(key=_merge_key)
            runs.append(run)
            queue_seconds = max(0.0, received - submitted - run_seconds)
            if self._metrics_on:
                self._queue_series[index].observe(queue_seconds)
                self._run_series[index].observe(run_seconds)
            if trace is not None:
                trace.record(
                    "shard",
                    start=submitted,
                    end=received,
                    shard=index,
                    queue_seconds=queue_seconds,
                    results=len(run),
                )
        return _merge_runs(runs, top_k, trace)

    def aggregate_term_stats(self, terms: Sequence[str]) -> AggregatedTermStats:
        """Cross-shard statistics for one query's terms (worker-reported).

        Same sums as :meth:`ParallelQueryExecutor.aggregate_term_stats`,
        sourced from the workers' snapshots so scoring stays internally
        consistent with what the workers will match.
        """
        with self._lock:
            self._ensure_workers()
            return self._aggregate_from_workers(terms)

    def _aggregate_from_workers(
        self, terms: Sequence[str]
    ) -> AggregatedTermStats:
        terms = list(terms)
        for _process, conn in self._workers:
            conn.send(("stats", terms))
        df: Dict[int, int] = {position: 0 for position in range(len(terms))}
        num_docs = 0
        total_length = 0
        for index, (_process, conn) in enumerate(self._workers):
            shard_df, shard_docs, shard_length = self._receive(index, conn)
            for position, count in enumerate(shard_df):
                df[position] += count
            num_docs += shard_docs
            total_length += shard_length
        return AggregatedTermStats.of(df, num_docs, total_length)

    def _receive(self, shard_index: int, conn):
        """One protocol reply; re-raises worker-side failures by type."""
        try:
            reply = conn.recv()
        except EOFError:
            raise WorkloadError(
                f"shard {shard_index} query worker exited unexpectedly"
            ) from None
        if reply[0] == "ok":
            return reply[1]
        _, type_name, message = reply
        exc_type = getattr(_errors, type_name, None)
        if isinstance(exc_type, type) and issubclass(exc_type, Exception):
            exc = exc_type(message)
        else:
            exc = WorkloadError(f"{type_name}: {message}")
        exc.shard_index = shard_index
        if hasattr(exc, "add_note"):  # Python 3.11+
            exc.add_note(
                f"raised by shard {shard_index} during process fan-out"
            )
        raise exc

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self._closed:
            state = "closed"
        elif self._workers is None:
            state = "idle"
        else:
            state = "spawned"
        return (
            f"ProcessShardExecutor(shards={len(self.shard_paths)}, {state})"
        )
