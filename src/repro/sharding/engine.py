"""The sharded engine facade: K trustworthy shards behind one API.

:class:`ShardedSearchEngine` partitions an archive across ``K``
independent :class:`~repro.search.engine.TrustworthySearchEngine`
instances and recovers the single-engine API on top:

* **ingest** routes documents by stable global-ID hash
  (:mod:`repro.sharding.router`) and indexes each shard's group in one
  batched pass (:mod:`repro.sharding.batch`); the global↔local mapping
  is derived from the shards' commit-time logs, never stored;
* **search** visits every shard in the caller's thread, scores every
  candidate under the shards' statistics for the query summed into one
  record, and cuts all the shards' scores once at the top ``k``
  (:mod:`repro.sharding.executor`);
* **trust** is preserved compositionally: every shard enforces the
  paper's invariants over its own monotonic local IDs, each document
  has one commit point (its shard's commit-time record), and result
  verification / incident handling work on global IDs end-to-end.

The equivalence that makes sharding safe to adopt — a K-shard engine
returns the same results as a 1-shard engine over the same corpus, with
``float.hex()``-equal scores — is property-tested in ``tests/sharding``.
"""

from __future__ import annotations

import threading
from typing import Callable, Dict, List, Optional, Sequence

from repro.core import verification
from repro.core.verification import ResultVerdict
from repro.errors import WorkloadError
from repro.observability.metrics import MetricsRegistry
from repro.search.analyzer import Analyzer
from repro.search.documents import Document
from repro.search.engine import (
    EngineConfig,
    SearchResult,
    TrustworthySearchEngine,
    check_commit_times,
)
from repro.search.query import parse_query
from repro.sharding.batch import BatchIngestor
from repro.sharding.executor import ParallelQueryExecutor
from repro.sharding.router import ShardRouter
from repro.worm.storage import CachedWormStore

#: Coordinator WORM file for the sharded engine's incident log.
INCIDENT_FILE = "shard/incidents"

#: Where archives before the derived mapping stored a document map.  A
#: new archive gets one record there that such code refuses to parse
#: (``doc-map-format``), so it cannot misread the archive; nothing here
#: reads the file.
LEGACY_MAP_FILE = "shard/doc-map"
_NO_MAP_RECORD = b"no map: global IDs are derived from the shards\n"


class _GlobalDocumentView:
    """Read-only, global-ID view over the per-shard document stores."""

    def __init__(self, shards: Sequence, router: ShardRouter):
        self._shards = shards
        self._router = router

    def __len__(self) -> int:
        return len(self._router)

    def exists(self, global_id: int) -> bool:
        """Whether ``global_id`` refers to a committed document."""
        try:
            shard_id, local_id = self._router.to_local(global_id)
        except WorkloadError:  # no shard has committed it
            return False
        return self._shards[shard_id].documents.exists(local_id)

    def get(self, global_id: int) -> Document:
        """Fetch a committed document under its global ID."""
        shard_id, local_id = self._router.to_local(global_id)
        local = self._shards[shard_id].documents.get(local_id)
        return Document(
            doc_id=global_id,
            text=local.text,
            commit_time=local.commit_time,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"_GlobalDocumentView(docs={len(self)})"


class ShardedSearchEngine:
    """Sharded trustworthy search over K independent shards.

    Parameters
    ----------
    config:
        Per-shard engine configuration (shared by all shards; it shapes
        committed state, so it must not drift between shards or
        sessions).
    num_shards:
        Number of shards ``K``.
    store_factory:
        ``shard_id -> CachedWormStore`` for bring-your-own shard storage
        (e.g. one journal file per shard).  Without one, each shard
        builds its own in-memory store, as an unsharded engine does.
    coordinator_store:
        WORM store for cross-shard state (the global incident log).
        Defaults to a fresh in-memory store.
    metrics:
        Metrics registry shared by every shard, the executor, and the
        batch ingestor; each shard stamps its series with a
        ``shard="<i>"`` label.  Defaults to a fresh
        :class:`~repro.observability.metrics.MetricsRegistry`; pass a
        :class:`~repro.observability.metrics.NullMetricsRegistry` to run
        unmetered.
    """

    def __init__(
        self,
        config: Optional[EngineConfig] = None,
        *,
        num_shards: int = 2,
        store_factory: Optional[Callable[[int], CachedWormStore]] = None,
        coordinator_store: Optional[CachedWormStore] = None,
        metrics=None,
    ):
        if num_shards <= 0:
            raise WorkloadError(f"num_shards must be positive, got {num_shards}")
        self.config = config or EngineConfig()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.shards: List[TrustworthySearchEngine] = [
            TrustworthySearchEngine(
                self.config,
                store=store_factory(i) if store_factory else None,
                metrics=self.metrics,
                metrics_labels={"shard": i},
            )
            for i in range(num_shards)
        ]
        self.coordinator = coordinator_store or CachedWormStore(block_size=self.config.block_size)
        if not self.coordinator.device.exists(LEGACY_MAP_FILE):
            self.coordinator.create_file(LEGACY_MAP_FILE).append_record(_NO_MAP_RECORD)
        self.router = ShardRouter([shard.documents for shard in self.shards])
        self.analyzer = Analyzer()
        self.executor = ParallelQueryExecutor(
            self.shards,
            self.router,
            self.config,
            analyzer=self.analyzer,
            metrics=self.metrics,
        )
        self.ingestor = BatchIngestor(self.shards, self.router, metrics=self.metrics)
        self.documents = _GlobalDocumentView(self.shards, self.router)
        self._clock = (
            max(
                (shard.time_index.last_commit_time for shard in self.shards),
                default=-1,
            )
            + 1
        )
        self._incidents = None
        self._incidents_lock = threading.Lock()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def num_shards(self) -> int:
        """Number of shards ``K``."""
        return len(self.shards)

    def close(self) -> None:
        """Refuse further queries (engine state stays usable)."""
        self.executor.close()

    def sync(self) -> None:
        """Durability barrier across every shard journal.

        Fsyncs each shard store and the coordinator store (no-ops for
        in-memory stores).  With journaled shard stores in group-commit
        mode this is one fsync per shard journal — the amortization
        point after a batch of ingests — instead of one per record.
        """
        for shard in self.shards:
            shard.store.sync()
        self.coordinator.sync()

    def __enter__(self) -> "ShardedSearchEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # ingest
    # ------------------------------------------------------------------
    def index_document(
        self, text: str, *, commit_time: Optional[int] = None
    ) -> int:
        """Commit and index one document; returns its global ID."""
        return self.index_batch(
            [text],
            commit_times=None if commit_time is None else [commit_time],
        )[0]

    def index_batch(
        self,
        texts: Sequence[str],
        *,
        commit_times: Optional[Sequence[int]] = None,
    ) -> List[int]:
        """Commit and index a batch; returns global IDs in input order.

        Every document is committed to WORM and indexed on its shard
        before this call returns — the real-time guarantee of the
        unsharded engine, at batch granularity.  The commit times are
        checked as the unsharded engine checks them
        (:func:`~repro.search.engine.check_commit_times`), before
        anything is written or the clock moves.
        """
        texts = list(texts)
        commit_times = check_commit_times(self._clock, len(texts), commit_times)
        if not texts:
            return []
        self._clock = commit_times[-1] + 1
        return self.ingestor.ingest(texts, commit_times)

    # ------------------------------------------------------------------
    # query path
    # ------------------------------------------------------------------
    def search(
        self,
        query,
        *,
        top_k: int = 10,
        verify: bool = False,
        trace=None,
    ) -> List[SearchResult]:
        """Run a query across all shards; returns global ranked results.

        With ``verify`` a stuffed answer raises
        :class:`~repro.errors.TamperDetectedError`, as the unsharded
        engine's does.  Pass a
        :class:`~repro.observability.trace.QueryTrace` as ``trace`` to
        record the fan-out: one span per shard, the one cut across shards
        (``merge``), and verification.
        """
        if isinstance(query, str):
            query = parse_query(query, analyzer=self.analyzer)
        results = self.executor.search(query, top_k=top_k, trace=trace)
        if verify:
            verification.require_verified(self, results, query, trace)
        return results

    def profile(self, query):
        """Per-shard cost profile of ``query`` (aggregated cost Q)."""
        from repro.search.profiling import profile_sharded_query

        return profile_sharded_query(self, query)

    # ------------------------------------------------------------------
    # verification (Section 5, on global IDs)
    # ------------------------------------------------------------------
    def verify_results(self, doc_ids: Sequence[int], query) -> ResultVerdict:
        """Cross-check global results of ``query`` (a string or a
        :class:`~repro.search.query.Query`) against the shard WORM
        documents.

        A global ID no shard has committed (including the negative
        synthetic IDs the router emits for stuffed shard-local postings)
        has no committed document anywhere, so it fails the existence
        check exactly like single-engine stuffing does.
        """
        return verification.verify_results(self, doc_ids, query)

    def is_disposed(self, global_id: int) -> bool:
        """Whether a disposition record, on its shard, explains the
        absence of ``global_id`` (never for an uncommitted ID)."""
        if not self.router.has(global_id):
            return False
        shard_id, local_id = self.router.to_local(global_id)
        return self.shards[shard_id].is_disposed(local_id)

    @property
    def incidents(self):
        """Global incident log on the coordinator WORM (created on first
        use, once, however many verified searches ask for it together)."""
        with self._incidents_lock:
            if self._incidents is None:
                from repro.core.incidents import IncidentLog

                self._incidents = IncidentLog(self.coordinator, INCIDENT_FILE)
        return self._incidents

    def search_with_incident_handling(self, query, *, top_k: int = 10, trace=None):
        """Search, verify, and quarantine any exposed stuffing globally,
        in the coordinator's incident log; returns ``(results, report)``.
        See :func:`repro.core.verification.search_with_incident_handling`."""
        return verification.search_with_incident_handling(self, query, top_k=top_k, trace=trace)

    # ------------------------------------------------------------------
    # tail mode (write–read decoupling, per shard)
    # ------------------------------------------------------------------
    @property
    def tail_enabled(self) -> bool:
        """Whether the shards run in tail mode (``tail_max_docs`` set)."""
        return self.config.tail_max_docs is not None

    def seal_tail(self) -> List[Optional[int]]:
        """Seal every shard's tail into a segment.

        Returns one segment number per shard (``None`` for shards whose
        tail was empty).  Caller holds the writer side of whatever lock
        guards ingest — sealing mutates the tail exactly like ingest
        does.
        """
        return [shard.seal_tail() for shard in self.shards]

    def merge_segments(self) -> List[Optional[int]]:
        """Merge each shard's live segments into one (``None`` if <2)."""
        return [shard.merge_segments() for shard in self.shards]

    def segments_info(self) -> Dict[str, object]:
        """Per-shard segment/tail layout, plus summed tail counters."""
        per_shard = [shard.segments_info() for shard in self.shards]
        return {
            "tail_enabled": self.tail_enabled,
            "tail_docs": sum(info["tail_docs"] for info in per_shard),
            "tail_postings": sum(info["tail_postings"] for info in per_shard),
            "segments_live": sum(len(info["segments"]) for info in per_shard),
            "shards": per_shard,
        }

    # ------------------------------------------------------------------
    # retention
    # ------------------------------------------------------------------
    def dispose_expired(self, *, now: Optional[int] = None) -> List[int]:
        """Dispose expired documents on every shard; returns global IDs."""
        if now is None:
            now = self._clock
        disposed: List[int] = []
        for shard_id, shard in enumerate(self.shards):
            for local_id in shard.dispose_expired(now=now):
                disposed.append(self.router.to_global(shard_id, local_id))
        return sorted(disposed)

    # ------------------------------------------------------------------
    # operational statistics
    # ------------------------------------------------------------------
    def read_cache_stats(self) -> Optional[Dict[str, object]]:
        """Aggregated read-cache counters across shards (``None`` cache-off).

        Each shard owns an independent :class:`~repro.search.readcache.ReadCache`
        (created from the shared config), so coherence under
        :class:`~repro.sharding.batch.BatchIngestor` appends is local to
        each shard: a batch routed to shard ``i`` invalidates exactly
        shard ``i``'s affected entries.  Counters are summed here, and
        ``hit_rate`` recomputed from the sums; ``per_shard`` keeps the
        unsummed dicts for drill-down.
        """
        per_shard = [shard.read_cache_stats() for shard in self.shards]
        if all(stats is None for stats in per_shard):
            return None
        present = [stats for stats in per_shard if stats is not None]
        summed: Dict[str, object] = {}
        for tier in present[0]:
            totals = {key: sum(stats[tier][key] for stats in present) for key in present[0][tier]}
            accesses = totals["hits"] + totals["misses"]
            totals["hit_rate"] = totals["hits"] / accesses if accesses else 0.0
            summed[tier] = totals
        summed["per_shard"] = per_shard
        return summed

    def archive_stats(self) -> Dict[str, object]:
        """Aggregated operational summary across shards.

        Numeric fields are sums over the shard archives (``vocabulary``
        sums per-shard lexicons, so terms present on several shards are
        counted once per shard).  The coordinator's global incidents
        are added in.
        """
        per_shard = [shard.archive_stats() for shard in self.shards]
        summed = {
            key: sum(stats[key] for stats in per_shard)
            for key in (
                "documents",
                "burned_documents",
                "vocabulary",
                "physical_lists",
                "postings",
                "posting_blocks",
                "jump_pointers",
                "commit_log_records",
                "incidents",
                "dispositions",
                "tail_docs",
                "tail_postings",
                "segments_live",
                "manifest_records",
                "device_bytes",
                "device_files",
            )
        }
        if self._incidents is not None or self.coordinator.device.exists(INCIDENT_FILE):
            summed["incidents"] += len(self.incidents)
        stats: Dict[str, object] = {"shards": self.num_shards}
        stats.update(summed)
        stats["shard_documents"] = [
            self.router.shard_size(i) for i in range(self.num_shards)
        ]
        stats["jump_index"] = per_shard[0]["jump_index"]
        stats["device_bytes"] = (
            summed["device_bytes"] + self.coordinator.device.total_bytes()
        )
        stats["device_files"] = summed["device_files"] + len(self.coordinator.device)
        return stats

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ShardedSearchEngine(shards={self.num_shards}, "
            f"docs={len(self.router)})"
        )
