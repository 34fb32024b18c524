"""End-to-end trustworthy search engine (the library's main public API).

:class:`TrustworthySearchEngine` assembles the whole paper:

* documents commit to WORM and are indexed **in the same call** — no
  buffering window for Mala to exploit (Section 2.3's real-time update
  requirement);
* posting lists are **merged** into ``M`` cache-resident lists
  (Section 3) under a pluggable strategy, uniform hashing by default;
* optional **jump indexes** (Section 4) accelerate conjunctive queries
  while preserving trust guarantees;
* a **commit-time index** (Section 5) serves trustworthy time-range
  constraints;
* results can be **verified** against the WORM-resident documents to
  expose posting-list stuffing (Section 5's ranking-attack
  countermeasure).

Example
-------
>>> engine = TrustworthySearchEngine()
>>> engine.index_document("quarterly revenue audit memo")
0
>>> [r.doc_id for r in engine.search("revenue audit")]
[0]
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter
from types import MappingProxyType
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core.block_jump_index import BlockJumpIndex
from repro.core.merge import MergeStrategy, UniformHashMerge
from repro.core.posting import MAX_TERM_ID_WITH_TF, pack_term_tf
from repro.core.posting_list import PostingList
from repro.core.segments import (
    STRATEGY_POPULAR,
    STRATEGY_UNIFORM,
    MergedListFamily,
    PostingColumns,
    ReadCosts,
    SealedSegment,
    SegmentInfo,
    SegmentManifest,
    choose_popular_terms,
    next_seg_no,
    validate_seal_strategy,
    write_segment_lists,
)
from repro.core.tail import MutableTailIndex, TailSnapshot
from repro.core.time_index import CommitTimeIndex
from repro.core.vecdecode import TermColumn
from repro.core import verification
from repro.core.verification import AuditReport
from repro.errors import WorkloadError
from repro.observability.metrics import MetricsRegistry
from repro.search.analyzer import Analyzer
from repro.search.documents import DocumentStore
from repro.search.join import conjunctive_join  # noqa: F401 - bound by bench/layers.py
from repro.search.profiling import QueryProfile, profile_query
from repro.search.query import QueryMode, parse_query
from repro.search.ranking import BM25Scorer, CollectionStats, CosineScorer, rank
from repro.search.readcache import ReadCache
from repro.worm.storage import CachedWormStore


#: Longest term (in UTF-8 bytes) the WORM lexicon log retains.
MAX_LEXICON_TERM_BYTES = 128


def lexicon_key(term: str) -> str:
    """Canonical lexicon form of ``term``: at most
    :data:`MAX_LEXICON_TERM_BYTES` of UTF-8, cut at a character boundary.

    The engine stores this form both in memory and on WORM and looks
    terms up through it, so the term→id→posting-list mapping survives
    restarts byte for byte.  A raw byte-level slice (the historical
    behaviour) could split a multi-byte character, which made the WORM
    log undecodable on reopen and silently desynchronized long terms.
    """
    raw = term.encode("utf-8")
    if len(raw) <= MAX_LEXICON_TERM_BYTES:
        return term
    cut = MAX_LEXICON_TERM_BYTES
    # Back up over UTF-8 continuation bytes (0b10xxxxxx) so the cut
    # never lands inside a multi-byte character.
    while cut > 0 and (raw[cut] & 0xC0) == 0x80:
        cut -= 1
    return raw[:cut].decode("utf-8")


@dataclass(frozen=True)
class EngineConfig:
    """Configuration of a :class:`TrustworthySearchEngine`.

    Attributes
    ----------
    num_lists:
        Number of merged posting lists ``M``; size this to the storage
        cache (``cache_bytes / block_size``, Section 3.4).  The paper's
        validated configuration uses 32,768 lists for a 128 MB cache.
    block_size:
        WORM block size in bytes (paper: 8 KB).
    cache_blocks:
        Storage-cache capacity in blocks (``None`` = unbounded; use a
        finite value to reproduce insert-I/O behaviour).
    branching:
        Jump-index branching factor ``B`` (paper's sweet spot: 32);
        ``None`` disables jump indexes (the merged-lists-only scheme).
    ranking:
        ``"bm25"`` or ``"cosine"``.
    read_cache:
        Enable the three-tier read-path cache
        (:mod:`repro.search.readcache`): decoded posting blocks, query
        results (length-fingerprint invalidated), and a jump-pointer
        memo.  Session-scoped acceleration only — it never shapes
        committed WORM state, so archives created with and without it
        are byte-identical.
    read_cache_mb:
        Approximate in-memory budget of the decoded-block tier, in MB.
    tail_max_docs:
        Enable write–read decoupling: ingest lands in a mutable
        in-memory tail (:mod:`repro.core.tail`) that auto-seals into an
        immutable WORM segment once it holds this many documents.
        ``None`` (the default) keeps the legacy synchronous path —
        postings append to the merged WORM lists inside the ingest call.
    seal_strategy:
        Term→list assignment each sealed segment pins: ``"uniform"``
        (hash everything), ``"popular"`` (this tail's top terms get
        unmerged lists), or ``"epoch"`` — the Section 3.3 adaptation,
        with the sealed segment as the epoch: ``tail_max_docs`` is the
        epoch length, and a segment unmerges the terms the *previous*
        epoch queried most (the paper's ``qi``; its most posting-heavy
        terms, ``ti``, when that epoch saw no query), so evidence
        gathered in one epoch lays out the next.  The evidence is
        session memory, so the first epoch, and the first seal after a
        restart, pin ``"uniform"``.  ``merge_at_segments=None`` keeps
        every epoch's layout; a merge re-lays its inputs out from the
        same evidence.
    seal_popular_terms:
        How many popular terms get unmerged lists under ``"popular"`` /
        ``"epoch"``.
    merge_at_segments:
        Run an online merge once this many segments are live (the
        background merger's trigger); ``None`` disables auto-merging.
    """

    num_lists: int = 1024
    block_size: int = 8192
    cache_blocks: Optional[int] = None
    branching: Optional[int] = 32
    ranking: str = "bm25"
    #: Term-immutability horizon in commit-time units (None = forever).
    retention_period: Optional[int] = None
    read_cache: bool = False
    read_cache_mb: float = 8.0
    tail_max_docs: Optional[int] = None
    seal_strategy: str = "uniform"
    seal_popular_terms: int = 8
    merge_at_segments: Optional[int] = 8

    def __post_init__(self) -> None:
        if self.num_lists <= 0:
            raise WorkloadError(f"num_lists must be positive, got {self.num_lists}")
        if self.ranking not in ("bm25", "cosine"):
            raise WorkloadError(f"unknown ranking '{self.ranking}'")
        if self.read_cache_mb <= 0:
            raise WorkloadError(
                f"read_cache_mb must be positive, got {self.read_cache_mb}"
            )
        if self.tail_max_docs is not None and self.tail_max_docs < 1:
            raise WorkloadError(
                f"tail_max_docs must be >= 1, got {self.tail_max_docs}"
            )
        validate_seal_strategy(self.seal_strategy)
        if self.seal_popular_terms < 0:
            raise WorkloadError(
                f"seal_popular_terms must be >= 0, got "
                f"{self.seal_popular_terms}"
            )
        if self.merge_at_segments is not None and self.merge_at_segments < 2:
            raise WorkloadError(
                f"merge_at_segments must be >= 2, got "
                f"{self.merge_at_segments}"
            )


@dataclass(frozen=True)
class SearchResult:
    """One ranked hit."""

    doc_id: int
    score: float


class Candidates(Mapping[int, Mapping[int, int]]):
    """The documents a query matched, as columns; immutable.

    ``doc_ids`` holds every matched document once, ascending; ``len()``
    counts those.  ``columns`` holds one ``(term_id, doc_ids, tfs)``
    triple per query term and group of the index it was found in:
    strictly ascending document IDs beside the term's frequency in each.
    ``everywhere`` names the terms *every* document holds, scored on
    presence (``tf`` 1): a conjunctive join's answer is its document
    list and the query's terms, and builds nothing per term.  A
    ``(document, term)`` pair is in at most one column.  Ranking
    (:func:`repro.search.ranking.rank`) reads the columns whole, and so
    does the result cache, which hands the same object to every hit.
    Scoring meets a document's terms in ascending term ID, whichever
    path found them, so every layout sums a score in one order.

    As a read-only ``Mapping[int, Mapping[int, int]]`` — ``doc_id ->
    {term_id: tf}``, what ``match()`` used to build for every query —
    it serves callers that want to look: tests, ``profile_query``.
    """

    __slots__ = ("doc_ids", "everywhere", "columns", "postings", "_mapping")

    def __init__(
        self,
        columns: Iterable[TermColumn] = (),
        doc_ids: Optional[np.ndarray] = None,
        everywhere: Sequence[int] = (),
    ):
        self.columns: Tuple[TermColumn, ...] = tuple(columns)
        self.everywhere: Tuple[int, ...] = tuple(everywhere)
        if doc_ids is None:
            doc_ids = self._union([docs for _, docs, _ in self.columns])
        self.doc_ids = doc_ids
        #: Postings over all terms: what ranking's cost grows with.
        self.postings = len(self.everywhere) * len(doc_ids)
        for _, docs, _ in self.columns:
            self.postings += len(docs)
        self._mapping: Optional[Dict[int, Mapping[int, int]]] = None

    @staticmethod
    def _union(doc_columns: List[np.ndarray]) -> np.ndarray:
        if not doc_columns:
            return np.empty(0, dtype=np.uint32)
        if len(doc_columns) == 1:
            return doc_columns[0]
        merged = np.sort(np.concatenate(doc_columns))
        first = np.empty(len(merged), dtype=bool)
        first[0] = True
        np.not_equal(merged[1:], merged[:-1], out=first[1:])
        return merged[first]

    def frozen(self) -> "Candidates":
        """This object, its arrays made read-only: what is shared (the
        result cache's entries) cannot be written through."""
        self.doc_ids.flags.writeable = False
        for _, docs, tfs in self.columns:
            docs.flags.writeable = tfs.flags.writeable = False
        return self

    def keep(self, mask: np.ndarray) -> "Candidates":
        """The candidates whose row of ``doc_ids`` ``mask`` selects."""
        doc_ids = self.doc_ids
        columns = []
        for term_id, docs, tfs in self.columns:
            if len(docs) == len(doc_ids):
                kept = mask
            else:
                kept = mask[np.searchsorted(doc_ids, docs)]
            if kept.any():
                columns.append((term_id, docs[kept], tfs[kept]))
        return Candidates(columns, doc_ids[mask], self.everywhere)

    def _by_term_id(self, term_keys: Optional[Mapping[int, int]]):
        """``(key, docs, tfs)`` per column and per term held everywhere
        (``docs`` ``None``, ``tfs`` 1), by ascending term ID, keyed
        through ``term_keys`` as :meth:`scoring_columns`."""
        key_of = (lambda term_id: term_id) if term_keys is None else term_keys.get
        columns = [(term_id, None, 1) for term_id in self.everywhere]
        columns.extend(self.columns)
        columns.sort(key=lambda column: column[0])
        keyed = ((key_of(term_id), docs, tfs) for term_id, docs, tfs in columns)
        return [column for column in keyed if column[0] is not None]

    def rows(
        self, term_keys: Optional[Mapping[int, int]] = None
    ) -> Dict[int, Dict[int, int]]:
        """``doc_id -> {term: tf}`` built afresh, terms by ascending ID,
        keyed through ``term_keys`` as :meth:`scoring_columns`."""
        all_ids = self.doc_ids.tolist()
        rows: Dict[int, Dict[int, int]] = {doc_id: {} for doc_id in all_ids}
        for key, docs, tfs in self._by_term_id(term_keys):
            if docs is None:
                for doc_id in all_ids:
                    rows[doc_id][key] = 1
            else:
                for doc_id, tf in zip(docs.tolist(), tfs.tolist()):
                    rows[doc_id][key] = tf
        return rows

    def scoring_columns(
        self, term_keys: Optional[Mapping[int, int]] = None
    ) -> List[Tuple[int, object, object]]:
        """``(term, rows, tfs)`` per term by ascending term ID, for
        :meth:`~repro.search.ranking.BM25Scorer.score_columns`: ``rows``
        index ``doc_ids`` (``slice(None)`` for all of them, in order);
        ``tfs`` is a column, or the number 1 for a term held everywhere.
        ``term_keys`` maps term IDs to the keys the scorer's statistics
        use (a shard executor's are query positions) and drops the
        terms it does not name; without it the IDs are the keys."""
        doc_ids = self.doc_ids
        everyone = slice(None)
        return [
            (
                key,
                everyone
                if docs is None or len(docs) == len(doc_ids)
                else np.searchsorted(doc_ids, docs),
                tfs,
            )
            for key, docs, tfs in self._by_term_id(term_keys)
        ]

    def _as_mapping(self) -> Dict[int, Mapping[int, int]]:
        if self._mapping is None:
            self._mapping = {
                doc_id: MappingProxyType(freqs)
                for doc_id, freqs in self.rows().items()
            }
        return self._mapping

    def __getitem__(self, doc_id: int) -> Mapping[int, int]:
        return self._as_mapping()[doc_id]

    def __iter__(self) -> Iterator[int]:
        return iter(self._as_mapping())

    def __len__(self) -> int:
        return len(self.doc_ids)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Candidates({len(self)} docs, {self.postings} postings)"


#: What a query that matched nothing gets (immutable, so shared).
_NO_CANDIDATES = Candidates()


def _max_merge_repeats(columns: List[TermColumn]) -> List[TermColumn]:
    """``columns`` with every ``(document, term)`` pair in one column.

    Groups of families and the tail cover disjoint documents, so the
    columns one term gets from each do not overlap — unless a posting
    was stuffed into one group under a document ID of another.  The
    earlier column then keeps the pair, at the larger frequency (what
    max-merging into one ``{term: tf}`` per document did).  Two columns
    whose ID ranges are apart, the honest case, cost two comparisons.
    """
    merged: List[TermColumn] = []
    columns_of: Dict[int, List[int]] = {}
    for term_id, docs, tfs in columns:
        for index in columns_of.get(term_id, ()):
            _, earlier_docs, earlier_tfs = merged[index]
            if docs[0] > earlier_docs[-1] or docs[-1] < earlier_docs[0]:
                continue
            at = np.searchsorted(earlier_docs, docs)
            at[at == len(earlier_docs)] = 0
            repeated = earlier_docs[at] == docs
            if repeated.any():
                at = at[repeated]
                earlier_tfs[at] = np.maximum(earlier_tfs[at], tfs[repeated])
                docs, tfs = docs[~repeated], tfs[~repeated]
                if not len(docs):
                    break
        else:
            columns_of.setdefault(term_id, []).append(len(merged))
            merged.append((term_id, docs, tfs))
    return merged


class TrustworthySearchEngine:
    """Keyword search over records retained on WORM storage.

    Parameters
    ----------
    config:
        Engine configuration; defaults give a jump-indexed, uniformly
        merged index.
    merge_strategy:
        Optional custom merging strategy (e.g.
        :class:`~repro.core.merge.PopularUnmergedMerge` built from learned
        statistics).  Must be able to assign any term ID the lexicon may
        grow to; the default is uniform hashing, which can.
    store:
        Bring-your-own WORM store (shared with other components);
        otherwise the engine creates one per the config.
    metrics:
        Metrics registry to instrument into (shared across shards by the
        sharded engine).  Defaults to a fresh
        :class:`~repro.observability.metrics.MetricsRegistry`; pass a
        :class:`~repro.observability.metrics.NullMetricsRegistry` to run
        unmetered.
    metrics_labels:
        Base labels stamped on every series this engine emits (the
        sharded engine passes ``{"shard": "<i>"}``).
    """

    def __init__(
        self,
        config: Optional[EngineConfig] = None,
        *,
        merge_strategy: Optional[MergeStrategy] = None,
        store: Optional[CachedWormStore] = None,
        metrics=None,
        metrics_labels: Optional[Mapping[str, object]] = None,
    ):
        self.config = config or EngineConfig()
        self.store = store or CachedWormStore(
            self.config.cache_blocks, block_size=self.config.block_size
        )
        #: Session-scoped read-path cache (None when disabled).  Never
        #: persisted: a restarted engine starts cold and re-verifies.
        self.read_cache = (
            ReadCache(capacity_mb=self.config.read_cache_mb)
            if self.config.read_cache
            else None
        )
        self._init_metrics(metrics, metrics_labels)
        self.analyzer = Analyzer()
        self.documents = DocumentStore(self.store)
        self.stats = CollectionStats()
        self._scorer = (
            BM25Scorer(self.stats)
            if self.config.ranking == "bm25"
            else CosineScorer(self.stats)
        )
        self.time_index = CommitTimeIndex(self.store, "engine/commit-times")
        # Lexicon: term string <-> engine-local term ID (order of first
        # appearance).  Rebuildable from the WORM lexicon log.
        self._term_ids: Dict[str, int] = {}
        self._terms: List[str] = []
        self._lexicon_file = self.store.ensure_file("engine/lexicon")
        # The directly-appended merged lists (``engine/pl/``); physical
        # lists are created lazily as terms first hash into them.
        self._family = self._open_family(
            strategy=merge_strategy or UniformHashMerge(self.config.num_lists)
        )
        self._clock = 0
        self._incidents = None
        self._retention = None
        # Write–read decoupling (tail mode): the mutable tail, the
        # sealed-segment manifest, and the attached live segments;
        # ``None``/empty without it.
        self._tail: Optional[MutableTailIndex] = None
        self._manifest: Optional[SegmentManifest] = None
        self._segments: Tuple[SealedSegment, ...] = ()
        #: Evidence for the "epoch" seal strategy, per term ID: what the
        #: previously sealed epoch left behind, and the queries seen in
        #: the current one (readers bump it concurrently, hence the
        #: lock).  Session-scoped, empty after restart.
        self._epoch_counts: Dict[int, int] = {}
        self._epoch_queries: Dict[int, int] = {}
        self._epoch_lock = threading.Lock()
        if self.config.tail_max_docs is not None:
            # The manifest is created/replayed eagerly so the first seal
            # after a reopen is the only writer: restart itself stays a
            # pure read (important for crash-recovery determinism).
            self._tail = MutableTailIndex()
            self._manifest = SegmentManifest(self.store)
            self._segments = tuple(
                self._open_family(info) for info in self._manifest.live()
            )
            # Read off the device once per session (manifest + orphans),
            # then counted: a seal's cost must not grow with the archive.
            self._next_seg_no = next_seg_no(self.store.device, self._manifest)
        if self._lexicon_file.num_blocks or len(self.time_index):
            self._restore_state()

    def _restore_state(self) -> None:
        """Rebuild application-memory state from WORM (restart recovery).

        Everything rebuilt here is *derived* data: the lexicon log, the
        commit-time log, the posting lists, and the documents themselves
        all live on WORM (the posting lists and commit log verified their
        own invariants when reattached).  Ranking statistics and posting
        counts are recomputed from the stored documents; documents
        ingested with ``store_text=False`` contribute document counts but
        no term statistics, which only affects ranking quality.
        """
        payload = b"".join(
            self.store.peek_block("engine/lexicon", b)
            for b in range(self._lexicon_file.num_blocks)
        )
        self._remember(raw.decode("utf-8") for raw in payload.split(b"\n") if raw)
        commit_times = {}
        for commit_time, doc_id in self.time_index.iter_records():
            commit_times[doc_id] = commit_time
        # The log's document IDs rise strictly (checked as it is read),
        # with a gap where a crash burned one.
        self.documents.restore(next(reversed(commit_times), -1) + 1, commit_times)
        self._clock = self.time_index.last_commit_time + 1
        # The tail itself is derived data: every document above the
        # sealed horizon re-enters it from the journaled document +
        # commit-time logs.  A disposed never-sealed document simply
        # does not re-enter — its absence is explained by the
        # disposition log.
        sealed_through = (
            self._manifest.sealed_through if self._manifest is not None else -1
        )
        for doc_id in commit_times:
            if not self.documents.exists(doc_id):
                continue
            text = self.documents.get(doc_id).text
            term_counts = self.analyzer.term_counts(text)
            id_counts = {}
            for t, c in term_counts.items():
                tid = self.term_id(t)
                if tid is not None:
                    id_counts[tid] = c
            if id_counts:
                self.stats.add_document(doc_id, id_counts)
            if self._tail is not None and doc_id > sealed_through:
                self._tail.add(
                    doc_id,
                    {
                        tid: pack_term_tf(tid, count)
                        for tid, count in id_counts.items()
                    },
                )

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def _init_metrics(
        self, metrics, metrics_labels: Optional[Mapping[str, object]]
    ) -> None:
        """Register this engine's metric families and bind hot-path series."""
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._metrics_labels: Dict[str, str] = {
            k: str(v) for k, v in (metrics_labels or {}).items()
        }
        self._metrics_on = bool(self.metrics.enabled)
        base = tuple(self._metrics_labels)
        bound = self._metrics_labels
        m = self.metrics
        self._m_queries = m.counter(
            "repro_queries_total",
            "Queries executed, by retrieval mode",
            labels=base + ("mode",),
        )
        self._m_stage = m.histogram(
            "repro_query_stage_seconds",
            "Latency of each query stage",
            labels=base + ("stage",),
        )
        self._m_list_blocks = m.counter(
            "repro_join_list_blocks_total",
            "Blocks read by conjunctive joins, per physical list",
            labels=base + ("list_id",),
        )
        self._c_docs = m.counter(
            "repro_documents_indexed_total",
            "Documents committed to WORM and indexed",
            labels=base,
        ).labels(**bound)
        self._c_postings = m.counter(
            "repro_postings_appended_total",
            "Posting entries appended to merged lists",
            labels=base,
        ).labels(**bound)
        self._c_seeks = m.counter(
            "repro_join_seeks_total",
            "Cursor FindGeq seeks performed by conjunctive joins",
            labels=base,
        ).labels(**bound)
        self._c_join_blocks = m.counter(
            "repro_join_blocks_read_total",
            "Distinct posting-list blocks read by conjunctive joins",
            labels=base,
        ).labels(**bound)
        self._c_follows = m.counter(
            "repro_jump_pointer_follows_total",
            "Jump pointers followed (and certified) by joins",
            labels=base,
        ).labels(**bound)
        self._c_scan_entries = m.counter(
            "repro_scan_entries_total",
            "Posting entries scanned on the disjunctive path",
            labels=base,
        ).labels(**bound)
        self._c_decode_blocks = m.counter(
            "repro_decode_blocks_total",
            "Posting blocks batch-decoded into doc-id/term-code columns",
            labels=base,
        ).labels(**bound)
        self._c_decode_postings = m.counter(
            "repro_decode_postings_total",
            "Posting entries batch-decoded into columns",
            labels=base,
        ).labels(**bound)
        #: Pair attached to every posting list this engine opens, so any
        #: block decode — query, audit, restore — lands in the series.
        self._decode_series = (self._c_decode_blocks, self._c_decode_postings)
        self._m_ingest = m.histogram(
            "repro_ingest_seconds",
            "Per-document commit+index latency",
            labels=base,
        ).labels(**bound)
        self._c_seals = m.counter(
            "repro_tail_seals_total",
            "Tail freezes into immutable WORM segments",
            labels=base,
        ).labels(**bound)
        self._c_merges = m.counter(
            "repro_segment_merges_total",
            "Online merges of sealed WORM segments",
            labels=base,
        ).labels(**bound)
        self._g_tail_docs = m.gauge(
            "repro_tail_docs",
            "Documents in the mutable in-memory tail",
            labels=base,
        ).labels(**bound)
        self._g_segments = m.gauge(
            "repro_segments_live",
            "Live sealed WORM segments",
            labels=base,
        ).labels(**bound)
        self._series_bound: Dict[Tuple[str, object], object] = {}

    def _series(self, family, label: str, value):
        """``family``'s series for this engine's base labels plus
        ``label=value`` (bound on first use, then memoized)."""
        series = self._series_bound.get((label, value))
        if series is None:
            series = family.labels(**self._metrics_labels, **{label: value})
            self._series_bound[(label, value)] = series
        return series

    @contextmanager
    def _stage(self, name: str, trace, **attrs):
        """Time one query stage into the stage histogram and, when a
        :class:`~repro.observability.trace.QueryTrace` is attached, a
        span.  Yields the span (``None`` without a trace) so stages can
        :meth:`~repro.observability.trace.Span.note` their micro-costs.
        """
        span = trace.begin(name, **attrs) if trace is not None else None
        timed = self._metrics_on
        start = perf_counter() if timed else 0.0
        try:
            yield span
        finally:
            if timed:
                self._series(self._m_stage, "stage", name).observe(
                    perf_counter() - start
                )
            if span is not None:
                trace.finish(span)

    # ------------------------------------------------------------------
    # lexicon
    # ------------------------------------------------------------------
    def term_id(self, term: str) -> Optional[int]:
        """Engine-local term ID for ``term`` (``None`` if never indexed).

        Terms are canonicalized via :func:`lexicon_key` before lookup and
        allocation, so the in-memory lexicon, the WORM lexicon log, and
        query-time lookups always agree on one byte sequence per term.
        """
        return self._term_ids.get(lexicon_key(term))

    def _remember(self, terms: Iterable[str]) -> None:
        """Give each of ``terms`` the next term ID, in memory."""
        for term in terms:
            self._term_ids[term] = len(self._terms)
            self._terms.append(term)

    def _add_terms(self, terms: Sequence[str]) -> None:
        """Allocate IDs, in order, for canonical ``terms`` new to the
        lexicon: logged first — one WORM record for all of them, more
        only when they outgrow a block (a record never spans one) — then
        added in memory.  The log's bytes are those of a record per
        term, so restart reads it as ever."""
        for term in terms:
            if "\n" in term:
                raise WorkloadError(
                    f"term {term!r} contains a newline; the WORM lexicon log "
                    f"is newline-delimited and cannot represent it"
                )
        if len(self._terms) + len(terms) > MAX_TERM_ID_WITH_TF + 1:
            raise WorkloadError("lexicon exceeded the 24-bit term-id space")
        record = b""
        for line in (term.encode("utf-8") + b"\n" for term in terms):
            if record and len(record) + len(line) > self.store.block_size:
                self._lexicon_file.append_record(record)
                record = b""
            record += line
        if record:
            self._lexicon_file.append_record(record)
        self._remember(terms)

    @property
    def vocabulary_size(self) -> int:
        """Number of distinct terms seen so far."""
        return len(self._terms)

    def term_text(self, term_id: int) -> str:
        """The term string behind an engine-local term ID."""
        return self._terms[term_id]

    # ------------------------------------------------------------------
    # the index: merged-list families (+ the tail, when decoupled)
    # ------------------------------------------------------------------
    def _open_family(
        self, info: Optional[SegmentInfo] = None, *, strategy=None
    ) -> MergedListFamily:
        """A list family wired to this engine's read cache and decode
        metrics: the sealed segment ``info`` records, or (without one)
        the directly-appended ``engine/pl/`` lists under ``strategy``."""
        return MergedListFamily(
            self.store,
            info,
            branching=self.config.branching,
            strategy=strategy,
            read_cache=self.read_cache,
            decode_metrics=self._decode_series if self._metrics_on else None,
            length_hints=self.stats.df if info is None else None,
        )

    def _list_id_for(self, term_id: int) -> int:
        return self._family.list_for(term_id)

    @property
    def tail_enabled(self) -> bool:
        """Whether this engine runs the decoupled tail/segment path."""
        return self.config.tail_max_docs is not None

    @property
    def num_shards(self) -> int:
        """One: the whole archive is this engine."""
        return 1

    def sync(self) -> None:
        """Durability barrier: fsync the store's journal (a no-op for an
        in-memory store)."""
        self.store.sync()

    def _require_tail(self) -> MutableTailIndex:
        if self._tail is None:
            raise WorkloadError(
                "tail mode is disabled; construct the engine with "
                "EngineConfig(tail_max_docs=...) to seal and merge "
                "segments"
            )
        return self._tail

    def index_view(
        self,
    ) -> Tuple[Tuple[MergedListFamily, ...], Optional[TailSnapshot]]:
        """A snapshot-consistent ``(families, tail)`` read view.

        Everything a reader sees: an ordered set of list families —
        the live sealed segments, ascending doc order, or the single
        directly-appended family — plus the tail snapshot in tail mode
        (``None`` otherwise).  Constant-time: a tuple reference plus a
        :class:`~repro.core.tail.TailSnapshot`.  The view keeps serving
        the pre-event state across later seals and merges (segments are
        immutable and the tail copies-on-seal); isolation from
        concurrent *adds* relies on the single-writer lock discipline —
        see :mod:`repro.core.tail`.
        """
        if self._tail is None:
            return (self._family,), None
        return self._segments, self._tail.snapshot()

    def posting_list_for(
        self, term: str
    ) -> Optional[Tuple[PostingList, Optional[BlockJumpIndex]]]:
        """The committed ``(list, jump index)`` holding ``term``'s
        postings — in the oldest family of the view that has one — or
        ``None`` while no list does (audit / investigation handle)."""
        term_id = self.term_id(term)
        if term_id is not None:
            for family in self.index_view()[0]:
                found = family.posting_list_for(term_id)
                if found is not None:
                    return found
        return None

    def iter_posting_lists(
        self,
    ) -> Iterator[Tuple[PostingList, Optional[BlockJumpIndex]]]:
        """Every committed ``(list, jump index)`` pair on the device —
        directly-appended family and sealed segments alike — attaching
        lists this session has not touched yet."""
        for family in (self._family, *self._segments):
            yield from family.attached_lists()

    def _choose_assignment(
        self, term_codes: np.ndarray
    ) -> Tuple[int, Tuple[int, ...]]:
        """Pick the ``(strategy, popular_terms)`` a new segment pins.

        ``term_codes`` is the code column of the postings being
        sealed/merged, whose term counts are the ``"popular"`` policy's
        evidence; the ``"epoch"`` policy instead uses what the
        previous epoch left behind (:func:`repro.core.epochs.learn_popular_terms`'s
        adaptation idea applied online — see :meth:`seal_tail`),
        falling back to uniform while no prior epoch exists.
        """
        policy = self.config.seal_strategy
        if policy == "uniform":
            return STRATEGY_UNIFORM, ()
        if policy == "popular":
            terms, counts = np.unique(
                term_codes & MAX_TERM_ID_WITH_TF, return_counts=True
            )
            source = dict(zip(terms.tolist(), counts.tolist()))
        else:
            source = self._epoch_counts
        popular = choose_popular_terms(
            source, self.config.seal_popular_terms, self.config.num_lists
        )
        if not popular:
            return STRATEGY_UNIFORM, ()
        return STRATEGY_POPULAR, popular

    def _write_segment(
        self,
        columns: PostingColumns,
        *,
        first_doc: int,
        last_doc: int,
        doc_count: int,
        inputs: Tuple[int, ...] = (),
    ) -> SealedSegment:
        """Lay the postings in ``columns`` out as a new segment and
        commit it.

        Writes the segment's merged posting lists first and appends the
        manifest record last — the atomic step, which also fixes where
        the short lists' shared file ends; a crash before it leaves only
        orphan files that recovery ignores and never overwrites.
        The segment number is spent before the first list file exists,
        so a write that raises part-way burns it in this session too.
        """
        strategy, popular = self._choose_assignment(columns[1])
        seg_no = self._next_seg_no
        self._next_seg_no += 1
        _, shared = write_segment_lists(
            self.store,
            seg_no,
            columns,
            num_lists=self.config.num_lists,
            strategy=strategy,
            popular_terms=popular,
            branching=self.config.branching,
        )
        info = SegmentInfo(
            seg_no=seg_no,
            first_doc=first_doc,
            last_doc=last_doc,
            doc_count=doc_count,
            num_lists=self.config.num_lists,
            strategy=strategy,
            popular_terms=popular,
            inputs=inputs,
            shared=shared,
        )
        self._manifest.append(info)
        return self._open_family(info)

    def seal_tail(self) -> Optional[int]:
        """Freeze the tail into an immutable WORM segment.

        Returns the new segment number (``None`` on an empty tail).
        Under the ``"epoch"`` strategy this is the epoch boundary: the
        segment is laid out from the previous epoch's evidence, and this
        epoch's becomes the next one's.  Auto-merges afterwards when
        ``merge_at_segments`` is reached.
        """
        tail = self._require_tail()
        if tail.doc_count == 0:
            return None
        segment = self._write_segment(
            tail.columns(),
            first_doc=tail.first_doc,
            last_doc=tail.last_doc,
            doc_count=tail.doc_count,
        )
        self._segments += (segment,)
        # The epoch just closed becomes the next one's evidence: its
        # query counts (qi, Fig. 3(d)/(f)), or with none its term counts.
        with self._epoch_lock:
            self._epoch_counts = self._epoch_queries or tail.term_counts()
            self._epoch_queries = {}
        tail.clear()
        if self._metrics_on:
            self._c_seals.inc()
            self._g_tail_docs.set(0)
            self._g_segments.set(len(self._segments))
        if (
            self.config.merge_at_segments is not None
            and len(self._segments) >= self.config.merge_at_segments
        ):
            self.merge_segments()
        return segment.info.seg_no

    def merge_segments(self) -> Optional[int]:
        """Merge every live segment into one, online (Section 3.3).

        Concatenates the live segments' posting columns (segment doc
        ranges are disjoint and ascending, and the new segment's sort
        keeps doc order whatever they hold), re-chooses the term→list
        assignment from the combined popularity, writes the merged
        segment, and retires the inputs with a single manifest append.
        Readers holding an older :meth:`index_view` keep their segments;
        the retired segments' read-cache entries are dropped.  Returns
        the merged segment number (``None`` with fewer than two live
        segments).
        """
        self._require_tail()
        retired = self._segments
        if len(retired) < 2:
            return None
        columns = [segment.read_columns() for segment in retired]
        segment = self._write_segment(
            tuple(np.concatenate(column) for column in zip(*columns)),
            first_doc=retired[0].info.first_doc,
            last_doc=retired[-1].info.last_doc,
            doc_count=sum(s.info.doc_count for s in retired),
            inputs=tuple(s.info.seg_no for s in retired),
        )
        self._segments = (segment,)
        if self.read_cache is not None:
            # Segment-retirement hook: the retired lists can never be
            # read again, so their decoded blocks and jump memos are
            # dead weight.  Only a list a query attached has any.
            self.read_cache.forget_lists(
                name for segment in retired for name in segment.attached_names()
            )
        if self._metrics_on:
            self._c_merges.inc()
            self._g_segments.set(1)
        return segment.info.seg_no

    def iter_segments(self) -> List[SealedSegment]:
        """The live sealed segments, ascending doc order (for audits)."""
        return list(self._segments)

    def segments_info(self) -> Dict[str, object]:
        """Operational view of the tail/segment lifecycle (CLI)."""
        if self._tail is None:
            return {"tail_enabled": False}
        return {
            "tail_enabled": True,
            "tail_docs": self._tail.doc_count,
            "tail_postings": self._tail.posting_count,
            "tail_generation": self._tail.generation,
            "manifest_records": self._manifest.record_count,
            "segments": [s.info.as_dict() for s in self._segments],
        }

    # ------------------------------------------------------------------
    # ingest — commit + index as one action (Section 2.1)
    # ------------------------------------------------------------------
    def index_document(
        self, text: str, *, commit_time: Optional[int] = None
    ) -> int:
        """Commit a document to WORM and index it, atomically from the
        caller's perspective; returns the assigned document ID."""
        term_counts = self.analyzer.term_counts(text)
        return self._ingest(text, term_counts, commit_time)

    def index_term_counts(
        self,
        term_counts: Mapping[str, int],
        *,
        commit_time: Optional[int] = None,
        store_text: bool = True,
    ) -> int:
        """Index pre-analyzed term counts (bulk/synthetic ingest path)."""
        text = (
            " ".join(
                word
                for term, count in sorted(term_counts.items())
                for word in [term] * count
            )
            if store_text
            else ""
        )
        return self._ingest(text, dict(term_counts), commit_time)

    def _commit_document(
        self,
        text: str,
        term_counts: Mapping[str, int],
        commit_time: int,
        batch: Optional[Dict[int, List[Tuple[int, int]]]] = None,
    ) -> int:
        """Commit one document and register its postings; returns its ID.

        The per-document body of every ingest call.  The index update
        happens here, before returning: real-time index update, no
        buffering window.  The terms the document introduces go to the
        lexicon log as one record.  Tail mode registers the postings in
        memory (the document, commit-time, and lexicon logs already
        journal everything the tail is rebuilt from).  Otherwise they go to the
        merged WORM lists: appended now, in term order, or — inside
        :meth:`index_batch` — grouped per list into ``batch`` for one
        pass per list before that call returns.
        """
        if commit_time < self._clock:
            raise WorkloadError(
                f"commit_time {commit_time} precedes the engine clock "
                f"{self._clock}; commits are monotonic"
            )
        self._clock = commit_time + 1
        retention_until = (
            commit_time + self.config.retention_period
            if self.config.retention_period is not None
            else None
        )
        doc_id = self.documents.commit(
            text, commit_time=commit_time, retention_until=retention_until
        )
        keys = {term: lexicon_key(term) for term in term_counts}
        lookup = self._term_ids.get
        self._add_terms(
            list(dict.fromkeys(k for k in keys.values() if lookup(k) is None))
        )
        id_counts = {lookup(keys[term]): count for term, count in term_counts.items()}
        # Postings carry the paper's "keyword frequency" metadata,
        # packed into the code field's spare byte.
        codes = {t: pack_term_tf(t, id_counts[t]) for t in sorted(id_counts)}
        if self._tail is not None:
            self._tail.add(doc_id, codes)
        else:
            list_for = self._family.list_for
            if batch is None:
                self._family.append_many(
                    (list_for(t), ((doc_id, code),))
                    for t, code in codes.items()
                )
            else:
                for t, code in codes.items():
                    batch.setdefault(list_for(t), []).append((doc_id, code))
        self.time_index.record_commit(doc_id, commit_time)
        self.stats.add_document(doc_id, id_counts)
        if self._metrics_on:
            self._c_docs.inc()
            self._c_postings.inc(len(id_counts))
        return doc_id

    def _after_ingest(self) -> None:
        """Publish the tail's size and seal it once full."""
        if self._tail is not None:
            if self._metrics_on:
                self._g_tail_docs.set(self._tail.doc_count)
            if self._tail.doc_count >= self.config.tail_max_docs:
                self.seal_tail()

    def _ingest(
        self,
        text: str,
        term_counts: Dict[str, int],
        commit_time: Optional[int],
    ) -> int:
        start = perf_counter() if self._metrics_on else 0.0
        doc_id = self._commit_document(
            text,
            term_counts,
            self._clock if commit_time is None else commit_time,
        )
        if self._metrics_on:
            self._m_ingest.observe(perf_counter() - start)
        self._after_ingest()
        return doc_id

    def index_batch(
        self,
        texts: Iterable[str],
        *,
        commit_times: Optional[Sequence[int]] = None,
    ) -> List[int]:
        """Commit and index a batch of documents in one amortized pass.

        Semantically equivalent to calling :meth:`index_document` once
        per text, in order — same document IDs, same commit times, same
        committed WORM state, and (with an unbounded storage cache) the
        exact same :class:`~repro.worm.iostats.IoStats` counts, so the
        Figure-2/8(b) accounting semantics are preserved.  What batching
        buys is amortization: posting entries are appended one pass per
        merged list, so per-list lookups (physical-list resolution, jump
        state) happen once per list instead of once per posting, and a
        bounded cache sees consecutive appends to each tail block instead
        of interleaved ones (fewer evictions under cache pressure).

        Each document is still committed to WORM *and* indexed inside
        this one call — batching groups work, it does not introduce the
        buffering window Section 2.3 forbids (the call does not return
        until every document in the batch is queryable).
        """
        texts = list(texts)
        if commit_times is None:
            commit_times = list(range(self._clock, self._clock + len(texts)))
        else:
            commit_times = list(commit_times)
            if len(commit_times) != len(texts):
                raise WorkloadError(
                    f"got {len(texts)} texts but {len(commit_times)} "
                    f"commit times"
                )
        postings_by_list: Dict[int, List[Tuple[int, int]]] = {}
        doc_ids = [
            self._commit_document(
                text,
                self.analyzer.term_counts(text),
                commit_time,
                postings_by_list,
            )
            for text, commit_time in zip(texts, commit_times)
        ]
        # One pass per merged list; per-list entries are in ascending
        # doc-id order by construction, so monotonicity invariants (and
        # jump-pointer placement) are identical to per-document ingest.
        self._family.append_many(sorted(postings_by_list.items()))
        self._after_ingest()
        return doc_ids

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
        """Run a query and return ranked results.

        ``query`` may be a raw string (parsed with the engine's analyzer,
        see :func:`repro.search.query.parse_query`) or a prepared
        :class:`~repro.search.query.Query`.  With ``verify`` every result
        is cross-checked against the stored documents before returning
        (the Section 5 stuffing countermeasure, one document read per
        result) and a stuffed answer raises
        :class:`~repro.errors.TamperDetectedError`.  Pass a
        :class:`~repro.observability.trace.QueryTrace` as ``trace`` to
        record per-stage spans (parse → resolve → join/scan → rank →
        verify) with their micro-costs.
        """
        with self._stage("parse", trace) as span:
            if isinstance(query, str):
                query = parse_query(query, analyzer=self.analyzer)
            if span is not None:
                span.note(
                    terms=len(query.terms), mode=query.mode.name.lower()
                )
        candidates = self.match(query, trace=trace)
        with self._stage("rank", trace, candidates=len(candidates)) as span:
            results = [
                SearchResult(doc_id=doc_id, score=score)
                for doc_id, score in rank(self._scorer, candidates, top_k)
            ]
            if span is not None:
                span.note(scored=len(candidates))
        if self._metrics_on:
            self._series(
                self._m_queries, "mode", query.mode.name.lower()
            ).inc()
        if verify:
            verification.require_verified(self, results, query, trace)
        return results

    def match(
        self, query, *, trace=None, costs: Optional[ReadCosts] = None
    ) -> Candidates:
        """Matching documents with their per-term frequencies.

        Runs the query's retrieval phase only: posting-list scanning or
        conjunctive joining, the commit-time constraint, and the filter
        of disposed and burned IDs.  Scoring and top-k selection are
        left to the caller — :meth:`search` ranks locally, while a
        sharded executor re-ranks the union of per-shard matches under
        aggregated collection statistics.

        Returns :class:`Candidates`: the matches as columns, which also
        read as a mapping ``doc_id -> {term_id: tf}``.  Term IDs are
        engine-local (translate via :meth:`term_text`).  Pass a
        :class:`~repro.core.segments.ReadCosts` as ``costs`` to receive
        the retrieval's micro-costs (what
        :func:`~repro.search.profiling.profile_query` reports).

        One read path serves every index layout: term IDs resolve once,
        then each list family of :meth:`index_view` is scanned or
        joined, then the tail.  Each posting exists exactly once across
        families + tail and family doc ranges are disjoint and
        ascending, so the union of the scans, and the concatenation of
        per-family joins, equal one scan or join over a single
        merged-list family.
        A time range resolves to its document-ID window first, and
        sealed segments whose manifest range misses the window are not
        read at all (``ReadCosts.families_skipped``).

        With the read cache enabled, the whole retrieval phase is served
        from the query-result tier when the list-length fingerprint
        proves nothing it depends on has changed (see
        :class:`~repro.search.readcache.QueryResultCache`); the cached
        ``Candidates`` is immutable, so every hit is handed the same
        object.  Ranking and result verification always re-run on top of
        cached candidates.
        """
        if isinstance(query, str):
            query = parse_query(query, analyzer=self.analyzer)
        term_ids = self._resolve(query.terms, trace)
        view = self.index_view()
        cache = self.read_cache
        cache_key = fingerprint = None
        if cache is not None:
            cache_key = self._query_cache_key(query)
            fingerprint = self._query_fingerprint(term_ids, view)
            with self._stage("cache", trace) as span:
                cached = cache.results.get(cache_key, fingerprint)
                if span is not None:
                    span.note(hit=cached is not None)
            if cached is not None:
                return cached
        if costs is None:
            costs = ReadCosts()
        window = None
        if query.time_range is not None:
            times = self.time_index
            blocks_before = times.blocks_scanned
            window = times.docs_in_range(*query.time_range)
            window_blocks = times.blocks_scanned - blocks_before
        if window:
            # Doc IDs rise with commit times, so the window is one doc-ID
            # interval, and a sealed segment whose manifest range misses
            # it holds no answer: a time-constrained query reads only
            # the overlapping epochs (Section 3.3).
            first, last = window[0], window[-1]
            families, tail = view
            live = tuple(
                f
                for f in families
                if f.info is None
                or (f.info.first_doc <= last and f.info.last_doc >= first)
            )
            costs.families_skipped = len(families) - len(live)
            view = (live, tail)
        if window == []:  # nothing committed in the range: read no list
            candidates = _NO_CANDIDATES
        elif query.mode is QueryMode.ALL:
            # The join's doc list and the query's terms, each present
            # in every document: nothing is built per document or term.
            # Ascending and once each, whatever was stuffed: a list can
            # repeat a document, or name one a later family holds.
            joined = sorted(set(self._join(term_ids, view, trace, costs)))
            candidates = (
                Candidates((), np.array(joined, dtype=np.uint32), term_ids)
                if joined
                else _NO_CANDIDATES
            )
        else:
            candidates = self._scan(term_ids, view, trace, costs)
        # What makes an indexed ID no answer.  A disposed document's
        # postings stay on WORM, and so do any a commit appended before
        # a crash burned its ID.
        gone = []
        retention = self._retention_if_any()
        if retention is not None and len(retention):
            gone.append(retention.is_disposed)
        if self.documents.has_burned:
            gone.append(self.documents.is_burned)
        if query.time_range is not None or gone:
            with self._stage(
                "filter", trace, candidates=len(candidates)
            ) as span:
                if window is not None and span is not None:
                    span.note(
                        window_docs=len(window), window_blocks=window_blocks
                    )
                if window:
                    # The log's doc IDs rise strictly (checked as it is
                    # read), so a window as long as its span is every ID
                    # in between.
                    doc_ids = candidates.doc_ids
                    allowed = (doc_ids >= first) & (doc_ids <= last)
                    if last - first + 1 != len(window):
                        allowed &= np.isin(doc_ids, window)
                    candidates = candidates.keep(allowed)
                if gone:
                    dead = [
                        any(test(doc_id) for test in gone)
                        for doc_id in candidates.doc_ids.tolist()
                    ]
                    candidates = candidates.keep(~np.array(dead, dtype=bool))
                if span is not None:
                    span.note(kept=len(candidates))
        if cache is not None:
            cache.results.put(cache_key, fingerprint, candidates.frozen())
        return candidates

    def _resolve(self, terms: Sequence[str], trace) -> List[Optional[int]]:
        """Term IDs of the distinct query terms, in query order
        (``None`` for a term that was never indexed)."""
        distinct = dict.fromkeys(terms)
        with self._stage("resolve", trace, terms=len(distinct)) as span:
            term_ids = [self.term_id(term) for term in distinct]
            if span is not None:
                span.note(present=len(term_ids) - term_ids.count(None))
        if self.config.seal_strategy == "epoch":
            with self._epoch_lock:
                seen = self._epoch_queries
                for term_id in term_ids:
                    if term_id is not None:
                        seen[term_id] = seen.get(term_id, 0) + 1
        return term_ids

    def _query_cache_key(self, query) -> Tuple:
        """Normalized result-cache key: mode, deduped sorted terms, range."""
        terms = tuple(sorted(dict.fromkeys(query.terms)))
        return (query.mode.value, terms, query.time_range)

    def _query_fingerprint(
        self, term_ids: Sequence[Optional[int]], view
    ) -> Tuple:
        """Everything the candidate set depends on, as list lengths.

        For each indexed query term: the current length of its physical
        list in every family of the view (``-1`` while that list was
        never written) and its posting count in the tail.  Appends are
        the only way any posting list or the commit-time log changes,
        and a document that could alter this query's candidates
        necessarily appends to one of these lists or to the tail; a
        never-indexed term becomes indexed when it first appears; the
        disposition-log length covers disposals.  The tail generation
        conservatively invalidates cached results across seals, whose
        new segment may lay the same lengths out under another
        assignment.
        """
        families, tail = view
        known = sorted(t for t in term_ids if t is not None)
        parts: List[int] = [len(known)]
        for family in families:
            for term_id in known:
                found = family.posting_list_for(term_id)
                parts.append(len(found[0]) if found is not None else -1)
        retention = self._retention_if_any()
        parts.append(len(retention) if retention is not None else 0)
        if tail is not None:
            parts.append(tail.generation)
            parts.extend(len(tail.postings_for(t)) for t in known)
        return tuple(parts)

    def read_cache_stats(self) -> Optional[Dict[str, object]]:
        """Per-tier read-cache counters (``None`` when caching is off)."""
        return self.read_cache.as_dict() if self.read_cache is not None else None

    def _scan(
        self, term_ids: Sequence[Optional[int]], view, trace, costs: ReadCosts
    ) -> Candidates:
        """Disjunctive retrieval: scan the merged lists of the query
        terms in every family, then the tail; collect tf per doc.

        Families of one layout are scanned together, by the first of
        them (see ``MergedListFamily.collect_candidates``).
        """
        families, tail = view
        present = [t for t in term_ids if t is not None]
        groups: Dict[object, List[MergedListFamily]] = {}
        for family in families:
            groups.setdefault(family.layout, []).append(family)
        with self._stage(
            "scan",
            trace,
            families=len(families),
            families_skipped=costs.families_skipped,
        ) as span:
            columns: List[TermColumn] = []
            for first, *peers in groups.values():
                columns += first.collect_candidates(present, costs, peers)
            if tail is not None:
                tail_columns = tail.collect_candidates(present)
                costs.entries += sum(len(docs) for _, docs, _ in tail_columns)
                columns += tail_columns
            columns = _max_merge_repeats(columns)
            candidates = Candidates(columns) if columns else _NO_CANDIDATES
            if self._metrics_on:
                self._c_scan_entries.inc(costs.entries)
            if span is not None:
                span.note(
                    lists=costs.lists,
                    entries_scanned=costs.entries,
                    candidates=len(candidates),
                )
                if self.read_cache is not None:
                    span.note(block_cache_hits=costs.block_cache_hits)
        return candidates

    def _join(
        self, term_ids: Sequence[Optional[int]], view, trace, costs: ReadCosts
    ) -> List[int]:
        """Conjunctive retrieval: zigzag-join each family, then the tail.

        A never-indexed term short-circuits to no matches — a document
        cannot contain a term that has no postings.  The join's
        micro-costs — seeks, blocks read (total and per physical list),
        jump-pointer follows — feed the metrics registry and, when a
        trace is attached, the ``join`` span's attributes.
        """
        if not term_ids or None in term_ids:
            return []
        families, tail = view
        doc_ids: List[int] = []
        with self._stage(
            "join",
            trace,
            cursors=len(term_ids),
            families=len(families),
            families_skipped=costs.families_skipped,
        ) as span:
            for family in families:
                doc_ids.extend(family.conjunctive_doc_ids(term_ids, costs)[0])
            if tail is not None:
                doc_ids.extend(tail.docs_with_all(term_ids))
            if self._metrics_on:
                self._c_seeks.inc(costs.seeks)
                self._c_join_blocks.inc(costs.blocks)
                self._c_follows.inc(costs.jump_follows)
                for list_id, blocks in costs.per_list_blocks.items():
                    self._series(
                        self._m_list_blocks, "list_id", list_id
                    ).inc(blocks)
            if span is not None:
                span.note(
                    matches=len(doc_ids),
                    seeks=costs.seeks,
                    blocks_read=costs.blocks,
                    jump_follows=costs.jump_follows,
                )
                if self.read_cache is not None:
                    span.note(block_cache_hits=costs.block_cache_hits)
        return doc_ids

    def conjunctive_doc_ids(
        self, terms: Sequence[str], *, trace=None
    ) -> Tuple[List[int], int]:
        """Documents containing *all* terms, plus blocks read (Section 4).

        The conjunctive half of :meth:`match`, uncached and unfiltered;
        absent terms short-circuit to an empty result.
        """
        costs = ReadCosts()
        doc_ids = self._join(
            self._resolve(terms, trace), self.index_view(), trace, costs
        )
        return doc_ids, costs.blocks

    def profile(self, query) -> QueryProfile:
        """Cost profile of ``query`` in the paper's units (cost Q)."""
        return profile_query(self, query)

    # ------------------------------------------------------------------
    # operational statistics
    # ------------------------------------------------------------------
    def archive_stats(self) -> Dict[str, object]:
        """Operational summary of the archive's committed state.

        Attaches every committed posting list first so counts cover the
        whole device, not just lists this session has touched.
        """
        lists = postings = blocks = pointers = 0
        for posting_list, jump in self.iter_posting_lists():
            lists += 1
            postings += len(posting_list)
            blocks += posting_list.num_blocks
            if jump is not None:
                pointers += jump.pointers_set
        lifecycle = self.segments_info()
        tail_postings = lifecycle.get("tail_postings", 0)
        postings += tail_postings
        retention = self._retention_if_any()
        if self._incidents is not None or self.store.device.exists(
            "engine/incidents"
        ):
            incidents = len(self.incidents)
        else:
            incidents = 0
        return {
            "documents": len(self.documents),
            "vocabulary": self.vocabulary_size,
            "physical_lists": lists,
            "postings": postings,
            "posting_blocks": blocks,
            "jump_pointers": pointers,
            "jump_index": (
                f"B={self.config.branching}" if self.config.branching else "off"
            ),
            "commit_log_records": len(self.time_index),
            "incidents": incidents,
            "dispositions": len(retention) if retention is not None else 0,
            "tail_docs": lifecycle.get("tail_docs", 0),
            "tail_postings": tail_postings,
            "segments_live": len(self._segments),
            "manifest_records": lifecycle.get("manifest_records", 0),
            "device_bytes": self.store.device.total_bytes(),
            "device_files": len(self.store.device),
        }

    # ------------------------------------------------------------------
    # incident handling (Section 6 future work, implemented)
    # ------------------------------------------------------------------
    @property
    def incidents(self):
        """The engine's WORM-resident incident log (created on first use)."""
        if self._incidents is None:
            from repro.core.incidents import IncidentLog

            self._incidents = IncidentLog(self.store, "engine/incidents")
        return self._incidents

    @property
    def retention(self):
        """The engine's retention manager (created on first use)."""
        if self._retention is None:
            from repro.core.retention import RetentionManager

            self._retention = RetentionManager(
                self.store, log_name="engine/dispositions"
            )
        return self._retention

    def _retention_if_any(self):
        """The retention manager iff dispositions were ever committed.

        Query paths call this so that a reopened engine notices an
        existing disposition log without eagerly creating one.
        """
        if self._retention is None and self.store.device.exists(
            "engine/dispositions"
        ):
            return self.retention
        return self._retention

    def is_disposed(self, doc_id: int) -> bool:
        """Whether a disposition record explains ``doc_id``'s absence."""
        retention = self._retention_if_any()
        return retention is not None and retention.is_disposed(doc_id)

    def dispose_expired(self, *, now: Optional[int] = None):
        """Dispose of documents past their retention horizon (Section 2.2).

        Deletes each expired document from WORM and records the
        disposition in the append-only log, so that dangling index
        entries remain explainable to auditors.  Returns the disposed
        document IDs.
        """
        return self.retention.dispose_expired(
            self.documents, now=self._clock if now is None else now
        )

    def search_with_incident_handling(
        self, query, *, top_k: int = 10, trace=None
    ):
        """Search, verify, and quarantine any exposed stuffing in
        :attr:`incidents`; returns ``(results, report)``.  See
        :func:`repro.core.verification.search_with_incident_handling`."""
        return verification.search_with_incident_handling(
            self, query, top_k=top_k, trace=trace
        )

    # ------------------------------------------------------------------
    # verification (Section 5)
    # ------------------------------------------------------------------
    def verify_results(
        self, doc_ids: Sequence[int], terms: Sequence[str]
    ) -> AuditReport:
        """Cross-check results against WORM-resident documents."""
        return verification.verify_results(self, doc_ids, terms)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TrustworthySearchEngine(docs={len(self.documents)}, "
            f"terms={self.vocabulary_size}, segments={len(self._segments)}, "
            f"jump={'B=' + str(self.config.branching) if self.config.branching else 'off'})"
        )
