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
from bisect import bisect_right
from dataclasses import dataclass
from itertools import chain
from operator import itemgetter
from time import perf_counter
from typing import Dict, Iterable, Iterator, List, Mapping, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.core.block_jump_index import BlockJumpIndex
from repro.core.merge import MergeStrategy, UniformHashMerge
from repro.core.posting import MAX_PACKED_TF, MAX_TERM_ID_WITH_TF
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
from repro.core.space import postings_per_block
from repro.core.tail import MutableTailIndex, TailSnapshot
from repro.core.time_index import CommitTimeIndex
from repro.core.vecdecode import TermColumn, ascending
from repro.core import verification
from repro.core.verification import ResultVerdict
from repro.errors import IndexError_, TamperDetectedError, WorkloadError
from repro.observability.metrics import MetricsRegistry
from repro.search.analyzer import Analyzer
from repro.search.documents import DocumentStore
from repro.search.join import conjunctive_join  # noqa: F401 - bound by bench/layers.py
from repro.search.profiling import QueryProfile, profile_query
from repro.search.query import QueryMode, parse_query
from repro.search.ranking import SCORERS, CollectionStats, rank
from repro.search.readcache import ReadCache, TierStats
from repro.worm.storage import CachedWormStore


#: Longest term (in UTF-8 bytes) the WORM lexicon log retains.
MAX_LEXICON_TERM_BYTES = 128

#: Terms of at most this many characters are canonical as they stand:
#: a character is at most four UTF-8 bytes.
_SHORT_TERM = MAX_LEXICON_TERM_BYTES // 4

#: The WORM log of the lexicon: each term, new in the order of first
#: appearance, on a line of its own.
LEXICON_FILE = "engine/lexicon"

#: Documents re-analysed and folded in at a time on restart, which
#: bounds the columns a restart holds at once.
_RESTORE_CHUNK = 64


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


def _canonical(term: str) -> str:
    """:func:`lexicon_key`, without encoding a term short enough to be
    canonical already."""
    return term if len(term) <= _SHORT_TERM else lexicon_key(term)


@dataclass(frozen=True)
class EngineConfig:
    """Configuration of a :class:`TrustworthySearchEngine`.

    Attributes
    ----------
    num_lists:
        Number of merged posting lists ``M``; size this to the storage
        cache (``cache_bytes / block_size``, Section 3.4), whose capacity
        is the ``cache_blocks`` of the engine's
        :class:`~repro.worm.storage.CachedWormStore`.  The paper's
        validated configuration uses 32,768 lists for a 128 MB cache.
    block_size:
        WORM block size in bytes (paper: 8 KB).  It must hold one
        lexicon line and, with a jump index, one posting beside the
        block's jump pointers.
    branching:
        Jump-index branching factor ``B`` (paper's sweet spot: 32);
        ``None`` disables jump indexes (the merged-lists-only scheme).
    ranking:
        ``"bm25"`` or ``"cosine"``.
    read_cache:
        Enable the read-path cache (:mod:`repro.search.readcache`):
        each list family's retrieval of a query's terms.  Session-scoped
        acceleration only — it never shapes committed WORM state, so
        archives created with and without it are byte-identical.
    read_cache_mb:
        Approximate in-memory budget of the cached retrievals, in MB.
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
        if self.block_size <= MAX_LEXICON_TERM_BYTES:
            raise WorkloadError(
                f"block_size must hold a {MAX_LEXICON_TERM_BYTES + 1}-byte "
                f"lexicon line, got {self.block_size}"
            )
        if self.branching is not None:
            try:
                postings_per_block(self.block_size, self.branching)
            except IndexError_ as error:
                raise WorkloadError(str(error)) from None
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


def check_commit_times(
    clock: int, count: int, commit_times: Optional[Sequence[int]]
) -> List[int]:
    """The commit times of a batch of ``count`` texts, checked before
    anything is written: ``clock`` onwards when ``commit_times`` is
    ``None``; otherwise one time per text, none below ``clock`` and each
    above the time before it.  A batch that breaks the rule is refused
    whole with a :class:`~repro.errors.WorkloadError` naming what the
    time was compared against."""
    if commit_times is None:
        return list(range(clock, clock + count))
    commit_times = list(commit_times)
    if len(commit_times) != count:
        raise WorkloadError(f"got {count} texts but {len(commit_times)} commit times")
    if commit_times and commit_times[0] < clock:
        raise WorkloadError(
            f"commit_time {commit_times[0]} precedes the engine clock {clock}; "
            f"commits are monotonic"
        )
    for before, commit_time in zip(commit_times, commit_times[1:]):
        if commit_time <= before:
            raise WorkloadError(
                f"commit_time {commit_time} does not follow {before}, the time "
                f"before it in the batch; commits are monotonic"
            )
    return commit_times


@dataclass(frozen=True)
class SearchResult:
    """One ranked hit."""

    doc_id: int
    score: float


class Candidates:
    """The documents a query matched, as columns; immutable.

    ``doc_ids`` holds every matched document once, ascending; ``len()``
    counts those.  ``columns`` holds one ``(term_id, doc_ids, tfs)``
    triple per query term found: strictly ascending document IDs beside
    the term's frequency in each.  ``everywhere`` names the terms
    *every* document holds, scored on presence (``tf`` 1): a
    conjunctive join's answer is its document list and the query's
    terms, and builds nothing per term.  ``terms`` is what the query's
    terms resolved to: each distinct canonical text, in query order,
    beside its term ID (``None`` if never indexed), what
    :meth:`CollectionStats.query_stats` reads.  Ranking
    (:func:`repro.search.ranking.rank`) reads the columns whole; they
    may be arrays the read cache shares, so nothing writes to them.

    Scoring keys a term by its canonical text and meets a document's
    terms in ascending text, whichever path found them and whichever
    shard holds them, so every layout and every shard count sums a
    score in one order.  Candidates built without ``terms`` key a term
    by its ID.  :meth:`rows` is the ``doc_id -> {key: tf}`` form, built
    afresh.
    """

    __slots__ = ("doc_ids", "everywhere", "columns", "terms", "postings")

    def __init__(
        self,
        columns: Iterable[TermColumn] = (),
        doc_ids: Optional[np.ndarray] = None,
        everywhere: Sequence[int] = (),
        terms: Optional[Mapping[str, Optional[int]]] = None,
    ):
        self.columns: Tuple[TermColumn, ...] = tuple(columns)
        self.everywhere: Tuple[int, ...] = tuple(everywhere)
        self.terms = terms
        if doc_ids is None:
            doc_ids = self._union([docs for _, docs, _ in self.columns])
        self.doc_ids = doc_ids
        #: Postings over all terms: what ranking's cost grows with.
        self.postings = len(self.everywhere) * len(doc_ids)
        for _, docs, _ in self.columns:
            self.postings += len(docs)

    @staticmethod
    def _union(doc_columns: List[np.ndarray]) -> np.ndarray:
        if not doc_columns:
            return _NO_DOCS
        if len(doc_columns) == 1:
            return doc_columns[0]
        merged = np.sort(np.concatenate(doc_columns))
        first = np.empty(len(merged), dtype=bool)
        first[0] = True
        np.not_equal(merged[1:], merged[:-1], out=first[1:])
        return merged[first]

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
        return Candidates(columns, doc_ids[mask], self.everywhere, self.terms)

    def _by_term_text(self):
        """``(key, docs, tfs)`` per column and per term held everywhere
        (``docs`` ``None``, ``tfs`` 1), by ascending key: the term's
        canonical text, or its ID without ``terms``."""
        columns = [(term_id, None, 1) for term_id in self.everywhere]
        columns.extend(self.columns)
        if self.terms:
            text = {term_id: term for term, term_id in self.terms.items()}
            columns = [(text[term_id], docs, tfs) for term_id, docs, tfs in columns]
        columns.sort(key=itemgetter(0))
        return columns

    def rows(self) -> Dict[int, Dict[object, int]]:
        """``doc_id -> {key: tf}`` built afresh, terms by ascending key."""
        all_ids = self.doc_ids.tolist()
        rows: Dict[int, Dict[object, int]] = {doc_id: {} for doc_id in all_ids}
        for key, docs, tfs in self._by_term_text():
            if docs is None:
                for doc_id in all_ids:
                    rows[doc_id][key] = 1
            else:
                for doc_id, tf in zip(docs.tolist(), tfs.tolist()):
                    rows[doc_id][key] = tf
        return rows

    def scoring_columns(self) -> List[Tuple[object, object, object]]:
        """``(key, rows, tfs)`` per term by ascending key, for
        :meth:`~repro.search.ranking.BM25Scorer.score_columns`: ``rows``
        index ``doc_ids`` (``slice(None)`` for all of them, in order);
        ``tfs`` is a column, or the number 1 for a term held everywhere."""
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
            for key, docs, tfs in self._by_term_text()
        ]

    def __len__(self) -> int:
        return len(self.doc_ids)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Candidates({len(self)} docs, {self.postings} postings)"


#: A document-ID column that holds nothing (never written, so shared).
_NO_DOCS = np.empty(0, dtype=np.uint32)


class _Stage:
    """``with`` one query stage: its histogram ``series`` (``None`` with
    metrics off) times the block, and its ``span`` of ``trace``, if any,
    is what the block gets and is finished after it.  A class, not a
    generator: on a query the result tier answers, timing its stages
    costs as much as its lookups do."""

    __slots__ = ("series", "trace", "span", "start")

    def __init__(self, series, trace, span):
        self.series, self.trace, self.span = series, trace, span

    def __enter__(self):
        self.start = perf_counter()
        return self.span

    def __exit__(self, *exc_info) -> None:
        if self.series is not None:
            self.series.observe(perf_counter() - self.start)
        if self.span is not None:
            self.trace.finish(self.span)


def _concatenated(pieces: Iterable[Sequence[TermColumn]]) -> List[TermColumn]:
    """One column per term out of ``pieces`` — each family's (or group
    of same-layout families') columns, then the tail's: the term's parts
    end to end.

    Each part ascends, and families and the tail cover disjoint
    documents, so parts in view order line up end to end.  A group out
    of view order, or a posting stuffed into one part under a document
    ID of another, breaks the order at a seam, and :func:`ascending`
    restores it, the larger frequency of a repeated ``(document, term)``
    pair winning.
    """
    parts: Dict[int, List[TermColumn]] = {}
    for piece in pieces:
        for column in piece:
            parts.setdefault(column[0], []).append(column)
    columns = []
    for term_id, same in parts.items():
        if len(same) > 1:
            docs = np.concatenate([column[1] for column in same])
            tfs = np.concatenate([column[2] for column in same])
            if any(a[1][-1] >= b[1][0] for a, b in zip(same, same[1:])):
                docs, tfs = ascending(docs, tfs)
            same = [(term_id, docs, tfs)]
        columns.append(same[0])
    return columns


def _differ(held: Mapping[int, int], recounted: Mapping[int, int]) -> List[int]:
    """The keys whose counts differ, a missing key counting 0."""
    return [k for k in held.keys() | recounted.keys() if held.get(k, 0) != recounted.get(k, 0)]


class _Columns(NamedTuple):
    """Analysed documents as columns: term ``ids`` (the lexicon's own
    ints, which the statistics keep) and ``tfs`` (as postings carry it,
    clamped to a byte) hold one row per posting, document after
    document, ``sizes[i]`` rows for the ``i``-th; ``lengths`` are the
    documents' token counts.
    ``new_terms`` are the canonical terms new to the lexicon in ID
    order, the ``i``-th document introducing
    ``new_terms[marks[i]:marks[i + 1]]``."""

    sizes: List[int]
    ids: List[int]
    tfs: np.ndarray
    lengths: List[int]
    new_terms: List[str]
    marks: List[int]


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
        self.store = store or CachedWormStore(block_size=self.config.block_size)
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
        self.time_index = CommitTimeIndex(self.store, "engine/commit-times")
        # Lexicon: term string <-> engine-local term ID (order of first
        # appearance).  Rebuildable from the WORM lexicon log.
        self._term_ids: Dict[str, int] = {}
        self._terms: List[str] = []
        self._lexicon_file = self.store.ensure_file(LEXICON_FILE)
        self._lexicon_extent = self._lexicon_now()
        # The directly-appended merged lists (``engine/pl/``); physical
        # lists are created lazily as terms first hash into them.
        self._family = self._open_family(
            strategy=merge_strategy or UniformHashMerge(self.config.num_lists)
        )
        self._clock = 0
        self._incidents = None
        self._incidents_lock = threading.Lock()
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
        own invariants when reattached).  Only committed documents that
        are not disposed count — a disposed one's absence is explained by
        the disposition log.  A live segment with a length column is
        folded into the ranking statistics whole (:meth:`_fold_segment`).
        Every other such document — above the sealed horizon, or in a
        segment written before the column — is re-analysed as it was at
        ingest and refolded through the fold ingest uses, a chunk of
        documents at a time, and those above the horizon re-enter the
        tail.
        """
        self._restore_lexicon()
        # The log's columns, checked as the time index read them.
        commit_times, doc_ids = self.time_index.columns()
        self.documents.restore(doc_ids, commit_times)
        self._clock = self.time_index.last_commit_time + 1
        sealed_through = (
            self._manifest.sealed_through if self._manifest is not None else -1
        )
        alive = np.array(self.documents.alive_ids(), dtype=np.int64)
        for segment in self._segments:
            alive = self._fold_segment(segment, alive)
        for doc_ids, batch in self._analysed(alive.tolist()):
            self._fold(doc_ids, batch, sealed_through)

    def _analysed(self, doc_ids: List[int]) -> Iterator[Tuple[List[int], _Columns]]:
        """Stored documents ``doc_ids`` re-analysed as at ingest, a chunk
        at a time: each chunk and its :class:`_Columns`."""
        for at in range(0, len(doc_ids), _RESTORE_CHUNK):
            chunk = doc_ids[at : at + _RESTORE_CHUNK]
            yield chunk, self._reanalysed([self.documents.get(doc_id).text for doc_id in chunk])

    def _reanalysed(self, texts: List[str]) -> _Columns:
        """Committed ``texts`` analysed as at ingest, under the IDs the
        lexicon gave their terms then."""
        return self._columns(list(map(self.analyzer.term_counts, texts)), allocate=False)

    def _fold_segment(self, segment: SealedSegment, alive: np.ndarray) -> np.ndarray:
        """Fold the ``alive`` documents of ``segment`` into the ranking
        statistics from its length column and its postings, if it has a
        column; returns the ``alive`` documents not folded.

        Both are what its manifest record fixes: a sealed ``(document,
        term)`` pair is one posting there, so a term's document count is
        its postings' among the documents that count.
        """
        lengths = segment.doc_lengths()
        if lengths is None:
            return alive
        first = segment.info.first_doc
        low, high = np.searchsorted(alive, [first, segment.info.last_doc + 1])
        inside = alive[low:high]
        counted = np.zeros(len(lengths), dtype=bool)
        counted[inside - first] = True
        doc_ids, term_codes = segment.read_columns()
        rows = doc_ids.astype(np.int64) - first
        # Outside the range only if a merge carried it in from a segment
        # sealed before the shared file, whose lists it read whole.
        held = (rows >= 0) & (rows < len(counted))
        held[held] = counted[rows[held]]
        df = np.bincount(term_codes[held] & MAX_TERM_ID_WITH_TF)
        self.stats.add_counted(inside, lengths[inside - first], df)
        return np.concatenate((alive[:low], alive[high:]))

    def _restore_lexicon(self) -> None:
        """Number the lexicon log's terms in memory, as they were logged."""
        self._remember(self._read_lexicon())
        self._lexicon_extent = self._lexicon_now()

    def _read_lexicon(self) -> List[str]:
        """The lexicon log's terms in order, checking every line: a
        record ends in a newline and never spans a block, so each block
        ends in one; each line is UTF-8, a canonical term
        (:func:`lexicon_key`), and new.  A line that re-binds a known
        term, or glues onto a record that lost its newline, would give
        committed documents' terms the wrong IDs, so it raises
        :class:`~repro.errors.TamperDetectedError` instead."""
        seen: Dict[str, None] = {}
        for block_no in range(self._lexicon_file.num_blocks):
            *lines, unended = self.store.peek_block(LEXICON_FILE, block_no).split(b"\n")
            for line in lines + [unended] if unended else lines:
                try:
                    term = line.decode("utf-8")
                except UnicodeDecodeError:
                    term = ""
                if line is unended or not term or _canonical(term) != term or term in seen:
                    raise TamperDetectedError(
                        f"lexicon line {line[:40]!r} is not a new canonical "
                        f"term ending in a newline",
                        location=f"'{LEXICON_FILE}', block {block_no}",
                        invariant="lexicon-record",
                    )
                seen[term] = None
        return list(seen)

    def verify_lexicon(self) -> int:
        """Check the lexicon log as a reopen reads it, and as the writer
        does before it appends; returns the terms checked, or raises
        :class:`~repro.errors.TamperDetectedError`."""
        terms = self._read_lexicon()
        self._check_lexicon_extent()
        return len(terms)

    def verify_statistics(self) -> int:
        """Recount the ranking statistics from the stored documents, as a
        reopen before the length column did, and hold the engine's to
        them: each term's document frequency, each document's length,
        the document count and the total length.  Returns the documents
        recounted, or raises :class:`~repro.errors.TamperDetectedError`
        naming what differs.  Statistics carry no trust weight — a
        verified search re-reads its results — but a wrong length
        column, or a sealed posting a merge should not have carried,
        shows here.  Only the documents that exist count: a disposal
        counts its documents out (:meth:`dispose_expired`)."""
        alive = self.documents.alive_ids()
        held = self.stats
        recounted = CollectionStats()
        for doc_ids, batch in self._analysed(alive):
            recounted.add(doc_ids, batch.lengths, batch.ids)
        ids = np.array(alive, dtype=np.int64)
        lengths_differ = held.lengths_of(ids) != recounted.lengths_of(ids)
        wrong = [
            f"{what} {sorted(keys)[:5]}"
            for what, keys in (
                ("the df of term IDs", _differ(held.df, recounted.df)),
                ("the lengths of documents", ids[lengths_differ].tolist()),
            )
            if keys
        ]
        if (held.num_docs, held.total_length) != (recounted.num_docs, recounted.total_length):
            wrong.append(
                f"{held.num_docs} documents of total length {held.total_length}, "
                f"recounted {recounted.num_docs} of {recounted.total_length}"
            )
        if wrong:
            raise TamperDetectedError(
                "statistics differ from a recount of the stored documents: " + "; ".join(wrong),
                location="ranking statistics",
                invariant="statistics",
            )
        return len(alive)

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
            "Commit+index latency of one index_batch call (a seal it triggers excluded)",
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

    def _stage(self, name: str, trace, **attrs) -> _Stage:
        """Time one query stage into the stage histogram and, when a
        :class:`~repro.observability.trace.QueryTrace` is attached, a
        span.  Yields the span (``None`` without a trace) so stages can
        :meth:`~repro.observability.trace.Span.note` their micro-costs.
        """
        return _Stage(
            self._series(self._m_stage, "stage", name) if self._metrics_on else None,
            trace,
            trace.begin(name, **attrs) if trace is not None else None,
        )

    # ------------------------------------------------------------------
    # lexicon
    # ------------------------------------------------------------------
    def term_id(self, term: str) -> Optional[int]:
        """Engine-local term ID for ``term`` (``None`` if never indexed).

        Terms are canonicalized via :func:`lexicon_key` before lookup and
        allocation, so the in-memory lexicon, the WORM lexicon log, and
        query-time lookups always agree on one byte sequence per term.
        """
        return self._term_ids.get(_canonical(term))

    def _remember(self, terms: Iterable[str]) -> None:
        """Give each of ``terms`` the next term ID, in memory."""
        for term in terms:
            self._term_ids[term] = len(self._terms)
            self._terms.append(term)

    def _lexicon_now(self) -> Tuple[int, int]:
        """The lexicon log's blocks and its tail block's bytes: all of
        its WORM state an append can change."""
        blocks = self._lexicon_file.num_blocks
        return blocks, self._lexicon_file.block(blocks - 1).fill if blocks else 0

    def _check_lexicon_extent(self) -> None:
        """Raise unless the lexicon log is what this engine last read or
        wrote: a line someone else appended would take the ID the
        writer's next term has in memory."""
        if self._lexicon_now() != self._lexicon_extent:
            raise TamperDetectedError(
                "the lexicon log holds bytes this writer did not append",
                location=f"'{LEXICON_FILE}'",
                invariant="lexicon-record",
            )

    def _add_terms(self, terms: Sequence[str]) -> None:
        """Log canonical ``terms`` new to the lexicon, then give each the
        next ID in memory: one WORM record for all of them, more only
        when they outgrow a block (a record never spans one).  The log's
        bytes are those of a record per term, so restart reads it as
        ever.  The analyzer's terms hold no newline, the log's delimiter.
        The writer appends only after its own bytes
        (:meth:`_check_lexicon_extent`)."""
        self._check_lexicon_extent()
        record = b""
        for line in (term.encode("utf-8") + b"\n" for term in terms):
            if record and len(record) + len(line) > self.store.block_size:
                self._lexicon_file.append_record(record)
                record = b""
            record += line
        if record:
            self._lexicon_file.append_record(record)
        self._lexicon_extent = self._lexicon_now()
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
        """A list family wired to this engine's decode metrics: the
        sealed segment ``info`` records, or (without one)
        the directly-appended ``engine/pl/`` lists under ``strategy``."""
        return MergedListFamily(
            self.store,
            info,
            branching=self.config.branching,
            strategy=strategy,
            decode_metrics=self._decode_series if self._metrics_on else None,
            length_hints=self.stats.df if info is None else None,
        )

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
        the pre-event state across later seals, merges and adds
        (segments are immutable, and every add and seal replaces the
        tail's columns); that the families and the tail are of one
        instant relies on the single-writer lock discipline — see
        :mod:`repro.core.tail`.
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
        self, audit: bool = False
    ) -> Iterator[Tuple[PostingList, Optional[BlockJumpIndex]]]:
        """Every committed ``(list, jump index)`` pair on the device —
        directly-appended family and sealed segments alike — attaching
        lists this session has not touched yet; for an ``audit``, see
        :meth:`~repro.core.segments.MergedListFamily.attached_lists`."""
        for family in (self._family, *self._segments):
            yield from family.attached_lists(audit)

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
        lengths: Optional[np.ndarray],
        *,
        first_doc: int,
        last_doc: int,
        doc_count: int,
        inputs: Tuple[int, ...] = (),
    ) -> SealedSegment:
        """Lay the postings in ``columns`` out as a new segment, with
        ``lengths``, one per document ID of ``[first_doc, last_doc]``, as
        its length column (``None``: none, as code before the column
        wrote), and commit it.

        Writes the segment's merged posting lists and column first and
        appends the manifest record last — the atomic step, which also
        fixes where the short lists' shared file ends, and each long
        list's posting count; a crash before it leaves only orphan files
        that recovery ignores and never overwrites.  Every posting, and
        every jump pointer the bulk load sets (each block's, before the
        next block exists), is on WORM before the record, so no honest
        pointer leads past a count the record fixes: what lets every
        reader of the segment take exactly its extents
        (:mod:`repro.core.segments`).
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
            lengths=lengths,
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
            lengths=lengths is not None,
        )
        self._manifest.append(info)
        return self._open_family(info)

    def seal_tail(self) -> Optional[int]:
        """Freeze the tail into an immutable WORM segment.

        Returns the new segment number (``None`` on an empty tail).
        The segment is the one a reopen's tail would give: of the tail's
        documents, those disposed of since ingest are left out — their
        postings, their lengths, and the range's ends when they lie
        there — and with none alive the tail is cleared and nothing is
        sealed.
        Under the ``"epoch"`` strategy this is the epoch boundary: the
        segment is laid out from the previous epoch's evidence, and this
        epoch's becomes the next one's.  Auto-merges afterwards when
        ``merge_at_segments`` is reached.
        """
        tail = self._require_tail()
        if tail.doc_count == 0:
            return None
        # The tail a reopen would rebuild: the documents not disposed of.
        ids = np.arange(tail.first_doc, tail.last_doc + 1)
        alive = np.fromiter(map(self.documents.exists, ids.tolist()), bool, len(ids))
        if not alive.any():
            tail.clear()
            if self._metrics_on:
                self._g_tail_docs.set(0)
            return None
        doc_ids, term_codes = tail.columns()
        kept = alive[doc_ids - tail.first_doc]
        first, last = np.flatnonzero(alive)[[0, -1]].tolist()
        segment = self._write_segment(
            (doc_ids[kept], term_codes[kept]),
            # What ingest counted; a burned or disposed ID's is 0.
            np.where(alive, self.stats.lengths_of(ids), 0)[first : last + 1],
            first_doc=tail.first_doc + first,
            last_doc=tail.first_doc + last,
            doc_count=int(alive.sum()),
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

        Concatenates the live segments' posting columns — what their
        manifest records fix (segment doc ranges are disjoint and
        ascending, and the new segment's sort keeps doc order whatever
        they hold) — and their length columns, re-chooses the term→list
        assignment from the combined popularity, writes the merged
        segment, and retires the inputs with a single manifest append.
        A segment written before the column contributes the lengths the
        statistics hold.
        Readers holding an older :meth:`index_view` keep their segments;
        the retired segments' read-cache entries are dropped, and no
        other.  Returns the merged segment number (``None`` with fewer
        than two live segments).
        """
        self._require_tail()
        retired = self._segments
        if len(retired) < 2:
            return None
        columns = [segment.read_columns() for segment in retired]
        first = retired[0].info.first_doc
        lengths = np.zeros(retired[-1].info.last_doc - first + 1, dtype=np.int64)
        for input_segment in retired:
            start, stop = input_segment.info.first_doc, input_segment.info.last_doc + 1
            column = input_segment.doc_lengths()
            if column is None:
                column = self.stats.lengths_of(np.arange(start, stop))
            lengths[start - first : stop - first] = column
        segment = self._write_segment(
            tuple(np.concatenate(column) for column in zip(*columns)),
            lengths,
            first_doc=first,
            last_doc=retired[-1].info.last_doc,
            doc_count=sum(s.info.doc_count for s in retired),
            inputs=tuple(s.info.seg_no for s in retired),
        )
        self._segments = (segment,)
        if self.read_cache is not None:
            # The retired segments can never be read again.
            self.read_cache.retire({segment.info.seg_no for segment in retired})
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
        caller's perspective; returns the assigned document ID.  A batch
        of one: :meth:`index_batch` is the one way a document enters."""
        return self.index_batch(
            [text], commit_times=None if commit_time is None else [commit_time]
        )[0]

    def index_batch(
        self,
        texts: Iterable[str],
        *,
        commit_times: Optional[Sequence[int]] = None,
    ) -> List[int]:
        """Commit and index a batch of documents; returns their IDs.

        The commit times (by default the engine clock onwards) are
        checked by :func:`check_commit_times` before anything is
        written, so a refused batch commits nothing.  Each document is
        committed to WORM *and* indexed inside this one call — batching
        groups work, it does not introduce the buffering window Section
        2.3 forbids (the call does not return until every document in
        the batch is queryable).

        The batch is analysed into columns first, each distinct term
        resolved once (:meth:`_columns`).  Then, document by document,
        its file, the lexicon record of the terms it introduces, and in
        tail mode its commit-time record.  Otherwise the postings go to
        the merged WORM lists ordered by (list, document, term), one
        posting at a time through Section 3's cache model, so with an
        unbounded storage cache the :class:`~repro.worm.iostats.IoStats`
        counts are those of ingesting the documents one at a time
        (Figure 2/8(b)); the batch's commit-time records follow, and a
        crash among the appends leaves IDs that no record commits —
        burned — not committed documents missing postings.  Whatever
        raises, the documents whose commit-time records landed are
        folded into the statistics and the tail (:meth:`_fold`), and
        those whose files were written without a record are burned now,
        as a reopen would find them (:meth:`DocumentStore.burn`).
        """
        texts = list(texts)
        commit_times = check_commit_times(self._clock, len(texts), commit_times)
        start = perf_counter() if self._metrics_on else 0.0
        batch = self._columns(
            [self.analyzer.term_counts(text) for text in texts], allocate=True
        )
        retention = self.config.retention_period
        doc_ids: List[int] = []
        committed = 0
        try:
            for at, (text, commit_time) in enumerate(zip(texts, commit_times)):
                self._clock = commit_time + 1
                until = None if retention is None else commit_time + retention
                doc_ids.append(
                    self.documents.commit(text, commit_time=commit_time, retention_until=until)
                )
                new_terms = batch.new_terms[batch.marks[at] : batch.marks[at + 1]]
                if new_terms:
                    self._add_terms(new_terms)
                if self._tail is not None:
                    self.time_index.record_commit(doc_ids[-1], commit_time)
                    committed += 1
            if self._tail is None:
                self._append_postings(doc_ids, batch)
                for doc_id, commit_time in zip(doc_ids, commit_times):
                    self.time_index.record_commit(doc_id, commit_time)
                    committed += 1
        finally:
            self.documents.burn(doc_ids[committed:])
            self._fold(doc_ids[:committed], batch)
            if self._metrics_on:
                self._c_docs.inc(committed)
                self._c_postings.inc(sum(batch.sizes[:committed]))
        if self._metrics_on:
            self._m_ingest.observe(perf_counter() - start)
        if self._tail is not None:
            if self._metrics_on:
                self._g_tail_docs.set(self._tail.doc_count)
            if self._tail.doc_count >= self.config.tail_max_docs:
                self.seal_tail()
        return doc_ids

    def _columns(self, analysed: List[Dict[str, int]], *, allocate: bool) -> _Columns:
        """Documents' ``term -> count`` maps as :class:`_Columns`, each
        distinct term resolved once.

        With ``allocate``, a term new to the lexicon gets the next ID
        in the order of first appearance, which is the order ingest logs
        them in; nothing is logged or remembered yet, and a batch that
        would overflow the 24-bit term space is refused before anything
        is written.  Without it (a restart), a term the lexicon lacks
        is dropped.  Two terms of a document that share a canonical key
        are one posting, and the later count stands, as in a dict.
        """
        known = self._term_ids
        term_of: Dict[str, Optional[int]] = {}
        fresh: Dict[str, int] = {}
        base = len(self._terms)
        rare = False
        for term in dict.fromkeys(chain.from_iterable(analysed)):
            key = _canonical(term)
            term_id = known.get(key)
            if term_id is None and allocate:
                term_id = fresh.setdefault(key, base + len(fresh))
            term_of[term] = term_id
            if term_id is None or key is not term:
                rare = True
        if base + len(fresh) > MAX_TERM_ID_WITH_TF + 1:
            raise WorkloadError("lexicon exceeded the 24-bit term-id space")
        lookup = term_of.__getitem__
        if rare:
            analysed = [
                {term_of[t]: c for t, c in counts.items() if term_of[t] is not None}
                for counts in analysed
            ]
            lookup = int  # the keys are term IDs now
        ids = list(map(lookup, chain.from_iterable(analysed)))
        sizes = list(map(len, analysed))
        # New IDs go in order of first appearance, so a document
        # introduces those from the last one before it through its own
        # highest.
        marks, at = [0], 0
        for size in sizes:
            marks.append(max(marks[-1], max(ids[at : at + size], default=-1) + 1 - base))
            at += size
        tfs = np.fromiter(chain.from_iterable(map(dict.values, analysed)), np.int64, len(ids))
        lengths = [sum(counts.values()) for counts in analysed]
        return _Columns(sizes, ids, np.minimum(tfs, MAX_PACKED_TF), lengths, list(fresh), marks)

    def _fold(self, doc_ids: List[int], batch: _Columns, sealed_through: int = -1) -> None:
        """Fold the first ``len(doc_ids)`` documents of ``batch``,
        committed as ``doc_ids``, into the statistics, and (tail mode)
        those above ``sealed_through`` into the tail: the one way a
        document's terms reach memory, at ingest and on restart alike.
        A document without terms counts as one."""
        count = len(doc_ids)
        if not count:
            return
        sizes = batch.sizes[:count]
        rows = sum(sizes)
        self.stats.add(doc_ids, batch.lengths[:count], batch.ids[:rows])
        if self._tail is not None:
            first = bisect_right(doc_ids, sealed_through)
            skip = sum(sizes[:first])
            docs = np.repeat(np.array(doc_ids[first:], dtype=np.int64), sizes[first:])
            self._tail.add(doc_ids[first:], docs, batch.ids[skip:rows], batch.tfs[skip:rows])

    def _append_postings(self, doc_ids: List[int], batch: _Columns) -> None:
        """Append the batch's postings to the directly-appended lists,
        in the order one sort gives: (list, document, term ID)."""
        if not batch.ids:
            return
        terms = np.array(batch.ids, dtype=np.int64)
        lists = self._family.assignment_through(int(terms.max())).list_ids[terms]
        docs = np.repeat(np.array(doc_ids, dtype=np.int64), batch.sizes)
        order = np.lexsort((terms, docs, lists))
        lists = lists[order]
        # Postings carry the paper's "keyword frequency" metadata,
        # packed into the code field's spare byte.
        codes = terms | batch.tfs << 24
        postings = list(zip(docs[order].tolist(), codes[order].tolist()))
        starts = np.flatnonzero(np.r_[True, lists[1:] != lists[:-1]]).tolist()
        self._family.append_many(
            (list_id, postings[begin:end])
            for list_id, begin, end in zip(
                lists[starts].tolist(), starts, starts[1:] + [len(postings)]
            )
        )

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
            stats = self.stats.query_stats(candidates.terms)
            scorer = SCORERS[self.config.ranking](stats, self.stats)
            results = [
                SearchResult(doc_id=doc_id, score=score)
                for doc_id, score in rank(scorer, candidates, top_k)
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
        left to the caller — :meth:`search` ranks under its own
        statistics, while a sharded executor adds up every shard's
        statistics for the query's terms, scores each shard's matches
        under the sum and cuts them all at once.

        Returns :class:`Candidates`: the matches as columns, which also
        read as a mapping ``doc_id -> {term: tf}``, and what each query
        term resolved to here, once.  Pass a
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
        A time range resolves to its document-ID window first: the
        interval ``(first, last)`` from two FindGeq on the commit-time
        index, whose IDs are each committed in the range or burned.
        Sealed segments whose manifest range misses the window are not
        read at all (``ReadCosts.families_skipped``); with the read
        cache off, each family's join enters its lists at ``first`` and
        stops past ``last``.  The filter then keeps the window's IDs
        that are neither burned nor disposed.

        With the read cache enabled, the result tier answers each family
        whose retrieval of these terms it holds and whose lists that can
        still grow have not (see :mod:`repro.search.readcache`): a sealed
        segment's entry outlives every ingest into the tail.  The tail,
        the union, the filters, ranking and result verification run for
        every query.
        """
        if isinstance(query, str):
            query = parse_query(query, analyzer=self.analyzer)
        terms = self._resolve(query.terms, trace)
        view = self.index_view()
        if costs is None:
            costs = ReadCosts()
        window = None
        if query.time_range is not None:
            times = self.time_index
            blocks_before = times.blocks_scanned
            window = times.docs_in_range(*query.time_range)
            window_blocks = times.blocks_scanned - blocks_before
        if window is not None:
            # Doc IDs rise with commit times, so the window is one doc-ID
            # interval, and a sealed segment whose manifest range misses
            # it holds no answer: a time-constrained query reads only
            # the overlapping epochs (Section 3.3).
            first, last = window
            families, tail = view
            live = tuple(
                f
                for f in families
                if f.info is None
                or (f.info.first_doc <= last and f.info.last_doc >= first)
            )
            costs.families_skipped = len(families) - len(live)
            view = (live, tail)
        if query.time_range is not None and window is None:
            candidates = Candidates(terms=terms)  # nothing committed in the range
        elif query.mode is QueryMode.ALL:
            # The join's doc list and the query's terms, each present
            # in every document: nothing is built per document or term.
            term_ids = list(terms.values())
            joined = self._join(term_ids, view, trace, costs, window)
            candidates = Candidates((), joined, term_ids if len(joined) else (), terms)
        else:
            candidates = self._scan(terms, view, trace, costs)
        # What makes an indexed ID no answer, as ascending ID columns.  A
        # disposed document's postings stay on WORM, and so do any a
        # commit appended before a crash burned its ID.
        gone = []
        retention = self._retention_if_any()
        if retention is not None and len(retention):
            gone.append(retention.disposed_ids())
        if self.documents.has_burned:
            gone.append(self.documents.burned_ids())
        if query.time_range is not None or gone:
            with self._stage(
                "filter", trace, candidates=len(candidates)
            ) as span:
                if query.time_range is not None and span is not None:
                    span.note(
                        window_docs=0 if window is None else last - first + 1,
                        window_blocks=window_blocks,
                    )
                doc_ids = candidates.doc_ids
                allowed = np.ones(len(doc_ids), dtype=bool)
                if window is not None:
                    # Every ID in the window is logged, and so committed
                    # in the range, or burned, which ``gone`` drops.
                    allowed = (doc_ids >= first) & (doc_ids <= last)
                for column in gone:
                    allowed &= np.isin(doc_ids, column, invert=True)
                candidates = candidates.keep(allowed)
                if span is not None:
                    span.note(kept=len(candidates))
        return candidates

    def _resolve(self, terms: Sequence[str], trace) -> Dict[str, Optional[int]]:
        """The distinct canonical query terms, in query order, each
        beside its term ID (``None`` for a term never indexed)."""
        distinct = dict.fromkeys(map(_canonical, terms))
        with self._stage("resolve", trace, terms=len(distinct)) as span:
            resolved = {term: self.term_id(term) for term in distinct}
            if span is not None:
                span.note(present=len(resolved) - list(resolved.values()).count(None))
        if self.config.seal_strategy == "epoch":
            with self._epoch_lock:
                seen = self._epoch_queries
                for term_id in resolved.values():
                    if term_id is not None:
                        seen[term_id] = seen.get(term_id, 0) + 1
        return resolved

    def read_cache_stats(self) -> Optional[Dict[str, object]]:
        """Read-cache counters (``None`` when caching is off)."""
        if self.read_cache is None:
            return None
        # Zero counters, for the one reader of a "blocks" tier: bench/probe.py.
        return {"results": self.read_cache.as_dict(), "blocks": TierStats().as_dict()}

    def _per_family(
        self, families, mode: str, term_ids: Tuple[int, ...], read, trace, costs
    ) -> List[object]:
        """What each of ``families`` adds to the union for ``term_ids``
        under ``mode`` (``"any"`` or ``"all"``), in view order: the
        result tier's entry for the family under the same
        :meth:`~repro.core.segments.MergedListFamily.growth_marks`, or
        ``read(family)``, which is then kept.
        """
        cache = self.read_cache
        with self._stage("cache", trace, families=len(families)) as span:
            keys = [(family.seg_no, mode, term_ids) for family in families]
            marks = [family.growth_marks(term_ids) for family in families]
            pieces = [cache.get(key, mark) for key, mark in zip(keys, marks)]
            missing = [at for at, piece in enumerate(pieces) if piece is None]
            costs.families_cached += len(families) - len(missing)
            if span is not None:
                span.note(families_cached=len(families) - len(missing))
        for at in missing:
            pieces[at] = read(families[at])
            cache.put(keys[at], pieces[at], marks[at])
        return pieces

    def _scan(
        self, terms: Mapping[str, Optional[int]], view, trace, costs: ReadCosts
    ) -> Candidates:
        """Disjunctive retrieval: every family's columns of the query
        terms, then the tail's, concatenated per term.

        A family is read by ``MergedListFamily.collect_candidates``,
        whatever the cache: each wanted list as bytes — a sealed short
        list by its extent, order-checked once per segment, not
        attached — decoded once.  Without the read cache, families of
        one layout are read together, by the first of them, each list
        across them all; with it, each family the result tier does not
        answer is read on its own.
        """
        families, tail = view
        present = tuple(sorted({t for t in terms.values() if t is not None}))
        with self._stage(
            "scan",
            trace,
            families=len(families),
            families_skipped=costs.families_skipped,
        ) as span:
            if self.read_cache is None:
                groups: Dict[object, List[MergedListFamily]] = {}
                for family in families:
                    groups.setdefault(family.layout, []).append(family)
                pieces = [
                    first.collect_candidates(present, costs, peers)
                    for first, *peers in groups.values()
                ]
            else:
                pieces = self._per_family(
                    families,
                    "any",
                    present,
                    lambda family: family.collect_candidates(present, costs),
                    trace,
                    costs,
                )
            if tail is not None:
                tail_columns = tail.collect_candidates(present)
                costs.entries += sum(len(docs) for _, docs, _ in tail_columns)
                pieces.append(tail_columns)
            columns = _concatenated(pieces)
            candidates = Candidates(columns, terms=terms)
            if self._metrics_on:
                self._c_scan_entries.inc(costs.entries)
            if span is not None:
                span.note(
                    lists=costs.lists,
                    entries_scanned=costs.entries,
                    candidates=len(candidates),
                )
        return candidates

    def _join(
        self, term_ids: Sequence[Optional[int]], view, trace, costs: ReadCosts, window=None
    ) -> np.ndarray:
        """Conjunctive retrieval: the documents each family joins — the
        result tier's, or zigzag-joined — then the tail's, ascending and
        once each, whatever was stuffed (a list can repeat a document,
        or name one a later family holds).  Without the read cache each
        family joins only inside ``window``; the result tier keeps
        whole-family retrievals, which every window reuses, so the
        caller's filter cuts those.

        A never-indexed term short-circuits to no matches — a document
        cannot contain a term that has no postings.  The join's
        micro-costs — seeks, blocks read (total and per physical list),
        jump-pointer follows — feed the metrics registry and, when a
        trace is attached, the ``join`` span's attributes.
        """
        if not term_ids or None in term_ids:
            return _NO_DOCS
        families, tail = view

        def read(family, window=None):
            return np.array(family.conjunctive_doc_ids(term_ids, costs, window), dtype=np.uint32)

        with self._stage(
            "join",
            trace,
            cursors=len(term_ids),
            families=len(families),
            families_skipped=costs.families_skipped,
        ) as span:
            if self.read_cache is None:
                parts = [read(family, window) for family in families]
            else:
                wanted = tuple(sorted(term_ids))
                parts = self._per_family(families, "all", wanted, read, trace, costs)
            tail_docs = tail.docs_with_all(term_ids) if tail is not None else ()
            if tail_docs:
                parts.append(np.array(tail_docs, dtype=np.uint32))
            parts = [part for part in parts if len(part)] or [_NO_DOCS]
            doc_ids = np.concatenate(parts) if len(parts) > 1 else parts[0]
            if len(doc_ids) > 1 and not (doc_ids[1:] > doc_ids[:-1]).all():
                doc_ids = np.unique(doc_ids)
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
        return doc_ids

    def conjunctive_doc_ids(
        self, terms: Sequence[str], *, trace=None
    ) -> Tuple[List[int], int]:
        """Documents containing *all* terms, plus blocks read (Section 4).

        The conjunctive half of :meth:`match`, unfiltered; absent terms
        short-circuit to an empty result.  A family the result tier
        answers reads no block.
        """
        costs = ReadCosts()
        term_ids = list(self._resolve(terms, trace).values())
        doc_ids = self._join(term_ids, self.index_view(), trace, costs)
        return doc_ids.tolist(), costs.blocks

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
            # IDs a crash spent between a document's create and its
            # commit-time record: no document, and no tamper finding.
            "burned_documents": self.documents.next_doc_id - len(self.documents),
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
        """The engine's WORM-resident incident log (created on first use,
        once, however many verified searches ask for it together)."""
        with self._incidents_lock:
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

        The sweep hands over each document just before its file goes;
        once it is gone, even if the sweep raises later, the document is
        counted out of the ranking statistics as it was counted in, so
        the session ranks as its reopen would.  Its postings and its
        length stay in memory, where a disposed ID is filtered out
        before scoring; a later seal leaves both out, as it would after
        a reopen (:meth:`seal_tail`).
        """
        texts: Dict[int, str] = {}

        def read(doc_id: int) -> None:
            texts[doc_id] = self.documents.get(doc_id).text

        try:
            return self.retention.dispose_expired(
                self.documents, now=self._clock if now is None else now, before_delete=read
            )
        finally:
            gone = [text for doc_id, text in texts.items() if not self.documents.exists(doc_id)]
            batch = self._reanalysed(gone)
            self.stats.subtract(batch.lengths, batch.ids)

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
    def verify_results(self, doc_ids: Sequence[int], query) -> ResultVerdict:
        """Cross-check results of ``query`` (a string or a
        :class:`~repro.search.query.Query`) against WORM-resident
        documents; see :func:`repro.core.verification.verify_results`."""
        return verification.verify_results(self, doc_ids, query)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TrustworthySearchEngine(docs={len(self.documents)}, "
            f"terms={self.vocabulary_size}, segments={len(self._segments)}, "
            f"jump={'B=' + str(self.config.branching) if self.config.branching else 'off'})"
        )
