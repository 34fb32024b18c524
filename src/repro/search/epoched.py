"""Epoch-adaptive search engine (Sections 3.3 and 4.5, combined).

Where term/query statistics are not stable enough to learn once, the
paper divides time into epochs, keeps a separate index per epoch, and
adapts each new epoch's configuration from the statistics observed in
the previous one:

* the *merging strategy* — popular terms of the last epoch get unmerged
  lists (Section 3.3);
* whether to build a *jump index* — "one can use the epoch scheme ...
  to learn the query pattern in one epoch and use it to decide whether
  to include a jump index for the next epoch" (Section 4.5): jump
  indexes pay off when many-keyword conjunctive queries dominate.

:class:`EpochedSearchEngine` implements exactly that on top of
per-epoch :class:`~repro.search.engine.TrustworthySearchEngine`
instances sharing one WORM device.  Queries fan out over all epochs
(documents never move); commit-time-constrained queries touch only the
overlapping epochs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.core.merge import PopularUnmergedMerge
from repro.errors import WorkloadError
from repro.search.engine import EngineConfig, SearchResult, TrustworthySearchEngine
from repro.search.query import Query, parse_query
from repro.worm.storage import CachedWormStore


@dataclass
class EpochPolicy:
    """Adaptation knobs applied when a new epoch opens.

    Attributes
    ----------
    docs_per_epoch:
        Epoch length in documents.
    unmerged_popular_terms:
        How many of the previous epoch's most-queried terms receive
        dedicated (unmerged) posting lists; 0 keeps uniform merging.
    conjunctive_share_for_jump:
        If at least this fraction of the previous epoch's queries had
        ``min_terms_for_jump`` or more keywords, the next epoch builds
        jump indexes.
    min_terms_for_jump:
        Keyword-count threshold defining a "many-keyword" query.
    branching:
        Jump-index branching factor used when jump indexes are enabled.
    """

    docs_per_epoch: int = 1000
    unmerged_popular_terms: int = 64
    conjunctive_share_for_jump: float = 0.25
    min_terms_for_jump: int = 4
    branching: int = 32

    def __post_init__(self) -> None:
        if self.docs_per_epoch <= 0:
            raise WorkloadError(
                f"docs_per_epoch must be positive, got {self.docs_per_epoch}"
            )
        if not 0 <= self.conjunctive_share_for_jump <= 1:
            raise WorkloadError("conjunctive_share_for_jump must be in [0, 1]")


@dataclass
class _EpochState:
    """One epoch's engine plus the statistics observed while it was live."""

    epoch_no: int
    engine: TrustworthySearchEngine
    first_doc_id: int
    last_doc_id: int = -1
    doc_count: int = 0
    #: term string -> queries containing it, observed during this epoch
    observed_qi: Dict[str, int] = None
    many_keyword_queries: int = 0
    total_queries: int = 0

    def __post_init__(self) -> None:
        if self.observed_qi is None:
            self.observed_qi = {}

    @property
    def uses_jump_index(self) -> bool:
        """Whether this epoch's engine carries jump indexes."""
        return self.engine.config.branching is not None


class EpochedSearchEngine:
    """Search engine that re-tunes itself at every epoch boundary.

    Parameters
    ----------
    base_config:
        Configuration template for per-epoch engines; ``branching`` and
        the merge strategy are overridden per epoch by the policy.
    policy:
        The adaptation policy.
    store:
        Shared WORM store (one device for all epochs).
    """

    def __init__(
        self,
        base_config: Optional[EngineConfig] = None,
        *,
        policy: Optional[EpochPolicy] = None,
        store: Optional[CachedWormStore] = None,
    ):
        self.base_config = base_config or EngineConfig()
        self.policy = policy or EpochPolicy()
        self.store = store or CachedWormStore(
            self.base_config.cache_blocks, block_size=self.base_config.block_size
        )
        self.epochs: List[_EpochState] = []
        self._next_doc_id = 0
        self._clock = 0
        self._open_epoch()

    # ------------------------------------------------------------------
    # epoch lifecycle
    # ------------------------------------------------------------------
    @property
    def current(self) -> _EpochState:
        """The active epoch."""
        return self.epochs[-1]

    def _feasible_branching(self, branching: Optional[int]) -> Optional[int]:
        """Largest feasible B <= ``branching`` for the configured blocks.

        The Section 4.5 block budget (``8p + 4(B-1)log_B(N) <= L``) caps
        how many pointers a block can carry; a policy asking for B=32 on
        small blocks falls back to the largest B that fits (or no jump
        index at all).
        """
        from repro.core import space as space_model
        from repro.errors import IndexError_

        b = branching
        while b is not None and b >= 2:
            try:
                space_model.postings_per_block(self.base_config.block_size, b)
                return b
            except IndexError_:
                b //= 2
        return None

    def _decide_jump_index(self, previous: Optional[_EpochState]) -> Optional[int]:
        """Section 4.5's rule: jump index iff many-keyword queries dominate."""
        if previous is None or previous.total_queries == 0:
            return self._feasible_branching(self.base_config.branching)
        share = previous.many_keyword_queries / previous.total_queries
        if share >= self.policy.conjunctive_share_for_jump:
            return self._feasible_branching(self.policy.branching)
        return None

    def _decide_merge_strategy(self, previous: Optional[_EpochState], engine_ref):
        """Section 3.3's rule: unmerge last epoch's most-queried terms.

        The popular set is learned as term *strings* (epochs have their
        own lexicons); the strategy is built lazily once the new engine
        has allocated IDs for them.
        """
        if (
            previous is None
            or not previous.observed_qi
            or self.policy.unmerged_popular_terms == 0
        ):
            return None
        k = min(
            self.policy.unmerged_popular_terms,
            self.base_config.num_lists // 2,
            len(previous.observed_qi),
        )
        popular_terms = sorted(
            previous.observed_qi, key=previous.observed_qi.get, reverse=True
        )[:k]
        # Pre-allocate lexicon IDs so the popular set is stable for the
        # whole epoch.
        popular_ids = [engine_ref.term_id(t, create=True) for t in popular_terms]
        return PopularUnmergedMerge(self.base_config.num_lists, popular_ids)

    def _open_epoch(self) -> None:
        previous = self.epochs[-1] if self.epochs else None
        branching = self._decide_jump_index(previous)
        config = EngineConfig(
            num_lists=self.base_config.num_lists,
            block_size=self.base_config.block_size,
            cache_blocks=self.base_config.cache_blocks,
            branching=branching,
            ranking=self.base_config.ranking,
            verify_results=self.base_config.verify_results,
        )
        epoch_no = len(self.epochs)
        engine = TrustworthySearchEngine(
            config,
            store=_PrefixedStoreView(self.store, f"epoch{epoch_no:04d}/"),
        )
        strategy = self._decide_merge_strategy(previous, engine)
        if strategy is not None:
            engine._merge = strategy
        self.epochs.append(
            _EpochState(
                epoch_no=epoch_no,
                engine=engine,
                first_doc_id=self._next_doc_id,
            )
        )

    def new_epoch(self) -> int:
        """Force an epoch boundary; returns the new epoch number."""
        self._open_epoch()
        return self.current.epoch_no

    # ------------------------------------------------------------------
    # ingest
    # ------------------------------------------------------------------
    def index_document(self, text: str, *, commit_time: Optional[int] = None) -> int:
        """Commit + index one document; auto-rolls epochs by the policy."""
        if self.current.doc_count >= self.policy.docs_per_epoch:
            self._open_epoch()
        if commit_time is None:
            commit_time = self._clock
        self._clock = max(self._clock, commit_time) + 1
        epoch = self.current
        # Per-epoch engines assign their own local IDs; the global ID is
        # the concatenation order, which both stay monotonic in.
        local_id = epoch.engine.index_document(text, commit_time=commit_time)
        doc_id = epoch.first_doc_id + local_id
        epoch.last_doc_id = doc_id
        epoch.doc_count += 1
        self._next_doc_id = doc_id + 1
        return doc_id

    # ------------------------------------------------------------------
    # query fan-out
    # ------------------------------------------------------------------
    def search(self, query, *, top_k: int = 10) -> List[SearchResult]:
        """Query across epochs; results merged by score.

        Time-constrained queries consult only the epochs whose commit
        windows overlap the range (Section 3.3).
        """
        if isinstance(query, str):
            query = parse_query(query)
        self._record_query(query)
        merged: List[SearchResult] = []
        for epoch in self._epochs_for(query):
            local = Query(terms=query.terms, mode=query.mode, time_range=query.time_range)
            for result in epoch.engine.search(local, top_k=top_k):
                merged.append(
                    SearchResult(
                        doc_id=epoch.first_doc_id + result.doc_id,
                        score=result.score,
                    )
                )
        merged.sort(key=lambda r: (-r.score, r.doc_id))
        return merged[:top_k]

    def _epochs_for(self, query: Query) -> List[_EpochState]:
        if query.time_range is None:
            return [e for e in self.epochs if e.doc_count]
        t_start, t_end = query.time_range
        out = []
        for epoch in self.epochs:
            if not epoch.doc_count:
                continue
            first = epoch.engine.time_index.first_commit_geq(0)
            last = epoch.engine.time_index.last_commit_time
            if first is None or last < t_start or first > t_end:
                continue
            out.append(epoch)
        return out

    def _record_query(self, query: Query) -> None:
        epoch = self.current
        epoch.total_queries += 1
        if query.num_terms >= self.policy.min_terms_for_jump:
            epoch.many_keyword_queries += 1
        for term in query.terms:
            epoch.observed_qi[term] = epoch.observed_qi.get(term, 0) + 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"EpochedSearchEngine(epochs={len(self.epochs)}, "
            f"docs={self._next_doc_id})"
        )


class _PrefixedStoreView:
    """A namespaced view of a shared WORM store.

    Per-epoch engines use fixed internal file names ('engine/lexicon',
    ...); prefixing isolates epochs on one device without copying any of
    the store machinery.  Only the name-taking methods are wrapped.
    """

    def __init__(self, store: CachedWormStore, prefix: str):
        self._store = store
        self._prefix = prefix
        self.device = _PrefixedDeviceView(store.device, prefix)

    @property
    def block_size(self) -> int:
        return self._store.block_size

    @property
    def io(self):
        return self._store.io

    @property
    def cache(self):
        return self._store.cache

    def create_file(self, name, **kwargs):
        return self._store.create_file(self._prefix + name, **kwargs)

    def open_file(self, name):
        return self._store.open_file(self._prefix + name)

    def ensure_file(self, name, **kwargs):
        return self._store.ensure_file(self._prefix + name, **kwargs)

    def append_record(self, name, payload, **kwargs):
        return self._store.append_record(self._prefix + name, payload, **kwargs)

    def read_block(self, name, block_no):
        return self._store.read_block(self._prefix + name, block_no)

    def set_slot(self, name, block_no, slot_no, value):
        return self._store.set_slot(self._prefix + name, block_no, slot_no, value)

    def get_slot(self, name, block_no, slot_no):
        return self._store.get_slot(self._prefix + name, block_no, slot_no)

    def peek_block(self, name, block_no):
        return self._store.peek_block(self._prefix + name, block_no)

    def peek_slot(self, name, block_no, slot_no):
        return self._store.peek_slot(self._prefix + name, block_no, slot_no)


class _PrefixedDeviceView:
    """Namespace view of the WORM device (existence checks and opens)."""

    def __init__(self, device, prefix: str):
        self._device = device
        self._prefix = prefix

    def exists(self, name: str) -> bool:
        return self._device.exists(self._prefix + name)

    def open_file(self, name: str):
        return self._device.open_file(self._prefix + name)

    def create_file(self, name: str, **kwargs):
        return self._device.create_file(self._prefix + name, **kwargs)

    def list_files(self):
        return [
            name[len(self._prefix):]
            for name in self._device.list_files()
            if name.startswith(self._prefix)
        ]
