"""Shared corpus and engine builders for the test suite.

Several test modules used to carry their own copy of the same
index-building boilerplate; build engines through these helpers instead
so corpus tweaks and config plumbing happen in one place.
"""

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.posting import MAX_TERM_ID_WITH_TF
from repro.search.engine import EngineConfig, TrustworthySearchEngine
from repro.sharding import ShardedSearchEngine
from repro.worm.storage import CachedWormStore

#: The canonical small corpus (compliance-flavoured, six documents).
DEFAULT_CORPUS: List[str] = [
    "imclone trading memo for stewart and waksal",       # 0
    "quarterly revenue audit for the finance team",      # 1
    "meeting notes about imclone drug development",      # 2
    "stewart waksal imclone november trading archive",   # 3
    "project status update for the storage retention",   # 4
    "finance meeting about quarterly revenue targets",   # 5
]

#: Config used by most single-engine integration tests.
SMALL_CONFIG = EngineConfig(num_lists=32, branching=4)

#: Config used by the sharding equivalence tests (no jump index, so the
#: scan/join split is exercised without pointer-slot space pressure).
SHARD_CONFIG = EngineConfig(num_lists=64, block_size=4096, branching=None)


def build_engine(
    texts: Optional[Sequence[str]] = None,
    *,
    config: Optional[EngineConfig] = None,
    store: Optional[CachedWormStore] = None,
    batch: bool = False,
) -> TrustworthySearchEngine:
    """A :class:`TrustworthySearchEngine` with ``texts`` indexed.

    ``texts`` defaults to :data:`DEFAULT_CORPUS`; ``config`` defaults to
    :data:`SMALL_CONFIG`.  Pass ``batch=True`` to ingest through
    :meth:`index_batch` instead of one :meth:`index_document` per text.
    """
    engine = TrustworthySearchEngine(config or SMALL_CONFIG, store=store)
    texts = DEFAULT_CORPUS if texts is None else list(texts)
    if batch:
        engine.index_batch(texts)
    else:
        for text in texts:
            engine.index_document(text)
    return engine


def build_sharded(
    texts: Optional[Sequence[str]] = None,
    *,
    num_shards: int = 2,
    config: Optional[EngineConfig] = None,
    **kwargs,
) -> ShardedSearchEngine:
    """A :class:`ShardedSearchEngine` with ``texts`` batch-indexed."""
    sharded = ShardedSearchEngine(
        config or SHARD_CONFIG, num_shards=num_shards, **kwargs
    )
    texts = DEFAULT_CORPUS if texts is None else list(texts)
    if texts:
        sharded.index_batch(texts)
    return sharded


def build_engine_pair(
    texts: Sequence[str],
    num_shards: int,
    *,
    config: Optional[EngineConfig] = None,
) -> Tuple[TrustworthySearchEngine, ShardedSearchEngine]:
    """``(single, sharded)`` engines over the same corpus.

    The pair the sharding equivalence properties compare: a 1-engine
    archive indexed document-at-a-time and a K-shard archive batch
    indexed, both from ``config`` (default :data:`SHARD_CONFIG`).
    """
    config = config or SHARD_CONFIG
    single = build_engine(texts, config=config)
    sharded = build_sharded(texts, num_shards=num_shards, config=config)
    return single, sharded


def epoch_config(docs_per_epoch: int = 3, popular: int = 4, **kwargs) -> EngineConfig:
    """Section 3.3's epochs as the engine spells them: every
    ``docs_per_epoch`` documents seal into a segment laid out from the
    previous epoch's evidence, and no merge ever folds epochs together."""
    return EngineConfig(
        num_lists=16,
        branching=4,
        block_size=512,
        tail_max_docs=docs_per_epoch,
        seal_strategy="epoch",
        seal_popular_terms=popular,
        merge_at_segments=None,
        **kwargs,
    )


def epoch_layouts(engine: TrustworthySearchEngine) -> List[List[str]]:
    """Per sealed epoch, oldest first: the terms its segment pins to
    lists of their own, as words."""
    return [
        sorted(engine.term_text(t) for t in segment.info.popular_terms)
        for segment in engine.iter_segments()
    ]


def device_state(device):
    """Comparable snapshot of a device's full committed state."""
    state = {}
    for name in device.list_files():
        worm_file = device.open_file(name)
        state[name] = {
            "block_size": worm_file.block_size,
            "slot_count": worm_file.slot_count,
            "retention": worm_file.retention_until,
            "blocks": [
                (block.fill, block.read(), block.slots())
                for block in worm_file.blocks()
            ],
        }
    return state


#: ``{term_id: [(doc_id, term_code), ...]}`` — how tests spell a
#: segment's postings.
PostingsByTerm = Dict[int, List[Tuple[int, int]]]


def columns_of(postings: PostingsByTerm) -> Tuple[np.ndarray, np.ndarray]:
    """``postings`` as the ``(doc_ids, term_codes)`` ``uint32`` columns
    a segment is written from, term after term."""
    flat = [entry for term_id in sorted(postings) for entry in postings[term_id]]
    array = np.array(flat, dtype=np.uint32).reshape(-1, 2)
    return array[:, 0], array[:, 1]


def postings_of(columns: Tuple[np.ndarray, np.ndarray]) -> PostingsByTerm:
    """The inverse of :func:`columns_of`: columns regrouped per term,
    each term's entries in column order."""
    grouped: PostingsByTerm = {}
    for doc_id, code in zip(columns[0].tolist(), columns[1].tolist()):
        grouped.setdefault(code & MAX_TERM_ID_WITH_TF, []).append((doc_id, code))
    return grouped
