"""Keyword search engine built on the trustworthy index.

The paper validates its scheme inside IBM's Trevi intranet engine; this
subpackage is our equivalent substrate:

* :mod:`repro.search.analyzer` — tokenization and stopwording;
* :mod:`repro.search.documents` — the WORM-resident document store (the
  "conventional WORM for the documents themselves", Section 2.2);
* :mod:`repro.search.ranking` — Okapi BM25 and cosine scorers
  (Section 3.1 cites both as the similarity measures in use);
* :mod:`repro.search.query` — query model: disjunctive, conjunctive and
  commit-time-constrained queries;
* :mod:`repro.search.join` — zigzag (Figure 5) and scan-merge joins over
  seekable posting cursors, with blocks-read accounting;
* :mod:`repro.search.engine` — :class:`TrustworthySearchEngine`, the
  end-to-end public API: real-time trustworthy ingest, ranked search,
  conjunctive joins, time-range filtering and result verification —
  and, with ``seal_strategy="epoch"``, the Section 3.3 epochs: each
  sealed segment is one, laid out from the epoch before it.
"""

from repro.search.analyzer import Analyzer
from repro.search.documents import Document, DocumentStore
from repro.search.engine import EngineConfig, SearchResult, TrustworthySearchEngine
from repro.search.profiling import (
    QueryProfile,
    ShardedQueryProfile,
    profile_query,
    profile_sharded_query,
    recommend_configuration,
)
from repro.search.join import (
    MemoryCursor,
    MergedListCursor,
    TreeCursor,
    conjunctive_join,
    sequential_conjunctive,
    zigzag,
)
from repro.search.query import Query, QueryMode, parse_query
from repro.search.ranking import BM25Scorer, CosineScorer, CollectionStats
from repro.search.readcache import (
    DecodedBlockCache,
    JumpMemo,
    QueryResultCache,
    ReadCache,
)

__all__ = [
    "Analyzer",
    "BM25Scorer",
    "CollectionStats",
    "CosineScorer",
    "DecodedBlockCache",
    "Document",
    "DocumentStore",
    "EngineConfig",
    "JumpMemo",
    "MemoryCursor",
    "MergedListCursor",
    "Query",
    "QueryMode",
    "QueryProfile",
    "QueryResultCache",
    "ReadCache",
    "SearchResult",
    "ShardedQueryProfile",
    "TreeCursor",
    "TrustworthySearchEngine",
    "conjunctive_join",
    "parse_query",
    "profile_query",
    "profile_sharded_query",
    "recommend_configuration",
    "sequential_conjunctive",
    "zigzag",
]
