"""Trustworthy keyword search for regulatory-compliant records retention.

A from-scratch reproduction of Mitra, Hsu & Winslett (VLDB 2006): a
tamper-evident inverted index for records on WORM storage, with

* real-time index update via **merged posting lists** sized to the
  storage cache (Section 3),
* **jump indexes** for logarithmic, trustworthy conjunctive queries
  (Section 4),
* a **commit-time index** and posting-stuffing countermeasures
  (Section 5),
* the untrusted baselines (append-only B+ tree, binary search, GHT,
  buffered updates) and the executable attacks against them,
* the full simulation/benchmark harness regenerating every figure of the
  paper's evaluation.

Quick start
-----------
>>> from repro import TrustworthySearchEngine
>>> engine = TrustworthySearchEngine()
>>> engine.index_document("imclone trading memo for stewart and waksal")
0
>>> [hit.doc_id for hit in engine.search("+stewart +waksal")]
[0]

See ``DESIGN.md`` for the system inventory and ``EXPERIMENTS.md`` for the
per-figure reproduction record.
"""

from repro.core import (
    BlockJumpIndex,
    CommitTimeIndex,
    JumpIndex,
    Posting,
    PostingCursor,
    PostingList,
    TermAssignment,
    UniformHashMerge,
)
from repro.errors import (
    ReproError,
    TamperDetectedError,
    WormViolationError,
)
from repro.search import (
    Analyzer,
    EngineConfig,
    Query,
    QueryMode,
    SearchResult,
    TrustworthySearchEngine,
    parse_query,
)
from repro.investigate import Investigation
from repro.sharding import (
    BatchIngestor,
    ParallelQueryExecutor,
    ShardRouter,
    ShardedSearchEngine,
)
from repro.worm import CachedWormStore, JournaledWormDevice, LRUBlockCache, WormDevice

__version__ = "1.0.0"

__all__ = [
    "Analyzer",
    "BatchIngestor",
    "BlockJumpIndex",
    "CachedWormStore",
    "CommitTimeIndex",
    "EngineConfig",
    "Investigation",
    "JournaledWormDevice",
    "JumpIndex",
    "LRUBlockCache",
    "ParallelQueryExecutor",
    "Posting",
    "PostingCursor",
    "PostingList",
    "Query",
    "QueryMode",
    "ReproError",
    "SearchResult",
    "ShardRouter",
    "ShardedSearchEngine",
    "TamperDetectedError",
    "TermAssignment",
    "TrustworthySearchEngine",
    "UniformHashMerge",
    "WormDevice",
    "WormViolationError",
    "parse_query",
    "__version__",
]
