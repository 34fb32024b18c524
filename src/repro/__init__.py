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

from repro.core.block_jump_index import BlockJumpIndex
from repro.core.jump_index import JumpIndex
from repro.core.merge import TermAssignment, UniformHashMerge
from repro.core.posting import Posting
from repro.core.posting_list import PostingCursor, PostingList
from repro.core.time_index import CommitTimeIndex
from repro.errors import ReproError, TamperDetectedError, WormViolationError
from repro.investigate import Investigation
from repro.search.analyzer import Analyzer
from repro.search.engine import EngineConfig, SearchResult, TrustworthySearchEngine
from repro.search.query import Query, QueryMode, parse_query
from repro.sharding.batch import BatchIngestor
from repro.sharding.engine import ShardedSearchEngine
from repro.sharding.executor import ParallelQueryExecutor
from repro.sharding.router import ShardRouter
from repro.worm.cache import LRUBlockCache
from repro.worm.device import WormDevice
from repro.worm.persistent import JournaledWormDevice
from repro.worm.storage import CachedWormStore

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
