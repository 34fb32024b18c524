"""Sharded query execution and batched ingestion.

Partitions a trustworthy archive across ``K`` independent engine shards
(stable hash routing, WORM document map), runs each query on every shard
with globally consistent ranking, and ingests document batches one pass
per merged posting list.
"""

from repro.sharding.batch import BatchIngestor
from repro.sharding.engine import ShardedSearchEngine
from repro.sharding.executor import AggregatedTermStats, ParallelQueryExecutor
from repro.sharding.router import ShardAssignment, ShardRouter, stable_shard

__all__ = [
    "AggregatedTermStats",
    "BatchIngestor",
    "ParallelQueryExecutor",
    "ShardAssignment",
    "ShardRouter",
    "ShardedSearchEngine",
    "stable_shard",
]
