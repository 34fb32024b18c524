"""Sharded query execution and batched ingestion.

Partitions a trustworthy archive across ``K`` independent engine shards
(stable hash routing; global IDs derived from the shards' commit-time
logs, not stored), runs each query on every shard with globally
consistent ranking, and ingests document batches one pass per merged
posting list.
"""
