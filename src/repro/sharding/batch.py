"""Batched ingestion across shards.

Every document enters an engine through
:meth:`~repro.search.engine.TrustworthySearchEngine.index_batch`, which
appends posting entries one pass per merged list (``index_document`` is
a batch of one).  :class:`BatchIngestor` keeps that grouping across
shards without giving up the paper's real-time-update requirement: a
batch is routed per shard, and each shard indexes its group with one
``index_batch`` call.  The call does not return until every document
in the batch is committed *and* queryable, so there is still no
buffering window for Mala to exploit (Section 2.3); batching changes
the grouping of work, not its observability.  There is no
``add()``/``flush()`` pair that holds documents back for a fuller
batch: that buffer is the attack (:mod:`repro.baselines.buffered` keeps
one, for ``buffer_wipe_attack`` to wipe).

Routing writes nothing: a document's global ID is fixed when its shard
commits it (:mod:`repro.sharding.router`), so a crash between two
shards' groups leaves no record that disagrees with the shards.

Accounting: each shard's I/O counters record exactly what the same
documents would have cost if inserted one at a time (with an unbounded
cache, bit-identical counts; with a bounded cache, the same counting
rules applied to a friendlier access pattern — consecutive appends per
tail block instead of interleaved ones).
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.sharding.router import ShardRouter


class BatchIngestor:
    """Routes document batches to shards and ingests each group in bulk.

    Parameters
    ----------
    shards:
        Per-shard :class:`TrustworthySearchEngine` instances.
    router:
        Picks each document's global ID and shard.
    metrics:
        Optional metrics registry (the sharded engine passes the shared
        one); ``None`` leaves the ingestor unmetered.
    """

    def __init__(self, shards: Sequence, router: ShardRouter, *, metrics=None):
        self.shards = list(shards)
        self.router = router
        self._metrics_on = metrics is not None and bool(metrics.enabled)
        if self._metrics_on:
            self._c_batches = metrics.counter(
                "repro_ingest_batches_total",
                "Document batches routed and ingested",
            )
            self._c_batch_docs = metrics.counter(
                "repro_ingest_batch_documents_total",
                "Documents ingested through the batch path",
            )
            self._c_bytes = metrics.counter(
                "repro_ingest_bytes_total",
                "UTF-8 bytes of document text ingested through the batch path",
            )

    def ingest(
        self,
        texts: Sequence[str],
        commit_times: Sequence[int],
    ) -> List[int]:
        """Commit and index ``texts`` with the given commit times (one
        per text).

        Routes every document first, then ingests each shard's group in
        one batched pass; a shard's commit-time records fix its
        documents' global IDs.  Returns global document IDs in input
        order.
        """
        assignments = self.router.assign_many(len(texts))
        groups: Dict[int, List[int]] = {}
        for position, assignment in enumerate(assignments):
            groups.setdefault(assignment.shard_id, []).append(position)
        for shard_id in sorted(groups):
            positions = groups[shard_id]
            self.shards[shard_id].index_batch(
                [texts[p] for p in positions],
                commit_times=[commit_times[p] for p in positions],
            )
        if self._metrics_on:
            self._c_batches.inc()
            self._c_batch_docs.inc(len(texts))
            self._c_bytes.inc(sum(len(text.encode("utf-8")) for text in texts))
        return [assignment.global_id for assignment in assignments]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"BatchIngestor(shards={len(self.shards)})"
