"""Figures 8(b)/8(c): jump-index insert I/O and conjunctive query speedup.

Measured on the engine, not on a model of it: every index here is a
legacy :class:`~repro.search.engine.TrustworthySearchEngine`.  A
workload's documents go in through :meth:`index_batch
<repro.search.engine.TrustworthySearchEngine.index_batch>`, one document
per batch, so the store's :class:`~repro.worm.iostats.IoStats` count
Section 3's random I/Os per inserted document — the commit-time log's
tail block competing for the cache with the lists' — and queries go
through :meth:`profile <repro.search.engine.TrustworthySearchEngine.profile>`,
which reports the blocks the engine's own join or scan read.

The engine sizes its jump indexes for the paper's ``N = 2**32``, so a
block of ``L`` bytes holds :func:`repro.core.space.postings_per_block`
postings beside the pointers: at 2 KB, 256 with no jump index and 240 /
147 / 67 for B = 2 / 32 / 64; at 1 KB a B = 64 block holds none.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.baselines.unmerged import UnmergedBaselineIndex
from repro.core.posting import POSTING_SIZE
from repro.search.engine import EngineConfig, TrustworthySearchEngine
from repro.worm.storage import CachedWormStore


def document_text(doc) -> str:
    """A workload document as engine text: one ``t<id>`` token per term."""
    return " ".join(f"t{term}" for term in doc.term_ids.tolist())


def query_text(query, *, conjunctive: bool) -> str:
    """A workload query as engine syntax: every term ``+``-prefixed when
    ``conjunctive``."""
    prefix = "+" if conjunctive else ""
    return " ".join(f"{prefix}t{term}" for term in query.term_ids)


def ingest(
    documents: Sequence, config: EngineConfig, cache_blocks: Optional[int] = None
) -> TrustworthySearchEngine:
    """A legacy engine under ``config`` holding ``documents``, each
    committed by an ``index_batch`` of its own, on a store whose cache
    holds ``cache_blocks`` blocks (``None``: unbounded)."""
    store = CachedWormStore(cache_blocks, block_size=config.block_size)
    engine = TrustworthySearchEngine(config, store=store)
    for doc in documents:
        engine.index_batch([document_text(doc)])
    return engine


def ios_per_doc(engine: TrustworthySearchEngine) -> float:
    """Random I/Os per inserted document since ``engine`` was created."""
    return engine.store.io.total / max(1, len(engine.documents))


def insert_ios_sweep(
    documents: Sequence,
    *,
    num_lists: int,
    branchings: Sequence[Optional[int]],
    cache_block_counts: Sequence[int],
    block_size: int,
) -> Dict[Optional[int], List[Tuple[int, float]]]:
    """The Figure 8(b) sweep: I/Os per inserted doc vs cache size per B.

    Include ``None`` in ``branchings`` for the engine with no jump index
    (the "1 I/O per document required to just append" line the paper
    compares against).
    """

    def ios(branching: Optional[int], cache_blocks: int) -> float:
        config = EngineConfig(num_lists=num_lists, block_size=block_size, branching=branching)
        return ios_per_doc(ingest(documents, config, cache_blocks))

    return {
        branching: [(cache, ios(branching, cache)) for cache in cache_block_counts]
        for branching in branchings
    }


@dataclass
class QuerySpeedupResult:
    """Figure 8(c) data: per-configuration speedup by query term count."""

    #: label -> [(num_terms, speedup)]; labels: 'B=2', 'B=32', 'B=64',
    #: 'unmerged' (the B+ tree ideal).
    series: Dict[str, List[Tuple[int, float]]]
    #: Mean blocks read per configuration ('scan' among them) and term
    #: count.
    blocks: Dict[str, Dict[int, float]]


def query_speedup_sweep(
    documents: Sequence,
    queries_by_terms: Dict[int, Sequence],
    *,
    num_lists: int,
    branchings: Sequence[int] = (2, 32, 64),
    block_size: int = 4096,
) -> QuerySpeedupResult:
    """The Figure 8(c) sweep: conjunctive query speedup vs #keywords.

    ``speedup = blocks a scan-merge join reads / blocks the engine's
    conjunctive join reads``.  The scan-merge join reads every block of
    each list holding a query term, once per list: the blocks of the
    same query, disjunctive, on an engine with no jump index.  The ideal
    is unmerged lists with a B+ tree per term.  Below 1 the jump index
    slows the query down.
    """

    def engine(branching: Optional[int]) -> TrustworthySearchEngine:
        config = EngineConfig(
            num_lists=num_lists, block_size=block_size, branching=branching
        )
        return ingest(documents, config)

    scan = engine(None)
    joins = {f"B={b}": engine(b) for b in branchings}
    ideal = UnmergedBaselineIndex(fanout=max(4, block_size // POSTING_SIZE))
    for doc in documents:
        ideal.add_document(doc.doc_id, doc.term_ids.tolist())
    totals: Dict[str, Dict[int, int]] = {
        label: {} for label in ("scan", *joins, "unmerged")
    }
    for num_terms, queries in sorted(queries_by_terms.items()):
        any_texts = [query_text(q, conjunctive=False) for q in queries]
        all_texts = [query_text(q, conjunctive=True) for q in queries]
        totals["scan"][num_terms] = sum(scan.profile(t).blocks_read for t in any_texts)
        for label, join in joins.items():
            totals[label][num_terms] = sum(
                join.profile(t).blocks_read for t in all_texts
            )
        totals["unmerged"][num_terms] = sum(
            ideal.conjunctive_query(q.term_ids)[1] for q in queries
        )
    series = {
        label: [
            (n, totals["scan"][n] / read if read else 0.0)
            for n, read in by_terms.items()
        ]
        for label, by_terms in totals.items()
        if label != "scan"
    }
    blocks = {
        label: {
            n: read / max(1, len(queries_by_terms[n])) for n, read in by_terms.items()
        }
        for label, by_terms in totals.items()
    }
    return QuerySpeedupResult(series=series, blocks=blocks)
