"""ABL-TAILPATH — Ablation: the Section 4.5 writer-memory optimization.

The paper's insert path "tracks in its own memory ... the largest
document ID and the last pointer for all the blocks on the path from
root to the tail block, for every posting list", so following a jump
pointer during insert costs no storage access — "a block fetch is
required only when setting a new pointer".  It budgets 8k·log(N) bytes
of application memory for this (8 MB for k=32,768 lists).

This ablation toggles ``track_tail_path`` and reports insert I/Os per
document with and without the optimization, across cache sizes: the
naive walk re-reads path blocks on every insert, which a small cache
cannot absorb.  The engine always tracks the path and has no setting
for it, so the lists here are ``BlockJumpIndex`` lists built directly,
under the engine's uniform hashing, on one shared cached store.  They
keep this ablation's own geometry, 1 KB blocks sized for N = 2**16 (66
postings a block at B = 32): at the engine's 2 KB and N = 2**32 the
tracked walk reads about 1% *more* than the naive one once the cache
holds the path, because the naive walk's reads keep path blocks recent
in the LRU order for the pointer writes that follow.
"""

from conftest import once

from repro.core.block_jump_index import BlockJumpIndex
from repro.core.merge import UniformHashMerge
from repro.simulate.report import format_table
from repro.worm.storage import CachedWormStore

NUM_LISTS = 32
BLOCK_SIZE = 1024
MAX_DOC_BITS = 16
BRANCHING = 32
CACHE_BLOCKS = [48, 96, 192, 384]


def _ios_per_doc(docs, list_ids, cache_blocks, track_tail_path):
    store = CachedWormStore(cache_blocks, block_size=BLOCK_SIZE)
    jumps = {}
    for doc in docs:
        for term in doc.term_ids.tolist():
            list_id = int(list_ids[term])
            if list_id not in jumps:
                jumps[list_id] = BlockJumpIndex.create(
                    store,
                    f"pl/{list_id:08d}",
                    branching=BRANCHING,
                    max_doc_bits=MAX_DOC_BITS,
                    track_tail_path=track_tail_path,
                )
            jumps[list_id].insert(doc.doc_id, term_code=term)
    return store.io.total / len(docs)


def test_ablation_tail_path(benchmark, workload, emit):
    docs = workload.documents[: min(4000, len(workload.documents))]
    list_ids = UniformHashMerge(NUM_LISTS).assign(workload.vocabulary_size).list_ids

    def run():
        return [
            (
                cache,
                _ios_per_doc(docs, list_ids, cache, True),
                _ios_per_doc(docs, list_ids, cache, False),
            )
            for cache in CACHE_BLOCKS
        ]

    points = once(benchmark, run)
    rows = [
        (cache, round(t, 2), round(n, 2), round(n / max(t, 1e-9), 2))
        for cache, t, n in points
    ]
    emit(
        "ABL-TAILPATH",
        format_table(
            ["cache_blocks", "with tracking", "naive walk", "naive/tracked"],
            rows,
            title=(
                "Ablation: Section 4.5 tail-path memory optimization "
                f"(B={BRANCHING}, {NUM_LISTS} lists)"
            ),
        ),
    )
    # The optimization matters most under cache pressure and, at this
    # geometry, never hurts.
    for _, t, n in points:
        assert n >= t * 0.99
    assert points[0][2] > points[0][1] * 1.3
