#!/usr/bin/env python3
"""Epoch adaptation live: the archive re-lays itself out as interest drifts.

Section 3.3's contingency plan, running end to end on the one engine: a
workload whose hot query terms rotate (news cycles over a stable
document base) is fed through a
:class:`~repro.search.engine.TrustworthySearchEngine` configured with
``seal_strategy="epoch"``.  An epoch is a sealed segment:

* every ``tail_max_docs`` documents the tail seals into an immutable
  WORM segment, and
* that segment gives the *previous* epoch's most-queried terms posting
  lists of their own (its most posting-heavy terms when nobody asked
  anything), pinned in the manifest.

Because an epoch is an ordinary segment it is also durable: the archive
is closed and reopened in the middle of the drift, and every layout and
every document is still there.  What was learned but not yet applied is
session memory, so the first epoch sealed after the restart is laid out
uniformly and the one after it adapts again.

Run:  python examples/adaptive_epochs.py
"""

import os
import tempfile

from repro import (
    CachedWormStore,
    EngineConfig,
    JournaledWormDevice,
    TrustworthySearchEngine,
)
from repro.search.profiling import profile_query
from repro.workloads.drift import DriftConfig, DriftingWorkload
from repro.workloads.vocabulary import Vocabulary

VOCAB = 400
DOCS_PER_EPOCH = 40

CONFIG = EngineConfig(
    num_lists=32,
    branching=8,
    block_size=512,
    tail_max_docs=DOCS_PER_EPOCH,   # the epoch length
    seal_strategy="epoch",
    seal_popular_terms=8,           # terms unmerged per epoch
    merge_at_segments=None,         # every epoch keeps its own layout
)


def open_engine(path: str) -> TrustworthySearchEngine:
    device = JournaledWormDevice(path, block_size=CONFIG.block_size)
    return TrustworthySearchEngine(CONFIG, store=CachedWormStore(None, device=device))


def describe(engine: TrustworthySearchEngine) -> None:
    for segment in engine.iter_segments():
        info = segment.info
        pinned = sorted(engine.term_text(t) for t in info.popular_terms)
        layout = f"unmerged {pinned}" if pinned else "uniform"
        print(
            f"  epoch {info.seg_no}: docs {info.first_doc}-{info.last_doc}, "
            f"{layout}"
        )


def main() -> None:
    drift = DriftingWorkload(
        DriftConfig(
            vocabulary_size=VOCAB,
            num_epochs=4,
            queries_per_epoch=80,
            hot_pool_size=48,
            drift_stride=16,
            terms_per_query=4,
            seed=3,
        )
    )
    vocabulary = Vocabulary(VOCAB)
    with tempfile.TemporaryDirectory() as scratch:
        path = os.path.join(scratch, "epochs.worm")
        engine = open_engine(path)
        for epoch in drift.epochs():
            print(f"== epoch {epoch.epoch_no} ==")
            hot = [int(t) for t in epoch.qi.argsort()[::-1][:8]]
            hot_words = vocabulary.words(hot)
            print(f"  hot terms this epoch: {hot_words[:5]} ...")
            # Documents built around the epoch's hot topics; all but the
            # last, which will fill the tail and seal the epoch.
            texts = [
                " ".join(
                    sorted({hot_words[j % len(hot_words)] for j in range(i, i + 3)})
                )
                for i in range(DOCS_PER_EPOCH)
            ]
            for text in texts[:-1]:
                engine.index_document(text)
            # The engine observes the epoch's queries (it cannot see the
            # generator's statistics — only what users actually ask).
            for query in epoch.queries:
                engine.search(" ".join(vocabulary.words(query.term_ids)))
            engine.index_document(texts[-1])
            print(f"  sealed after {len(texts)} docs, {len(epoch.queries)} queries")
            if epoch.epoch_no == 1:
                # Mid-drift restart: epochs are WORM segments plus a
                # manifest, so nothing about them is lost.
                before = [s.info for s in engine.iter_segments()]
                engine.store.device.close()
                engine = open_engine(path)
                assert [s.info for s in engine.iter_segments()] == before
                print(
                    "  -- closed and reopened the archive: layouts intact; the "
                    "next epoch starts from no evidence --"
                )

        print("\n== the archive's epochs, read back from the manifest ==")
        describe(engine)

        print("\n== cross-epoch query ==")
        sample_word = vocabulary.word(0)
        hits = engine.search(sample_word, top_k=100)
        epochs_hit = sorted(
            {
                s.info.seg_no
                for r in hits
                for s in engine.iter_segments()
                if s.info.first_doc <= r.doc_id <= s.info.last_doc
            }
        )
        print(
            f"  '{sample_word}': {len(hits)} documents across epochs "
            f"{epochs_hit} — one query, every era of the archive"
        )
        # A time-constrained query reads only the epochs its window
        # overlaps; the paper's units show it.
        first = engine.documents.get(hits[0].doc_id).commit_time
        for query in (sample_word, f"{sample_word} @{first}..{first}"):
            print(f"  {profile_query(engine, query).summary()}")
        engine.store.device.close()


if __name__ == "__main__":
    main()
