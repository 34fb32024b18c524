"""Section 3.3's epochs, on the one engine: a sealed segment is the epoch.

``EngineConfig(tail_max_docs=N, seal_strategy="epoch")`` cuts the
archive into epochs of ``N`` documents.  Each seal freezes one epoch
into an immutable segment whose term→list layout is pinned in the
manifest and learned from the epoch *before* it.  Queries fan out over
every epoch; a time-constrained query reads only the epochs its window
overlaps.

These tests used to drive a separate per-epoch engine
(``search/epoched.py``, deleted); the module keeps its name so each
test keeps the id it has had since, now checking the same behaviour on
:class:`~repro.search.engine.TrustworthySearchEngine`.  What the
evidence is made of, and the window pruning in detail, are in
``test_epoch_seal_policy.py``.
"""

from repro.core.segments import STRATEGY_POPULAR, STRATEGY_UNIFORM
from repro.search.engine import TrustworthySearchEngine
from repro.search.profiling import profile_query
from tests.helpers import epoch_config, epoch_layouts


def make_engine(docs_per_epoch=3, **kwargs):
    return TrustworthySearchEngine(epoch_config(docs_per_epoch, **kwargs))


class TestEpochRolling:
    def test_auto_roll(self):
        engine = make_engine(docs_per_epoch=2)
        for i in range(5):
            engine.index_document(f"memo number {i} about audits")
        info = engine.segments_info()
        assert [s["doc_count"] for s in info["segments"]] == [2, 2]
        assert info["tail_docs"] == 1  # the open epoch

    def test_global_doc_ids_monotonic(self):
        engine = make_engine(docs_per_epoch=2)
        ids = [engine.index_document(f"doc {i}") for i in range(5)]
        assert ids == [0, 1, 2, 3, 4]
        assert [
            (s["first_doc"], s["last_doc"])
            for s in engine.segments_info()["segments"]
        ] == [(0, 1), (2, 3)]

    def test_manual_roll(self):
        engine = make_engine(docs_per_epoch=100)
        engine.index_document("first epoch doc")
        assert engine.seal_tail() == 0
        engine.index_document("second epoch doc")
        assert engine.seal_tail() == 1
        assert engine.seal_tail() is None  # an empty epoch is not sealed
        assert [
            s["doc_count"] for s in engine.segments_info()["segments"]
        ] == [1, 1]


class TestCrossEpochQueries:
    def test_fanout_finds_docs_in_all_epochs(self):
        engine = make_engine(docs_per_epoch=2)
        for i in range(7):
            engine.index_document(f"imclone filing number{i}")
        hits = {r.doc_id for r in engine.search("imclone", top_k=10)}
        assert hits == set(range(7))  # three sealed epochs + the open one

    def test_conjunctive_across_epochs(self):
        engine = make_engine(docs_per_epoch=2)
        engine.index_document("stewart waksal imclone memo")      # epoch 0
        engine.index_document("unrelated budget planning")        # epoch 0
        engine.index_document("stewart waksal trading summary")   # epoch 1
        hits = {r.doc_id for r in engine.search("+stewart +waksal")}
        assert hits == {0, 2}

    def test_time_range_touches_only_overlapping_epochs(self):
        engine = make_engine(docs_per_epoch=2)
        for i in range(6):
            engine.index_document(f"imclone doc{i}", commit_time=100 + i)
        hits = {r.doc_id for r in engine.search("imclone @102..103")}
        assert hits == {2, 3}
        # Epochs outside the window were not read: one list of three.
        everything = profile_query(engine, "imclone")
        ranged = profile_query(engine, "imclone @102..103")
        assert everything.physical_lists == 3
        assert ranged.physical_lists == 1
        assert ranged.blocks_read * 3 == everything.blocks_read


class TestAdaptation:
    def test_popular_terms_unmerged_next_epoch(self):
        engine = make_engine(docs_per_epoch=100, popular=2)
        # "filler" is the most posting-heavy term; the queries want others.
        engine.index_document("hotterm coldterm filler filler")
        engine.index_document("warmterm filler words")
        for _ in range(5):
            engine.search("hotterm")
        for _ in range(3):
            engine.search("+warmterm +words")
        engine.search("coldterm nosuchterm")
        engine.seal_tail()  # epoch 0: uniform, hands its queries on
        engine.index_document("hotterm warmterm filler")
        engine.seal_tail()  # epoch 1: laid out from epoch 0's queries
        assert epoch_layouts(engine) == [[], ["hotterm", "warmterm"]]
        assert engine.iter_segments()[1].info.strategy == STRATEGY_POPULAR
        # A pinned term has its list to itself: reading it scans only
        # its own postings.
        assert profile_query(engine, "hotterm @2..2").entries_scanned == 1

    def test_first_epoch_uses_base_defaults(self):
        engine = make_engine(docs_per_epoch=2)
        engine.search("alpha")  # evidence, but no previous epoch to learn from
        engine.index_document("alpha beta gamma delta")
        engine.index_document("alpha beta epsilon")
        (first,) = engine.iter_segments()
        assert first.info.strategy == STRATEGY_UNIFORM
        assert first.info.popular_terms == ()


class TestIsolation:
    def test_epochs_share_one_worm_device(self):
        """One device, one lexicon, one document store and one commit
        log for the archive; each epoch owns only its posting lists."""
        engine = make_engine(docs_per_epoch=1)
        engine.index_document("one")
        engine.index_document("two")
        files = engine.store.device.list_files()
        assert "engine/seg/000000/short" in files
        assert "engine/seg/000001/short" in files
        assert [f for f in files if "lexicon" in f] == ["engine/lexicon"]
        assert [f for f in files if "commit-times" in f] == [
            "engine/commit-times"
        ]
