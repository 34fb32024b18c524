"""Integration tests for the write–read decoupled (tail-mode) engine.

The contract under test: with ``tail_max_docs`` set, ingest lands in
the in-memory tail, a sealer freezes it into immutable WORM segments,
and a merger compacts segments online — and none of that is observable
through the query API except as speed.  Every test here compares a
tail-mode engine against a legacy synchronous engine over the same
corpus, including across restarts, dispositions, and simulated crashes
at every WAL stage of a seal.
"""

import shutil
from dataclasses import replace

import pytest

from repro.adversary.detection import full_engine_audit
from repro.core.block_jump_index import BlockJumpIndex
from repro.core.posting import encode_posting, pack_term_tf
from repro.core.segments import (
    STRATEGY_UNIFORM,
    SealedSegment,
    SegmentInfo,
    SegmentManifest,
    segment_list_name,
)
from repro.errors import IndexError_, TamperDetectedError, WorkloadError
from repro.search.engine import EngineConfig, TrustworthySearchEngine
from repro.worm.faults import (
    FaultInjectingWormDevice,
    FaultPlan,
    SimulatedCrashError,
)
from repro.worm.persistent import JournaledWormDevice
from repro.worm.storage import CachedWormStore
from tests.helpers import DEFAULT_CORPUS, rows_of

LEGACY = EngineConfig(num_lists=32, branching=4, retention_period=100)
#: A block that holds one posting beside the pointer slots of ``LEGACY``'s
#: jump index: a sealed list of two postings spans blocks, so it is a
#: file of its own.
ONE_POSTING_BLOCKS = 200
QUERIES = [
    "imclone finance",
    "stewart waksal imclone",
    "+stewart +waksal +imclone",
    "+quarterly +finance",
    "quarterly revenue @1..4",
    "imclone @2..3",            # one sealed segment wide (tail_max_docs=2)
    "+stewart +waksal @3..9",   # from a segment's edge to past the end
    "nonexistentterm",
]


def tail_config(**kwargs) -> EngineConfig:
    defaults = dict(tail_max_docs=3, merge_at_segments=None)
    defaults.update(kwargs)
    return replace(LEGACY, **defaults)


def results(engine, query, top_k=20):
    return [(r.doc_id, r.score) for r in engine.search(query, top_k=top_k)]


def assert_equivalent(tail_engine, legacy_engine, queries=QUERIES):
    for query in queries:
        assert results(tail_engine, query) == results(
            legacy_engine, query
        ), f"diverged on {query!r}"


def wal_crash_cases(ops):
    """``(op, stage, call)`` for both WAL stages of every counted call."""
    return [
        (op, stage, call)
        for op, total in sorted(ops.items())
        for call in range(1, total + 1)
        for stage in ("between-log-and-apply", "after-apply")
    ]


def sealed_before_the_shared_file(config, texts):
    """An engine over ``texts`` whose first ``config.tail_max_docs``
    documents are in a segment Mala sealed herself, as code before short
    lists shared a file sealed: every list a file of its own that no
    manifest record counts, so every reader reads it whole — and reads
    what she appends to it later.  (What she can do to a segment with a
    shared file, whose lists are extents: test_sealed_extents.py.)  The
    rest are ingested honestly."""
    store = CachedWormStore(None, block_size=config.block_size)
    first = config.tail_max_docs
    writer = TrustworthySearchEngine(replace(config, tail_max_docs=len(texts)), store=store)
    writer.index_batch(texts[:first])
    info = SegmentInfo(
        seg_no=0, first_doc=0, last_doc=first - 1, doc_count=first,
        num_lists=config.num_lists, strategy=STRATEGY_UNIFORM,
    )
    segment = SealedSegment(store, info, branching=config.branching)
    lists = {}
    for doc_id, text in enumerate(texts[:first]):
        terms = writer.analyzer.term_counts(text)
        counts = {writer.term_id(term): tf for term, tf in terms.items()}
        for term_id in sorted(counts):
            posting = (doc_id, pack_term_tf(term_id, counts[term_id]))
            lists.setdefault(segment.list_for(term_id), []).append(posting)
    segment.append_many(sorted(lists.items()))
    SegmentManifest(store).append(info)
    engine = TrustworthySearchEngine(config, store=store)
    for text in texts[first:]:
        engine.index_document(text)
    return engine


def build_pair(tail_cfg, texts=DEFAULT_CORPUS):
    tail_engine = TrustworthySearchEngine(tail_cfg)
    legacy_engine = TrustworthySearchEngine(LEGACY)
    for text in texts:
        tail_engine.index_document(text)
        legacy_engine.index_document(text)
    return tail_engine, legacy_engine


class TestConfigValidation:
    def test_tail_max_docs_positive(self):
        with pytest.raises(WorkloadError):
            EngineConfig(tail_max_docs=0)

    def test_strategy_known(self):
        with pytest.raises(WorkloadError):
            EngineConfig(tail_max_docs=4, seal_strategy="zipf")

    def test_merge_threshold_sane(self):
        with pytest.raises(WorkloadError):
            EngineConfig(tail_max_docs=4, merge_at_segments=1)

    def test_popular_terms_non_negative(self):
        with pytest.raises(WorkloadError):
            EngineConfig(tail_max_docs=4, seal_popular_terms=-1)

    def test_tail_ops_refused_when_disabled(self):
        engine = TrustworthySearchEngine(LEGACY)
        assert not engine.tail_enabled
        with pytest.raises(WorkloadError):
            engine.seal_tail()


class TestEquivalence:
    @pytest.mark.parametrize(
        "cfg",
        [
            tail_config(),                                   # auto-seal
            tail_config(tail_max_docs=100),                  # all in tail
            tail_config(tail_max_docs=2, merge_at_segments=2),
            tail_config(
                tail_max_docs=2,
                seal_strategy="popular",
                seal_popular_terms=2,
            ),
            tail_config(tail_max_docs=2, seal_strategy="epoch"),
            tail_config(branching=None),                     # no jump index
        ],
        ids=[
            "auto-seal",
            "tail-only",
            "auto-merge",
            "popular",
            "epoch",
            "no-jump",
        ],
    )
    def test_byte_identical_results(self, cfg):
        tail_engine, legacy_engine = build_pair(cfg)
        assert_equivalent(tail_engine, legacy_engine)

    @pytest.mark.parametrize("strategy", ["uniform", "popular", "epoch"])
    def test_a_three_term_score_sums_in_one_order(self, strategy):
        """Legacy lists once met a document's terms by ``(list id, term
        id)`` and the tail by term ID, so these scores differed in the
        last bit; every path now sums by ascending term text."""
        texts = [
            "finance quarter audit quarter audit",
            "audit trade finance memo",
            "ledger finance finance filing",
            "filing filing filing finance quarter imclone filing",
            "finance imclone stewart quarter revenue waksal audit",
            "filing trade audit imclone waksal imclone trade",
            "memo audit quarter trade filing audit memo ledger",
        ]
        cfg = tail_config(
            tail_max_docs=4, seal_strategy=strategy, seal_popular_terms=2
        )
        tail_engine, legacy_engine = build_pair(cfg, texts)
        query = "revenue finance quarter"
        assert [
            (r.doc_id, r.score.hex()) for r in tail_engine.search(query)
        ] == [(r.doc_id, r.score.hex()) for r in legacy_engine.search(query)]

    def test_manual_seal_and_merge_mid_stream(self):
        tail_engine, legacy_engine = build_pair(tail_config(tail_max_docs=100))
        assert tail_engine.seal_tail() is not None
        assert_equivalent(tail_engine, legacy_engine)
        extra = ["zebra memo for the archive", "finance zebra closing"]
        for text in extra:
            tail_engine.index_document(text)
            legacy_engine.index_document(text)
        tail_engine.seal_tail()
        assert tail_engine.merge_segments() is not None
        assert_equivalent(tail_engine, legacy_engine, QUERIES + ["zebra"])

    def test_empty_seal_and_single_segment_merge_are_noops(self):
        engine = TrustworthySearchEngine(tail_config(tail_max_docs=100))
        assert engine.seal_tail() is None
        engine.index_document("one document only")
        engine.seal_tail()
        assert engine.merge_segments() is None  # needs >= 2 live segments

    def test_dispositions_span_segments_and_tail(self):
        tail_engine = TrustworthySearchEngine(
            tail_config(tail_max_docs=2, retention_period=3)
        )
        legacy_engine = TrustworthySearchEngine(
            replace(LEGACY, retention_period=3)
        )
        for text in DEFAULT_CORPUS:
            tail_engine.index_document(text)
            legacy_engine.index_document(text)
        for engine in (tail_engine, legacy_engine):
            engine.dispose_expired(now=5)  # expires the earliest docs
        assert_equivalent(tail_engine, legacy_engine)
        assert tail_engine.retention.is_disposed(0)

    @pytest.mark.parametrize("seal_strategy", ["uniform", "popular"])
    def test_stuffed_repeat_of_another_familys_posting_is_max_merged(
        self, seal_strategy
    ):
        """Families and the tail cover disjoint documents — until Mala
        appends to a list of a segment sealed before the shared file a
        posting naming a document sealed later (same layout under
        "uniform", another under "popular") and one still in the tail.
        Each is then one candidate, once, the term at the larger
        frequency, as one dict per document max-merged them."""
        engine = sealed_before_the_shared_file(
            tail_config(
                tail_max_docs=2,
                seal_strategy=seal_strategy,
                seal_popular_terms=1,
                block_size=ONE_POSTING_BLOCKS,
            ),
            ["alpha beta", "alpha", "alpha beta gamma", "beta", "alpha gamma"],
        )
        first, second = engine.iter_segments()
        assert (first.layout == second.layout) == (seal_strategy == "uniform")
        honest = engine.match("alpha gamma").rows()
        alpha = engine.term_id("alpha")
        assert honest[2]["alpha"] == honest[4]["alpha"] == 1  # rows key terms by text

        stuffed_list, _ = first.posting_list_for(alpha)
        assert first.shared is None  # no record counts it: appendable
        stuffed_list.append(2, pack_term_tf(alpha, 9))  # sealed in `second`
        stuffed_list.append(4, pack_term_tf(alpha, 7))  # in the tail
        honest[2]["alpha"], honest[4]["alpha"] = 9, 7
        matched = engine.match("alpha gamma")
        assert matched.rows() == honest
        assert len(matched) == len(honest) == 4
        assert sorted(r.doc_id for r in engine.search("alpha gamma")) == [0, 1, 2, 4]

    def test_stuffed_repeat_in_a_join_is_one_candidate(self):
        """The conjunctive counterpart: a document stuffed into an older
        segment's lists under every query term joins there *and* where
        it really lives — and is still one hit, not two."""
        engine = sealed_before_the_shared_file(
            tail_config(tail_max_docs=2, block_size=ONE_POSTING_BLOCKS),
            ["alpha beta", "beta alpha", "alpha beta gamma", "beta", "alpha beta"],
        )
        honest = results(engine, "+alpha +beta")
        assert sorted(doc_id for doc_id, _ in honest) == [0, 1, 2, 4]
        first = engine.iter_segments()[0]
        for term in ("alpha", "beta"):
            term_id = engine.term_id(term)
            stuffed_list, _ = first.posting_list_for(term_id)
            for doc_id in (2, 4, 4):  # sealed later; in the tail, twice
                stuffed_list.append(doc_id, pack_term_tf(term_id, 9))
        assert len(engine.match("+alpha +beta")) == 4
        assert results(engine, "+alpha +beta") == honest  # presence: tf 1
        assert len(engine.match("+alpha")) == 4  # one cursor, repeats and all

    @pytest.mark.parametrize("read_cache", [False, True])
    def test_stuffed_repeat_in_a_windowed_join_is_one_candidate(self, read_cache):
        """A time window bounds each family's join to the window's IDs,
        which still reach past the family's own range: a document stuffed
        into an older segment joins there and where it lives, and is one
        hit."""
        engine = sealed_before_the_shared_file(
            tail_config(
                tail_max_docs=2, block_size=ONE_POSTING_BLOCKS, read_cache=read_cache
            ),
            # Document i commits at time i.
            ["alpha beta", "beta alpha", "alpha beta gamma", "beta", "alpha beta"],
        )
        honest = results(engine, "+alpha +beta @1..4")
        assert sorted(doc_id for doc_id, _ in honest) == [1, 2, 4]
        first = engine.iter_segments()[0]
        for term in ("alpha", "beta"):
            term_id = engine.term_id(term)
            stuffed_list, _ = first.posting_list_for(term_id)
            for doc_id in (2, 4, 4):  # sealed later; in the tail, twice
                stuffed_list.append(doc_id, pack_term_tf(term_id, 9))
        assert len(engine.match("+alpha +beta @1..4")) == 3
        assert results(engine, "+alpha +beta @1..4") == honest

    def test_incident_handling_on_tail_engine(self):
        tail_engine, _ = build_pair(tail_config())
        hits, report = tail_engine.search_with_incident_handling("imclone")
        assert report.ok and hits

    def test_segments_info_shape(self):
        tail_engine, _ = build_pair(tail_config(tail_max_docs=2))
        info = tail_engine.segments_info()
        assert info["tail_enabled"]
        assert info["tail_docs"] + sum(
            seg["doc_count"] for seg in info["segments"]
        ) == len(DEFAULT_CORPUS)
        ranges = [(s["first_doc"], s["last_doc"]) for s in info["segments"]]
        assert ranges == sorted(ranges)  # disjoint ascending

    def test_archive_stats_counts_tail_and_segments(self):
        tail_engine, legacy_engine = build_pair(tail_config(tail_max_docs=4))
        stats = tail_engine.archive_stats()
        assert stats["segments_live"] >= 1
        assert stats["tail_docs"] == tail_engine._tail.doc_count
        # Total postings match the legacy layout (same documents).
        assert stats["postings"] == legacy_engine.archive_stats()["postings"]


class TestRestartRecovery:
    def open(self, path, cfg):
        device = JournaledWormDevice(path, block_size=4096)
        return TrustworthySearchEngine(
            cfg, store=CachedWormStore(None, device=device)
        )

    def test_tail_docs_recover_from_wal_logs(self, tmp_path):
        path = str(tmp_path / "arch.worm")
        cfg = tail_config(tail_max_docs=4)
        engine = self.open(path, cfg)
        legacy_engine = TrustworthySearchEngine(LEGACY)
        for text in DEFAULT_CORPUS:
            engine.index_document(text)
            legacy_engine.index_document(text)
        assert engine._tail.doc_count == 2  # docs 4, 5 unsealed
        engine.store.device.close()

        reopened = self.open(path, cfg)
        # The unsealed docs were never written to posting lists, yet
        # they recover: the tail is derived from the journaled document
        # and lexicon logs.
        assert reopened._tail.doc_count == 2
        assert reopened.segments_info() == engine.segments_info()
        assert_equivalent(reopened, legacy_engine)
        reopened.store.device.close()

    def test_ingest_continues_after_restart(self, tmp_path):
        path = str(tmp_path / "arch.worm")
        cfg = tail_config(tail_max_docs=3)
        engine = self.open(path, cfg)
        legacy_engine = TrustworthySearchEngine(LEGACY)
        for text in DEFAULT_CORPUS:
            engine.index_document(text)
            legacy_engine.index_document(text)
        engine.store.device.close()

        reopened = self.open(path, cfg)
        extra = ["zebra after restart", "another zebra entry"]
        for text in extra:
            reopened.index_document(text)
            legacy_engine.index_document(text)
        assert_equivalent(reopened, legacy_engine, QUERIES + ["zebra"])
        reopened.store.device.close()

    def test_epoch_archive_survives_reopen_mid_drift(self, tmp_path):
        """Section 3.3's epochs are sealed segments, so they are as
        durable as any: layouts come back from the manifest, no
        committed document is omitted, and the archive keeps rolling."""
        path = str(tmp_path / "epochs.worm")
        cfg = tail_config(
            tail_max_docs=2, seal_strategy="epoch", seal_popular_terms=2
        )
        engine = self.open(path, cfg)
        legacy_engine = TrustworthySearchEngine(LEGACY)
        for i, text in enumerate(DEFAULT_CORPUS + ["imclone finance recap"]):
            engine.index_document(text)      # seals after docs 1, 3, 5
            legacy_engine.index_document(text)
            engine.search(("imclone", "+quarterly +revenue", "finance")[i % 3])
        before = engine.segments_info()
        assert [s["strategy"] for s in before["segments"]] == [
            "uniform", "popular", "popular",
        ]
        answers = {q: results(engine, q) for q in QUERIES}
        engine.store.device.close()

        reopened = self.open(path, cfg)
        after = reopened.segments_info()
        assert after["segments"] == before["segments"]
        assert [s.info for s in reopened.iter_segments()] == [
            s.info for s in engine.iter_segments()
        ]
        assert after["tail_docs"] == before["tail_docs"] == 1
        assert {q: results(reopened, q) for q in QUERIES} == answers
        assert_equivalent(reopened, legacy_engine)
        hits = {r.doc_id for r in reopened.search("imclone", top_k=20)}
        assert hits == {0, 2, 3, 6}
        assert all(r.ok for r in full_engine_audit(reopened))

        # The evidence is session memory: the first seal after a restart
        # pins "uniform"; the next learns from the queries above, and
        # the one after it from the epoch that asked only for zebras.
        for i in range(5):
            reopened.search("zebra")
            reopened.index_document(f"zebra sighting {i} after restart")
            legacy_engine.index_document(f"zebra sighting {i} after restart")
        assert [
            s["strategy"] for s in reopened.segments_info()["segments"]
        ] == ["uniform", "popular", "popular", "uniform", "popular", "popular"]
        assert reopened.iter_segments()[-1].info.popular_terms == (
            reopened.term_id("zebra"),
        )
        # Every layout sums a score's terms in ascending term text,
        # so the answers equal the legacy engine's to the last bit.
        assert_equivalent(reopened, legacy_engine, QUERIES + ["zebra"])
        assert all(r.ok for r in full_engine_audit(reopened))
        reopened.store.device.close()

    @pytest.fixture()
    def rebuilt(self, monkeypatch):
        """Names of the lists whose writer-memory jump path got rebuilt
        from committed blocks (a new, empty list has nothing to read)."""
        names = []
        rebuild_path = BlockJumpIndex.rebuild_path

        def counting(jump):
            if jump.posting_list.num_blocks:
                names.append(jump.posting_list.name)
            rebuild_path(jump)

        monkeypatch.setattr(BlockJumpIndex, "rebuild_path", counting)
        return names

    def test_sealed_lists_never_rebuild_an_insert_path(self, tmp_path, rebuilt):
        """Sealed lists are immutable: attaching them after a restart,
        joining over them and rewriting them in a merge only read."""
        path = str(tmp_path / "arch.worm")
        cfg = tail_config(tail_max_docs=2)
        engine = self.open(path, cfg)
        legacy_engine = TrustworthySearchEngine(LEGACY)
        for text in DEFAULT_CORPUS:
            engine.index_document(text)
            legacy_engine.index_document(text)
        engine.store.device.close()

        reopened = self.open(path, cfg)
        assert len(reopened.iter_segments()) >= 2
        assert_equivalent(reopened, legacy_engine)
        assert reopened.merge_segments() is not None
        assert_equivalent(reopened, legacy_engine)
        reopened.archive_stats()  # attaches every committed list
        assert rebuilt == []
        reopened.store.device.close()

    def test_reattached_lists_rebuild_the_path_at_first_insert(
        self, tmp_path, rebuilt
    ):
        path = str(tmp_path / "arch.worm")
        engine = self.open(path, LEGACY)
        legacy_engine = TrustworthySearchEngine(LEGACY)
        for text in DEFAULT_CORPUS:
            engine.index_document(text)
            legacy_engine.index_document(text)
        engine.store.device.close()

        reopened = self.open(path, LEGACY)
        assert_equivalent(reopened, legacy_engine)
        reopened.archive_stats()
        assert rebuilt == []
        reopened.index_document("imclone zebra")
        legacy_engine.index_document("imclone zebra")
        assert rebuilt and len(set(rebuilt)) == len(rebuilt)
        assert_equivalent(reopened, legacy_engine, QUERIES + ["zebra"])
        reopened.store.device.close()


class TestSealCrashRecovery:
    """Power loss at any WAL stage of any seal write loses nothing.

    A seal creates the shared file, appends its data blocks and then
    its directory blocks, writes each long list (``create`` + an
    ``append`` per block + a ``set_slot`` per pointer) and then commits
    one manifest record (the atomic step).  The sweep below crashes at
    every counted fault point of the whole seal, in both WAL stages, and
    proves each crash recovers to an engine that answers exactly like an
    uncrashed reference — with the interrupted seal either fully
    invisible (pre-manifest: an orphan shared file, with or without its
    directory, and maybe some long lists) or fully applied
    (post-manifest), never half-visible.
    """

    #: Eight postings to a list's block: the six documents seal into
    #: long lists and short ones both.
    CFG = tail_config(tail_max_docs=100, num_lists=4, branching=4, block_size=256)

    def prepare(self, path):
        device = JournaledWormDevice(path, block_size=256)
        engine = TrustworthySearchEngine(
            self.CFG, store=CachedWormStore(None, device=device)
        )
        for text in DEFAULT_CORPUS:
            engine.index_document(text)
        device.close()

    def count_seal_ops(self, tmp_path):
        """Dry-run a seal under counting (no faults armed)."""
        path = str(tmp_path / "dry.worm")
        self.prepare(path)
        plan = FaultPlan()
        device = FaultInjectingWormDevice(path, plan=plan, block_size=256)
        engine = TrustworthySearchEngine(
            self.CFG, store=CachedWormStore(None, device=device)
        )
        assert engine.seal_tail() is not None
        shared = engine.iter_segments()[0].info.shared
        device.close()
        # WAL points are counted per "op:stage"; each op passes both
        # stages, so either stage's count is the op's call total.
        ops = {
            op: plan.count(f"{op}:between-log-and-apply")
            for op in ("create", "append", "set_slot")
        }
        # Every kind of write is in the sweep: the shared file and each
        # long list created; data blocks, directory blocks, two or more
        # blocks per long list and the manifest record appended.
        long_lists = shared.lists - shared.short_lists
        assert shared.blocks >= 1 and shared.short_lists >= 2 and long_lists >= 2
        assert ops["create"] == 1 + long_lists and ops["set_slot"] >= long_lists
        assert ops["append"] >= shared.blocks + 1 + 2 * long_lists + 1
        return ops

    def test_crash_sweep_over_every_seal_write(self, tmp_path):
        reference = TrustworthySearchEngine(self.CFG)
        for text in DEFAULT_CORPUS:
            reference.index_document(text)

        ops = self.count_seal_ops(tmp_path)
        cases = wal_crash_cases(ops)
        assert len(cases) > 10  # the sweep is real, not a single point
        for op, stage, call in cases:
            path = str(tmp_path / f"{op}-{stage}-{call}.worm")
            self.prepare(path)
            plan = FaultPlan().crash(f"{op}:{stage}", on_call=call)
            device = FaultInjectingWormDevice(path, plan=plan, block_size=256)
            engine = TrustworthySearchEngine(
                self.CFG, store=CachedWormStore(None, device=device)
            )
            with pytest.raises(SimulatedCrashError):
                engine.seal_tail()
            device.close()

            recovered_device = JournaledWormDevice(path, block_size=256)
            recovered = TrustworthySearchEngine(
                self.CFG,
                store=CachedWormStore(None, device=recovered_device),
            )
            # No acknowledged document is lost, and results are exactly
            # the reference's, whether or not the manifest committed.
            assert_equivalent(recovered, reference)
            # The archive remains fully operational: seal whatever is
            # still tail-resident (a no-op if the crashed seal already
            # committed) and burn, never reuse, orphan segment numbers.
            manifest_before = recovered.segments_info()["manifest_records"]
            seg_no = recovered.seal_tail()
            if manifest_before == 0:
                assert seg_no == 1
            assert_equivalent(recovered, reference)
            assert all(r.ok for r in full_engine_audit(recovered))
            recovered_device.close()

    def test_post_crash_orphans_do_not_leak_into_queries(self, tmp_path):
        """An orphaned (manifest-less) segment must stay invisible."""
        path = str(tmp_path / "orphan.worm")
        self.prepare(path)
        # Crash after all list data but before the manifest record.  The
        # final append of a seal is the manifest commit — and a logged
        # append survives the crash via WAL replay — so to leave a true
        # orphan, die right after the *last list* append applied, before
        # the manifest append is even logged.
        ops = self.count_seal_ops(tmp_path)
        plan = FaultPlan().crash(
            "append:after-apply", on_call=ops["append"] - 1
        )
        device = FaultInjectingWormDevice(path, plan=plan, block_size=256)
        engine = TrustworthySearchEngine(
            self.CFG, store=CachedWormStore(None, device=device)
        )
        with pytest.raises(SimulatedCrashError):
            engine.seal_tail()
        device.close()

        recovered_device = JournaledWormDevice(path, block_size=256)
        recovered = TrustworthySearchEngine(
            self.CFG, store=CachedWormStore(None, device=recovered_device)
        )
        info = recovered.segments_info()
        assert info["manifest_records"] == 0 and not info["segments"]
        assert info["tail_docs"] == len(DEFAULT_CORPUS)
        # Orphan list files exist on WORM but the next seal skips their
        # segment number.
        new_seg = recovered.seal_tail()
        assert new_seg is not None and new_seg >= 1
        recovered_device.close()


class TestSegmentNumbering:
    """The next segment number is read off the device once, when the
    archive opens, and counted from there: a seal's cost must not grow
    with the number of files the archive holds."""

    def test_a_failed_seal_burns_its_number_in_session(self, monkeypatch):
        # The seal's appends: a data block, a directory block, the
        # manifest record.  Whichever fails, the orphan is one file —
        # without its directory, or whole — and invisible.
        for failing_call in (1, 2, 3):
            engine, legacy_engine = build_pair(
                tail_config(tail_max_docs=100, branching=None, block_size=512)
            )
            append_record = engine.store.append_record
            calls = []

            def failing(name, payload, **kwargs):
                calls.append(name)
                if len(calls) == failing_call:
                    raise OSError("no space left on device")
                return append_record(name, payload, **kwargs)

            monkeypatch.setattr(engine.store, "append_record", failing)
            with pytest.raises(OSError):
                engine.seal_tail()
            monkeypatch.undo()
            orphans = [
                name
                for name in engine.store.device.list_files()
                if name.startswith("engine/seg/000000/")
            ]
            assert orphans == ["engine/seg/000000/short"]
            assert engine.store.open_file(orphans[0]).num_blocks == failing_call - 1
            info = engine.segments_info()
            assert info["manifest_records"] == 0 and not info["segments"]
            assert info["tail_docs"] == len(DEFAULT_CORPUS)
            assert_equivalent(engine, legacy_engine)
            # Same session, no rescan: the next seal takes the next number.
            assert engine.seal_tail() == 1
            assert_equivalent(engine, legacy_engine)
            assert all(r.ok for r in full_engine_audit(engine))

    def test_seals_do_not_list_the_device_and_a_merge_lists_it_once(
        self, monkeypatch
    ):
        engine, legacy_engine = build_pair(
            tail_config(tail_max_docs=2, read_cache=True)
        )
        device = engine.store.device
        list_files = device.list_files
        listings = []

        def counting():
            listings.append(1)
            return list_files()

        monkeypatch.setattr(device, "list_files", counting)
        engine.index_document("imclone zebra")
        engine.index_document("stewart zebra")  # seals
        assert len(engine.iter_segments()) == 4 and not listings
        assert engine.merge_segments() == 4
        # Each input's directory names its lists, so not even the merge
        # lists the device; the once is for an input sealed before lists
        # shared a file (test_cross_commit_replay.py counts it).
        assert not listings
        for text in ("imclone zebra", "stewart zebra"):
            legacy_engine.index_document(text)
        assert_equivalent(engine, legacy_engine, QUERIES + ["zebra"])


class TestMergeReadsWhatAnAttachRead:
    """A merge reads its inputs' blocks straight from the store, without
    attaching their lists — and still refuses what an attach refused.
    Mala writes to a sealed list that is a file of its own, here two
    blocks of a posting each: past the count of one its segment's
    directory counts, where neither reads, or to one of a segment
    sealed before the shared file, which both read whole."""

    TEXTS = ["alpha beta", "alpha", "alpha beta gamma", "beta", "alpha gamma"]

    QUERIES = ("alpha gamma", "+alpha +beta", "gamma")

    def sealed(self, counted=True):
        config = tail_config(tail_max_docs=2, block_size=ONE_POSTING_BLOCKS)
        if counted:
            engine = TrustworthySearchEngine(config)
            for text in self.TEXTS:
                engine.index_document(text)
        else:
            engine = sealed_before_the_shared_file(config, self.TEXTS)
        first, second = engine.iter_segments()
        assert (first.shared is not None) == counted
        alpha = engine.term_id("alpha")
        name = segment_list_name(first.info.seg_no, first.list_for(alpha))
        assert engine.store.open_file(name).num_blocks == 2
        return engine, alpha, name

    def raw_append(self, engine, name, payload):
        """Mala's interface: the device, below every order check."""
        engine.store.device.open_file(name).append_record(payload)

    def answers(self, engine):
        """Per query, the ranked answer — or the error reading it raises."""
        outcomes = []
        for query in self.QUERIES:
            try:
                outcomes.append(results(engine, query))
            except (TamperDetectedError, IndexError_) as error:
                outcomes.append(type(error))
        return outcomes

    def refused(self, engine, error):
        """The merge raises ``error`` and leaves everything as it was:
        no manifest record, the same live segments, the same answers."""
        records = engine.segments_info()["manifest_records"]
        segments = engine.iter_segments()
        answers = self.answers(engine)
        with pytest.raises(error) as excinfo:
            engine.merge_segments()
        assert engine.segments_info()["manifest_records"] == records
        assert engine.iter_segments() == segments
        assert self.answers(engine) == answers
        assert isinstance(answers[-1], list) and answers[-1]
        return excinfo.value

    @pytest.mark.parametrize("attached", [False, True])
    def test_a_descending_doc_id_is_tampering(self, attached):
        """Refused whether or not a search attached (and so checked) the
        list before Mala wrote to it."""
        engine, alpha, name = self.sealed(counted=False)
        if attached:
            self.answers(engine)
        self.raw_append(engine, name, encode_posting(0, pack_term_tf(alpha, 3)))
        error = self.refused(engine, TamperDetectedError)
        assert error.invariant == "posting-monotonicity"
        assert f"'{name}'" in error.location

    def test_a_torn_posting_raises_what_the_decoder_raises(self):
        engine, _alpha, name = self.sealed(counted=False)
        self.raw_append(engine, name, b"\x00" * 4)
        error = self.refused(engine, IndexError_)
        assert "not a multiple of 8" in str(error)

    def test_an_in_order_stuffed_posting_is_left_behind(self):
        """Doc 4 lives in the tail; stuffed in order into segment 0 it is
        past the postings the segment's directory counts, so the merge
        does not carry it: the merged list holds what was sealed."""
        engine, alpha, name = self.sealed()
        self.raw_append(engine, name, encode_posting(4, pack_term_tf(alpha, 9)))
        merged = engine.merge_segments()
        assert merged is not None
        (segment,) = engine.iter_segments()
        posting_list, _ = segment.posting_list_for(alpha)
        alphas = [
            (doc_id, code >> 24)
            for doc_id, code in rows_of(posting_list)
            if code & 0xFFFFFF == alpha
        ]
        assert alphas == [(0, 1), (1, 1), (2, 1)]

    def test_a_merge_attaches_nothing_and_counts_what_it_decodes(self):
        engine, _alpha, _name = self.sealed()
        first, second = engine.iter_segments()
        # The shared files' data blocks, and every block of a long list.
        blocks = sum(
            segment.info.shared.blocks
            + sum(
                engine.store.open_file(name).num_blocks
                for name in segment.list_names()
                if engine.store.device.exists(name)
            )
            for segment in (first, second)
        )
        assert blocks > first.info.shared.blocks + second.info.shared.blocks > 0
        postings = sum(len(set(text.split())) for text in self.TEXTS[:4])
        attached = [dict(segment._lists) for segment in (first, second)]
        decoded = [series.value for series in engine._decode_series]
        assert engine.merge_segments() is not None
        assert [dict(segment._lists) for segment in (first, second)] == attached
        assert [series.value for series in engine._decode_series] == [
            decoded[0] + blocks,
            decoded[1] + postings,
        ]


_MERGE_WORDS = "audit memo ledger trade waksal imclone filing quarter".split()


class TestMergeCrashRecovery:
    """Power loss at any WAL stage of any merge write loses nothing.

    A merge writes the merged segment's lists — the shared file created,
    an ``append`` per data block and per directory block of it, then per
    long list a ``create``, an ``append`` per posting-list *block* and a
    ``set_slot`` per jump pointer — and then commits one manifest record
    naming its inputs.
    Crashing at every one of those writes, in both WAL stages, must
    reopen to an engine that answers like the uncrashed reference: the
    inputs still live and the half-written segment invisible (its number
    burned, never reissued), or — once the manifest record is logged —
    the merge fully applied.
    """

    CFG = tail_config(
        tail_max_docs=20, num_lists=4, branching=4, block_size=512
    )
    CORPUS = [
        " ".join(_MERGE_WORDS[(i * step) % 8] for step in (1, 3, 5, 7))
        + f" record{i}"
        for i in range(60)
    ]
    QUERIES = [
        "audit ledger",
        "+memo +trade",
        "+imclone +waksal +filing",
        "quarter @10..45",
        "record41",
        "nonexistentterm",
    ]

    def engine_on(self, device):
        return TrustworthySearchEngine(
            self.CFG, store=CachedWormStore(None, device=device)
        )

    @pytest.fixture()
    def template(self, tmp_path):
        """Three sealed segments, no merge yet; copied once per crash."""
        path = str(tmp_path / "template.worm")
        device = JournaledWormDevice(path, block_size=512)
        engine = self.engine_on(device)
        for text in self.CORPUS:
            engine.index_document(text)
        assert [s["seg_no"] for s in engine.segments_info()["segments"]] == [
            0, 1, 2,
        ]
        device.close()
        return path

    def test_crash_sweep_over_every_merge_write(self, tmp_path, template):
        reference = TrustworthySearchEngine(self.CFG)
        for text in self.CORPUS:
            reference.index_document(text)
        assert reference.merge_segments() == 3

        dry = str(tmp_path / "dry.worm")
        shutil.copy(template, dry)
        plan = FaultPlan()
        device = FaultInjectingWormDevice(dry, plan=plan, block_size=512)
        assert self.engine_on(device).merge_segments() == 3
        device.close()
        ops = {
            op: plan.count(f"{op}:between-log-and-apply")
            for op in ("create", "append", "set_slot")
        }
        # A shared file of a data block and a directory block, two long
        # lists of a few blocks each, pointers between the blocks, one
        # manifest record: tens of writes, not one per posting.
        postings = sum(len(set(text.split())) for text in self.CORPUS)
        assert reference.iter_segments()[0].info.shared == (1, 4, 2)
        assert ops["create"] == 3 and ops["set_slot"] >= 2
        assert 2 + 4 <= ops["append"] <= postings // 10

        for op, stage, call in wal_crash_cases(ops):
            path = str(tmp_path / f"{op}-{stage}-{call}.worm")
            shutil.copy(template, path)
            plan = FaultPlan().crash(f"{op}:{stage}", on_call=call)
            device = FaultInjectingWormDevice(path, plan=plan, block_size=512)
            with pytest.raises(SimulatedCrashError):
                self.engine_on(device).merge_segments()
            device.close()
            # The manifest record is the merge's last append.
            committed = op == "append" and call == ops["append"]
            self.check_recovery(path, reference, committed)

    def check_recovery(self, path, reference, committed):
        device = JournaledWormDevice(path, block_size=512)
        recovered = self.engine_on(device)
        live = [s["seg_no"] for s in recovered.segments_info()["segments"]]
        assert live == ([3] if committed else [0, 1, 2])
        assert_equivalent(recovered, reference, self.QUERIES)
        # Segment 3's files are on WORM either way; uncommitted they are
        # orphans, and the retried merge takes the next number.
        assert any(
            name.startswith("engine/seg/000003/")
            for name in device.list_files()
        )
        assert recovered.merge_segments() == (None if committed else 4)
        assert len(recovered.segments_info()["segments"]) == 1
        assert_equivalent(recovered, reference, self.QUERIES)
        assert all(r.ok for r in full_engine_audit(recovered))
        device.close()
