"""What Mala can do to a sealed segment's lists: nothing a query reads.

Every list of a segment with a shared file is an *extent*, the bytes
its manifest record fixes.  The record fixes where the shared file ends
— data blocks and directory entries, counted — and through the
directory each short list's bytes and each long list's posting count.
The device appends only to a file's tail block or a new one, so
whatever is appended after the seal lies past an extent; and a list the
directory does not name is empty whatever files appear under the
segment's names later.

Every attack below goes through ``store.device``, after a seal and
again after a merge, cache off and on, in the session and after a
reopen: on the short lists' shared file (one shard, journaled), and on a
long list — a file of its own — in order, out of order, torn, in a new
block, or with a jump pointer set after the seal from a counted block
into the appended region (one and two shards, in memory and on an
archive's journals at the 256-byte block its record names).  ANY, ALL and
time-ranged answers keep their documents and their ``float.hex()``
scores; ``search(verify=True)`` has nothing to object to, because
nothing was returned; a merge of the segment does not carry the bytes;
and ``full_engine_audit`` names the file and counts them.  The one
thing a reader does cross is the planted pointer, when a join follows
it: an honest seal sets every pointer before the record that fixes the
count, so one that leads past it is tampering, and the join raises.

Where a reader still takes what Mala plants — the directly-appended
lists, the paper's appendable model, and the lists of segments sealed
before the shared file — what catches it stays where it was:
``test_tail_engine.py`` (``test_stuffed_repeat_*``,
``TestMergeReadsWhatAnAttachRead``), ``test_trust_checks.py`` and
``test_trust_plane.py``.
"""

from dataclasses import replace

import pytest

from repro.adversary.detection import full_engine_audit
from repro.cli import open_archive
from repro.core.posting import MAX_TERM_ID_WITH_TF, encode_posting, pack_term_tf
from repro.core.segments import MANIFEST_FILE, SEGMENT_PREFIX
from repro.errors import TamperDetectedError
from repro.search.engine import EngineConfig, TrustworthySearchEngine
from repro.sharding.engine import ShardedSearchEngine
from repro.sharding.router import stable_shard
from repro.worm.persistent import JournaledWormDevice
from repro.worm.storage import CachedWormStore
from tests.helpers import postings_of

CONFIG = EngineConfig(
    num_lists=16,
    branching=4,
    block_size=512,
    tail_max_docs=4,
    merge_at_segments=None,
)
#: Two sealed segments of four documents and two documents in the tail.
TEXTS = [
    "alpha beta ledger",
    "alpha gamma memo",
    "beta gamma audit",
    "alpha beta gamma filing",
    "alpha delta quarter",
    "beta delta ledger",
    "gamma delta alpha",
    "delta memo beta",
    "alpha beta omega",
    "gamma omega closing",
]
#: "omega" is in the lexicon and in no sealed segment: its list is one a
#: segment's directory may not name.
QUERIES = [
    "alpha gamma",
    "+alpha +beta",
    "alpha omega @1..6",
    "+gamma +delta @2..9",
    "omega",
]
#: The document Mala names under terms it does not hold, the fabricated
#: one, and the term she stuffs.
REAL_DOC, FAKE_DOC, TERM = 7, 4000, "alpha"


def open_engine(path, config):
    device = JournaledWormDevice(str(path), block_size=config.block_size)
    return TrustworthySearchEngine(config, store=CachedWormStore(None, device=device))


def build(path, config, merged):
    engine = open_engine(path, config)
    for text in TEXTS:
        engine.index_document(text)
    assert len(engine.iter_segments()) == 2
    if merged:
        assert engine.merge_segments() is not None
    return engine


def answers(engine):
    return {
        query: [(r.doc_id, r.score.hex()) for r in engine.search(query, top_k=20)]
        for query in QUERIES
    }


def victim(engine):
    """The first live segment; "alpha" is in a short list of it."""
    segment = engine.iter_segments()[0]
    posting_list, jump = segment.posting_list_for(engine.term_id(TERM))
    assert jump is None and not engine.store.device.exists(posting_list.name)
    return segment


def stuffed(engine, doc_id):
    return encode_posting(doc_id, pack_term_tf(engine.term_id(TERM), 9))


def append_to_shared(payload_of, force_new_block):
    def attack(engine):
        segment = victim(engine)
        payload = payload_of(engine)
        worm_file = engine.store.device.open_file(segment.shared_name)
        blocks = worm_file.num_blocks
        worm_file.append_record(payload, force_new_block=force_new_block)
        assert worm_file.num_blocks == blocks + force_new_block
        return segment.shared_name, len(payload)

    return attack


def create_list_file(named):
    """A file under the segment's ``pl/`` names, well-formed postings in
    it: for "alpha"'s list, which the directory names short, or for
    "omega"'s, which it does not name."""

    def attack(engine):
        segment = victim(engine)
        term_id = engine.term_id(TERM if named else "omega")
        name = segment.list_name(segment.list_for(term_id))
        assert (name in segment.list_names()) == named
        payload = b"".join(
            encode_posting(doc_id, pack_term_tf(term_id, 9))
            for doc_id in (REAL_DOC, FAKE_DOC)
        )
        engine.store.device.create_file(name).append_record(payload)
        return name, len(payload)

    return attack


ATTACKS = {
    "real-doc-in-tail-block": append_to_shared(
        lambda engine: stuffed(engine, REAL_DOC), False
    ),
    "real-doc-in-new-block": append_to_shared(
        lambda engine: stuffed(engine, REAL_DOC), True
    ),
    "fabricated-doc-in-tail-block": append_to_shared(
        lambda engine: stuffed(engine, FAKE_DOC), False
    ),
    "fabricated-docs-in-new-block": append_to_shared(
        lambda engine: stuffed(engine, FAKE_DOC) + stuffed(engine, FAKE_DOC + 1), True
    ),
    "garbage-in-tail-block": append_to_shared(lambda engine: b"\xff" * 13, False),
    "garbage-in-new-block": append_to_shared(lambda engine: b"\xff" * 13, True),
    "file-for-a-short-list": create_list_file(named=True),
    "file-for-an-unnamed-list": create_list_file(named=False),
}


@pytest.mark.parametrize("read_cache", [False, True], ids=["cache-off", "cache-on"])
@pytest.mark.parametrize("merged", [False, True], ids=["sealed", "merged"])
@pytest.mark.parametrize("attack", sorted(ATTACKS))
def test_bytes_written_after_the_seal_are_unreachable_and_reported(
    tmp_path, attack, merged, read_cache
):
    config = replace(CONFIG, read_cache=read_cache)
    twin = build(tmp_path / "twin.worm", config, merged)
    honest = answers(twin)
    assert all(r.ok for r in full_engine_audit(twin))
    assert twin.merge_segments() is not None or merged
    merged_postings = postings_of(twin.iter_segments()[0].read_columns())
    twin.store.device.close()

    path = tmp_path / "archive.worm"
    engine = build(path, config, merged)
    if read_cache:
        assert answers(engine) == honest  # the result tier warm
    root = f"{SEGMENT_PREFIX}{victim(engine).info.seg_no:06d}/"
    name, size = ATTACKS[attack](engine)
    assert name.startswith(root)

    def check(engine):
        assert answers(engine) == honest
        for query in QUERIES:
            engine.search(query, top_k=20, verify=True)  # nothing to object to
        findings = [r for r in full_engine_audit(engine) if not r.ok]
        assert len(findings) == 1
        (violation,) = findings[0].violations
        assert f"'{name}'" in violation and f"{size} bytes" in violation

    check(engine)
    engine.store.device.close()
    reopened = open_engine(path, config)
    check(reopened)  # nothing attached, nothing cached
    # A merge reads the committed blocks and the directory's lists only.
    assert reopened.merge_segments() is not None or merged
    if merged:
        reopened.index_document("alpha epilogue")
        reopened.index_document("alpha beta coda")
        reopened.seal_tail()
        honest = answers(reopened)
        assert reopened.merge_segments() is not None
        assert answers(reopened) == honest
        (segment,) = reopened.iter_segments()
        alpha = postings_of(segment.read_columns())[reopened.term_id(TERM)]
        assert not {REAL_DOC, FAKE_DOC, FAKE_DOC + 1} & {d for d, _ in alpha}
    else:
        assert postings_of(reopened.iter_segments()[0].read_columns()) == (
            merged_postings
        )
        assert answers(reopened) == honest
    # The stuffed segment is retired; the live one is clean.
    assert all(r.ok for r in full_engine_audit(reopened))
    reopened.store.device.close()


class TestTheWriterIsHeldToItsPositions:
    def test_a_shared_file_that_already_holds_bytes_refuses_the_seal(self):
        """Mala creates the next segment's shared file ahead of the seal
        and writes to it: the first block record lands off its predicted
        position and the seal stops there — no manifest record, the tail
        intact, the number burned — and the next seal goes through."""
        engine = TrustworthySearchEngine(replace(CONFIG, tail_max_docs=100))
        for text in TEXTS:
            engine.index_document(text)
        honest = answers(engine)
        name = f"{SEGMENT_PREFIX}000000/short"
        engine.store.device.create_file(name).append_record(b"\x00" * 8)
        with pytest.raises(TamperDetectedError) as caught:
            engine.seal_tail()
        assert caught.value.invariant == "posting-block-position"
        assert f"'{name}'" in caught.value.location
        info = engine.segments_info()
        assert info["manifest_records"] == 0 and info["tail_docs"] == len(TEXTS)
        assert engine.store.open_file(MANIFEST_FILE).num_blocks == 0
        assert answers(engine) == honest
        assert engine.seal_tail() == 1
        assert answers(engine) == honest
        assert all(r.ok for r in full_engine_audit(engine))


# ----------------------------------------------------------------------
# a long list: a file of its own, its count fixed by the directory
# ----------------------------------------------------------------------
#: Eight postings to a block beside the jump index's slots (B = 4); ten
#: documents to a segment; "alpha", in nine of each ten, pinned to a
#: list of its own, two blocks long.
LONG_CONFIG = EngineConfig(
    num_lists=4,
    branching=4,
    block_size=256,
    tail_max_docs=10,
    merge_at_segments=None,
    seal_strategy="popular",
    seal_popular_terms=1,
)
#: Per shard: two sealed segments and four documents in the tail.
LONG_DOCS = 24
LONG_QUERIES = ["alpha", "alpha gamma", "alpha beta @5..40", "rare"]
#: Each join seeks document 8 in the first segment's "alpha" list,
#: whose block 0 ends at 7: from block 0, through the pointer slot of
#: the range ``[8, 9)``, which no posting fills.
JOINS = ["+alpha +beta", "+rare +alpha", "+alpha +gamma @2..30"]
#: A document of the victim's shard, in its second segment, without "alpha".
STUFFED_DOC = 18


def long_texts(shards):
    """Texts whose document of rank ``r`` on its shard holds "rare"
    instead of "alpha" when ``r % 10 == 8``, and "beta" or "gamma"."""
    ranks = [0] * shards
    texts = []
    while min(ranks) < LONG_DOCS:
        rank = ranks[stable_shard(len(texts), shards)]
        ranks[stable_shard(len(texts), shards)] += 1
        first = "rare" if rank % 10 == 8 else "alpha"
        texts.append(f"{first} {'beta' if rank % 2 else 'gamma'} doc{len(texts)}")
    return texts


def shards_of(engine):
    return getattr(engine, "shards", None) or [engine]


@pytest.fixture(params=["in-memory", "journaled"])
def engines(request, tmp_path):
    """Opens engines on ``block_size`` blocks — in memory, or as journaled
    archives through :func:`~repro.cli.open_archive` — and closes them
    afterwards."""
    opened = []
    archives = {}  # id(engine) -> (path, handle)

    def open_engine(config, shards, reopen=None):
        """A new engine of ``shards``, or a reopen of ``reopen``'s storage:
        nothing attached, nothing cached."""
        if request.param == "journaled":
            if reopen is None:
                path = str(tmp_path / f"archive{len(archives)}.worm")
                engine, handle = open_archive(path, create=config, shards=shards)
            else:
                path, handle = archives.pop(id(reopen))
                handle.close()
                engine, handle = open_archive(path, read_cache=config.read_cache)
            archives[id(engine)] = path, handle
            return engine
        if shards == 1:
            return TrustworthySearchEngine(config, store=reopen and reopen.store)
        engine = ShardedSearchEngine(
            config,
            num_shards=shards,
            store_factory=reopen and (lambda shard_id: reopen.shards[shard_id].store),
            coordinator_store=reopen and reopen.coordinator,
        )
        opened.append(engine)
        return engine

    yield open_engine
    for engine in opened:
        engine.close()
    for _, handle in archives.values():
        handle.close()


def build_long(open_engine, config, shards, merged):
    engine = open_engine(config, shards)
    for text in long_texts(shards):
        engine.index_document(text)
    if merged:
        engine.merge_segments()
    return engine


def long_answers(engine, queries):
    return {
        query: [(r.doc_id, r.score.hex()) for r in engine.search(query, top_k=50)]
        for query in queries
    }


def long_victim(engine):
    """Shard 0, its first live segment, and that segment's "alpha" list:
    a file of its own whose block 0 ends at document 7."""
    shard = shards_of(engine)[0]
    segment = shard.iter_segments()[0]
    alpha = shard.term_id("alpha")
    posting_list, jump = segment.posting_list_for(alpha)
    assert jump is not None and posting_list.num_blocks >= 2
    assert posting_list.read_block_postings(0, counted=False).doc_ids[-1] == 7
    return shard, segment, alpha, posting_list


def append_to_long(payload_of, force_new_block):
    def attack(engine):
        shard, _, alpha, posting_list = long_victim(engine)
        payload = payload_of(alpha)
        worm_file = shard.store.device.open_file(posting_list.name)
        blocks = worm_file.num_blocks
        worm_file.append_record(payload, force_new_block=force_new_block)
        assert worm_file.num_blocks == blocks + force_new_block
        return posting_list.name, len(payload)

    return attack


def pointer_into_the_appended_region(engine):
    """A new block, and block 0's pointer for the range ``[8, 9)`` —
    unset by the seal, since no posting has ID 8 — set to it."""
    shard, _, alpha, posting_list = long_victim(engine)
    worm_file = shard.store.device.open_file(posting_list.name)
    payload = encode_posting(STUFFED_DOC, pack_term_tf(alpha, 9))
    block_no, _ = worm_file.append_record(payload, force_new_block=True)
    slot = shard.posting_list_for("alpha")[1].slot_for(7, 8)
    assert worm_file.get_slot(0, slot) is None
    worm_file.set_slot(0, slot, block_no)
    return posting_list.name, len(payload)


LONG_ATTACKS = {
    "in-order-posting": append_to_long(
        lambda alpha: encode_posting(STUFFED_DOC, pack_term_tf(alpha, 9)), False
    ),
    "out-of-order-posting": append_to_long(
        lambda alpha: encode_posting(0, pack_term_tf(alpha, 9)), False
    ),
    "torn-posting": append_to_long(lambda alpha: b"\xff" * 4, False),
    "posting-in-a-new-block": append_to_long(
        lambda alpha: encode_posting(STUFFED_DOC, pack_term_tf(alpha, 9)), True
    ),
    "pointer-into-the-appended-region": pointer_into_the_appended_region,
}


@pytest.mark.parametrize("shards", [1, 2])
@pytest.mark.parametrize("read_cache", [False, True], ids=["cache-off", "cache-on"])
@pytest.mark.parametrize("merged", [False, True], ids=["sealed", "merged"])
@pytest.mark.parametrize("attack", sorted(LONG_ATTACKS))
def test_bytes_appended_to_a_sealed_long_list_are_unreachable_and_reported(
    engines, attack, merged, read_cache, shards
):
    config = replace(LONG_CONFIG, read_cache=read_cache)
    pointer = attack == "pointer-into-the-appended-region"
    # A join that follows the planted pointer raises instead of answering.
    queries = LONG_QUERIES + JOINS * (not pointer)
    twin = build_long(engines, config, shards, merged)
    honest = long_answers(twin, queries)
    assert all(r.ok for r in full_engine_audit(twin))

    engine = build_long(engines, config, shards, merged)
    if read_cache:
        assert long_answers(engine, queries) == honest  # the result tier warm
    name, size = LONG_ATTACKS[attack](engine)

    def check(engine):
        assert long_answers(engine, queries) == honest
        for query in queries:
            engine.search(query, top_k=50, verify=True)  # nothing to object to
        for query in JOINS * pointer:
            with pytest.raises(TamperDetectedError) as caught:
                engine.search(query)
            assert caught.value.invariant == "jump-target-range"
            assert caught.value.location == f"posting list '{name}', block 0, slot 0"
        findings = [r for r in full_engine_audit(engine) if not r.ok]
        assert len(findings) == 1 + pointer
        (violation,) = findings[-1].violations
        assert f"'{name}'" in violation and f"{size} bytes" in violation
        if pointer:
            (violation,) = findings[0].violations
            assert findings[0].subject.endswith(f"posting list '{name}'")
            assert violation.startswith("block 0 slot 0: pointer targets nonexistent block")

    check(engine)
    reopened = engines(config, shards, reopen=engine)
    check(reopened)  # nothing attached, nothing cached
    # A merge takes the list's counted postings, and not a byte more.
    shard = shards_of(reopened)[0]
    for text in long_texts(shards)[: 10 * shards]:
        reopened.index_document(f"{text} coda")
    assert len(shard.iter_segments()) > 1
    reopened.merge_segments()
    (segment,) = shard.iter_segments()
    doc_ids, codes = segment.read_columns()
    alpha_docs = doc_ids[codes & MAX_TERM_ID_WITH_TF == shard.term_id("alpha")].tolist()
    texts = [shard.documents.get(d).text.split() for d in range(segment.info.last_doc + 1)]
    assert alpha_docs == [d for d, words in enumerate(texts) if "alpha" in words]
    assert all(r.ok for r in full_engine_audit(reopened))


@pytest.mark.parametrize("shards", [1, 2])
def test_an_out_of_order_posting_on_a_sealed_long_list_stops_no_merge(engines, shards):
    """Mala appends a descending posting to a sealed long list: every
    later batch seals and merges as it would have, and returns."""
    engine = engines(replace(LONG_CONFIG, merge_at_segments=2), shards)
    texts = long_texts(shards)
    for text in texts:
        engine.index_document(text)
    LONG_ATTACKS["out-of-order-posting"](engine)
    for _ in range(3):
        before = len(engine.documents)
        for text in texts[: 10 * shards]:
            engine.index_document(f"{text} coda")
        assert len(engine.documents) == before + 10 * shards
        assert [len(shard.iter_segments()) for shard in shards_of(engine)] == [1] * shards
    assert [r.doc_id for r in engine.search("rare", top_k=50, verify=True)]
