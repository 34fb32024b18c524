"""What Mala can do to a sealed segment's short lists: nothing a query reads.

A segment's short lists share one WORM file whose end — data blocks and
directory entries, counted — its manifest record fixes.  The device
appends only to a file's tail block, here the directory's last or a new
one, so whatever is appended after the seal lies past that end; and a
list the directory does not name is empty whatever files appear under
the segment's names later.  Every attack below goes through
``store.device``, as the stuffing tests do, after a seal and again after
a merge, cache off and on: ANY, ALL and time-ranged answers keep their
documents and their ``float.hex()`` scores, in the session and after a
reopen; ``search(verify=True)`` has nothing to object to, because
nothing was returned; a merge of the segment does not carry the bytes;
and ``full_engine_audit`` names the file and counts them.

What she can still do to a *long* list — a file of its own, appendable
like the paper's — and what catches it stays where it was:
``test_tail_engine.py`` (``test_stuffed_repeat_*``,
``TestMergeReadsWhatAnAttachRead``) and ``test_trust_plane.py``.
"""

from dataclasses import replace

import pytest

from repro.adversary.detection import full_engine_audit
from repro.core.posting import encode_posting, pack_term_tf
from repro.core.segments import MANIFEST_FILE, SEGMENT_PREFIX
from repro.errors import TamperDetectedError
from repro.search.engine import EngineConfig, TrustworthySearchEngine
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
