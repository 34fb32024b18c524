"""The paper's attack/defence asymmetry, as executable tests.

Against the baselines the attacks succeed *silently*; against the
trustworthy structures the same class of WORM-legal manipulation either
fails outright or trips a :class:`TamperDetectedError`.
"""

import pytest

from repro.adversary.attacks import (
    AttackNotApplicableError,
    binary_search_tail_attack,
    block_jump_pointer_attack,
    bplus_shadow_attack,
    buffer_wipe_attack,
    jump_pointer_attack,
    posting_stuffing_attack,
)
from repro.baselines.binary_search import SortedAppendLog
from repro.baselines.bplus_tree import BPlusTree
from repro.baselines.buffered import BufferedInvertedIndex
from repro.core.block_jump_index import BlockJumpIndex
from repro.core.jump_index import JumpIndex
from repro.core.posting_list import PostingList
from repro.core.verification import audit_posting_list
from repro.errors import TamperDetectedError
from repro.search.engine import EngineConfig
from repro.worm.storage import CachedWormStore
from tests.helpers import build_engine


def make_paper_tree():
    """Figure 6's tree extended with one in-subtree key (36) to hide."""
    tree = BPlusTree(fanout=4)
    for k in [2, 4, 7, 11, 13, 19, 23, 29, 31, 36]:
        tree.insert(k)
    return tree


class TestBPlusShadowAttack:
    def test_hides_committed_key_silently(self):
        tree = make_paper_tree()
        assert tree.lookup(36)
        bplus_shadow_attack(tree, 36)
        assert not tree.lookup(36)  # wrong answer, no exception

    def test_find_geq_misled(self):
        """Figure 6(b): FindGeq returns Mala's decoy, skipping the truth.

        Probes at or past the planted separator descend into the fake
        subtree, so the committed key 36 is skipped in favour of a decoy.
        """
        tree = make_paper_tree()
        separator = bplus_shadow_attack(tree, 36)
        got = tree.find_geq(separator)
        assert got is not None and got != 36 and got > 36

    def test_other_keys_unaffected(self):
        tree = make_paper_tree()
        bplus_shadow_attack(tree, 36)
        for k in [2, 4, 7, 11, 13, 19, 23, 29, 31]:
            assert tree.lookup(k)

    def test_not_applicable_when_key_absent(self):
        tree = make_paper_tree()
        with pytest.raises(AttackNotApplicableError):
            bplus_shadow_attack(tree, 999)

    def test_not_applicable_on_full_path(self):
        tree = BPlusTree(fanout=3)
        for k in [2, 4, 7, 11, 13, 19, 23, 29, 31]:
            tree.insert(k)  # root ends up full
        with pytest.raises(AttackNotApplicableError):
            bplus_shadow_attack(tree, 31)

    def test_decoys_must_exclude_hidden_key(self):
        tree = make_paper_tree()
        with pytest.raises(AttackNotApplicableError):
            bplus_shadow_attack(tree, 36, decoys=[35, 36])


class TestBinarySearchAttack:
    def test_hides_key_silently(self):
        log = SortedAppendLog()
        for k in [2, 4, 7, 11, 13, 19, 23, 29, 31]:
            log.append(k)
        planted = binary_search_tail_attack(log, 31)
        assert planted  # at least one append sufficed
        assert not log.binary_search(31)

    def test_key_still_physically_present(self):
        log = SortedAppendLog()
        for k in [2, 4, 7, 11, 13, 19, 23, 29, 31]:
            log.append(k)
        binary_search_tail_attack(log, 31)
        assert 31 in log.keys()  # WORM kept it; the index lost it

    def test_certified_reader_detects(self):
        log = SortedAppendLog()
        for k in [2, 4, 7, 11]:
            log.append(k)
        binary_search_tail_attack(log, 11)
        with pytest.raises(TamperDetectedError):
            log.verify_sorted()

    def test_not_applicable_for_absent_key(self):
        log = SortedAppendLog()
        log.append(5)
        with pytest.raises(AttackNotApplicableError):
            binary_search_tail_attack(log, 7)


class TestJumpIndexAttacks:
    def test_binary_jump_attack_detected_not_wrong(self):
        ji = JumpIndex()
        for v in [1, 2, 5, 7, 10, 15]:
            ji.insert(v)
        jump_pointer_attack(ji, fake_value=3)
        hit_alarm = False
        for k in range(0, 40):
            try:
                got = ji.find_geq(k)
                # Any answer actually returned must be correct.
                expect = min((v for v in [1, 2, 5, 7, 10, 15] if v >= k), default=None)
                assert got == expect
            except TamperDetectedError:
                hit_alarm = True
        assert hit_alarm

    def test_binary_jump_attack_on_empty_rejected(self):
        with pytest.raises(AttackNotApplicableError):
            jump_pointer_attack(JumpIndex())

    def test_block_jump_attack_detected_by_audit(self):
        store = CachedWormStore(None, block_size=256)
        bji = BlockJumpIndex.create(store, "pl", branching=4, max_doc_bits=16)
        for v in range(0, 900, 2):
            bji.insert(v)
        block_jump_pointer_attack(bji)
        report = audit_posting_list(bji.posting_list, bji)
        assert not report.ok

    def test_block_jump_attack_needs_two_blocks(self):
        store = CachedWormStore(None, block_size=256)
        bji = BlockJumpIndex.create(store, "pl", branching=4, max_doc_bits=16)
        bji.insert(1)
        with pytest.raises(AttackNotApplicableError):
            block_jump_pointer_attack(bji)


class TestStuffingAttack:
    def test_stuffed_ids_pass_order_audit_but_fail_doc_check(self):
        engine = build_engine(
            [f"term7 doc{i}" for i in range(10)], config=EngineConfig(num_lists=8)
        )
        pl = engine.posting_list_for("term7")[0]
        fake_ids = posting_stuffing_attack(pl, engine.term_id("term7"), count=5)
        assert fake_ids == list(range(10, 15))
        assert audit_posting_list(pl).ok  # monotonic: the order audit passes
        # ...but the documents do not exist, which result verification sees.
        report = engine.verify_results(fake_ids, "term7")
        assert len(report.violations) == 5

    def test_zero_count_rejected(self, store):
        pl = PostingList(store, "pl2")
        with pytest.raises(AttackNotApplicableError):
            posting_stuffing_attack(pl, 0, count=0)


class TestBufferWipeAttack:
    def test_wipe_loses_unflushed(self, store):
        index = BufferedInvertedIndex(store, flush_threshold=100)
        for doc_id in range(5):
            index.add_document(doc_id, [1])
        assert buffer_wipe_attack(index) == 5
        index.flush()
        assert index.lookup(1) == []

    def test_wipe_on_empty_buffer_rejected(self, store):
        index = BufferedInvertedIndex(store, flush_threshold=100)
        with pytest.raises(AttackNotApplicableError):
            buffer_wipe_attack(index)
