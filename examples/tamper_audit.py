#!/usr/bin/env python3
"""Attack survey: every index, every attack, silence vs alarms.

Reproduces the paper's Section 4 asymmetry as a live demo: the same
class of WORM-legal manipulation (appends + filling unset write-once
slots) silently corrupts B+ trees and binary search, while jump indexes
turn it into a detected event — and posting-list stuffing, the one
attack that stays structurally clean, falls to document verification.

Run:  python examples/tamper_audit.py
"""

from repro.adversary.attacks import (
    binary_search_tail_attack,
    block_jump_pointer_attack,
    bplus_shadow_attack,
    jump_pointer_attack,
    posting_stuffing_attack,
)
from repro.baselines.binary_search import SortedAppendLog
from repro.baselines.bplus_tree import BPlusTree
from repro.core.block_jump_index import BlockJumpIndex
from repro.core.jump_index import JumpIndex
from repro.core.verification import audit_posting_list
from repro.errors import TamperDetectedError
from repro.search.engine import EngineConfig, TrustworthySearchEngine
from repro.worm.storage import CachedWormStore

KEYS = [2, 4, 7, 11, 13, 19, 23, 29, 31, 36]
HIDE = 36


def demo_bplus() -> None:
    print("== B+ tree (Figure 6) ==")
    tree = BPlusTree(fanout=4)
    for k in KEYS:
        tree.insert(k)
    print(f"  before: lookup({HIDE}) = {tree.lookup(HIDE)}")
    separator = bplus_shadow_attack(tree, HIDE)
    print(f"  Mala appends separator {separator} -> shadow subtree")
    print(f"  after:  lookup({HIDE}) = {tree.lookup(HIDE)}   <- SILENTLY WRONG")


def demo_binary_search() -> None:
    print("\n== binary search over an append-only run ==")
    log = SortedAppendLog()
    for k in KEYS:
        log.append(k)
    planted = binary_search_tail_attack(log, HIDE)
    print(f"  Mala appends {planted} at the tail")
    print(f"  binary_search({HIDE}) = {log.binary_search(HIDE)}   <- SILENTLY WRONG")
    try:
        log.verify_sorted()
    except TamperDetectedError as exc:
        print(f"  ...but a linear audit raises: {exc.invariant}")


def demo_jump_index() -> None:
    print("\n== binary jump index (Section 4.1) ==")
    ji = JumpIndex()
    for k in KEYS:
        ji.insert(k)
    exponent = jump_pointer_attack(ji, fake_value=3)
    print(f"  Mala fills NULL head pointer {exponent} with an off-range node")
    try:
        for k in range(40):
            ji.find_geq(k)
        print("  traversals stayed clean (pointer never crossed)")
    except TamperDetectedError as exc:
        print(f"  traversal crossing it raises: {exc.invariant}   <- DETECTED")
    print(f"  committed keys all still visible: "
          f"{all(ji.lookup(k) for k in KEYS)}")


def demo_block_jump_index() -> None:
    print("\n== block jump index (Section 4.4) ==")
    store = CachedWormStore(None, block_size=256)
    bji = BlockJumpIndex.create(store, "pl", branching=4, max_doc_bits=16)
    for doc_id in range(0, 900, 3):
        bji.insert(doc_id)
    slot = block_jump_pointer_attack(bji)
    print(f"  Mala fills NULL slot {slot} of the head block")
    report = audit_posting_list(bji.posting_list, bji)
    print(f"  offline audit: ok={report.ok}; violations:")
    for violation in report.violations:
        print(f"    - {violation}   <- DETECTED")


def demo_stuffing() -> None:
    print("\n== posting-list stuffing (Section 5) ==")
    engine = TrustworthySearchEngine(EngineConfig(num_lists=8))
    engine.index_batch([f"imclone memo {i}" for i in range(12)])
    posting_list, _ = engine.posting_list_for("imclone")
    fakes = posting_stuffing_attack(
        posting_list, engine.term_id("imclone"), count=6
    )
    print(f"  Mala appends {len(fakes)} future-ID postings (monotone, so")
    print(f"  the structural audit stays green: "
          f"ok={audit_posting_list(posting_list).ok})")
    result_ids = [hit.doc_id for hit in engine.search("imclone", top_k=50)]
    report = engine.verify_results(result_ids, "imclone")
    print(f"  result verification against WORM documents: "
          f"{len(report.violations)} stuffed postings exposed   <- DETECTED")


def main() -> None:
    demo_bplus()
    demo_binary_search()
    demo_jump_index()
    demo_block_jump_index()
    demo_stuffing()
    print(
        "\nsummary: the untrusted structures fail silently; the paper's\n"
        "structures either keep answering correctly or raise an alarm."
    )


if __name__ == "__main__":
    main()
