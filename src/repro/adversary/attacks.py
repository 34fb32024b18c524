"""Concrete attacks, each restricted to WORM-legal operations.

Every function here manipulates an index using only appends, node
creation, and assignment of *unset* write-once slots — the operations the
paper's storage model must permit and therefore cannot deny to an insider
with superuser credentials.  The asymmetry the paper establishes:

* against B+ trees and binary search the attacks **succeed silently** —
  a trusting reader returns wrong answers with no error;
* against jump indexes the same class of manipulation is **detected** —
  certified readers trip the monotonicity asserts
  (:class:`~repro.errors.TamperDetectedError`);
* posting-list stuffing degrades *ranking* but is exposed by result
  verification against the WORM-resident documents (Section 5).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.baselines.binary_search import SortedAppendLog
from repro.baselines.bplus_tree import BPlusTree
from repro.baselines.buffered import BufferedInvertedIndex
from repro.core.block_jump_index import BlockJumpIndex
from repro.core.jump_index import JumpIndex
from repro.core.posting_list import PostingList
from repro.errors import ReproError


class AttackNotApplicableError(ReproError):
    """The targeted structure is not in a state this attack can exploit."""


# ----------------------------------------------------------------------
# Figure 6: shadow-subtree attack on the append-only B+ tree
# ----------------------------------------------------------------------
def bplus_shadow_attack(
    tree: BPlusTree,
    hide_key: int,
    *,
    decoys: Optional[Sequence[int]] = None,
) -> int:
    """Hide a committed key from B+ tree lookups, Figure 6(b) style.

    Walks the lookup path of ``hide_key`` to the deepest internal node
    with spare capacity, then appends a ``(separator, fake-leaf)`` entry
    whose separator lies in ``(last separator, hide_key]`` — a sorted,
    WORM-legal append.  Every subsequent trusting lookup of ``hide_key``
    (and of anything ≥ the separator under that node) descends into the
    fake leaf.

    Returns the separator used.  Raises
    :class:`AttackNotApplicableError` when no node on the path has both
    spare capacity and separator headroom (Mala would wait for a better
    moment — or target a different key).
    """
    if tree.root is None or not tree.lookup(hide_key):
        raise AttackNotApplicableError(
            f"key {hide_key} is not in the tree; nothing to hide"
        )
    node = tree.root
    candidates = []
    while not node.is_leaf:
        candidates.append(node)
        # Same child choice a trusting lookup makes.
        idx = 0
        for i, sep in enumerate(node.keys):
            if sep <= hide_key:
                idx = i
        node = node.children[idx]
    # Prefer the deepest attackable node: smaller blast radius, harder to
    # notice.  A node is attackable if it has room and its last separator
    # leaves headroom below hide_key.
    for internal in reversed(candidates):
        if len(internal.keys) >= tree.fanout:
            continue
        last_sep = internal.keys[-1]
        if last_sep >= hide_key:
            continue
        separator = hide_key if last_sep == hide_key - 1 else hide_key - 1
        if decoys is None:
            # Decoys sit just past the hidden key — plausible neighbours
            # that never include the key itself.
            fake_keys = [hide_key + 1, hide_key + 2]
        else:
            if hide_key in decoys:
                raise AttackNotApplicableError(
                    "decoys must not include the key being hidden"
                )
            fake_keys = sorted(decoys)
            if fake_keys and fake_keys[0] < separator:
                separator = max(last_sep + 1, fake_keys[0])
        fake_leaf = tree.make_leaf(list(fake_keys))
        tree.raw_append_entry(internal, separator, fake_leaf)
        return separator
    raise AttackNotApplicableError(
        f"no internal node on the path to {hide_key} has capacity and "
        "separator headroom"
    )


# ----------------------------------------------------------------------
# Section 4: tail append defeating binary search
# ----------------------------------------------------------------------
def binary_search_tail_attack(log: SortedAppendLog, hide_key: int) -> List[int]:
    """Break binary searches for ``hide_key`` by appending smaller keys.

    Appends copies of ``hide_key - 1`` at the tail until the binary
    search's probe sequence is deflected rightward past the committed
    occurrence (Figure 6(b) appends three such entries; the number needed
    depends on where the key sits relative to the probe midpoints, and
    Mala can simply keep appending until her own trial search misses).
    Returns the planted values.
    """
    if not log.binary_search(hide_key):
        raise AttackNotApplicableError(
            f"key {hide_key} is not found even before the attack"
        )
    planted: List[int] = []
    limit = 2 * len(log) + 2
    while log.binary_search(hide_key):
        if len(planted) >= limit:
            raise AttackNotApplicableError(
                f"could not deflect binary search for {hide_key} within "
                f"{limit} appends"
            )
        log.append(hide_key - 1)
        planted.append(hide_key - 1)
    return planted


# ----------------------------------------------------------------------
# Section 4.3: the same manipulations against jump indexes (detected)
# ----------------------------------------------------------------------
def jump_pointer_attack(jump_index: JumpIndex, *, fake_value: int = 0) -> int:
    """Plant a malicious pointer in a binary jump index.

    Write-once pointers leave Mala only the NULL slots.  Filling one with
    a node whose value lies *inside* the slot's range is merely inserting
    a fake entry (posting stuffing — exposed by document verification);
    the structurally damaging move is filling a slot whose range does
    *not* contain the value, diverting future traversals.  This function
    does the latter: it appends a node holding ``fake_value`` and assigns
    it to the first unset head pointer whose range excludes the value.
    Certified reads through that pointer raise
    :class:`~repro.errors.TamperDetectedError` rather than return wrong
    answers.  Returns the pointer exponent used.
    """
    if jump_index.is_empty:
        raise AttackNotApplicableError("empty jump index; nothing to subvert")
    fake_node = jump_index.append_node(fake_value)
    head_value = jump_index.head_value
    for i in range(jump_index.max_value_bits + 1):
        in_range = head_value + (1 << i) <= fake_value < head_value + (1 << (i + 1))
        if not in_range and jump_index._node(0).pointer(i) is None:
            jump_index.set_pointer(0, i, fake_node)
            return i
    raise AttackNotApplicableError(
        "no unset head pointer with a range excluding the fake value"
    )


def block_jump_pointer_attack(
    jump_index: BlockJumpIndex, *, target_block: Optional[int] = None
) -> int:
    """Plant a malicious block pointer in a block jump index.

    Assigns an unset pointer slot of the head block to an arbitrary
    earlier-or-wrong block.  Returns the slot used.  Certified readers
    whose navigation crosses the slot raise
    :class:`~repro.errors.TamperDetectedError`.
    """
    posting_list = jump_index.posting_list
    if posting_list.num_blocks < 2:
        raise AttackNotApplicableError(
            "need at least two blocks to make a pointer plausible"
        )
    store = posting_list.store
    if target_block is None:
        target_block = posting_list.num_blocks - 1
    for slot in range(jump_index.num_slots):
        if store.peek_slot(posting_list.name, 0, slot) is None:
            store.set_slot(posting_list.name, 0, slot, target_block)
            return slot
    raise AttackNotApplicableError("head block has no unset slots left")


# ----------------------------------------------------------------------
# Section 5: posting-list stuffing / ranking attack
# ----------------------------------------------------------------------
def posting_stuffing_attack(
    posting_list: PostingList,
    term_code: int,
    *,
    count: int,
    first_fake_doc_id: Optional[int] = None,
) -> List[int]:
    """Stuff a posting list with fabricated document IDs.

    To avoid instantly tripping the order audit, Mala appends *future*
    document IDs (monotonicity preserved) that reference documents that
    do not exist.  Search results get diluted; result verification
    (:func:`repro.core.verification.verify_results`) exposes every
    fake because the documents are absent from WORM.

    This is an attack on an appendable list — the directly-appended
    family's, the paper's model.  A list of a sealed segment with a
    shared file is an extent, which refuses the append; bytes written
    past it through the device reach no reader, and the audit reports
    them (:meth:`~repro.core.segments.MergedListFamily.unreachable_files`).

    Returns the fabricated IDs.
    """
    if count <= 0:
        raise AttackNotApplicableError("stuffing needs a positive count")
    start = (
        first_fake_doc_id
        if first_fake_doc_id is not None
        else posting_list.last_doc_id + 1
    )
    fake_ids = list(range(start, start + count))
    for doc_id in fake_ids:
        posting_list.append(doc_id, term_code)
    return fake_ids


# ----------------------------------------------------------------------
# Section 2.3: killing index entries in the buffering window
# ----------------------------------------------------------------------
def buffer_wipe_attack(index: BufferedInvertedIndex) -> int:
    """Crash a buffered indexer and destroy its unflushed postings.

    Returns the number of documents whose index entries are permanently
    lost — stored safely on WORM, but unreachable through the index.
    This is why a trustworthy index must update in real time.
    """
    if index.buffered_documents == 0:
        raise AttackNotApplicableError("buffer is empty; nothing to destroy")
    return index.crash_and_wipe_buffer()
