"""The zigzag join over seekable posting cursors (Figure 5).

Conjunctive queries intersect posting lists.  The zigzag join exploits
that posting lists are sorted by document ID: each side repeatedly seeks
(``FindGeq``) to the other side's current ID, skipping runs that cannot
participate in the result.  With an auxiliary index (jump index here;
B+ tree in the untrusted baseline, whose cursor
:class:`~repro.baselines.bplus_tree.TreeCursor` lives beside the tree)
the seeks are logarithmic; without one they degrade to scans — both are
represented as cursor adapters so the join code and the blocks-read
accounting are shared.  This is the one conjunctive join: the engine
answers queries with it, and Figure 8(c) measures it.

A merged-list cursor steps over its own term's postings only, so each
seek targets the other term's next document rather than the list's.
The paper's join steps over every posting of the merged list and checks
terms where document IDs meet; EXPERIMENTS.md (FIG8C) compares the two.

The paper's trust guarantee rides on the seek primitive: Proposition 3
says a jump-index FindGeq can never skip a committed ID, so
:func:`zigzag` over jump-indexed cursors can never omit a document that
is in both lists.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import List, Optional, Sequence, Tuple

from repro.core.block_jump_index import BlockJumpIndex
from repro.core.posting_list import PostingList
from repro.errors import QueryError


class MergedListCursor:
    """Seekable cursor over one (merged) posting list, term-filtered.

    With a :class:`~repro.core.block_jump_index.BlockJumpIndex` attached,
    seeks navigate jump pointers; otherwise they scan sequentially (the
    merged-no-jump-index configuration of the Section 6 comparison).
    """

    def __init__(
        self,
        posting_list: PostingList,
        *,
        term_code: Optional[int] = None,
        jump_index: Optional[BlockJumpIndex] = None,
        length_hint: Optional[int] = None,
    ):
        self.jump_index = jump_index
        self._cursor = posting_list.cursor(term_code=term_code)
        self._length_hint = length_hint
        #: Seek operations performed (the paper's FindGeq count).
        self.seeks = 0

    def doc(self) -> Optional[int]:
        """Current document ID (``None`` when exhausted)."""
        if self._cursor.exhausted:
            return None
        return self._cursor.current_doc

    def seek_geq(self, k: int) -> Optional[int]:
        """Advance to the first matching posting with ID >= ``k``."""
        if self._cursor.exhausted:
            return None
        self.seeks += 1
        if self.jump_index is not None:
            self.jump_index.find_geq(self._cursor, k)
        else:
            self._cursor.seek_geq_sequential(k)
        return self.doc()

    def estimated_length(self) -> int:
        """Join-ordering hint: filtered length if known, else list length."""
        if self._length_hint is not None:
            return self._length_hint
        return len(self._cursor.posting_list)

    def blocks_read(self) -> int:
        """Distinct posting-list blocks this cursor loaded."""
        return len(self._cursor.blocks_read)


class MemoryCursor:
    """Seekable cursor over an in-memory sorted ID list (zero I/O).

    Used for intermediate results of k-way joins: the partial
    intersection is already in query-processor memory.
    """

    def __init__(self, doc_ids: Sequence[int]):
        self._ids = list(doc_ids)
        self._pos = 0
        #: Seek operations performed (kept for cursor-interface parity).
        self.seeks = 0

    def doc(self) -> Optional[int]:
        """Current document ID (``None`` when exhausted)."""
        if self._pos >= len(self._ids):
            return None
        return self._ids[self._pos]

    def seek_geq(self, k: int) -> Optional[int]:
        """Advance to the first ID >= ``k`` by binary search (in memory)."""
        self.seeks += 1
        self._pos = bisect_left(self._ids, k, lo=self._pos)
        return self.doc()

    def estimated_length(self) -> int:
        """Join-ordering hint."""
        return len(self._ids)

    def blocks_read(self) -> int:
        """Memory cursors read no blocks."""
        return 0


def zigzag(cursor1, cursor2, first: int = 0, last: float = math.inf) -> List[int]:
    """The ZIGZAG algorithm of Figure 5 over two seekable cursors, for
    the documents in ``[first, last]``.

    When both cursors start below ``first``, the first enters with one
    FindGeq(``first``) — by Proposition 3 it skips no committed ID at or
    above ``first`` — and the other follows it as the zigzag does
    (entering both at ``first`` can cost more seeks than no window at
    all).  The join stops once a cursor passes ``last``.  Against the
    unbounded join, the entry FindGeq may be one seek more (the other
    cursor can run out before the unbounded join gets that far) and
    read one non-tail block more; no other step costs more.
    """
    out: List[int] = []
    top1 = cursor1.doc()
    top2 = cursor2.doc()
    if top1 is not None and top2 is not None and max(top1, top2) < first:
        top1 = cursor1.seek_geq(first)
    while top1 is not None and top2 is not None and top1 <= last and top2 <= last:
        if top1 < top2:
            top1 = cursor1.seek_geq(top2)
        elif top2 < top1:
            top2 = cursor2.seek_geq(top1)
        else:
            out.append(top1)
            top1 = cursor1.seek_geq(top1 + 1)
            top2 = cursor2.seek_geq(top2 + 1)
    return out


def conjunctive_join(cursors: Sequence, window=None) -> Tuple[List[int], int]:
    """K-way conjunctive join, shortest lists first (Section 4.5).

    "Multi-keyword queries are answered with zigzag joins of the posting
    lists, starting with the shortest two lists"; each partial result is
    then zigzag-joined with the next shortest list.  With a ``window``
    ``(first, last)`` of document IDs, the lists are joined only inside
    it (see :func:`zigzag`).  Returns the matching document IDs and the
    total distinct blocks read across all cursors.
    """
    if not cursors:
        raise QueryError("conjunctive join needs at least one cursor")
    first, last = (0, math.inf) if window is None else window
    ordered = sorted(cursors, key=lambda c: c.estimated_length())
    if len(ordered) == 1:
        only = ordered[0]
        out: List[int] = []
        doc = only.doc()
        if doc is not None and doc < first:
            doc = only.seek_geq(first)
        while doc is not None and doc <= last:
            out.append(doc)
            doc = only.seek_geq(doc + 1)
        return out, only.blocks_read()
    result = zigzag(ordered[0], ordered[1], first, last)
    for cursor in ordered[2:]:
        if not result:
            break
        result = zigzag(MemoryCursor(result), cursor, first, last)
    blocks = sum(c.blocks_read() for c in ordered)
    return result, blocks
