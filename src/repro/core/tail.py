"""The mutable in-memory tail of a write–read decoupled index.

With tail mode enabled (``EngineConfig.tail_max_docs``), ingest no
longer appends postings to the merged WORM lists synchronously.  Each
document commits to WORM exactly as before — the document bytes, the
commit-time log, and the lexicon are journaled through the existing WAL,
which is what makes the tail *durable*: everything in it is derived
data, rebuilt from those logs on restart (see
``TrustworthySearchEngine._restore_state``).  What the tail buys is a
fast, allocation-only index update on the single-writer path, so
sustained ingest stops stalling queries behind posting-list I/O.

A sealer periodically freezes the tail into an immutable WORM *segment*
(:mod:`repro.core.segments`) and clears it; queries always see the union
of sealed segments and the live tail.

Concurrency contract
--------------------
The tail is written by exactly one writer at a time — the same
single-writer discipline the WORM append path already requires, and the
one the service layer (writer-preferring lock) enforces.  Its postings
are columns sorted by (term, document), and :meth:`MutableTailIndex.add`
and :meth:`~MutableTailIndex.clear` replace them with new arrays: nothing
ever writes into columns once built.  :meth:`~MutableTailIndex.snapshot`
hands out the current ones, so a snapshot is isolated from every later
add and seal, whether or not readers exclude the writer.  What the
reader-writer lock still orders is a view of the whole engine: a seal
publishes its segment before it clears the tail, and a reader must not
see the segments from before and the tail from after.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.vecdecode import TermColumn
from repro.errors import WorkloadError

#: A posting of the tail as one sortable key: ``term << 40 | doc << 8 |
#: tf``.  Sorting the keys sorts the postings by (term, document).
_TERM_SHIFT = 40
_DOC_SHIFT = 8
_TF_MASK = 0xFF


def _frozen(column: np.ndarray) -> np.ndarray:
    column.flags.writeable = False
    return column


class TailSnapshot:
    """An immutable read view of the tail at one instant: its postings'
    keys, sorted, and beside them the term, document and tf columns
    decoded from them once, when the tail was added to.  A read is a
    binary search of the term column for each wanted term's run — in
    Python, over a memoryview, which for the few terms of a query costs
    less than one array call — and a slice of each column."""

    __slots__ = ("_keys", "_terms", "_docs", "_tfs")

    def __init__(self, keys: np.ndarray):
        self._keys = _frozen(keys)
        self._terms = memoryview(_frozen((keys >> np.uint64(_TERM_SHIFT)).astype(np.uint32)))
        self._docs = _frozen((keys >> np.uint64(_DOC_SHIFT)).astype(np.uint32))
        self._tfs = _frozen((keys & np.uint64(_TF_MASK)).astype(np.uint32))

    def _runs(self, term_ids: Iterable[int]) -> List[Tuple[int, int, int]]:
        """``(term_id, start, stop)`` of every distinct one of
        ``term_ids`` the tail holds postings of, ascending."""
        terms = self._terms
        runs = []
        for term_id in sorted(set(term_ids)):
            start = bisect_left(terms, term_id)
            if start < len(terms) and terms[start] == term_id:
                runs.append((term_id, start, bisect_right(terms, term_id, start)))
        return runs

    def collect_candidates(self, wanted: Iterable[int]) -> List[TermColumn]:
        """The wanted terms' tail postings as ``(term_id, doc_ids, tfs)``
        columns (the disjunctive path), in term order.  The tail is
        unmerged, so the postings returned are the entries scanned."""
        docs, tfs = self._docs, self._tfs
        return [
            (term_id, docs[start:stop], tfs[start:stop])
            for term_id, start, stop in self._runs(wanted)
        ]

    def docs_with_all(self, term_ids: Sequence[int]) -> List[int]:
        """Tail documents containing *all* of ``term_ids`` (doc order)."""
        runs = self._runs(term_ids)
        if not runs or len(runs) < len(set(term_ids)):
            return []
        # Each of the rarest term's documents is searched for in the
        # other terms' runs; they ascend, so a search starts where the
        # one before it stopped.
        runs.sort(key=lambda run: run[2] - run[1])
        docs = memoryview(self._docs)
        found = docs[runs[0][1] : runs[0][2]].tolist()
        for _, start, stop in runs[1:]:
            kept = []
            for doc_id in found:
                start = bisect_left(docs, doc_id, start, stop)
                if start < stop and docs[start] == doc_id:
                    kept.append(doc_id)
            found = kept
        return found


class MutableTailIndex:
    """The postings of documents not yet sealed into a segment.

    A posting keeps what a merged WORM list's does: the document, the
    term and the tf clamped to a byte
    (:func:`repro.core.posting.pack_term_tf`), so tf clamping and
    unpacking behave byte-for-byte like the legacy synchronous path.
    """

    def __init__(self) -> None:
        self.clear()

    # ------------------------------------------------------------------
    # write path (single writer)
    # ------------------------------------------------------------------
    def add(
        self,
        doc_ids: Sequence[int],
        docs: Sequence[int],
        terms: Sequence[int],
        tfs: Sequence[int],
    ) -> None:
        """Register a batch of documents, ``doc_ids``, with their
        postings as three columns of one row per posting: document,
        term ID and tf (1..255).  A document without postings counts
        all the same.

        Document IDs must arrive in strictly increasing order — the
        monotonicity invariant every trustworthy index here relies on.
        """
        for doc_id in doc_ids:
            if self.last_doc is not None and doc_id <= self.last_doc:
                raise WorkloadError(
                    f"tail doc ids must be strictly increasing; got {doc_id} "
                    f"after {self.last_doc}"
                )
            if self.first_doc is None:
                self.first_doc = doc_id
            self.last_doc = doc_id
            self.doc_count += 1
        if not len(docs):
            return
        added = (
            np.asarray(terms, dtype=np.uint64) << np.uint64(_TERM_SHIFT)
            | np.asarray(docs, dtype=np.uint64) << np.uint64(_DOC_SHIFT)
            | np.asarray(tfs, dtype=np.uint64)
        )
        self._snapshot = TailSnapshot(
            np.sort(np.concatenate((self._snapshot._keys, added)), kind="stable")
        )

    def clear(self) -> None:
        """Drop everything (after sealing).

        Replaces the columns, like every add, so outstanding snapshots
        keep their pre-seal view (copy-on-seal).
        """
        self._snapshot = TailSnapshot(np.empty(0, dtype=np.uint64))
        #: The documents added since the last seal, postings or none.
        self.first_doc: Optional[int] = None
        self.last_doc: Optional[int] = None
        self.doc_count = 0

    # ------------------------------------------------------------------
    # read path
    # ------------------------------------------------------------------
    def snapshot(self) -> TailSnapshot:
        """A constant-time immutable view (see the module docstring)."""
        return self._snapshot

    @property
    def posting_count(self) -> int:
        return len(self._snapshot._keys)

    def term_counts(self) -> Dict[int, int]:
        """``term_id -> posting count`` (popularity input for sealing)."""
        terms, counts = np.unique(self._snapshot._terms, return_counts=True)
        return dict(zip(terms.tolist(), counts.tolist()))

    def columns(self) -> Tuple[np.ndarray, np.ndarray]:
        """All postings as fresh ``(doc_ids, term_codes)`` ``uint32``
        columns, term after term — the sealer's input."""
        snapshot = self._snapshot
        return snapshot._docs.copy(), np.asarray(snapshot._terms) | snapshot._tfs << np.uint32(24)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MutableTailIndex(docs={self.doc_count}, "
            f"postings={self.posting_count})"
        )
