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
one the service layer (writer-preferring lock) enforces.  Readers take
:meth:`MutableTailIndex.snapshot`, which is a constant-time capture of
the current dict references:

* :meth:`clear` (sealing) replaces the dicts wholesale, so a snapshot
  taken before a seal stays valid forever (copy-on-seal);
* :meth:`add` mutates in place, so snapshots are only isolated from
  concurrent *adds* when readers exclude the writer — which the
  reader-writer lock guarantees wherever the engine is driven
  concurrently.
"""

from __future__ import annotations

from itertools import chain
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core.vecdecode import TermColumn, posting_array
from repro.errors import WorkloadError


class TailSnapshot:
    """An immutable read view of the tail at one instant.

    Holds references to the tail's internal dicts (cheap — no copying);
    see the module docstring for when those references are stable.
    """

    __slots__ = ("_postings", "_docs")

    def __init__(
        self,
        postings: Dict[int, List[Tuple[int, int]]],
        docs: Dict[int, Dict[int, int]],
    ):
        self._postings = postings
        self._docs = docs

    def collect_candidates(self, wanted: Iterable[int]) -> List[TermColumn]:
        """The wanted terms' tail postings as ``(term_id, doc_ids, tfs)``
        columns (the disjunctive path), in term order.  The tail is
        unmerged, so the postings returned are the entries scanned."""
        columns: List[TermColumn] = []
        for term_id in sorted(set(wanted)):
            entries = self._postings.get(term_id)
            if entries:
                doc_ids, codes = zip(*entries)
                tfs = np.array(codes, dtype=np.uint32) >> 24
                columns.append(
                    (term_id, np.array(doc_ids, dtype=np.uint32), np.maximum(tfs, 1))
                )
        return columns

    def docs_with_all(self, term_ids: Sequence[int]) -> List[int]:
        """Tail documents containing *all* of ``term_ids`` (doc order)."""
        if not term_ids:
            return []
        # Iterate the rarest term's postings; membership-check the rest.
        rarest = min(term_ids, key=lambda t: len(self._postings.get(t, ())))
        others = [t for t in term_ids if t != rarest]
        return [
            doc_id
            for doc_id, _ in self._postings.get(rarest, ())
            if all(t in self._docs[doc_id] for t in others)
        ]


class MutableTailIndex:
    """Per-term postings of documents not yet sealed into a segment.

    Postings store the same packed ``term_code`` bytes the merged WORM
    lists do (:func:`repro.core.posting.pack_term_tf`), so tf clamping
    and unpacking behave byte-for-byte like the legacy synchronous path.
    """

    def __init__(self) -> None:
        self._postings: Dict[int, List[Tuple[int, int]]] = {}
        self._docs: Dict[int, Dict[int, int]] = {}
        self._num_postings = 0

    # ------------------------------------------------------------------
    # write path (single writer)
    # ------------------------------------------------------------------
    def add(self, doc_id: int, codes: Mapping[int, int]) -> None:
        """Register ``doc_id`` with its ``term_id -> packed_code`` map.

        Document IDs must arrive in strictly increasing order — the
        monotonicity invariant every trustworthy index here relies on.
        """
        last = self.last_doc
        if last is not None and doc_id <= last:
            raise WorkloadError(
                f"tail doc ids must be strictly increasing; got {doc_id} "
                f"after {last}"
            )
        self._docs[doc_id] = dict(codes)
        for term_id in sorted(codes):
            self._postings.setdefault(term_id, []).append(
                (doc_id, codes[term_id])
            )
        self._num_postings += len(codes)

    def clear(self) -> None:
        """Drop everything (after sealing).

        Replaces the dicts instead of clearing them so outstanding
        snapshots keep their pre-seal view (copy-on-seal).
        """
        self._postings = {}
        self._docs = {}
        self._num_postings = 0

    # ------------------------------------------------------------------
    # read path
    # ------------------------------------------------------------------
    def snapshot(self) -> TailSnapshot:
        """A constant-time immutable view (see the module docstring)."""
        return TailSnapshot(self._postings, self._docs)

    @property
    def doc_count(self) -> int:
        return len(self._docs)

    @property
    def posting_count(self) -> int:
        return self._num_postings

    @property
    def first_doc(self) -> Optional[int]:
        return next(iter(self._docs), None)

    @property
    def last_doc(self) -> Optional[int]:
        return next(reversed(self._docs), None)

    def term_counts(self) -> Dict[int, int]:
        """``term_id -> posting count`` (popularity input for sealing)."""
        return {t: len(entries) for t, entries in self._postings.items()}

    def columns(self) -> Tuple[np.ndarray, np.ndarray]:
        """All postings flattened into fresh ``(doc_ids, term_codes)``
        ``uint32`` columns, term after term — the sealer's input."""
        postings = posting_array(chain.from_iterable(self._postings.values()))
        return postings[:, 0], postings[:, 1]

    def __len__(self) -> int:
        return len(self._docs)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MutableTailIndex(docs={len(self._docs)}, "
            f"postings={self._num_postings})"
        )
