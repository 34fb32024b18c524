"""Columnar posting-block decode: one pass, no per-posting objects.

This module decodes a whole block's payload in a single C-level pass
into two parallel ``array`` columns — document IDs and term codes — by
reinterpreting the fixed-width little-endian ``<II`` posting layout as a
flat vector of 32-bit words and taking stride-2 slices.  No Python-level
loop touches the bytes, and no per-posting object exists.

:class:`DecodedBlock` holds one block's two columns; every reader —
cursor seeks, conjunction galloping, candidate collection, audits —
reads them directly.  :func:`term_columns` is the disjunctive scan's
consumer: it selects each wanted term's postings out of a whole merged
list's columns with one mask, instead of visiting the list a posting at
a time.  :func:`descents` is the posting-order check, the one every
reader and writer of stored postings runs.
"""

from __future__ import annotations

import sys
from array import array
from itertools import chain
from typing import Iterable, List, Sequence, Tuple

import numpy as np

from repro.core.posting import MAX_DOC_ID, MAX_TERM_ID_WITH_TF, POSTING_SIZE, _STRUCT
from repro.errors import IndexError_

#: The raw payload is little-endian; a big-endian host must byte-swap
#: the bulk-loaded words before they read as doc IDs / term codes.
_SWAP = sys.byteorder == "big"

#: ``array('I')`` maps to the C ``unsigned int``; the stride-slice fast
#: path needs it to be exactly the 4-byte posting field width.  On the
#: (practically nonexistent) platform where it is not, fall back to a
#: portable ``struct`` scan that produces identical columns.
_FAST = array("I").itemsize == 4

#: Type code of the columns :func:`decode_columns` returns.
COLUMN_TYPECODE = "I" if _FAST else "L"

#: Field type of an encoded posting: little-endian, whatever the host.
_POSTING_DTYPE = np.dtype("<u4")

#: One term's postings as parallel columns: ``(term_id, doc_ids, tfs)``,
#: document IDs strictly ascending, frequencies at least 1.
TermColumn = Tuple[int, np.ndarray, np.ndarray]

#: What :func:`descents` finds in honest lists.
_NO_DESCENTS = np.empty(0, dtype=np.intp)
_NO_DESCENTS.flags.writeable = False

#: A single list of at most this many postings is checked by comparing
#: it with its sorted self, which costs less than the array operations
#: below this size (0.3 µs against 1.2 µs at 5 postings on a 2-CPU
#: x86-64 host; they cross near 100) — and most of a sealed segment's
#: short lists hold a handful of postings.
_SORT_CHECK_UP_TO = 64


def _whole_postings(payload: bytes) -> bytes:
    """``payload``, refused unless it is whole postings: posting lists
    never split an entry across blocks, so a misfit length means
    corruption."""
    if len(payload) % POSTING_SIZE:
        raise IndexError_(
            f"posting region of {len(payload)} bytes is not a multiple of "
            f"{POSTING_SIZE}"
        )
    return payload


def decode_columns(payload: bytes) -> Tuple[array, array]:
    """Decode a posting payload into ``(doc_ids, term_codes)`` columns.

    Equivalent to ``zip(*decode_postings(payload))`` but performed as
    one bulk ``array.frombytes`` plus two stride slices — no per-entry
    Python work.

    Raises
    ------
    IndexError_
        If the payload is not a multiple of :data:`POSTING_SIZE` bytes.
    """
    _whole_postings(payload)
    if _FAST:
        words = array("I")
        words.frombytes(payload)
        if _SWAP:
            words.byteswap()
        return words[0::2], words[1::2]
    doc_ids = array("L")
    term_codes = array("L")
    for doc_id, term_code in _STRUCT.iter_unpack(payload):
        doc_ids.append(doc_id)
        term_codes.append(term_code)
    return doc_ids, term_codes


def decode_joined(payloads: Iterable[bytes]) -> Tuple[array, array]:
    """:func:`decode_columns` of ``payloads`` end to end, each held to
    its length check first: a torn block is refused even where a
    neighbour's length would make the joined bytes whole postings."""
    return decode_columns(b"".join(map(_whole_postings, payloads)))


def decode_blocks(payloads: Iterable[bytes]) -> np.ndarray:
    """Decode many blocks' payloads, in order, into one ``(n, 2)``
    ``uint32`` array of ``(doc_id, term_code)`` rows — what
    :func:`posting_array` builds, read back.  Each payload is held to
    :func:`decode_columns`' length check."""
    data = b"".join(map(_whole_postings, payloads))
    return np.frombuffer(data, dtype=_POSTING_DTYPE).reshape(-1, 2)


def posting_array(entries: Iterable[Tuple[int, int]]) -> np.ndarray:
    """``(doc_id, term_code)`` pairs as the ``(n, 2)`` little-endian
    ``uint32`` array whose bytes are the postings' encoding — the write
    side's counterpart of :func:`decode_blocks`, and the one place
    Python integers become posting fields.  An array that already is
    one passes through.

    Raises
    ------
    IndexError_
        If a field is outside 32 bits.  The check runs on a wider
        integer type before the cast, which would otherwise wrap the
        value silently (numpy 1.x) instead of refusing it.
    """
    try:
        if not isinstance(entries, np.ndarray):
            flat = np.fromiter(chain.from_iterable(entries), dtype=np.int64)
            entries = flat.reshape(-1, 2)
        if entries.dtype != _POSTING_DTYPE:
            if len(entries) and not 0 <= entries.min() <= entries.max() <= MAX_DOC_ID:
                raise OverflowError
            entries = entries.astype(_POSTING_DTYPE)
    except OverflowError:
        raise IndexError_(
            f"posting field out of range [0, {MAX_DOC_ID}] (doc IDs and term "
            "codes are 32 bits wide)"
        ) from None
    return entries


def descents(doc_ids, starts: Sequence[int] = ()) -> Tuple[np.ndarray, np.ndarray]:
    """The posting-order check: where stored document IDs descend.

    ``doc_ids`` is one list's document-ID column (an ``array`` or a
    numpy array), or several lists' end to end, each after the first
    beginning at an index in ``starts`` (ascending).  Returns the index
    of every posting whose ID is below the largest one before it in its
    list, and that largest ID, as two arrays — empty for honest lists,
    which append in non-decreasing order.  A list's first posting is
    below nothing, however high the list before it ends.
    """
    if not len(starts) and len(doc_ids) <= _SORT_CHECK_UP_TO:
        column = doc_ids.tolist()
        if column == sorted(column):
            return _NO_DESCENTS, _NO_DESCENTS
    ids = np.asarray(doc_ids)
    # No ID below its predecessor, the honest case of one list: nothing
    # below the largest before it either.
    if not np.count_nonzero(ids[1:] < ids[:-1]):
        return _NO_DESCENTS, _NO_DESCENTS
    # Lift each list above the ones before it, by its ordinal in the
    # bits over 32, so that one running maximum restarts at every start.
    ids = ids.astype(np.int64)
    lift = np.searchsorted(starts, np.arange(len(ids)), side="right") << 32
    top = np.maximum.accumulate(ids + lift)[:-1] - lift[1:]
    at = (ids[1:] < top).nonzero()[0]
    return at + 1, top[at]


def term_columns(
    doc_ids: array, term_codes: array, term_ids: Iterable[int]
) -> List[TermColumn]:
    """Each of ``term_ids``' postings, selected out of a merged list's
    decoded columns (blocks concatenated) by one mask per term; a term
    with no posting in the list gets no column.

    The unpacking is :func:`~repro.core.posting.unpack_term_tf`'s: the
    term ID is the code's low 24 bits, the frequency its high byte, and
    a zero byte (a code written without packing) reads as 1.  An honest
    list yields strictly ascending document IDs per term; anything else
    is put in order by :func:`ascending`.
    """
    dtype = f"u{doc_ids.itemsize}"
    docs = np.frombuffer(doc_ids, dtype=dtype)
    codes = np.frombuffer(term_codes, dtype=dtype)
    terms = codes & MAX_TERM_ID_WITH_TF
    columns = []
    for term_id in term_ids:
        mask = terms == term_id
        term_docs = docs[mask]
        if len(term_docs):
            tfs = np.maximum(codes[mask] >> 24, 1)
            columns.append((term_id, *ascending(term_docs, tfs)))
    return columns


def ascending(docs: np.ndarray, tfs: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """One term's ``(doc_ids, tfs)`` with the document IDs strictly
    ascending: as they are, or — when a stuffed duplicate of a
    ``(document, term)`` pair, or a list whose document IDs run backwards
    across the families concatenated into it, broke the order — sorted,
    each document once at the largest of its frequencies."""
    if len(docs) > 1 and not (docs[1:] > docs[:-1]).all():
        order = np.argsort(docs, kind="stable")
        docs, tfs = docs[order], tfs[order]
        first = np.flatnonzero(np.concatenate(([True], docs[1:] != docs[:-1])))
        docs, tfs = docs[first], np.maximum.reduceat(tfs, first)
    return docs, tfs


class DecodedBlock:
    """One decoded posting block as parallel doc-ID / term-code columns.

    Readers use :attr:`doc_ids` / :attr:`term_codes` directly; ``len``
    counts the postings.
    """

    __slots__ = ("doc_ids", "term_codes")

    def __init__(self, doc_ids: array, term_codes: array):
        self.doc_ids = doc_ids
        self.term_codes = term_codes

    @classmethod
    def from_payload(cls, payload: bytes) -> "DecodedBlock":
        """Decode ``payload`` (held to :func:`decode_columns`' check)."""
        return cls(*decode_columns(payload))

    def __len__(self) -> int:
        return len(self.doc_ids)

    def __repr__(self) -> str:
        return f"DecodedBlock({len(self)} postings)"

    @property
    def nbytes(self) -> int:
        """Resident size of the two columns, for cache accounting."""
        return (
            self.doc_ids.itemsize + self.term_codes.itemsize
        ) * len(self.doc_ids)
