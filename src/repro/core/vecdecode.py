"""Columnar posting-block decode: one pass, no per-posting objects.

The scalar decoder (:func:`repro.core.posting.decode_postings`) builds
one :class:`~repro.core.posting.Posting` object per entry — a dataclass
allocation plus two attribute stores for every 8 bytes read, which is
the dominant cost of the read hot path once blocks are cached.

This module decodes a whole block's payload in a single C-level pass
into two parallel ``array`` columns — document IDs and term codes — by
reinterpreting the fixed-width little-endian ``<II`` posting layout as a
flat vector of 32-bit words and taking stride-2 slices.  No Python-level
loop touches the bytes, and no per-posting object exists unless a caller
actually asks for one.

:class:`DecodedBlock` wraps the two columns and behaves like the
``List[Posting]`` the scalar decoder returns (length, indexing, slicing,
iteration, equality), so every existing call site keeps working while
batch consumers — cursor seeks, conjunction galloping, candidate
collection — read the columns directly.  :func:`term_columns` is the
disjunctive scan's consumer: it selects each wanted term's postings out
of a whole merged list's columns with one mask, instead of visiting the
list a posting at a time.
"""

from __future__ import annotations

import sys
from array import array
from bisect import bisect_left
from itertools import chain
from typing import Iterable, Iterator, List, Tuple

import numpy as np

from repro.core.posting import (
    MAX_DOC_ID,
    MAX_TERM_ID_WITH_TF,
    POSTING_SIZE,
    _STRUCT,
    Posting,
)
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


def term_columns(
    doc_ids: array, term_codes: array, term_ids: Iterable[int]
) -> List[TermColumn]:
    """Each of ``term_ids``' postings, selected out of a merged list's
    decoded columns (blocks concatenated) by one mask per term; a term
    with no posting in the list gets no column.

    The unpacking is :func:`~repro.core.posting.unpack_term_tf`'s: the
    term ID is the code's low 24 bits, the frequency its high byte, and
    a zero byte (a code written without packing) reads as 1.  An honest
    list yields strictly ascending document IDs per term.  Anything else
    — a stuffed duplicate of a ``(document, term)`` pair, a list whose
    document IDs run backwards across the segments concatenated into it
    — is put in order, the largest frequency of a pair winning.
    """
    dtype = f"u{doc_ids.itemsize}"
    docs = np.frombuffer(doc_ids, dtype=dtype)
    codes = np.frombuffer(term_codes, dtype=dtype)
    terms = codes & MAX_TERM_ID_WITH_TF
    columns = []
    for term_id in term_ids:
        mask = terms == term_id
        term_docs = docs[mask]
        if not len(term_docs):
            continue
        tfs = np.maximum(codes[mask] >> 24, 1)
        if len(term_docs) > 1 and not (term_docs[1:] > term_docs[:-1]).all():
            order = np.argsort(term_docs, kind="stable")
            term_docs, tfs = term_docs[order], tfs[order]
            first = np.flatnonzero(
                np.concatenate(([True], term_docs[1:] != term_docs[:-1]))
            )
            term_docs, tfs = term_docs[first], np.maximum.reduceat(tfs, first)
        columns.append((term_id, term_docs, tfs))
    return columns


class DecodedBlock:
    """One decoded posting block as parallel doc-ID / term-code columns.

    A drop-in stand-in for the ``List[Posting]`` the scalar decoder
    returns: it supports ``len``, indexing (negative too), slicing,
    iteration, and equality against any posting sequence.  ``Posting``
    objects are materialized lazily, only when an element is requested;
    batch consumers use :attr:`doc_ids` / :attr:`term_codes` directly.

    The doc-ID column is sorted (the posting-list invariant), so
    :meth:`first_geq` answers ordered seeks with one ``bisect``.
    """

    __slots__ = ("doc_ids", "term_codes")

    def __init__(self, doc_ids: array, term_codes: array):
        self.doc_ids = doc_ids
        self.term_codes = term_codes

    @classmethod
    def from_payload(cls, payload: bytes) -> "DecodedBlock":
        """Decode ``payload`` (validated like the scalar decoder)."""
        return cls(*decode_columns(payload))

    # -- List[Posting] compatibility -----------------------------------
    def __len__(self) -> int:
        return len(self.doc_ids)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [
                Posting(doc_id, term_code)
                for doc_id, term_code in zip(
                    self.doc_ids[index], self.term_codes[index]
                )
            ]
        return Posting(self.doc_ids[index], self.term_codes[index])

    def __iter__(self) -> Iterator[Posting]:
        return map(Posting, self.doc_ids, self.term_codes)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, DecodedBlock):
            return (
                self.doc_ids == other.doc_ids
                and self.term_codes == other.term_codes
            )
        if isinstance(other, (list, tuple)):
            return len(self) == len(other) and all(
                entry == posting for entry, posting in zip(self, other)
            )
        return NotImplemented

    __hash__ = None

    def __repr__(self) -> str:
        return f"DecodedBlock({len(self)} postings)"

    # -- batch accessors ------------------------------------------------
    @property
    def nbytes(self) -> int:
        """Resident size of the two columns, for cache accounting."""
        return (
            self.doc_ids.itemsize + self.term_codes.itemsize
        ) * len(self.doc_ids)

    def to_postings(self) -> List[Posting]:
        """Materialize the scalar form (audits, compatibility shims)."""
        return list(self)

    def first_geq(self, doc_id: int, lo: int = 0) -> int:
        """Index of the first entry with ``doc_id >=`` the target.

        One ``bisect`` over the sorted doc-ID column; returns
        ``len(self)`` when every entry is smaller.
        """
        return bisect_left(self.doc_ids, doc_id, lo)
