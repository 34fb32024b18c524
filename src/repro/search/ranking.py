"""Similarity scoring: Okapi BM25 and cosine (Section 3.1's measures).

"The documents in the posting lists are assigned scores based on
similarity measures like cosine or Okapi BM-25.  The scores are used to
rank the documents."

Collection-level statistics (document frequencies, lengths) are derived
data: the engine keeps them in application memory and could rebuild them
from WORM at any time, so they carry no trust weight — Section 5's
ranking-attack analysis is precisely about an adversary distorting them,
and the countermeasure is result verification, not protected statistics.

Each scorer has two forms that produce the same floats, bit for bit.
``score`` is the definition: one document, its term frequencies, a
Python loop.  ``score_columns`` is what queries run: the whole candidate
set as columns (see :class:`~repro.search.engine.Candidates`), one
array operation per query term.  It applies ``score``'s operations in
``score``'s order to every document at once, so the two can be — and in
``tests/search/test_ranking.py`` are — compared with ``==``.
:func:`rank` picks between them by the size of the candidate set and
cuts to the top ``k``.
"""

from __future__ import annotations

import math
from collections import defaultdict
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

#: A candidate set of at most this many postings is scored a document
#: at a time by ``score``.  An array operation costs about a microsecond
#: however short the array: on the seed machine ranking by columns takes
#: 15 µs plus 6 µs a query term whatever the size, by ``score`` 1.5 µs a
#: posting, and the two cross between 12 postings (one term) and 22
#: (three).  The benchmark has a workload on each side: ``disj-scan``
#: ranks hundreds of postings per shard, ``conj-jump``'s joins and
#: ``ingest-seal``'s read-back a handful.
SCALAR_UP_TO = 16

#: ``1 + log(tf)`` for every term frequency a posting can carry (one
#: byte), from ``math.log`` like :meth:`CosineScorer.score`:
#: ``numpy.log`` is not guaranteed to round the same way.
_LOG_TF = np.array([0.0] + [1.0 + math.log(tf) for tf in range(1, 256)])

#: One query term's postings, as the scorers take them: the term's key
#: in the collection statistics, the rows of the candidate set its
#: documents are (an index array, or ``slice(None)`` for all of them,
#: in order), and the term's frequency in each (a column, or one number
#: where every document holds the term as often).
ScoringColumn = Tuple[int, object, object]


class CollectionStats:
    """Incrementally maintained collection statistics for scoring."""

    def __init__(self) -> None:
        #: Documents containing each term (document frequency).
        self.df: Dict[int, int] = defaultdict(int)
        #: Length (total retained tokens) of each document.
        self.doc_lengths: Dict[int, int] = {}
        self.total_length = 0
        #: Term IDs previously folded in per document, so re-adding a
        #: known document replaces its contributions instead of double
        #: counting them.
        self._doc_terms: Dict[int, Tuple[int, ...]] = {}
        #: ``doc_lengths`` again as a dense column indexed by document
        #: ID, zero-filled (unknown IDs have length 0) and grown by
        #: doubling; what :meth:`lengths_of` gathers from.
        self._lengths = np.zeros(1024, dtype=np.int64)

    @property
    def num_docs(self) -> int:
        """Number of indexed documents."""
        return len(self.doc_lengths)

    @property
    def avg_doc_length(self) -> float:
        """Mean document length (1.0 floor avoids division by zero)."""
        if not self.doc_lengths:
            return 1.0
        return max(1.0, self.total_length / len(self.doc_lengths))

    def add_document(self, doc_id: int, term_counts: Mapping[int, int]) -> None:
        """Fold one document's term counts into the statistics.

        Idempotent per ``doc_id``: re-adding a document that was already
        folded in (a restore path replaying overlap, a re-index) first
        subtracts its previous length and document-frequency
        contributions, so ``num_docs``, ``total_length``, and ``df``
        reflect each document exactly once.
        """
        previous = self._doc_terms.get(doc_id)
        if previous is not None:
            self.total_length -= self.doc_lengths[doc_id]
            for term in previous:
                remaining = self.df[term] - 1
                if remaining:
                    self.df[term] = remaining
                else:
                    del self.df[term]
        length = sum(term_counts.values())
        self.doc_lengths[doc_id] = length
        if doc_id >= len(self._lengths):
            grown = np.zeros(
                max(2 * len(self._lengths), doc_id + 1), dtype=np.int64
            )
            grown[: len(self._lengths)] = self._lengths
            # Replaced, never resized: a reader that gathered from the
            # old column keeps a consistent one.
            self._lengths = grown
        self._lengths[doc_id] = length
        self.total_length += length
        self._doc_terms[doc_id] = tuple(term_counts)
        for term in term_counts:
            self.df[term] += 1

    def doc_length(self, doc_id: int) -> int:
        """Length of ``doc_id`` (0 for unknown IDs, e.g. stuffed postings)."""
        return self.doc_lengths.get(doc_id, 0)

    def lengths_of(self, doc_ids: np.ndarray) -> np.ndarray:
        """:meth:`doc_length` of every ID in ascending ``doc_ids``, as a
        column.  An ID beyond the column (a stuffed posting can name
        any) has length 0; it never indexes out of range or wraps."""
        column = self._lengths
        if not len(doc_ids) or doc_ids[-1] < len(column):
            return column[doc_ids]
        known = np.searchsorted(doc_ids, len(column))
        lengths = np.zeros(len(doc_ids), dtype=column.dtype)
        lengths[:known] = column[doc_ids[:known]]
        return lengths


class BM25Scorer:
    """Okapi BM25 with the standard k1/b parameterization."""

    def __init__(self, stats: CollectionStats, *, k1: float = 1.2, b: float = 0.75):
        self.stats = stats
        self.k1 = k1
        self.b = b

    def idf(self, term: int) -> float:
        """Robertson-Sparck-Jones idf, floored at 0 for very common terms."""
        n = self.stats.num_docs
        df = self.stats.df.get(term, 0)
        return max(0.0, math.log((n - df + 0.5) / (df + 0.5) + 1.0))

    def score(self, doc_id: int, term_freqs: Mapping[int, int]) -> float:
        """BM25 score of one document for the query terms in ``term_freqs``.

        ``term_freqs`` maps query term -> within-document frequency (0 or
        absent terms contribute nothing).
        """
        dl = self.stats.doc_length(doc_id)
        norm = self.k1 * (1 - self.b + self.b * dl / self.stats.avg_doc_length)
        total = 0.0
        for term, tf in term_freqs.items():
            if tf <= 0:
                continue
            total += self.idf(term) * (tf * (self.k1 + 1)) / (tf + norm)
        return total

    def score_columns(
        self, doc_ids: np.ndarray, columns: Sequence[ScoringColumn]
    ) -> np.ndarray:
        """:meth:`score` of every document of ascending ``doc_ids`` at
        once; ``columns`` in the order ``score`` would meet the terms."""
        lengths = self.stats.lengths_of(doc_ids)
        norm = self.k1 * (
            1 - self.b + self.b * lengths / self.stats.avg_doc_length
        )
        total = np.zeros(len(doc_ids))
        for term, rows, tfs in columns:
            tf = np.asarray(tfs, dtype=np.float64)
            total[rows] += self.idf(term) * (tf * (self.k1 + 1)) / (tf + norm[rows])
        return total


class CosineScorer:
    """Cosine similarity with log-tf / idf weights (lnc.ltc style)."""

    def __init__(self, stats: CollectionStats):
        self.stats = stats

    def idf(self, term: int) -> float:
        """Classic ``log(N / df)`` idf."""
        df = self.stats.df.get(term, 0)
        if df == 0:
            return 0.0
        return math.log(max(1.0, self.stats.num_docs / df))

    def score(self, doc_id: int, term_freqs: Mapping[int, int]) -> float:
        """Cosine score, document-normalized by length as a proxy norm."""
        dl = max(1, self.stats.doc_length(doc_id))
        total = 0.0
        for term, tf in term_freqs.items():
            if tf <= 0:
                continue
            total += (1.0 + math.log(tf)) * self.idf(term)
        return total / math.sqrt(dl)

    def score_columns(
        self, doc_ids: np.ndarray, columns: Sequence[ScoringColumn]
    ) -> np.ndarray:
        """:meth:`score` of every document of ascending ``doc_ids`` at
        once; ``columns`` in the order ``score`` would meet the terms."""
        total = np.zeros(len(doc_ids))
        for term, rows, tfs in columns:
            total[rows] += _LOG_TF[tfs] * self.idf(term)
        return total / np.sqrt(np.maximum(1, self.stats.lengths_of(doc_ids)))


def rank(
    scorer,
    candidates,
    top_k: int,
    term_keys: Optional[Mapping[int, int]] = None,
) -> List[Tuple[int, float]]:
    """The ``top_k`` best of ``candidates`` as ``(doc_id, score)`` pairs
    of Python numbers, best first, equal scores by ascending ID.

    ``candidates`` is a :class:`~repro.search.engine.Candidates`.
    ``term_keys`` maps its term IDs to the keys ``scorer``'s statistics
    use (a shard executor scores under statistics keyed by query
    position) and drops the terms it does not name; without it the
    term IDs are the keys.

    Exactly ``sorted(..., key=(-score, doc_id))[:top_k]`` over every
    candidate, without sorting them all: every score at least the
    ``top_k``-th largest is selected (ties included) and only those are
    sorted, stably, so ties stay in ID order.
    """
    if top_k <= 0 or not len(candidates):
        return []
    if candidates.postings <= SCALAR_UP_TO:
        ranked = sorted(
            (-scorer.score(doc_id, freqs), doc_id)
            for doc_id, freqs in candidates.rows(term_keys).items()
        )
        return [(doc_id, -negated) for negated, doc_id in ranked[:top_k]]
    doc_ids = candidates.doc_ids
    count = len(doc_ids)
    columns = candidates.scoring_columns(term_keys)
    total = scorer.score_columns(doc_ids, columns)
    if count > top_k:
        kth_best = np.partition(total, count - top_k)[count - top_k]
        best = np.flatnonzero(total >= kth_best)
        doc_ids, total = doc_ids[best], total[best]
    order = np.argsort(-total, kind="stable")[:top_k]
    return list(zip(doc_ids[order].tolist(), total[order].tolist()))
