"""Similarity scoring: Okapi BM25 and cosine (Section 3.1's measures).

"The documents in the posting lists are assigned scores based on
similarity measures like cosine or Okapi BM-25.  The scores are used to
rank the documents."

Collection-level statistics (document frequencies, lengths) are derived
data: the engine keeps them in application memory and could rebuild them
from WORM at any time, so they carry no trust weight — Section 5's
ranking-attack analysis is precisely about an adversary distorting them,
and the countermeasure is result verification, not protected statistics.
Each document is counted in once, at ingest or at a reopen — a sealed
segment's from its length column and postings
(:meth:`CollectionStats.add_counted`) — and counted out when it is
disposed of (:meth:`CollectionStats.subtract`); the audit recounts them
all from the stored documents.

A scorer reads one record per query, :class:`QueryStats`: each distinct
query term's document frequency, keyed by the term's canonical text, the
document count and the total length.  An engine takes it from its own
:class:`CollectionStats`; a sharded executor adds up its shards' records,
which makes the unsharded engine's.  Document lengths come from the
engine that holds the document.

Each scorer has two forms that produce the same floats, bit for bit.
``score`` is the definition: one document, its term frequencies, a
Python loop.  ``score_columns`` is what queries run: the whole candidate
set as columns (see :class:`~repro.search.engine.Candidates`), one
array operation per query term.  It applies ``score``'s operations in
``score``'s order to every document at once, so the two can be — and in
``tests/search/test_ranking.py`` are — compared with ``==``.  Both meet
a document's terms in ascending canonical text, an order every shard
agrees on, so K shards score bit for bit as one engine does.
:func:`score` picks between them by the size of the candidate set, and
:func:`cut` keeps the top ``k``; :func:`rank` is the two in turn, and a
sharded executor cuts once over every shard's scores.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
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
#: in the :class:`QueryStats`, the rows of the candidate set its
#: documents are (an index array, or ``slice(None)`` for all of them,
#: in order), and the term's frequency in each (a column, or one number
#: where every document holds the term as often).
ScoringColumn = Tuple[object, object, object]


@dataclass(frozen=True)
class QueryStats:
    """What scoring one query reads of the collection: ``df``, each
    distinct query term's document frequency under the key its
    candidates give it (its canonical text), the document count and
    the total length.

    Records add up: the sum of K shards' records for a query is the
    record one engine over their documents would give.
    """

    df: Mapping[object, int]
    num_docs: int
    total_length: int

    @property
    def avg_doc_length(self) -> float:
        """Mean document length (1.0 floor avoids division by zero)."""
        return max(1.0, self.total_length / self.num_docs) if self.num_docs else 1.0

    def __add__(self, other: "QueryStats") -> "QueryStats":
        df = Counter(self.df)
        df.update(other.df)
        return QueryStats(
            df, self.num_docs + other.num_docs, self.total_length + other.total_length
        )


class CollectionStats:
    """Incrementally maintained collection statistics for scoring: the
    document frequencies, the document count and total length, and each
    document's length in one dense column."""

    def __init__(self) -> None:
        #: Documents containing each term (document frequency).
        self.df: Dict[int, int] = Counter()
        #: Documents counted in, and their total length.
        self.num_docs = 0
        self.total_length = 0
        #: Each document's length (total retained tokens), indexed by
        #: document ID, zero-filled (unknown IDs have length 0) and grown
        #: by doubling; what :meth:`lengths_of` gathers from.  A disposed
        #: document keeps its length here; no score reads it, and a seal
        #: writes 0 for it, as after a reopen.
        self._lengths = np.zeros(1024, dtype=np.int64)

    def query_stats(self, terms: Mapping[object, Optional[int]]) -> QueryStats:
        """The :class:`QueryStats` of a query whose ``terms`` map each
        key to its term ID here (``None``: never indexed, df 0)."""
        df = {key: self.df.get(term_id, 0) for key, term_id in terms.items()}
        return QueryStats(df, self.num_docs, self.total_length)

    def add_document(self, doc_id: int, term_counts: Mapping[int, int]) -> None:
        """Fold one document's ``term_id -> count`` map in (:meth:`add`)."""
        self.add([doc_id], [sum(term_counts.values())], list(term_counts))

    def add(self, doc_ids: Sequence[int], lengths: Sequence[int], terms: Sequence[int]) -> None:
        """Fold in documents not folded in before: ``doc_ids`` with their
        ``lengths``, and ``terms``, each document's distinct term IDs one
        document after another."""
        self._count_in(list(doc_ids), lengths)
        self.df.update(terms)

    def add_counted(self, doc_ids: np.ndarray, lengths: np.ndarray, df: np.ndarray) -> None:
        """Fold in documents not folded in before, their terms counted
        already: ``doc_ids`` with their ``lengths``, and ``df[t]`` more
        documents holding term ``t``.  What a reopen folds a sealed
        segment in by."""
        self._count_in(doc_ids, lengths)
        terms = np.flatnonzero(df)
        self.df.update(dict(zip(terms.tolist(), df[terms].tolist())))

    def _count_in(self, doc_ids, lengths) -> None:
        """Count documents in, and write their ``lengths`` into the
        column at ``doc_ids``."""
        top = max(doc_ids, default=-1)
        if top >= len(self._lengths):
            grown = np.zeros(max(2 * len(self._lengths), top + 1), dtype=np.int64)
            grown[: len(self._lengths)] = self._lengths
            # Replaced, never resized: a reader that gathered from the
            # old column keeps a consistent one.
            self._lengths = grown
        self._lengths[doc_ids] = lengths
        self.num_docs += len(doc_ids)
        self.total_length += int(np.sum(lengths))

    def subtract(self, lengths: Sequence[int], terms: Sequence[int]) -> None:
        """Count disposed documents out: documents of ``lengths``, and
        ``terms``, each document's distinct term IDs one document after
        another.  Their lengths stay in the column."""
        self.num_docs -= len(lengths)
        self.total_length -= sum(lengths)
        df = self.df
        for term in terms:
            remaining = df[term] - 1
            if remaining:
                df[term] = remaining
            else:
                del df[term]

    def doc_length(self, doc_id: int) -> int:
        """Length of ``doc_id`` (0 for unknown IDs, e.g. stuffed postings)."""
        return int(self._lengths[doc_id]) if doc_id < len(self._lengths) else 0

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
    """Okapi BM25 with the standard k1/b parameterization: one query's
    ``stats``, over the document lengths of ``lengths`` (the
    :class:`CollectionStats` of the engine holding the documents)."""

    def __init__(self, stats: QueryStats, lengths, *, k1: float = 1.2, b: float = 0.75):
        self.stats = stats
        self.lengths = lengths
        self.k1 = k1
        self.b = b

    def idf(self, term) -> float:
        """Robertson-Sparck-Jones idf, floored at 0 for very common terms."""
        n = self.stats.num_docs
        df = self.stats.df.get(term, 0)
        return max(0.0, math.log((n - df + 0.5) / (df + 0.5) + 1.0))

    def score(self, doc_id: int, term_freqs: Mapping[int, int]) -> float:
        """BM25 score of one document for the query terms in ``term_freqs``.

        ``term_freqs`` maps query term -> within-document frequency (0 or
        absent terms contribute nothing).
        """
        dl = self.lengths.doc_length(doc_id)
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
        lengths = self.lengths.lengths_of(doc_ids)
        norm = self.k1 * (
            1 - self.b + self.b * lengths / self.stats.avg_doc_length
        )
        total = np.zeros(len(doc_ids))
        for term, rows, tfs in columns:
            tf = np.asarray(tfs, dtype=np.float64)
            total[rows] += self.idf(term) * (tf * (self.k1 + 1)) / (tf + norm[rows])
        return total


class CosineScorer:
    """Cosine similarity with log-tf / idf weights (lnc.ltc style): one
    query's ``stats``, over the document lengths of ``lengths`` (as
    :class:`BM25Scorer`'s)."""

    def __init__(self, stats: QueryStats, lengths):
        self.stats = stats
        self.lengths = lengths

    def idf(self, term) -> float:
        """Classic ``log(N / df)`` idf."""
        df = self.stats.df.get(term, 0)
        if df == 0:
            return 0.0
        return math.log(max(1.0, self.stats.num_docs / df))

    def score(self, doc_id: int, term_freqs: Mapping[int, int]) -> float:
        """Cosine score, document-normalized by length as a proxy norm."""
        dl = max(1, self.lengths.doc_length(doc_id))
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
        return total / np.sqrt(np.maximum(1, self.lengths.lengths_of(doc_ids)))


#: The scorer of each ``EngineConfig.ranking``, by name.
SCORERS = {"bm25": BM25Scorer, "cosine": CosineScorer}


def score(scorer, candidates) -> Tuple[object, object]:
    """Every one of ``candidates`` scored: ascending document IDs beside
    their scores.

    ``candidates`` is a :class:`~repro.search.engine.Candidates`, whose
    term keys key ``scorer``'s statistics.  A set of at most
    :data:`SCALAR_UP_TO` postings is scored by ``score`` into two lists
    of Python numbers, a larger one by ``score_columns`` into two
    arrays; :func:`cut` takes either.
    """
    if candidates.postings <= SCALAR_UP_TO:
        rows = candidates.rows()
        return list(rows), [scorer.score(doc_id, freqs) for doc_id, freqs in rows.items()]
    doc_ids = candidates.doc_ids
    return doc_ids, scorer.score_columns(doc_ids, candidates.scoring_columns())


def contenders(scores: np.ndarray, top_k: int) -> np.ndarray:
    """Positions of every score at least the ``top_k``-th largest, ties
    included, ascending: the only ones a top-``k`` cut can keep."""
    count = len(scores)
    if count <= top_k:
        return np.arange(count)
    kth_best = np.partition(scores, count - top_k)[count - top_k]
    return np.flatnonzero(scores >= kth_best)


def cut(doc_ids, scores, top_k: int) -> List[Tuple[int, float]]:
    """The ``top_k`` best of :func:`score`'s ``(doc_ids, scores)`` as
    ``(doc_id, score)`` pairs of Python numbers, best first, equal
    scores by ascending ID.

    Exactly ``sorted(..., key=(-score, doc_id))[:top_k]`` over every
    candidate, without sorting them all: only the :func:`contenders`
    are sorted, stably, so ties stay in ID order.
    """
    if top_k <= 0 or not len(doc_ids):
        return []
    if isinstance(scores, list):
        ranked = sorted(zip([-s for s in scores], doc_ids))
        return [(doc_id, -negated) for negated, doc_id in ranked[:top_k]]
    best = contenders(scores, top_k)
    doc_ids, scores = doc_ids[best], scores[best]
    order = np.argsort(-scores, kind="stable")[:top_k]
    return list(zip(doc_ids[order].tolist(), scores[order].tolist()))


def rank(scorer, candidates, top_k: int) -> List[Tuple[int, float]]:
    """The ``top_k`` best of ``candidates``: :func:`cut` of their
    :func:`score`."""
    return cut(*score(scorer, candidates), top_k)
