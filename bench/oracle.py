"""Brute-force reference answers for the generated corpus.

Built from the generated texts with the analyzer's *documented* rules
(lowercase ``[a-z0-9]+`` tokens, length >= 2, a fixed stopword list) and
nothing imported from ``repro``, so a bug in the program's analyzer or
index cannot hide in the checker.

A search is checked on what the paper promises (no committed document is
omitted, no document is returned that does not match), not on BM25
arithmetic:

* ALL: every result contains all terms and lies in the time range;
* ANY: every result contains at least one term;
* ``len(results) == min(top_k, matching documents)``;
* scores are non-increasing and no document repeats.

While clients ingest concurrently the number of matching documents at
the moment of the search is only known to lie between two bounds
(documents acknowledged before the search was sent, documents ever
ingested); ``check_search`` takes both and requires the length to lie
between them.  With one client the bounds coincide.
"""

from __future__ import annotations

import re
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

_TOKEN = re.compile(r"[a-z0-9]+")
_STOPWORDS = frozenset(
    """a an and are as at be but by for if in into is it no not of on or
    such that the their then there these they this to was will with""".split()
)

#: One returned hit as the checker sees it: ``(doc_id, score)``.
Hit = Tuple[int, float]


def analyze(text: str) -> List[str]:
    """Distinct index terms of ``text`` in first-occurrence order."""
    return list(
        dict.fromkeys(
            token
            for token in _TOKEN.findall(text.lower())
            if len(token) >= 2 and token not in _STOPWORDS
        )
    )


def parse(query: str) -> Tuple[List[str], bool, Optional[Tuple[int, int]]]:
    """``(terms, conjunctive, time_range)`` of a generated query string."""
    time_range = None
    if "@" in query:
        query, _, spec = query.rpartition("@")
        start, _, end = spec.strip().partition("..")
        time_range = (int(start), int(end))
    words = query.split()
    conjunctive = bool(words) and all(word.startswith("+") for word in words)
    return analyze(query), conjunctive, time_range


class Oracle:
    """Term -> document-id sets over every document the run committed."""

    def __init__(self) -> None:
        self._docs_of: Dict[str, Set[int]] = {}
        self._commit_time: Dict[int, int] = {}

    def add(self, doc_id: int, text: str, commit_time: Optional[int] = None) -> None:
        """Register a committed document under the ID the program gave it.

        ``commit_time`` defaults to the ID, which is what the engine
        assigns when a single client ingests without explicit times.
        """
        for token in analyze(text):
            self._docs_of.setdefault(token, set()).add(doc_id)
        self._commit_time[doc_id] = doc_id if commit_time is None else commit_time

    def __len__(self) -> int:
        return len(self._commit_time)

    def matching(self, query: str) -> Set[int]:
        """Every committed document the query must be able to return."""
        terms, conjunctive, time_range = parse(query)
        sets = [self._docs_of.get(term, set()) for term in terms]
        if not sets:
            return set()
        matched = set.intersection(*sets) if conjunctive else set.union(*sets)
        if time_range is not None:
            start, end = time_range
            matched = {d for d in matched if start <= self._commit_time[d] <= end}
        return matched

    def check_search(
        self,
        query: str,
        hits: Sequence[Hit],
        *,
        top_k: int,
        visible: Optional[Iterable[int]] = None,
    ) -> List[str]:
        """Reasons ``hits`` is a wrong answer to ``query`` (empty = right).

        ``visible`` is the set of documents known to be committed before
        the search was sent (default: all of them).
        """
        problems = []
        matched = self.matching(query)
        doc_ids = [doc_id for doc_id, _ in hits]
        if len(set(doc_ids)) != len(doc_ids):
            problems.append("a document is returned twice")
        wrong = [d for d in doc_ids if d not in matched]
        if wrong:
            problems.append(f"documents {wrong[:3]} do not match the query")
        at_most = min(top_k, len(matched))
        at_least = at_most
        if visible is not None:
            at_least = min(top_k, len(matched.intersection(visible)))
        if not at_least <= len(doc_ids) <= at_most:
            problems.append(
                f"{len(doc_ids)} results where {at_least}..{at_most} are committed"
            )
        scores = [score for _, score in hits]
        if any(later > earlier for earlier, later in zip(scores, scores[1:])):
            problems.append("scores increase down the ranking")
        return problems


def check_read_back(id_token: str, doc_id: int, hits: Sequence[Hit]) -> List[str]:
    """A document's id token must return exactly that document."""
    found = [d for d, _ in hits]
    if found != [doc_id]:
        return [f"id token {id_token} returned {found}, committed as {doc_id}"]
    return []
