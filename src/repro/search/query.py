"""Query model: disjunctive, conjunctive, and time-constrained queries.

The paper's workloads contain two matching modes:

* **disjunctive** (Section 3): any document containing a subset of the
  query terms matches; ranking sorts out relevance;
* **conjunctive** (Section 4): all terms must be present ("all emails
  from X to Y"), answered by posting-list intersection.

Either may carry a commit-time constraint (Section 5: "Bob will also be
able to supply a target time range for illegal activity"), served by the
trustworthy :class:`~repro.core.time_index.CommitTimeIndex`: two binary
searches on the checked column of commit times.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.errors import QueryError


class QueryMode(enum.Enum):
    """Matching semantics of a keyword query."""

    #: Match documents containing any of the terms (ranked retrieval).
    ANY = "any"
    #: Match documents containing all of the terms (intersection).
    ALL = "all"


@dataclass(frozen=True)
class Query:
    """A parsed keyword query.

    Attributes
    ----------
    terms:
        Distinct analyzed terms, first-occurrence order.
    mode:
        Disjunctive (:attr:`QueryMode.ANY`) or conjunctive
        (:attr:`QueryMode.ALL`).
    time_range:
        Optional inclusive ``(start, end)`` commit-time constraint.
    """

    terms: Tuple[str, ...]
    mode: QueryMode = QueryMode.ANY
    time_range: Optional[Tuple[int, int]] = None

    def __post_init__(self) -> None:
        if not self.terms:
            raise QueryError("a query needs at least one term")
        if self.time_range is not None:
            start, end = self.time_range
            if end < start:
                raise QueryError(
                    f"time range end {end} precedes start {start}"
                )

    @property
    def num_terms(self) -> int:
        """Number of distinct keywords."""
        return len(self.terms)


def parse_query(text: str, *, analyzer=None) -> Query:
    """Parse user query text into a :class:`Query`.

    Syntax:

    * plain keywords — disjunctive: ``stewart waksal imclone``;
    * a leading ``+`` on *every* keyword — conjunctive:
      ``+stewart +waksal`` (mixed prefixes are rejected: partially
      conjunctive matching is not a semantics the engine offers);
    * an optional trailing ``@start..end`` commit-time constraint:
      ``+stewart +waksal @1004572800..1009843200``.
    """
    from repro.search.analyzer import Analyzer

    if analyzer is None:
        analyzer = Analyzer()
    text = text.strip()
    if not text:
        raise QueryError("empty query")
    time_range: Optional[Tuple[int, int]] = None
    if "@" in text:
        text, _, spec = text.rpartition("@")
        spec = spec.strip()
        try:
            start_s, _, end_s = spec.partition("..")
            time_range = (int(start_s), int(end_s))
        except ValueError:
            raise QueryError(f"bad time range spec '@{spec}'") from None
    raw_words = text.split()
    plussed = [w for w in raw_words if w.startswith("+")]
    if plussed and len(plussed) != len(raw_words):
        raise QueryError(
            "mix of '+term' and plain terms; use all-plus (conjunctive) "
            "or all-plain (disjunctive)"
        )
    mode = QueryMode.ALL if plussed else QueryMode.ANY
    cleaned = " ".join(w.lstrip("+") for w in raw_words)
    terms = tuple(analyzer.query_terms(cleaned))
    if not terms:
        raise QueryError(f"no indexable terms in query '{text}'")
    return Query(terms=terms, mode=mode, time_range=time_range)
