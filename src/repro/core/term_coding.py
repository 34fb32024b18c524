"""Huffman model for per-entry keyword encodings (Section 3, optional).

When posting lists are merged, each entry carries "(an encoding of) the
keyword", costing ``log2(q)`` bits for ``q`` merged terms.  The paper
notes: "This overhead can be reduced further if an encoding scheme like
Huffman encoding is used, since keyword occurrences within merged
posting lists are unlikely to be uniformly distributed" — and excludes
the refinement from its analysis.

This module implements that refinement *as a model*: given the posting
counts of the terms sharing a list, it builds the optimal prefix code
and reports the expected code length, quantifying how much of the
``log2(q)``-bit budget Zipfian skew gives back.  The storage layer keeps
fixed-width codes (as the paper's analysis does); the model feeds the
space accounting and the ABL-TERMCODE ablation benchmark.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Dict, Mapping

from repro.errors import IndexError_


@dataclass
class HuffmanCode:
    """An optimal prefix code over a term-frequency profile.

    Attributes
    ----------
    lengths:
        Code length in bits per term (term -> bits).
    counts:
        The posting counts the code was built from.
    """

    lengths: Dict[int, int]
    counts: Dict[int, int]

    @property
    def num_terms(self) -> int:
        """Number of coded terms (q)."""
        return len(self.lengths)

    def expected_bits(self) -> float:
        """Posting-count-weighted mean code length.

        The per-entry cost a merged list would actually pay, against the
        paper's fixed ``ceil(log2(q))``.
        """
        total = sum(self.counts.values())
        if total == 0:
            return 0.0
        return (
            sum(self.lengths[t] * c for t, c in self.counts.items()) / total
        )

    def fixed_width_bits(self) -> int:
        """The fixed-width cost the paper's analysis assumes."""
        if self.num_terms <= 1:
            return 0
        return math.ceil(math.log2(self.num_terms))


def build_huffman_code(posting_counts: Mapping[int, int]) -> HuffmanCode:
    """Build the optimal prefix code for one merged list's term mix.

    Parameters
    ----------
    posting_counts:
        term -> number of postings that term contributes to the list.
        Zero-count terms are excluded (they never appear in an entry, so
        they need no code).
    """
    counts = {int(t): int(c) for t, c in posting_counts.items() if c > 0}
    if not counts:
        raise IndexError_("cannot build a code over zero postings")
    if len(counts) == 1:
        term = next(iter(counts))
        return HuffmanCode(lengths={term: 0}, counts=counts)
    # Standard Huffman: merge the two lightest subtrees until one remains;
    # a term's depth is how many merges its subtree went through.
    heap = [(c, i, (t,)) for i, (t, c) in enumerate(sorted(counts.items()))]
    heapq.heapify(heap)
    lengths = {t: 0 for t in counts}
    tiebreak = len(heap)
    while len(heap) > 1:
        c1, _, terms1 = heapq.heappop(heap)
        c2, _, terms2 = heapq.heappop(heap)
        for t in terms1 + terms2:
            lengths[t] += 1
        heapq.heappush(heap, (c1 + c2, tiebreak, terms1 + terms2))
        tiebreak += 1
    return HuffmanCode(lengths=lengths, counts=counts)


def entropy_bits(posting_counts: Mapping[int, int]) -> float:
    """Shannon entropy of the term mix — the code-length lower bound."""
    total = sum(c for c in posting_counts.values() if c > 0)
    if total <= 0:
        return 0.0
    h = 0.0
    for c in posting_counts.values():
        if c > 0:
            p = c / total
            h -= p * math.log2(p)
    return h
