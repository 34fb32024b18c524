"""Posting-list merging strategies (Section 3.3).

Merging many term posting lists into ``M`` physical lists — with ``M`` no
larger than the number of storage-cache blocks — is what makes real-time
trustworthy index update affordable: every posting append then hits the
non-volatile cache, costing on average one random I/O per document
(Section 3).

A strategy's output is a :class:`TermAssignment`: a total map from term ID
to physical list ID.  Strategies implemented:

* :class:`UniformHashMerge` — hash every term uniformly into ``M`` lists.
  The paper's practical recommendation ("uniform merging, being
  straightforward to implement, is likely to be the method of choice").
* :class:`PopularUnmergedMerge` — give each of the top-``k`` popular terms
  (by query frequency ``qi`` or term frequency ``ti``) a dedicated
  singleton list; hash the rest into the remaining ``M - k`` lists.  The
  "1000 terms" / "10000 terms" curves of Figures 3(d)/3(e).
* :class:`LearnedPopularMerge` — same, but the popular set is learned from
  a *prefix* of the workload (the Figures 3(f)/3(g) stability experiment
  and the epoch scheme of Section 3.3).
* :class:`GreedyCostMerge` — a cost-model-driven heuristic for the
  NP-complete optimal-merging problem (Section 3.1 reduces it from
  minimum sum of squares): balance terms across lists so the products
  ``(Σ t)(Σ q)`` stay small.  Not in the paper's evaluation; provided as
  the natural "how much headroom do the heuristics leave" ablation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.errors import IndexError_, WorkloadError


_MASK64 = 0xFFFFFFFFFFFFFFFF


def _splitmix64(num_terms: int, salt: int) -> np.ndarray:
    """Deterministic 64-bit mix (splitmix64 finalizer) of term IDs
    ``0 .. num_terms - 1``, as one ``uint64`` column.

    Python's builtin ``hash`` is randomized per process for strings and
    not guaranteed stable across versions for our purposes; merging
    decisions must be reproducible, so we mix explicitly.  ``uint64``
    arithmetic wraps, which is the mix's ``& 0xFFFF…`` after every step.
    """
    with np.errstate(over="ignore"):
        x = np.arange(num_terms, dtype=np.uint64)
        x += np.uint64((0x9E3779B97F4A7C15 * (salt + 1)) & _MASK64)
        x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        return x ^ (x >> np.uint64(31))


@dataclass
class TermAssignment:
    """A total map from term ID to physical (merged) posting-list ID.

    Attributes
    ----------
    list_ids:
        ``list_ids[term] = physical list`` array of length ``num_terms``.
    num_lists:
        Number of physical lists ``M``.
    """

    list_ids: np.ndarray
    num_lists: int

    def __post_init__(self) -> None:
        self.list_ids = np.asarray(self.list_ids, dtype=np.int64)
        if self.list_ids.ndim != 1:
            raise IndexError_("list_ids must be a 1-D array")
        if self.num_lists <= 0:
            raise IndexError_(f"num_lists must be positive, got {self.num_lists}")
        if len(self.list_ids) and (
            self.list_ids.min() < 0 or self.list_ids.max() >= self.num_lists
        ):
            raise IndexError_(
                f"list ids must lie in [0, {self.num_lists}); got range "
                f"[{self.list_ids.min()}, {self.list_ids.max()}]"
            )

    @property
    def num_terms(self) -> int:
        """Size of the term universe."""
        return len(self.list_ids)

    def list_for(self, term_id: int) -> int:
        """Physical list holding ``term_id``'s postings."""
        return int(self.list_ids[term_id])

    def terms_in_list(self, list_id: int) -> np.ndarray:
        """All term IDs assigned to physical list ``list_id``."""
        return np.nonzero(self.list_ids == list_id)[0]

    def aggregate(self, per_term: np.ndarray) -> np.ndarray:
        """Sum a per-term vector (e.g. ``ti``) into per-list totals.

        The workhorse behind the cost model: ``Σ_{k in A_i} t_k`` for every
        list ``i`` in one vectorized pass.
        """
        per_term = np.asarray(per_term, dtype=np.float64)
        if per_term.shape != self.list_ids.shape:
            raise IndexError_(
                f"per_term must have shape {self.list_ids.shape}, "
                f"got {per_term.shape}"
            )
        return np.bincount(self.list_ids, weights=per_term, minlength=self.num_lists)


class MergeStrategy:
    """Interface: derive a :class:`TermAssignment` for a term universe.

    Strategies must be *stable under universe growth*: for any
    ``n' > n``, ``assign(n')`` must map terms ``0 .. n-1`` exactly as
    ``assign(n)`` did — an incremental engine re-asks with a larger
    universe as its lexicon grows, and committed postings cannot move.
    Strategies built from full-universe statistics (e.g.
    :class:`GreedyCostMerge`) instead declare a fixed universe via
    :meth:`universe_size`.
    """

    def assign(self, num_terms: int) -> TermAssignment:
        """Produce the assignment for terms ``0 .. num_terms - 1``."""
        raise NotImplementedError

    def universe_size(self) -> Optional[int]:
        """Fixed universe this strategy was built for (``None`` = any)."""
        return None


class UniformHashMerge(MergeStrategy):
    """Hash every term uniformly into ``num_lists`` physical lists.

    The "0 term" curves of Figures 3(d)/3(e) and the scheme validated on
    the real search engine in Section 3.5.
    """

    def __init__(self, num_lists: int, *, salt: int = 0):
        if num_lists <= 0:
            raise IndexError_(f"num_lists must be positive, got {num_lists}")
        self.num_lists = num_lists
        self.salt = salt

    def assign(self, num_terms: int) -> TermAssignment:
        """Assign each term to ``hash(term) mod num_lists``."""
        ids = _splitmix64(num_terms, self.salt) % np.uint64(self.num_lists)
        return TermAssignment(list_ids=ids, num_lists=self.num_lists)


class PopularUnmergedMerge(MergeStrategy):
    """Dedicated singleton lists for popular terms; hash the rest.

    Parameters
    ----------
    num_lists:
        Total number of physical lists ``M`` (cache blocks).
    popular_terms:
        Term IDs that receive their own unmerged list (e.g. the top 1,000
        by ``qi``).  Must number strictly fewer than ``num_lists``.
    salt:
        Hash salt for the merged remainder.
    """

    def __init__(self, num_lists: int, popular_terms: Sequence[int], *, salt: int = 0):
        popular = np.asarray(list(popular_terms), dtype=np.int64)
        if len(np.unique(popular)) != len(popular):
            raise IndexError_("popular_terms contains duplicates")
        if num_lists <= len(popular):
            raise IndexError_(
                f"num_lists={num_lists} must exceed the {len(popular)} "
                "popular terms (each needs its own list, plus at least one "
                "merged list)"
            )
        self.num_lists = num_lists
        self.popular_terms = popular
        self.salt = salt

    def assign(self, num_terms: int) -> TermAssignment:
        """Popular terms get lists ``0..k-1``; the rest hash into ``k..M-1``."""
        k = len(self.popular_terms)
        merged_lists = self.num_lists - k
        hashed = _splitmix64(num_terms, self.salt) % np.uint64(merged_lists)
        ids = hashed.astype(np.int64) + k
        # A popular term keeps its own position's list whichever others
        # the universe has grown to hold yet (stability under growth).
        in_range = self.popular_terms < num_terms
        ids[self.popular_terms[in_range]] = np.flatnonzero(in_range)
        return TermAssignment(list_ids=ids, num_lists=self.num_lists)


class LearnedPopularMerge(MergeStrategy):
    """Popular-unmerged strategy with the popular set *learned* from a prefix.

    The Figures 3(f)/3(g) experiment: compute the most popular terms from
    the first fraction of the workload (documents crawled / queries
    submitted) and use them to make merging decisions for the entire
    index.  The learning itself happens in
    :func:`repro.core.epochs.learn_popular_terms`; this class just carries
    the resulting set plus provenance for reporting.
    """

    def __init__(
        self,
        num_lists: int,
        learned_popular_terms: Sequence[int],
        *,
        learned_from_fraction: float,
        by: str,
        salt: int = 0,
    ):
        if not 0 < learned_from_fraction <= 1:
            raise WorkloadError(
                f"learned_from_fraction must be in (0, 1], got {learned_from_fraction}"
            )
        if by not in ("qi", "ti"):
            raise WorkloadError(f"by must be 'qi' or 'ti', got {by!r}")
        self._inner = PopularUnmergedMerge(num_lists, learned_popular_terms, salt=salt)
        #: Fraction of the workload the popular set was learned from.
        self.learned_from_fraction = learned_from_fraction
        #: Which statistic ranked the popular terms ('qi' or 'ti').
        self.by = by

    @property
    def num_lists(self) -> int:
        """Total number of physical lists."""
        return self._inner.num_lists

    @property
    def popular_terms(self) -> np.ndarray:
        """The learned popular-term set."""
        return self._inner.popular_terms

    def assign(self, num_terms: int) -> TermAssignment:
        """Delegate to the popular-unmerged assignment."""
        return self._inner.assign(num_terms)


class GreedyCostMerge(MergeStrategy):
    """Cost-aware greedy heuristic for the NP-complete merging problem.

    Sorts terms by their cost contribution ``sqrt(ti * qi)`` descending
    and assigns each to the list where it least increases the workload
    cost ``(Σ t)(Σ q)``.  This is the longest-processing-time idea for the
    minimum-sum-of-squares problem the paper reduces from.

    Quadratic-ish in practice (``num_terms × num_lists`` for the heavy
    prefix), so it is applied exactly to the ``exact_top`` costliest terms
    and round-robins the cheap tail — the tail's contribution to Q is
    negligible under Zipf.
    """

    def __init__(
        self,
        num_lists: int,
        ti: np.ndarray,
        qi: np.ndarray,
        *,
        exact_top: int = 2000,
    ):
        if num_lists <= 0:
            raise IndexError_(f"num_lists must be positive, got {num_lists}")
        self.num_lists = num_lists
        self.ti = np.asarray(ti, dtype=np.float64)
        self.qi = np.asarray(qi, dtype=np.float64)
        if self.ti.shape != self.qi.shape:
            raise IndexError_("ti and qi must have equal shapes")
        self.exact_top = exact_top

    def universe_size(self) -> Optional[int]:
        """Fixed to the statistics arrays the strategy was built from."""
        return len(self.ti)

    def assign(self, num_terms: int) -> TermAssignment:
        """Greedy assignment of the costly prefix; round-robin tail."""
        if num_terms != len(self.ti):
            raise IndexError_(
                f"strategy was built for {len(self.ti)} terms, asked for {num_terms}"
            )
        weight = np.sqrt(self.ti * self.qi) + 1e-9 * (self.ti + self.qi)
        order = np.argsort(weight)[::-1]
        head = order[: self.exact_top]
        tail = order[self.exact_top :]
        ids = np.empty(num_terms, dtype=np.int64)
        list_t = np.zeros(self.num_lists, dtype=np.float64)
        list_q = np.zeros(self.num_lists, dtype=np.float64)
        for term in head:
            t, q = self.ti[term], self.qi[term]
            # Marginal increase of (Σt)(Σq) when adding this term to each list.
            delta = (list_t + t) * (list_q + q) - list_t * list_q
            target = int(np.argmin(delta))
            ids[term] = target
            list_t[target] += t
            list_q[target] += q
        # Round-robin the cheap tail over lists in ascending-load order,
        # so light/empty lists absorb it before the heavy head lists do.
        light_first = np.argsort(list_t * list_q, kind="stable").astype(np.int64)
        ids[tail] = light_first[np.arange(len(tail), dtype=np.int64) % self.num_lists]
        return TermAssignment(list_ids=ids, num_lists=self.num_lists)


def lists_for_cache(cache_size_bytes: int, block_size: int) -> int:
    """The paper's ``M = cache size / block size`` sizing rule (Section 3.4)."""
    if cache_size_bytes <= 0 or block_size <= 0:
        raise IndexError_("cache size and block size must be positive")
    return max(1, cache_size_bytes // block_size)
