"""Workload statistics: the ``ti`` / ``qi`` arrays behind every Figure-3 plot.

:class:`WorkloadStats` bundles the two per-term frequency vectors the
paper's cost model is built from:

* ``ti`` — term frequency: the number of documents containing term *i*,
  i.e. the length of its unmerged posting list;
* ``qi`` — query frequency: the number of queries containing term *i*.

and provides the derived series the figures plot: rank-ordered
distributions (3(a)/3(b)), cumulative workload-cost curves by QF- and
TF-rank (3(c)), and top-k popular-term selections used by the merging
heuristics (3(d)-3(g)).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.errors import WorkloadError


@dataclass
class WorkloadStats:
    """Per-term frequency statistics for a corpus + query-log pair.

    Both arrays are indexed by term ID and must have equal length.
    """

    ti: np.ndarray
    qi: np.ndarray

    def __post_init__(self) -> None:
        self.ti = np.asarray(self.ti, dtype=np.int64)
        self.qi = np.asarray(self.qi, dtype=np.int64)
        if self.ti.shape != self.qi.shape or self.ti.ndim != 1:
            raise WorkloadError(
                f"ti and qi must be 1-D arrays of equal length, got "
                f"{self.ti.shape} and {self.qi.shape}"
            )
        if np.any(self.ti < 0) or np.any(self.qi < 0):
            raise WorkloadError("frequencies must be non-negative")

    @property
    def num_terms(self) -> int:
        """Size of the term universe."""
        return len(self.ti)

    # ------------------------------------------------------------------
    # rank-ordered views (Figures 3(a), 3(b))
    # ------------------------------------------------------------------
    def tf_ranked(self) -> np.ndarray:
        """``ti`` sorted descending — the Figure 3(a) series."""
        return np.sort(self.ti)[::-1]

    def qf_ranked(self) -> np.ndarray:
        """``qi`` sorted descending — the Figure 3(b) series."""
        return np.sort(self.qi)[::-1]

    def top_terms_by_tf(self, k: int) -> np.ndarray:
        """Term IDs of the ``k`` most document-frequent terms."""
        return self._top_terms(self.ti, k)

    def top_terms_by_qf(self, k: int) -> np.ndarray:
        """Term IDs of the ``k`` most query-frequent terms."""
        return self._top_terms(self.qi, k)

    @staticmethod
    def _top_terms(values: np.ndarray, k: int) -> np.ndarray:
        if k < 0:
            raise WorkloadError(f"k must be non-negative, got {k}")
        k = min(k, len(values))
        if k == 0:
            return np.empty(0, dtype=np.int64)
        # argpartition then sort gives the exact top-k ordering cheaply.
        top = np.argpartition(values, -k)[-k:]
        return top[np.argsort(values[top])[::-1]].astype(np.int64)

    # ------------------------------------------------------------------
    # workload cost (Figure 3(c))
    # ------------------------------------------------------------------
    def per_term_cost(self) -> np.ndarray:
        """Each term's contribution ``ti * qi`` to the unmerged cost Q."""
        return self.ti.astype(np.float64) * self.qi.astype(np.float64)

    def total_unmerged_cost(self) -> float:
        """The unmerged workload cost ``Q = Σ ti·qi`` (Section 3.1)."""
        return float(self.per_term_cost().sum())

    def cumulative_cost_by_qf_rank(self, top_k: Optional[int] = None) -> np.ndarray:
        """Cumulative Σ ti·qi over terms in descending-``qi`` order.

        The 'QF' curve of Figure 3(c); it saturates fast because the most
        queried terms carry almost all of the workload cost.
        """
        return self._cumulative_cost(np.argsort(self.qi)[::-1], top_k)

    def cumulative_cost_by_tf_rank(self, top_k: Optional[int] = None) -> np.ndarray:
        """Cumulative Σ ti·qi over terms in descending-``ti`` order.

        The 'TF' curve of Figure 3(c); it saturates more slowly because
        some document-frequent terms are rarely queried.
        """
        return self._cumulative_cost(np.argsort(self.ti)[::-1], top_k)

    def _cumulative_cost(self, order: np.ndarray, top_k: Optional[int]) -> np.ndarray:
        costs = self.per_term_cost()[order]
        if top_k is not None:
            costs = costs[:top_k]
        return np.cumsum(costs)

    # ------------------------------------------------------------------
    # correlation diagnostics
    # ------------------------------------------------------------------
    def rank_correlation(self) -> float:
        """Spearman rank correlation between ``ti`` and ``qi``.

        The paper observes a strong positive correlation; generators in
        this package are validated against that property.
        """
        def ranks(values: np.ndarray) -> np.ndarray:
            # Average ranks over ties (proper Spearman): frequency vectors
            # are full of ties (most terms share qi = 0).
            order = np.argsort(values, kind="stable")
            sorted_values = values[order]
            r = np.empty(len(values), dtype=np.float64)
            i = 0
            while i < len(values):
                j = i
                while j + 1 < len(values) and sorted_values[j + 1] == sorted_values[i]:
                    j += 1
                r[order[i : j + 1]] = (i + j) / 2.0
                i = j + 1
            return r

        rt, rq = ranks(self.ti), ranks(self.qi)
        rt -= rt.mean()
        rq -= rq.mean()
        denom = np.sqrt((rt**2).sum() * (rq**2).sum())
        if denom == 0:
            return 0.0
        return float((rt * rq).sum() / denom)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"WorkloadStats(terms={self.num_terms}, "
            f"docs-with-terms={int(self.ti.sum())}, query-terms={int(self.qi.sum())})"
        )
