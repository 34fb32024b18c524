"""The workload cost model Q of Section 3.1.

For query frequencies ``qi`` and unmerged posting-list lengths ``ti``:

* unmerged workload cost: ``Q0 = Σ_i ti · qi``;
* merged workload cost over lists ``A_1 .. A_M``:
  ``Q = Σ_j (Σ_{k∈A_j} t_k)(Σ_{k∈A_j} q_k)`` — scanning the ``i``-th list
  is replaced by scanning everything merged with it.

Choosing the partition minimizing ``Q`` is NP-complete (the paper reduces
from *minimum sum of squares*: with ``qi = ti`` the objective becomes
``Σ_j (Σ_{k∈A_j} t_k)²``), hence the heuristics in
:mod:`repro.core.merge`.  Everything here is vectorized so that full
Figure-3 sweeps over 10⁵-term universes run in milliseconds.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence

import numpy as np

from repro.core.merge import TermAssignment
from repro.errors import IndexError_
from repro.workloads.stats import WorkloadStats


def unmerged_workload_cost(stats: WorkloadStats) -> float:
    """``Q0 = Σ ti·qi`` — the cost with one posting list per term."""
    return stats.total_unmerged_cost()


def merged_workload_cost(assignment: TermAssignment, stats: WorkloadStats) -> float:
    """``Q`` under ``assignment`` — Equation (1) of the paper."""
    if assignment.num_terms != stats.num_terms:
        raise IndexError_(
            f"assignment covers {assignment.num_terms} terms, stats cover "
            f"{stats.num_terms}"
        )
    list_t = assignment.aggregate(stats.ti)
    list_q = assignment.aggregate(stats.qi)
    return float((list_t * list_q).sum())


def cost_ratio(assignment: TermAssignment, stats: WorkloadStats) -> float:
    """``Q(merged) / Q(unmerged)`` — the y-axis of Figures 3(d)-3(g).

    Returns ``1.0`` for a degenerate workload with zero unmerged cost
    (nothing is ever scanned, so merging cannot slow it down).
    """
    base = unmerged_workload_cost(stats)
    if base == 0:
        return 1.0
    return merged_workload_cost(assignment, stats) / base


def per_query_costs(
    queries: Iterable[Sequence[int]],
    assignment: TermAssignment,
    stats: WorkloadStats,
) -> np.ndarray:
    """Scan cost of each query under ``assignment``.

    A (disjunctive) query scans the merged posting list of each of its
    terms; several query terms landing in the same physical list share a
    single scan.  The cost unit is posting entries scanned — the same unit
    as Q, so summing this array over the whole log reproduces the workload
    cost (up to shared-scan dedup).

    Used for the per-query distributions of Figures 3(h) and 3(i).
    """
    list_lengths = assignment.aggregate(stats.ti)
    costs: List[float] = []
    for terms in queries:
        lists = {assignment.list_for(int(t)) for t in terms}
        costs.append(float(sum(list_lengths[l] for l in lists)))
    return np.asarray(costs, dtype=np.float64)


def per_query_unmerged_costs(
    queries: Iterable[Sequence[int]], stats: WorkloadStats
) -> np.ndarray:
    """Scan cost of each query with no merging (each term its own list)."""
    costs: List[float] = []
    ti = stats.ti
    for terms in queries:
        costs.append(float(sum(int(ti[int(t)]) for t in set(terms))))
    return np.asarray(costs, dtype=np.float64)


def query_slowdowns(
    merged: np.ndarray, unmerged: np.ndarray, *, floor: float = 1.0
) -> np.ndarray:
    """Per-query slowdown ratios, ordered by *unmerged* query cost.

    Figure 3(i) plots slowdown against the query-cost percentile: cheap
    queries suffer the most (their tiny lists got merged into block-sized
    ones) while expensive queries are nearly unaffected.  Queries with
    zero unmerged cost (all terms absent from the corpus) are clamped to
    ``floor``.

    Returns the slowdown array sorted by ascending unmerged cost, so index
    ``p%`` of the way in is the Figure 3(i) x-axis percentile.
    """
    merged = np.asarray(merged, dtype=np.float64)
    unmerged = np.asarray(unmerged, dtype=np.float64)
    if merged.shape != unmerged.shape:
        raise IndexError_("merged and unmerged cost arrays must align")
    order = np.argsort(unmerged, kind="stable")
    safe = np.maximum(unmerged[order], 1.0)
    ratios = np.maximum(merged[order] / safe, floor)
    return ratios


def minimum_sum_of_squares_cost(parts: Sequence[Sequence[float]]) -> float:
    """Objective of the minimum-sum-of-squares problem: ``Σ (Σ part)²``.

    The special case of Q with ``qi = ti`` that establishes
    NP-completeness; exposed for the reduction tests.
    """
    return float(sum(sum(p) ** 2 for p in parts))

