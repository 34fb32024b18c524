"""Unit + property tests for the workload cost model Q (Section 3.1)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cost_model import (
    cost_ratio,
    merged_workload_cost,
    minimum_sum_of_squares_cost,
    per_query_costs,
    per_query_unmerged_costs,
    query_slowdowns,
    unmerged_workload_cost,
)
from repro.core.merge import TermAssignment, UniformHashMerge
from repro.errors import IndexError_
from repro.workloads.stats import WorkloadStats


@pytest.fixture()
def stats():
    return WorkloadStats(ti=np.array([10, 20, 5, 1]), qi=np.array([3, 1, 7, 2]))


class TestWorkloadCost:
    def test_unmerged(self, stats):
        assert unmerged_workload_cost(stats) == 10 * 3 + 20 * 1 + 5 * 7 + 1 * 2

    def test_merged_hand_computed(self, stats):
        # Lists: {0, 2} and {1, 3}.
        ta = TermAssignment(list_ids=np.array([0, 1, 0, 1]), num_lists=2)
        expected = (10 + 5) * (3 + 7) + (20 + 1) * (1 + 2)
        assert merged_workload_cost(ta, stats) == expected

    def test_degenerate_single_list(self, stats):
        ta = TermAssignment(list_ids=np.zeros(4, dtype=np.int64), num_lists=1)
        assert merged_workload_cost(ta, stats) == (36) * (13)

    def test_identity_merge_equals_unmerged(self, stats):
        ta = TermAssignment(list_ids=np.arange(4), num_lists=4)
        assert merged_workload_cost(ta, stats) == unmerged_workload_cost(stats)
        assert cost_ratio(ta, stats) == pytest.approx(1.0)

    def test_mismatched_universe_rejected(self, stats):
        ta = TermAssignment(list_ids=np.array([0]), num_lists=1)
        with pytest.raises(IndexError_):
            merged_workload_cost(ta, stats)

    def test_zero_workload_ratio_is_one(self):
        stats = WorkloadStats(ti=np.array([5, 5]), qi=np.array([0, 0]))
        ta = TermAssignment(list_ids=np.array([0, 0]), num_lists=1)
        assert cost_ratio(ta, stats) == 1.0

    @given(
        n=st.integers(min_value=1, max_value=60),
        m=st.integers(min_value=1, max_value=8),
        seed=st.integers(min_value=0, max_value=1000),
    )
    @settings(max_examples=60, deadline=None)
    def test_property_merging_never_cheaper(self, n, m, seed):
        """(Σt)(Σq) >= Σ tq for non-negative frequencies: ratio >= 1."""
        rng = np.random.default_rng(seed)
        stats = WorkloadStats(
            ti=rng.integers(0, 100, n), qi=rng.integers(0, 100, n)
        )
        ta = UniformHashMerge(m).assign(n)
        assert cost_ratio(ta, stats) >= 1.0 - 1e-12


class TestPerQueryCosts:
    def test_unmerged_costs(self, stats):
        queries = [[0, 1], [2], [0, 0]]
        costs = per_query_unmerged_costs(queries, stats)
        assert list(costs) == [30.0, 5.0, 10.0]

    def test_merged_costs_dedupe_shared_lists(self, stats):
        ta = TermAssignment(list_ids=np.array([0, 0, 1, 1]), num_lists=2)
        # Terms 0 and 1 share list 0 (length 30): scanned once.
        costs = per_query_costs([[0, 1]], ta, stats)
        assert list(costs) == [30.0]

    def test_merged_cost_of_multi_list_query(self, stats):
        ta = TermAssignment(list_ids=np.array([0, 0, 1, 1]), num_lists=2)
        costs = per_query_costs([[0, 2]], ta, stats)
        assert list(costs) == [30.0 + 6.0]


class TestSlowdowns:
    def test_sorted_by_unmerged_cost(self):
        merged = np.array([100.0, 10.0, 50.0])
        unmerged = np.array([50.0, 10.0, 1.0])
        ratios = query_slowdowns(merged, unmerged)
        # Order by unmerged cost: [1, 10, 50] -> ratios [50, 1, 2].
        assert list(ratios) == [50.0, 1.0, 2.0]

    def test_floor_applied(self):
        ratios = query_slowdowns(np.array([0.5]), np.array([1.0]))
        assert list(ratios) == [1.0]

    def test_zero_unmerged_cost_clamped(self):
        ratios = query_slowdowns(np.array([5.0]), np.array([0.0]))
        assert list(ratios) == [5.0]

    def test_shape_mismatch_rejected(self):
        with pytest.raises(IndexError_):
            query_slowdowns(np.array([1.0]), np.array([1.0, 2.0]))


class TestNpCompletenessReduction:
    def test_q_reduces_to_min_sum_squares_when_ti_equals_qi(self):
        """The reduction the paper cites: qi = ti makes Q = Σ (Σ part)^2."""
        ti = np.array([3, 1, 4, 1, 5])
        stats = WorkloadStats(ti=ti, qi=ti.copy())
        ta = TermAssignment(list_ids=np.array([0, 0, 1, 1, 1]), num_lists=2)
        parts = [[3, 1], [4, 1, 5]]
        assert merged_workload_cost(ta, stats) == minimum_sum_of_squares_cost(parts)
