"""Unit tests for the workload statistics (ti/qi machinery)."""

import numpy as np
import pytest

from repro.errors import WorkloadError
from repro.workloads.stats import WorkloadStats


@pytest.fixture()
def stats():
    ti = np.array([100, 50, 10, 5, 1, 0])
    qi = np.array([80, 2, 40, 1, 0, 3])
    return WorkloadStats(ti=ti, qi=qi)


class TestRankedViews:
    def test_tf_ranked_descending(self, stats):
        assert list(stats.tf_ranked()) == [100, 50, 10, 5, 1, 0]

    def test_qf_ranked_descending(self, stats):
        assert list(stats.qf_ranked()) == [80, 40, 3, 2, 1, 0]

    def test_top_terms_by_tf(self, stats):
        assert list(stats.top_terms_by_tf(2)) == [0, 1]

    def test_top_terms_by_qf(self, stats):
        assert list(stats.top_terms_by_qf(3)) == [0, 2, 5]

    def test_top_terms_k_larger_than_universe(self, stats):
        assert len(stats.top_terms_by_tf(100)) == 6

    def test_top_terms_zero(self, stats):
        assert len(stats.top_terms_by_qf(0)) == 0

    def test_top_terms_negative_rejected(self, stats):
        with pytest.raises(WorkloadError):
            stats.top_terms_by_tf(-1)


class TestCost:
    def test_per_term_cost(self, stats):
        expected = [8000, 100, 400, 5, 0, 0]
        assert list(stats.per_term_cost()) == expected

    def test_total_unmerged_cost(self, stats):
        assert stats.total_unmerged_cost() == 8505.0

    def test_cumulative_by_qf_saturates_faster_than_tf(self, stats):
        """Figure 3(c): the QF curve reaches the total sooner."""
        qf = stats.cumulative_cost_by_qf_rank()
        tf = stats.cumulative_cost_by_tf_rank()
        assert qf[-1] == tf[-1] == stats.total_unmerged_cost()
        assert qf[1] >= tf[1]

    def test_cumulative_top_k(self, stats):
        assert len(stats.cumulative_cost_by_tf_rank(top_k=3)) == 3

    def test_cumulative_monotone(self, stats):
        for curve in (
            stats.cumulative_cost_by_qf_rank(),
            stats.cumulative_cost_by_tf_rank(),
        ):
            assert (np.diff(curve) >= 0).all()


class TestDiagnostics:
    def test_rank_correlation_perfect(self):
        ti = np.array([10, 9, 8, 7])
        s = WorkloadStats(ti=ti, qi=ti.copy())
        assert s.rank_correlation() == pytest.approx(1.0)

    def test_rank_correlation_inverted(self):
        s = WorkloadStats(ti=np.array([4, 3, 2, 1]), qi=np.array([1, 2, 3, 4]))
        assert s.rank_correlation() == pytest.approx(-1.0)

    def test_rank_correlation_constant_is_zero(self):
        s = WorkloadStats(ti=np.array([5, 5, 5]), qi=np.array([1, 2, 3]))
        assert s.rank_correlation() == 0.0

class TestValidation:
    def test_mismatched_shapes_rejected(self):
        with pytest.raises(WorkloadError):
            WorkloadStats(ti=np.array([1, 2]), qi=np.array([1]))

    def test_negative_frequencies_rejected(self):
        with pytest.raises(WorkloadError):
            WorkloadStats(ti=np.array([-1]), qi=np.array([0]))
