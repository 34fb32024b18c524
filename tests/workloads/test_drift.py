"""Unit tests for the drifting-popularity workload generator."""

import numpy as np
import pytest

from repro.errors import WorkloadError
from repro.workloads.drift import DriftConfig, DriftingWorkload


@pytest.fixture(scope="module")
def drift():
    return DriftingWorkload(
        DriftConfig(
            vocabulary_size=2_000,
            num_epochs=4,
            queries_per_epoch=500,
            hot_pool_size=200,
            drift_stride=20,
        )
    )


class TestPopularityRotation:
    def test_epoch_zero_matches_base_ranking(self, drift):
        pop = drift.epoch_popularity(0)
        assert pop[0] == pop.max()
        assert (np.diff(pop[:200]) < 0).all()

    def test_rotation_promotes_later_terms(self, drift):
        pop1 = drift.epoch_popularity(1)
        assert np.argmax(pop1) == 20  # shifted by one stride

    def test_tail_untouched(self, drift):
        pop0 = drift.epoch_popularity(0)
        pop3 = drift.epoch_popularity(3)
        assert np.allclose(pop0[200:], pop3[200:])

    def test_profiles_normalized(self, drift):
        for epoch_no in range(4):
            assert drift.epoch_popularity(epoch_no).sum() == pytest.approx(1.0)

    def test_overlap_declines_with_distance(self, drift):
        overlaps = [drift.hot_set_overlap(0, e, top_k=100) for e in range(4)]
        assert overlaps[0] == 1.0
        assert overlaps == sorted(overlaps, reverse=True)
        assert overlaps[1] == pytest.approx(0.8)  # stride 20 of top 100

    def test_zero_stride_is_stable(self):
        stable = DriftingWorkload(
            DriftConfig(
                vocabulary_size=500,
                num_epochs=3,
                queries_per_epoch=50,
                hot_pool_size=100,
                drift_stride=0,
            )
        )
        assert stable.hot_set_overlap(0, 2) == 1.0


class TestEpochGeneration:
    def test_deterministic(self, drift):
        a = [q.term_ids for e in drift.epochs() for q in e.queries]
        b = [q.term_ids for e in drift.epochs() for q in e.queries]
        assert a == b

    def test_qi_matches_queries(self, drift):
        for epoch in drift.epochs():
            manual = np.zeros(2_000, dtype=np.int64)
            for query in epoch.queries:
                for term in query.term_ids:
                    manual[term] += 1
            assert (manual == epoch.qi).all()

    def test_hot_terms_shift_between_epochs(self, drift):
        epochs = list(drift.epochs())
        top0 = int(np.argmax(epochs[0].qi))
        top3 = int(np.argmax(epochs[3].qi))
        assert top0 != top3

    def test_terms_distinct_within_query(self, drift):
        for epoch in drift.epochs():
            for query in epoch.queries:
                assert len(set(query.term_ids)) == len(query.term_ids)


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"vocabulary_size": 0},
            {"num_epochs": 0},
            {"queries_per_epoch": 0},
            {"hot_pool_size": 0},
            {"hot_pool_size": 10, "drift_stride": 11},
            {"terms_per_query": 0},
        ],
    )
    def test_bad_config_rejected(self, kwargs):
        base = dict(vocabulary_size=100, hot_pool_size=50, drift_stride=5)
        base.update(kwargs)
        with pytest.raises(WorkloadError):
            DriftConfig(**base)
