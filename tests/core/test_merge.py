"""Unit tests for the merging strategies and term assignments."""

import hashlib
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.merge import (
    GreedyCostMerge,
    LearnedPopularMerge,
    PopularUnmergedMerge,
    TermAssignment,
    UniformHashMerge,
    lists_for_cache,
)
from repro.errors import IndexError_, WorkloadError
from repro.workloads.stats import WorkloadStats


class TestTermAssignment:
    def test_basic_accessors(self):
        ta = TermAssignment(list_ids=np.array([0, 1, 0, 2]), num_lists=3)
        assert ta.num_terms == 4
        assert ta.list_for(2) == 0
        assert list(ta.terms_in_list(0)) == [0, 2]
        assert list(ta.terms_per_list()) == [2, 1, 1]

    def test_aggregate(self):
        ta = TermAssignment(list_ids=np.array([0, 1, 0]), num_lists=2)
        agg = ta.aggregate(np.array([10.0, 5.0, 7.0]))
        assert list(agg) == [17.0, 5.0]

    def test_aggregate_shape_mismatch_rejected(self):
        ta = TermAssignment(list_ids=np.array([0]), num_lists=1)
        with pytest.raises(IndexError_):
            ta.aggregate(np.array([1.0, 2.0]))

    def test_out_of_range_list_ids_rejected(self):
        with pytest.raises(IndexError_):
            TermAssignment(list_ids=np.array([0, 3]), num_lists=3)
        with pytest.raises(IndexError_):
            TermAssignment(list_ids=np.array([-1]), num_lists=3)

    def test_nonpositive_num_lists_rejected(self):
        with pytest.raises(IndexError_):
            TermAssignment(list_ids=np.array([], dtype=np.int64), num_lists=0)


class TestUniformHashMerge:
    def test_covers_all_lists_roughly_evenly(self):
        ta = UniformHashMerge(16).assign(16_000)
        per_list = ta.terms_per_list()
        assert per_list.min() > 0
        assert per_list.max() < 3 * per_list.mean()

    def test_deterministic(self):
        a = UniformHashMerge(8).assign(100)
        b = UniformHashMerge(8).assign(100)
        assert (a.list_ids == b.list_ids).all()

    def test_salt_changes_assignment(self):
        a = UniformHashMerge(8, salt=0).assign(100)
        b = UniformHashMerge(8, salt=1).assign(100)
        assert (a.list_ids != b.list_ids).any()

    def test_stable_under_universe_growth(self):
        strategy = UniformHashMerge(32)
        small = strategy.assign(100)
        large = strategy.assign(1000)
        assert (large.list_ids[:100] == small.list_ids).all()
        assert strategy.universe_size() is None

    def test_invalid_num_lists_rejected(self):
        with pytest.raises(IndexError_):
            UniformHashMerge(0)


class TestPopularUnmergedMerge:
    def test_popular_terms_get_singleton_lists(self):
        strategy = PopularUnmergedMerge(10, popular_terms=[42, 7])
        ta = strategy.assign(100)
        assert ta.list_for(42) == 0
        assert ta.list_for(7) == 1
        assert list(ta.terms_in_list(0)) == [42]
        assert list(ta.terms_in_list(1)) == [7]

    def test_remainder_hashes_into_other_lists(self):
        ta = PopularUnmergedMerge(10, popular_terms=[0]).assign(100)
        others = ta.list_ids[1:]
        assert (others >= 1).all()
        assert (others < 10).all()

    def test_stable_under_universe_growth(self):
        strategy = PopularUnmergedMerge(10, popular_terms=[3])
        small = strategy.assign(50)
        large = strategy.assign(500)
        assert (large.list_ids[:50] == small.list_ids).all()

    def test_popular_out_of_universe_ignored(self):
        ta = PopularUnmergedMerge(10, popular_terms=[999]).assign(10)
        assert (ta.list_ids >= 1).all()  # no term got the singleton list

    def test_duplicates_rejected(self):
        with pytest.raises(IndexError_):
            PopularUnmergedMerge(10, popular_terms=[1, 1])

    def test_too_many_popular_rejected(self):
        with pytest.raises(IndexError_):
            PopularUnmergedMerge(2, popular_terms=[1, 2])


def _stable_hash(term_id: int, salt: int) -> int:
    """The splitmix64 finalizer a term at a time, masking by hand: the
    scalar the vector hash replaced, kept as its reference."""
    x = (term_id + 0x9E3779B97F4A7C15 * (salt + 1)) & 0xFFFFFFFFFFFFFFFF
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return x ^ (x >> 31)


_salts = st.one_of(st.integers(-3, 40), st.integers(-(2**70), 2**70))
_popular_sets = st.lists(st.integers(0, 3000), max_size=12, unique=True)


class TestVectorHashIsTheScalarHash:
    """Committed postings cannot move, so the hash that places a term
    may never change: pinned values taken before it was vectorised, the
    scalar loop as reference, and growth stability as a property."""

    def test_pinned_assignments(self):
        assert UniformHashMerge(1024).assign(10).list_ids.tolist() == [
            431, 193, 718, 1005, 714, 858, 0, 471, 566, 100,
        ]
        assert PopularUnmergedMerge(16, [3, 5]).assign(10).list_ids.tolist() == [
            11, 11, 6, 0, 8, 1, 12, 11, 6, 4,
        ]

    def test_pinned_digest_of_large_universes(self):
        digest = hashlib.sha256()
        for assignment in (
            UniformHashMerge(1024).assign(60000),
            UniformHashMerge(7, salt=3).assign(5000),
            PopularUnmergedMerge(1024, [5, 9, 40000]).assign(60000),
        ):
            assert assignment.list_ids.dtype == np.int64
            digest.update(assignment.list_ids.tobytes())
        assert digest.hexdigest() == (
            "06be5c8ff6dc04ef4a087f49ab097cdbbc0c7f64b2f9649c2ebc8c3112f61ddd"
        )

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(0, 400),
        num_lists=st.integers(1, 5000),
        salt=_salts,
        popular=_popular_sets,
    )
    def test_equals_the_scalar_loop(self, n, num_lists, salt, popular):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no RuntimeWarning escapes
            uniform = UniformHashMerge(num_lists, salt=salt).assign(n)
            pinned = PopularUnmergedMerge(
                num_lists + len(popular), popular, salt=salt
            ).assign(n)
        hashes = [_stable_hash(t, salt) for t in range(n)]
        assert uniform.list_ids.tolist() == [h % num_lists for h in hashes]
        expected = [len(popular) + h % num_lists for h in hashes]
        for list_id, term_id in enumerate(popular):
            if term_id < n:
                expected[term_id] = list_id
        assert pinned.list_ids.tolist() == expected

    @settings(max_examples=40, deadline=None)
    @given(
        sizes=st.tuples(st.integers(0, 3000), st.integers(0, 3000)),
        num_lists=st.integers(1, 2000),
        salt=_salts,
        popular=_popular_sets,
    )
    def test_stable_under_universe_growth(self, sizes, num_lists, salt, popular):
        small, large = sorted(sizes)
        for strategy in (
            UniformHashMerge(num_lists, salt=salt),
            PopularUnmergedMerge(num_lists + len(popular), popular, salt=salt),
        ):
            grown = strategy.assign(large).list_ids[:small]
            assert grown.tolist() == strategy.assign(small).list_ids.tolist()


class TestLearnedPopularMerge:
    def test_carries_provenance(self):
        strategy = LearnedPopularMerge(
            10, [5, 6], learned_from_fraction=0.1, by="qi"
        )
        assert strategy.learned_from_fraction == 0.1
        assert strategy.by == "qi"
        assert strategy.num_lists == 10
        ta = strategy.assign(20)
        assert ta.list_for(5) == 0

    def test_invalid_provenance_rejected(self):
        with pytest.raises(WorkloadError):
            LearnedPopularMerge(10, [1], learned_from_fraction=0.0, by="qi")
        with pytest.raises(WorkloadError):
            LearnedPopularMerge(10, [1], learned_from_fraction=0.1, by="zi")


class TestGreedyCostMerge:
    def _skewed_stats(self, n=500, seed=0):
        rng = np.random.default_rng(seed)
        ti = (1000 / (np.arange(n) + 1)).astype(np.int64) + 1
        qi = rng.permutation(ti)
        return WorkloadStats(ti=ti, qi=qi)

    def test_beats_uniform_on_skewed_workload(self):
        from repro.core.cost_model import merged_workload_cost

        stats = self._skewed_stats()
        greedy = GreedyCostMerge(8, stats.ti, stats.qi).assign(500)
        uniform = UniformHashMerge(8).assign(500)
        assert merged_workload_cost(greedy, stats) <= merged_workload_cost(
            uniform, stats
        )

    def test_fixed_universe(self):
        stats = self._skewed_stats(100)
        strategy = GreedyCostMerge(4, stats.ti, stats.qi)
        assert strategy.universe_size() == 100
        with pytest.raises(IndexError_):
            strategy.assign(101)

    def test_mismatched_stats_rejected(self):
        with pytest.raises(IndexError_):
            GreedyCostMerge(4, np.array([1.0]), np.array([1.0, 2.0]))

    def test_all_lists_used(self):
        stats = self._skewed_stats(300)
        ta = GreedyCostMerge(8, stats.ti, stats.qi).assign(300)
        assert len(np.unique(ta.list_ids)) == 8


class TestCacheSizing:
    def test_paper_configuration(self):
        """128 MB cache / 8 KB blocks = 16384 lists (Section 3.4/4.5)."""
        assert lists_for_cache(128 * 2**20, 8192) == 16384

    def test_invalid_rejected(self):
        with pytest.raises(IndexError_):
            lists_for_cache(0, 8192)
