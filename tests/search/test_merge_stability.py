"""Merge-assignment stability under lexicon growth (property tests).

The engine's directly-appended list family (``MergedListFamily.list_for``)
re-derives a *larger*
:class:`~repro.core.merge.TermAssignment` whenever the lexicon outgrows
the current one, relying on the :class:`~repro.core.merge.MergeStrategy`
contract that ``assign(n')`` maps terms ``0 .. n-1`` exactly as
``assign(n)`` did — committed postings cannot move between physical
lists.  The engine comment claims this invariant; these tests verify it.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.merge import UniformHashMerge
from repro.search.engine import EngineConfig, TrustworthySearchEngine


class TestStrategyPrefixStability:
    @given(
        num_lists=st.integers(min_value=1, max_value=512),
        salt=st.integers(min_value=0, max_value=10),
        sizes=st.lists(
            st.integers(min_value=1, max_value=5000),
            min_size=2,
            max_size=5,
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_uniform_hash_assignments_are_prefix_stable(
        self, num_lists, salt, sizes
    ):
        """assign(n') agrees with assign(n) on every term < n."""
        strategy = UniformHashMerge(num_lists, salt=salt)
        sizes = sorted(set(sizes))
        assignments = [strategy.assign(n) for n in sizes]
        for smaller, larger in zip(assignments, assignments[1:]):
            assert (
                larger.list_ids[: smaller.num_terms] == smaller.list_ids
            ).all()

    @given(
        num_lists=st.integers(min_value=1, max_value=64),
        salt=st.integers(min_value=0, max_value=3),
    )
    @settings(max_examples=20, deadline=None)
    def test_assignment_is_deterministic(self, num_lists, salt):
        a = UniformHashMerge(num_lists, salt=salt).assign(777)
        b = UniformHashMerge(num_lists, salt=salt).assign(777)
        assert (a.list_ids == b.list_ids).all()


class TestEngineListStability:
    @given(
        growth_points=st.lists(
            st.integers(min_value=0, max_value=6000),
            min_size=4,
            max_size=12,
            unique=True,
        ),
        num_lists=st.integers(min_value=1, max_value=128),
    )
    @settings(max_examples=30, deadline=None)
    def test_assigned_terms_keep_their_physical_list(
        self, growth_points, num_lists
    ):
        """Every already-assigned term survives a universe re-derivation.

        The engine starts with a 1024-term universe and doubles past the
        highest requested term ID; asking for term IDs in increasing
        order forces those re-derivations, and every earlier term's
        physical list must come out unchanged each time.
        """
        engine = TrustworthySearchEngine(EngineConfig(num_lists=num_lists))
        recorded = {}
        for term_id in sorted(growth_points):
            for known, expected in recorded.items():
                assert engine._family.list_for(known) == expected, (
                    f"term {known} moved from list {expected} after the "
                    f"universe grew past term {term_id}"
                )
            recorded[term_id] = engine._family.list_for(term_id)
        # One final sweep after the largest growth event.
        for known, expected in recorded.items():
            assert engine._family.list_for(known) == expected

    def test_growth_across_restart_is_stable(self):
        """Lists assigned before a restart survive growth after it."""
        config = EngineConfig(num_lists=16, branching=None, block_size=512)
        engine = TrustworthySearchEngine(config)
        engine.index_document(" ".join(f"t{i:05d}" for i in range(1500)))
        before = {
            term_id: engine._family.list_for(term_id) for term_id in range(1500)
        }
        reopened = TrustworthySearchEngine(config, store=engine.store)
        # Grow the reopened lexicon past the next re-derivation point.
        reopened.index_document(" ".join(f"u{i:05d}" for i in range(2000)))
        for term_id, expected in before.items():
            assert reopened._family.list_for(term_id) == expected
