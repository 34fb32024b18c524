"""Hypothesis stateful tests: long random histories against references.

Two machines:

* :class:`EngineMachine` — random ingest/search against a brute-force
  in-memory index; checks disjunctive and conjunctive answers, document
  round-trips, and commit-time ranges after every step.
* :class:`JumpIndexMachine` — random monotone inserts interleaved with
  lookups/find_geq against a sorted list reference.
"""

import bisect

from hypothesis import settings
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)
from hypothesis import strategies as st

from repro.core.jump_index import JumpIndex
from repro.search.engine import EngineConfig, TrustworthySearchEngine

WORDS = [
    "imclone", "stewart", "waksal", "audit", "revenue", "memo", "meeting",
    "storage", "retention", "policy", "trading", "budget",
]


class EngineMachine(RuleBasedStateMachine):
    """Random ingest + queries, mirrored against a brute-force index."""

    def __init__(self):
        super().__init__()
        self.engine = TrustworthySearchEngine(
            EngineConfig(num_lists=8, branching=2, block_size=512)
        )
        self.docs = {}  # doc_id -> set of terms
        self.commit_times = {}

    @rule(
        terms=st.lists(st.sampled_from(WORDS), min_size=1, max_size=5),
        gap=st.integers(min_value=0, max_value=3),
    )
    def ingest(self, terms, gap):
        commit_time = (max(self.commit_times.values()) if self.commit_times else 0) + 1 + gap
        doc_id = self.engine.index_document(
            " ".join(terms), commit_time=commit_time
        )
        self.docs[doc_id] = set(terms)
        self.commit_times[doc_id] = commit_time

    @precondition(lambda self: self.docs)
    @rule(term=st.sampled_from(WORDS))
    def disjunctive_query(self, term):
        expected = {d for d, terms in self.docs.items() if term in terms}
        got = {
            r.doc_id
            for r in self.engine.search(term, top_k=len(self.docs) + 1)
        }
        assert got == expected

    @precondition(lambda self: self.docs)
    @rule(t1=st.sampled_from(WORDS), t2=st.sampled_from(WORDS))
    def conjunctive_query(self, t1, t2):
        if t1 == t2:
            return
        expected = {
            d for d, terms in self.docs.items() if t1 in terms and t2 in terms
        }
        got, _ = self.engine.conjunctive_doc_ids([t1, t2])
        assert set(got) == expected

    @precondition(lambda self: self.docs)
    @rule(data=st.data())
    def time_range_query(self, data):
        times = sorted(self.commit_times.values())
        lo = data.draw(st.sampled_from(times))
        hi = data.draw(st.sampled_from([t for t in times if t >= lo]))
        expected = [
            d for d, t in sorted(self.commit_times.items()) if lo <= t <= hi
        ]
        assert self.engine.time_index.docs_in_range(lo, hi) == (
            expected[0],
            expected[-1],
        )

    @invariant()
    def documents_round_trip(self):
        for doc_id, terms in list(self.docs.items())[-3:]:
            text = self.engine.documents.get(doc_id).text
            assert set(text.split()) == terms


class JumpIndexMachine(RuleBasedStateMachine):
    """Random monotone inserts vs a sorted-list reference."""

    def __init__(self):
        super().__init__()
        self.index = JumpIndex(max_value_bits=24)
        self.values = []

    @rule(gap=st.integers(min_value=1, max_value=1000))
    def insert(self, gap):
        value = (self.values[-1] if self.values else 0) + gap
        self.index.insert(value)
        self.values.append(value)

    @precondition(lambda self: self.values)
    @rule(data=st.data())
    def lookup(self, data):
        probe = data.draw(
            st.integers(min_value=0, max_value=self.values[-1] + 10)
        )
        assert self.index.lookup(probe) == (probe in set(self.values))

    @precondition(lambda self: self.values)
    @rule(data=st.data())
    def find_geq(self, data):
        probe = data.draw(
            st.integers(min_value=0, max_value=self.values[-1] + 10)
        )
        idx = bisect.bisect_left(self.values, probe)
        expected = self.values[idx] if idx < len(self.values) else None
        assert self.index.find_geq(probe) == expected

    @invariant()
    def all_values_visible(self):
        for value in self.values[-5:]:
            assert self.index.lookup(value)


TestEngineMachine = EngineMachine.TestCase
TestEngineMachine.settings = settings(
    max_examples=15, stateful_step_count=25, deadline=None
)

TestJumpIndexMachine = JumpIndexMachine.TestCase
TestJumpIndexMachine.settings = settings(
    max_examples=25, stateful_step_count=40, deadline=None
)
