"""Unit + property tests for the binary jump index (Propositions 1-3)."""

import bisect

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.jump_index import JumpIndex
from repro.errors import (
    DocumentIdOrderError,
    IndexError_,
    TamperDetectedError,
    WormViolationError,
)

increasing_sequences = st.lists(
    st.integers(min_value=0, max_value=2**20), min_size=1, max_size=120, unique=True
).map(sorted)


def build(values):
    ji = JumpIndex()
    for v in values:
        ji.insert(v)
    return ji


class TestBasics:
    def test_empty(self):
        ji = JumpIndex()
        assert ji.is_empty
        assert not ji.lookup(5)
        assert ji.find_geq(0) is None
        with pytest.raises(IndexError_):
            ji.head_value

    def test_single(self):
        ji = build([7])
        assert ji.lookup(7)
        assert not ji.lookup(6)
        assert ji.find_geq(7) == 7
        assert ji.find_geq(3) == 7
        assert ji.find_geq(8) is None
        assert ji.head_value == 7

    def test_figure7_example(self):
        """The paper's Figure 7(a) sequence: 1, 2, 5, 7, 10, 15."""
        ji = build([1, 2, 5, 7, 10, 15])
        # "the 0th pointer from 1 points to 2"
        assert ji.node_value(ji._node(0).pointer(0)) == 2
        # "the 2nd pointer points to 5 since 1 + 2^2 <= 5 < 1 + 2^3"
        assert ji.node_value(ji._node(0).pointer(2)) == 5
        # "To look up 7, follow the 2nd pointer from 1 to 5 and the 1st
        # pointer from 5 to 7."
        assert ji.lookup(7)
        assert ji.last_path == [(0, 2), (ji._node(0).pointer(2), 1)]

    def test_insert_not_increasing_rejected(self):
        ji = build([5, 9])
        with pytest.raises(DocumentIdOrderError):
            ji.insert(9)
        with pytest.raises(DocumentIdOrderError):
            ji.insert(3)

    def test_value_out_of_bits_rejected(self):
        ji = JumpIndex(max_value_bits=8)
        with pytest.raises(IndexError_):
            ji.insert(256)

    def test_invalid_bits_rejected(self):
        with pytest.raises(IndexError_):
            JumpIndex(max_value_bits=0)

    def test_values_in_insertion_order(self):
        ji = build([3, 8, 9])
        assert ji.values() == [3, 8, 9]
        assert len(ji) == 3


class TestAgainstReference:
    @given(values=increasing_sequences, data=st.data())
    @settings(max_examples=120, deadline=None)
    def test_property_lookup_and_find_geq(self, values, data):
        ji = build(values)
        probe = data.draw(st.integers(min_value=0, max_value=2**20 + 10))
        # Proposition 2: every inserted value is found.
        for v in values:
            assert ji.lookup(v)
        # Reference semantics for arbitrary probes.
        assert ji.lookup(probe) == (probe in set(values))
        idx = bisect.bisect_left(values, probe)
        expect = values[idx] if idx < len(values) else None
        assert ji.find_geq(probe) == expect

    @given(values=increasing_sequences)
    @settings(max_examples=60, deadline=None)
    def test_property_prop1_descending_exponents(self, values):
        """Proposition 1: lookups follow strictly decreasing exponents."""
        ji = build(values)
        for v in (values[0], values[-1], values[len(values) // 2]):
            ji.lookup(v)
            exponents = [i for _, i in ji.last_path]
            assert exponents == sorted(exponents, reverse=True)
            assert len(set(exponents)) == len(exponents)

    @given(values=increasing_sequences)
    @settings(max_examples=60, deadline=None)
    def test_property_complexity_bound(self, values):
        """At most floor(log2(k)) + 1 pointer follows per lookup."""
        ji = build(values)
        k = values[-1]
        before = ji.pointer_follows
        ji.lookup(k)
        follows = ji.pointer_follows - before
        assert follows <= max(1, k.bit_length())

    def test_prop2_survives_future_inserts(self):
        """Entries remain visible no matter what is inserted later."""
        ji = JumpIndex()
        early = [3, 10, 11, 40]
        for v in early:
            ji.insert(v)
        for v in range(41, 400, 7):
            ji.insert(v)
        for v in early:
            assert ji.lookup(v)

    def test_prop3_never_skips(self):
        """find_geq(k) <= v for every stored v >= k."""
        values = [2, 4, 7, 11, 13, 19, 23, 29, 31, 64, 100]
        ji = build(values)
        for k in range(0, 105):
            geq = [v for v in values if v >= k]
            got = ji.find_geq(k)
            if geq:
                assert got == min(geq)
            else:
                assert got is None


class TestTampering:
    def test_pointers_write_once(self):
        ji = build([1, 2])
        with pytest.raises(WormViolationError):
            ji.set_pointer(0, 0, 0)  # pointer 0 of head already set to 2

    def test_out_of_range_pointer_detected_on_lookup(self):
        ji = build([1, 2, 5, 7, 10, 15])
        fake = ji.append_node(3)
        # Head pointer 4 covers [17, 33); planting value 3 there violates
        # the range invariant on any traversal crossing it.
        ji.set_pointer(0, 4, fake)
        with pytest.raises(TamperDetectedError) as excinfo:
            ji.lookup(20)
        assert excinfo.value.invariant == "jump-monotonicity"

    def test_out_of_range_pointer_detected_on_find_geq(self):
        ji = build([1, 2, 5, 7, 10, 15])
        fake = ji.append_node(3)
        ji.set_pointer(0, 4, fake)
        with pytest.raises(TamperDetectedError):
            ji.find_geq(18)

    def test_set_pointer_to_missing_node_rejected(self):
        ji = build([1])
        with pytest.raises(IndexError_):
            ji.set_pointer(0, 3, 99)

    def test_committed_entries_stay_visible_after_attack(self):
        """Tampering cannot hide entries, only raise alarms elsewhere."""
        ji = build([1, 2, 5, 7, 10, 15])
        fake = ji.append_node(3)
        ji.set_pointer(0, 4, fake)
        for v in [1, 2, 5, 7, 10, 15]:
            assert ji.lookup(v)
