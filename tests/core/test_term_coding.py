"""Unit + property tests for the Huffman term-coding model."""


import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.term_coding import (
    build_huffman_code,
    entropy_bits,
)
from repro.errors import IndexError_


class TestHuffman:
    def test_single_term_needs_no_bits(self):
        code = build_huffman_code({7: 100})
        assert code.lengths == {7: 0}
        assert code.expected_bits() == 0.0
        assert code.fixed_width_bits() == 0

    def test_uniform_two_terms(self):
        code = build_huffman_code({1: 50, 2: 50})
        assert code.lengths == {1: 1, 2: 1}
        assert code.expected_bits() == 1.0

    def test_skew_beats_fixed_width(self):
        """The paper's point: Zipfian mixes compress below log2(q)."""
        counts = {t: max(1, 1000 // (t + 1)) for t in range(16)}
        code = build_huffman_code(counts)
        assert code.fixed_width_bits() == 4
        assert code.expected_bits() < 4.0

    def test_textbook_example(self):
        # Frequencies 5, 9, 12, 13, 16, 45 — the classic CLRS example:
        # optimal expected length = 224/100 bits? (weighted sum = 224)
        counts = dict(enumerate([5, 9, 12, 13, 16, 45]))
        code = build_huffman_code(counts)
        weighted = sum(code.lengths[t] * c for t, c in counts.items())
        assert weighted == 224

    def test_heavy_term_gets_short_code(self):
        code = build_huffman_code({0: 1000, 1: 10, 2: 10, 3: 10})
        assert code.lengths[0] < code.lengths[1]

    def test_zero_counts_excluded(self):
        code = build_huffman_code({0: 10, 1: 0, 2: 5})
        assert set(code.lengths) == {0, 2}

    def test_empty_rejected(self):
        with pytest.raises(IndexError_):
            build_huffman_code({})
        with pytest.raises(IndexError_):
            build_huffman_code({1: 0})

    @given(
        counts=st.dictionaries(
            st.integers(min_value=0, max_value=100),
            st.integers(min_value=1, max_value=10_000),
            min_size=1,
            max_size=40,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_property_optimality_bounds(self, counts):
        """Shannon bound: H <= E[len] < H + 1; and Kraft holds."""
        code = build_huffman_code(counts)
        h = entropy_bits(counts)
        expected = code.expected_bits()
        if len(counts) > 1:
            assert h - 1e-9 <= expected < h + 1.0
            kraft = sum(2.0 ** -l for l in code.lengths.values())
            assert kraft <= 1.0 + 1e-9
        # Never worse than the fixed-width budget... plus the fractional
        # slack of non-power-of-two alphabets.
        assert expected <= code.fixed_width_bits() + 1.0


class TestEntropy:
    def test_uniform_entropy(self):
        assert entropy_bits({0: 1, 1: 1, 2: 1, 3: 1}) == pytest.approx(2.0)

    def test_degenerate_entropy_zero(self):
        assert entropy_bits({0: 100}) == 0.0
        assert entropy_bits({}) == 0.0

    def test_skew_lowers_entropy(self):
        assert entropy_bits({0: 97, 1: 1, 2: 1, 3: 1}) < 1.0
