"""Unit + property tests for the Zipf samplers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import WorkloadError
from repro.workloads.zipf import ZipfSampler, correlated_popularity, zipf_weights


class TestZipfWeights:
    def test_normalized(self):
        w = zipf_weights(100, 1.1)
        assert w.sum() == pytest.approx(1.0)
        assert (w > 0).all()

    def test_monotone_decreasing(self):
        w = zipf_weights(50, 1.0)
        assert (np.diff(w) < 0).all()

    def test_uniform_at_zero_exponent(self):
        w = zipf_weights(10, 0.0)
        assert np.allclose(w, 0.1)

    def test_higher_exponent_more_skew(self):
        flat = zipf_weights(100, 0.5)
        steep = zipf_weights(100, 2.0)
        assert steep[0] > flat[0]
        assert steep[-1] < flat[-1]

    def test_exact_harmonic_form(self):
        w = zipf_weights(3, 1.0)
        h = 1 + 1 / 2 + 1 / 3
        assert w[0] == pytest.approx(1 / h)
        assert w[2] == pytest.approx(1 / 3 / h)

    def test_invalid_inputs(self):
        with pytest.raises(WorkloadError):
            zipf_weights(0)
        with pytest.raises(WorkloadError):
            zipf_weights(10, -1.0)


class TestZipfSampler:
    def test_deterministic_under_seed(self):
        a = ZipfSampler(100, 1.0, seed=42).sample(1000)
        b = ZipfSampler(100, 1.0, seed=42).sample(1000)
        assert (a == b).all()

    def test_different_seeds_differ(self):
        a = ZipfSampler(100, 1.0, seed=1).sample(1000)
        b = ZipfSampler(100, 1.0, seed=2).sample(1000)
        assert (a != b).any()

    def test_samples_in_range(self):
        samples = ZipfSampler(37, 1.3, seed=0).sample(5000)
        assert samples.min() >= 0
        assert samples.max() < 37

    def test_rank_zero_most_frequent(self):
        samples = ZipfSampler(100, 1.2, seed=0).sample(20000)
        counts = np.bincount(samples, minlength=100)
        assert counts[0] == counts.max()
        # Head should dominate the tail under s=1.2.
        assert counts[:10].sum() > counts[50:].sum()

    def test_sample_one(self):
        sampler = ZipfSampler(10, 1.0, seed=3)
        value = sampler.sample_one()
        assert 0 <= value < 10

    def test_custom_weights(self):
        weights = np.array([0.0, 1.0, 0.0])
        sampler = ZipfSampler(3, weights=weights, seed=0)
        assert (sampler.sample(100) == 1).all()

    def test_bad_weights_rejected(self):
        with pytest.raises(WorkloadError):
            ZipfSampler(3, weights=np.array([1.0, 2.0]))
        with pytest.raises(WorkloadError):
            ZipfSampler(2, weights=np.array([-1.0, 2.0]))

    def test_negative_sample_size_rejected(self):
        with pytest.raises(WorkloadError):
            ZipfSampler(3).sample(-1)

    @given(
        n=st.integers(min_value=1, max_value=500),
        s=st.floats(min_value=0.0, max_value=3.0, allow_nan=False),
        size=st.integers(min_value=0, max_value=200),
    )
    @settings(max_examples=50, deadline=None)
    def test_property_samples_always_in_range(self, n, s, size):
        samples = ZipfSampler(n, s, seed=7).sample(size)
        assert len(samples) == size
        if size:
            assert samples.min() >= 0
            assert samples.max() < n


class TestCorrelatedPopularity:
    def test_zero_jitter_preserves_ranking(self):
        rng = np.random.default_rng(0)
        base = zipf_weights(50, 1.0)
        derived = correlated_popularity(base, rank_jitter=0.0, rng=rng)
        assert np.allclose(derived, base)

    def test_output_is_permutation_of_weights(self):
        rng = np.random.default_rng(0)
        base = zipf_weights(50, 1.0)
        derived = correlated_popularity(base, rank_jitter=5.0, rng=rng)
        assert np.allclose(np.sort(derived), np.sort(base))

    def test_demotion_pushes_terms_down(self):
        rng = np.random.default_rng(0)
        base = zipf_weights(50, 1.0)
        demoted = np.array([0, 1])
        derived = correlated_popularity(
            base, rank_jitter=0.0, rng=rng, demoted_ranks=demoted
        )
        # Relative to the non-demoted derivation, ranks 0 and 1 collapse.
        assert derived[0] < base[2] / base.sum() * derived.sum() + derived[2]
        assert derived[0] < derived[2]

    def test_normalized(self):
        rng = np.random.default_rng(0)
        base = zipf_weights(20, 1.0)
        derived = correlated_popularity(
            base, rank_jitter=3.0, rng=rng, demoted_ranks=np.array([0])
        )
        assert derived.sum() == pytest.approx(1.0)
