import pytest

from bench.measure import MIN_SAMPLES_BEYOND, percentile


def test_percentile_is_nearest_rank():
    samples = list(range(1, 1001))
    assert percentile(samples, 50) == 500
    assert percentile(samples, 95) == 950
    assert percentile(samples, 99) == 990


def test_percentile_refuses_a_tail_with_too_few_samples_beyond():
    assert MIN_SAMPLES_BEYOND == 10
    percentile(range(200), 95)  # exactly 10 beyond
    with pytest.raises(ValueError, match="samples beyond"):
        percentile(range(199), 95)
    with pytest.raises(ValueError, match="samples beyond"):
        percentile(range(900), 99)
    with pytest.raises(ValueError, match="samples beyond"):
        percentile(range(19), 50)
