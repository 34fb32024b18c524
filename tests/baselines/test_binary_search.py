"""Unit tests for the binary-search baseline and its certified reader."""

import pytest

from repro.baselines.binary_search import SortedAppendLog
from repro.errors import TamperDetectedError


@pytest.fixture()
def log():
    log = SortedAppendLog()
    for k in [2, 4, 7, 11, 13, 19, 23, 29, 31]:
        log.append(k)
    return log


class TestHonestOperation:
    def test_binary_search(self, log):
        assert log.binary_search(13)
        assert not log.binary_search(14)
        assert log.probes > 0

    def test_find_geq(self, log):
        assert log.find_geq(14) == 19
        assert log.find_geq(31) == 31
        assert log.find_geq(32) is None

    def test_verify_sorted_clean(self, log):
        log.verify_sorted()

    def test_keys_snapshot(self, log):
        keys = log.keys()
        keys.append(999)
        assert len(log) == 9  # snapshot, not a live view


class TestTamperedOperation:
    def test_out_of_order_append_breaks_search_silently(self, log):
        """The Section 4 attack: binary search goes wrong with no error."""
        # Enough smaller keys at the tail deflect the probes past 31.
        for _ in range(3):
            log.append(30)
        assert not log.binary_search(31)  # wrong answer, no exception

    def test_verify_sorted_detects(self, log):
        log.append(30)
        with pytest.raises(TamperDetectedError) as excinfo:
            log.verify_sorted()
        assert excinfo.value.invariant == "sorted-run-monotonicity"
