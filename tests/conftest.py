"""Shared fixtures for the test suite.

Workload materialization is the expensive part of many tests, so a small
deterministic corpus/query-log pair is built once per session.
"""

from __future__ import annotations

import pytest
from hypothesis import settings

from repro.simulate.workload_factory import Scale, get_workload
from repro.worm.storage import CachedWormStore

#: ``pytest --hypothesis-profile=ci``: the longer histories CI's
#: fault-injection job runs the persistence machines with.  Tests that
#: set their own budget keep it; the machines yield theirs to this one.
settings.register_profile("ci", max_examples=200, stateful_step_count=50)


@pytest.fixture(scope="session")
def tiny_workload():
    """Session-cached tiny workload (2k docs, 4k queries)."""
    return get_workload(Scale.tiny())


@pytest.fixture()
def store():
    """A fresh unbounded-cache WORM store with small blocks."""
    return CachedWormStore(None, block_size=256)


@pytest.fixture()
def small_cache_store():
    """A fresh WORM store with a 4-block cache (eviction behaviour)."""
    return CachedWormStore(4, block_size=256)
