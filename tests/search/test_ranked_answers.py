"""Ranked answers recorded at PR 16, asserted of every later commit.

``tests/data/ranked_answers_pr16.json`` holds what commit d18acd0 — the
last to carry a query's candidates as a dict of dicts, scored a document
at a time — answered to a fixed query list over a seeded corpus, under
every index layout, one and two shards, both scorers: document IDs and
``float.hex()`` scores.  A score's last bit depends on the order its
terms were added in, so equality here is the proof that replacing the
candidate pipeline moved neither a ranking nor an accumulation order.
``tests/data/make_ranked_answers.py`` wrote the file and is what asks
the questions again.
"""

import json
import os

import pytest

from repro.search.engine import EngineConfig, TrustworthySearchEngine
from repro.sharding import ShardedSearchEngine
from tests.data.make_ranked_answers import answers, build

DATA = os.path.join(os.path.dirname(__file__), os.pardir, "data")
with open(os.path.join(DATA, "ranked_answers_pr16.json")) as _handle:
    RECORDED = json.load(_handle)


@pytest.mark.parametrize("read_cache", [False, True], ids=["cache-off", "cache-on"])
@pytest.mark.parametrize("name", sorted(RECORDED["variants"]))
def test_sharded_engine_answers_as_recorded(name, read_cache):
    variant = RECORDED["variants"][name]
    config = EngineConfig(read_cache=read_cache, **variant["config"])
    with ShardedSearchEngine(config, num_shards=variant["shards"]) as engine:
        build(engine, RECORDED["documents"])
        # With the cache on every query is asked twice and must agree:
        # the second answer is ranked from the cached candidates.
        assert answers(engine, repeat=read_cache) == RECORDED["answers"][name]


@pytest.mark.parametrize(
    "name",
    sorted(n for n, v in RECORDED["variants"].items() if v["shards"] == 1),
)
def test_plain_engine_answers_as_recorded(name):
    config = EngineConfig(**RECORDED["variants"][name]["config"])
    engine = build(TrustworthySearchEngine(config), RECORDED["documents"])
    assert answers(engine) == RECORDED["answers"][name]

