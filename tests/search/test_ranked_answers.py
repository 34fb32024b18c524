"""Ranked answers recorded once, asserted of every later commit.

``tests/data/ranked_answers_term_order.json`` holds what the engine
answered to a fixed query list over a seeded corpus, under every index
layout, one and two shards, both scorers: document IDs and
``float.hex()`` scores, every score summed over its terms in ascending
term-ID order.  A score's last bit depends on the order its terms were
added in, so equality here is the proof that a later change moved
neither a ranking nor the summation order.
``tests/data/make_ranked_answers.py`` wrote the file and is what asks
the questions again.

``tests/data/ranked_answers_pr16.json`` is the same questions answered
by commit d18acd0, the last to carry a query's candidates as a dict of
dicts, when each layout summed in the order its scan met the terms.
Only the order of the additions differs, so its rankings are held
identical and its scores to within one unit in the last place.
"""

import json
import math
import os

import pytest

from repro.search.engine import EngineConfig, TrustworthySearchEngine
from repro.sharding import ShardedSearchEngine
from tests.data.make_ranked_answers import answers, build

DATA = os.path.join(os.path.dirname(__file__), os.pardir, "data")


def _load(name):
    with open(os.path.join(DATA, name)) as handle:
        return json.load(handle)


RECORDED = _load("ranked_answers_term_order.json")


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


def test_scan_order_answers_differ_by_at_most_one_ulp():
    before = _load("ranked_answers_pr16.json")
    assert before["documents"] == RECORDED["documents"]
    assert before["variants"] == RECORDED["variants"]
    for name, by_query in before["answers"].items():
        for query, answer in by_query.items():
            now = RECORDED["answers"][name][query]
            assert [doc for doc, _ in answer] == [doc for doc, _ in now], (name, query)
            for (_, then_hex), (_, now_hex) in zip(answer, now):
                then, score = float.fromhex(then_hex), float.fromhex(now_hex)
                assert abs(then - score) <= math.ulp(score), (name, query)
