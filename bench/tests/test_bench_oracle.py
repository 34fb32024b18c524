"""The checker is live: it counts a dropped document and a wrong-term result."""

from bench import gen, oracle


def _oracle(seed=1, count=200):
    reference = oracle.Oracle()
    docs = gen.documents(seed, 0, count)
    for position, text in enumerate(docs):
        reference.add(position, text)
    return reference, docs


def _right_answer(reference, query, top_k=10):
    matched = sorted(reference.matching(query))[:top_k]
    return [(doc_id, 1.0 - rank * 0.01) for rank, doc_id in enumerate(matched)]


def test_right_answers_pass():
    reference, _ = _oracle()
    for query in ["w00001 w00500", "+w00001 +w00002", "+w00001 +w00003 @50..150", "w19999"]:
        assert reference.check_search(query, _right_answer(reference, query), top_k=10) == []


def test_dropped_document_is_counted():
    reference, _ = _oracle()
    query = "+w00001 +w00002"
    hits = _right_answer(reference, query)
    assert len(hits) == 10  # enough matches that dropping one leaves too few
    problems = reference.check_search(query, hits[:-1], top_k=10)
    assert any("9 results where 10..10" in problem for problem in problems)


def test_rare_match_must_not_be_omitted():
    reference, docs = _oracle()
    token = gen.id_token(1, 17)
    assert reference.matching(token) == {17}
    assert reference.check_search(token, [], top_k=10) != []


def test_wrong_term_result_is_counted():
    reference, _ = _oracle()
    query = "+w00001 +w00002"
    outsider = next(d for d in range(200) if d not in reference.matching(query))
    hits = _right_answer(reference, query)[:-1] + [(outsider, 0.0)]
    problems = reference.check_search(query, hits, top_k=10)
    assert any("do not match" in problem for problem in problems)


def test_time_range_is_enforced():
    reference, _ = _oracle()
    early = min(reference.matching("+w00001 +w00002"))
    problems = reference.check_search("+w00001 +w00002 @100..199", [(early, 1.0)], top_k=1)
    assert early < 100 and any("do not match" in problem for problem in problems)


def test_rising_scores_and_duplicates_are_counted():
    reference, _ = _oracle()
    first, second = sorted(reference.matching("w00001"))[:2]
    assert reference.check_search("w00001", [(first, 1.0), (second, 2.0)], top_k=2)
    assert reference.check_search("w00001", [(first, 1.0), (first, 1.0)], top_k=2)


def test_concurrent_ingest_bounds_the_length():
    reference, _ = _oracle(count=20)
    matched = sorted(reference.matching("w00001"))
    visible = set(matched[:3])  # the rest were acknowledged after the search was sent
    for returned in (3, len(matched)):
        hits = [(d, 1.0) for d in matched[:returned]]
        assert reference.check_search("w00001", hits, top_k=50, visible=visible) == []
    assert reference.check_search("w00001", [(matched[0], 1.0)], top_k=50, visible=visible)


def test_read_back_wants_exactly_the_document():
    assert oracle.check_read_back("id1x000004", 4, [(4, 0.3)]) == []
    assert oracle.check_read_back("id1x000004", 4, []) != []
    assert oracle.check_read_back("id1x000004", 4, [(5, 0.3)]) != []
    assert oracle.check_read_back("id1x000004", 4, [(4, 0.3), (9, 0.1)]) != []


def test_analyzer_rules():
    assert oracle.analyze("The W00001 a x y2 W00001 and id1x000001") == ["w00001", "y2", "id1x000001"]
    assert oracle.parse("+w1 +w2 @3..9") == (["w1", "w2"], True, (3, 9))
    assert oracle.parse("w1 w2") == (["w1", "w2"], False, None)
