"""A commit-time record that fails to land burns its document at once.

A document's file is written before its commit-time record, and the
record is its commit point: a reopen finds a file without one and burns
its ID.  When a batch's record append raises part-way, the session must
answer as that reopen will — the documents without a record are no
answer, and are not counted — or a sharded archive, whose global IDs
are derived from each shard's committed count, acknowledges later
documents under IDs that name another document after the reopen.
On legacy and tail engines, and on two shards of each.
"""

import pytest

from repro.cli import open_archive
from repro.search.engine import EngineConfig
from repro.sharding.router import stable_shard

LEGACY = EngineConfig(num_lists=8, block_size=512, branching=4)
TAIL = EngineConfig(num_lists=8, block_size=512, branching=4, tail_max_docs=4)
LAYOUTS = {
    "legacy": (LEGACY, 1),
    "tail": (TAIL, 1),
    "two-shards-legacy": (LEGACY, 2),
    "two-shards-tail": (TAIL, 2),
}

FAULTY = ["gamma one", "gamma two", "gamma three", "gamma four", "gamma five"]
LATER = ["delta one", "delta two", "delta three", "delta four"]
QUERIES = ["alpha", "gamma", "delta", "one", "two", "three", "four"]


def fail_second_record(engine):
    """Make the second commit-time append from now on raise, on the
    engine or on its shard 0."""
    target = engine.shards[0] if hasattr(engine, "shards") else engine
    record_commit = target.time_index.record_commit
    calls = []

    def faulty(doc_id, commit_time):
        calls.append(doc_id)
        if len(calls) == 2:
            raise OSError("the commit-time append failed")
        return record_commit(doc_id, commit_time)

    target.time_index.record_commit = faulty
    return lambda: setattr(target.time_index, "record_commit", record_commit)


def answers(engine):
    return {
        query: sorted(r.doc_id for r in engine.search(query, top_k=50, verify=True))
        for query in QUERIES
    }


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
def test_the_session_answers_as_a_reopen_does(layout, tmp_path):
    config, shards = LAYOUTS[layout]
    if shards > 1:
        # The fault needs two of the faulty batch on shard 0.
        assert [stable_shard(g, shards) for g in range(1, 6)].count(0) >= 2
    path = str(tmp_path / "rec.worm")
    engine, handle = open_archive(path, create=config, shards=shards)
    assert engine.index_batch(["alpha zero"]) == [0]
    restore = fail_second_record(engine)
    with pytest.raises(OSError):
        engine.index_batch(FAULTY)
    restore()
    acknowledged = dict(zip(engine.index_batch(LATER), LATER))
    session = answers(engine)
    assert session["delta"] == sorted(acknowledged)
    # Some of the faulty batch were written and never recorded: none answers.
    assert len(session["gamma"]) < len(FAULTY)
    handle.close()

    engine, handle = open_archive(path)
    assert answers(engine) == session
    for doc_id, text in acknowledged.items():
        assert engine.documents.get(doc_id).text == text
    handle.close()
