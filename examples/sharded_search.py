#!/usr/bin/env python3
"""Sharded archive: parallel fan-out search over K independent engines.

Partitions a record archive across four shards — each a complete
`TrustworthySearchEngine` with its own WORM store, posting lists, and
jump indexes — glued together by an append-only WORM document map.
Shows batched ingestion, fan-out/merge queries that return exactly the
single-engine results, per-shard cost profiling, and what happens when
an insider stuffs one shard's posting list.

Run:  python examples/sharded_search.py
"""

from repro import EngineConfig, ShardedSearchEngine
from repro.adversary import full_sharded_audit, posting_stuffing_attack
from repro.search import profile_sharded_query

RECORDS = [
    "quarterly revenue report for the finance committee",
    "imclone trading memo prepared for stewart and waksal",
    "meeting notes about imclone drug development trial",
    "budget planning schedule for the storage team",
    "stewart waksal imclone november trading summary",
    "records retention policy update for compliance audit",
    "imclone erbitux filing withdrawn by the fda",
    "trading desk compliance checklist for november",
]


def main() -> None:
    engine = ShardedSearchEngine(
        EngineConfig(num_lists=64, branching=None), num_shards=4
    )
    with engine:
        # One call commits, routes, and indexes the whole batch; documents
        # are grouped per shard so each merged list is appended in one pass.
        ids = engine.index_batch(RECORDS)
        print(f"committed {len(ids)} records across {engine.num_shards} shards:")
        for shard_id, shard in enumerate(engine.shards):
            print(f"  shard {shard_id}: {len(shard.documents)} documents")

        # Queries fan out to every shard, are re-ranked under aggregated
        # collection statistics, and heap-merge into one global run — the
        # same results and scores a 1-shard archive would return.
        print("\nranked search for 'imclone trading':")
        for hit in engine.search("imclone trading"):
            print(f"  doc {hit.doc_id}  score {hit.score:.2f}")

        print("\nconjunctive search '+stewart +waksal':")
        for hit in engine.search("+stewart +waksal"):
            print(f"  doc {hit.doc_id}  score {hit.score:.2f}")

        # The profile separates total scan work from the critical path
        # (the slowest shard) — the modeled parallel speedup.
        profile = profile_sharded_query(engine, "imclone trading")
        print(f"\nprofile: {profile.summary()}")

        # Mala stuffs a shard's posting list with document IDs that were
        # never committed.  Shard-local invariants stay clean (stuffing is
        # structurally legal), but result verification against the WORM
        # documents exposes it, and incident handling quarantines the
        # fabricated IDs on the coordinator's own WORM incident log.
        shard = engine.shards[1]
        tid = shard.term_id("imclone")
        posting_list, _ = shard.posting_list_for("imclone")
        stuffed = posting_stuffing_attack(
            posting_list, tid, count=len(shard.documents) + 3
        )
        print(f"\nMala stuffs shard 1's 'imclone' list with {len(stuffed)} IDs")
        results, report = engine.search_with_incident_handling("imclone", top_k=10)
        print(f"  verification: ok={report.ok}, {len(report.violations)} violations")
        print(f"  quarantined fabricated IDs: {sorted(engine.incidents.quarantined_doc_ids)}")
        print(f"  clean results returned: {sorted(r.doc_id for r in results)}")

        # An offline audit sweeps every shard plus the document map.
        reports = full_sharded_audit(engine)
        bad = [r for r in reports if not r.ok]
        print(f"\nfull sharded audit: {len(reports)} reports, {len(bad)} with violations")
        print(f"  (incident evidence is preserved: {len(engine.incidents)} incident(s) on WORM)")


if __name__ == "__main__":
    main()
