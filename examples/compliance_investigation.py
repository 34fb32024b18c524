#!/usr/bin/env python3
"""A records-retention investigation, end to end (the paper's Section 5 story).

Cast:

* **Alice** — a compliance-minded mail gateway: every email is committed
  to WORM and indexed *before* delivery.
* **Mala** — a company insider (with superuser credentials) who, months
  later, regrets one email's existence.  She can run any WORM-legal
  operation: append records, stuff posting lists, crash indexers.
* **Bob** — an investigator with a certified search engine, a target
  time window, and a healthy level of suspicion.

The demo shows (1) why a buffered index would have lost the evidence,
(2) that stuffing the trustworthy index only raises alarms, and (3) that
Bob's time-ranged conjunctive query retrieves the record regardless.

Run:  python examples/compliance_investigation.py
"""

from repro import EngineConfig, TrustworthySearchEngine
from repro.adversary import buffer_wipe_attack, full_engine_audit, posting_stuffing_attack
from repro.baselines.buffered import BufferedInvertedIndex
from repro.errors import TamperDetectedError
from repro.worm.storage import CachedWormStore

#: Nov 1 / Dec 31, 2001 (UTC epoch seconds) — Bob's target window.
NOV_2001, JAN_2002 = 1004572800, 1009843200

EMAILS = [
    (NOV_2001 - 86400 * 90, "budget review meeting for the storage division"),
    (NOV_2001 - 86400 * 10, "reminder about the records retention training"),
    (NOV_2001 + 86400 * 5, "urgent imclone position memo for stewart from waksal"),
    (NOV_2001 + 86400 * 6, "re quarterly audit schedule and travel plans"),
    (NOV_2001 + 86400 * 40, "imclone trial results discussion with the board"),
    (JAN_2002 + 86400 * 20, "welcome aboard and benefits enrollment details"),
]


def alice_ingests() -> TrustworthySearchEngine:
    print("== Alice: committing email to WORM, indexing in real time ==")
    engine = TrustworthySearchEngine(EngineConfig(num_lists=64, branching=32))
    for commit_time, text in EMAILS:
        doc_id = engine.index_document(text, commit_time=commit_time)
        print(f"  committed doc {doc_id} at t={commit_time}")
    return engine


def mala_would_have_won_with_buffering() -> None:
    print("\n== Counterfactual: a buffered index (prior art) ==")
    store = CachedWormStore(None)
    buffered = BufferedInvertedIndex(store, flush_threshold=100)
    for doc_id, (_, text) in enumerate(EMAILS):
        buffered.add_document(doc_id, range(doc_id * 3, doc_id * 3 + 3))
    lost = buffer_wipe_attack(buffered)
    print(f"  Mala crashes the indexer: postings of {lost} documents are gone.")
    print("  The emails sit on WORM — unreachable through any index. Hidden.")


def mala_attacks(engine: TrustworthySearchEngine) -> None:
    print("\n== Mala: attacking the trustworthy index ==")
    print("  Rewriting posting lists? The WORM device refuses overwrites.")
    print("  Her only move: stuff 'imclone' postings with fake document IDs")
    term_id = engine.term_id("imclone")
    posting_list, _ = engine.posting_list_for("imclone")
    fakes = posting_stuffing_attack(posting_list, term_id, count=8)
    print(f"  stuffed {len(fakes)} fabricated postings (IDs {fakes[0]}..{fakes[-1]})")


def bob_investigates(engine: TrustworthySearchEngine) -> None:
    print("\n== Bob: certified engine, broad sweep for 'imclone' ==")
    try:
        engine.search("imclone", top_k=20, verify=True)
        print("  (no tampering detected)")
    except TamperDetectedError:
        print("  ALARM — results reference documents that are not on WORM:")
        print("  someone stuffed the posting lists. Bob now *knows* a")
        print("  cover-up was attempted, and narrows in on his window.")

    print("\n== Bob: Nov-Dec 2001, '+stewart +waksal +imclone' ==")
    query = f"+stewart +waksal +imclone @{NOV_2001}..{JAN_2002}"
    # Stuffed postings cannot survive a conjunctive join (the fabricated
    # IDs are not in the other terms' lists), so this one runs clean.
    results = engine.search(query, verify=False)
    genuine = [r for r in results if engine.documents.exists(r.doc_id)]
    print(f"  {len(results)} raw hits, {len(genuine)} verified against WORM:")
    for hit in genuine:
        doc = engine.documents.get(hit.doc_id)
        print(f"    doc {hit.doc_id} (t={doc.commit_time}): {doc.text[:60]}")
    print("\n== Bob: full index audit for the case file ==")
    reports = full_engine_audit(engine)
    bad = [r for r in reports if not r.ok]
    print(f"  {len(reports)} subjects audited, {len(bad)} with violations")
    print("  The evidence email was retrieved; the tampering is documented.")


def main() -> None:
    engine = alice_ingests()
    mala_would_have_won_with_buffering()
    mala_attacks(engine)
    bob_investigates(engine)


if __name__ == "__main__":
    main()
