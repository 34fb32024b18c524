"""Certified-reader auditors (Sections 2.1, 4.3, 5).

Bob runs a certified search engine; these are the checks it (and an
offline auditor) performs so that Mala's WORM-legal manipulations —
appends of spurious entries, malicious pointer assignments, posting-list
stuffing — are *detected* rather than silently distorting answers.

Auditors come in two flavours:

* raising — the query-path checks inside the index structures raise
  :class:`~repro.errors.TamperDetectedError` the moment a violation is
  observed (the paper's ``assert`` lines);
* reporting — the offline :func:`audit_posting_list` /
  :func:`audit_search_result` passes collect *all* violations into an
  :class:`AuditReport`, the artifact an investigator would file.

The **result check** of Section 5 and the incident handling on top of it
(:func:`verify_results`, :func:`require_verified`,
:func:`search_with_incident_handling`) are written here once, for every
engine.  They ask an archive three questions about a result's ID — does
it name a committed document (``engine.documents.exists``), does a
disposition record explain its absence (``engine.is_disposed``), what
text does it hold (``engine.documents.get``) — which the document store
and retention log answer for one engine, and the global document view
and the router for K shards.  An unmapped or synthetic negative global
ID exists nowhere and was disposed by no one: fabricated in both.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.core.block_jump_index import BlockJumpIndex
from repro.core.posting_list import PostingList
from repro.errors import TamperDetectedError

#: The invariant a stuffed result violates (alarms and incident records).
RESULT_INVARIANT = "result-document-consistency"


@dataclass
class AuditReport:
    """Outcome of an offline audit pass.

    Attributes
    ----------
    subject:
        What was audited (file name, query string, ...).
    violations:
        Human-readable descriptions of every invariant violation found;
        empty means the subject is consistent with honest operation.
    entries_checked:
        Volume audited, for the report's paper trail.
    """

    subject: str
    violations: List[str] = field(default_factory=list)
    entries_checked: int = 0

    @property
    def ok(self) -> bool:
        """Whether the audit found no sign of tampering."""
        return not self.violations

    def add(self, violation: str) -> None:
        """Record one violation."""
        self.violations.append(violation)

    def to_dict(self) -> dict:
        """JSON-serializable form (for case files and tooling)."""
        return {
            "subject": self.subject,
            "ok": self.ok,
            "entries_checked": self.entries_checked,
            "violations": list(self.violations),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        status = "ok" if self.ok else f"{len(self.violations)} violations"
        return f"AuditReport('{self.subject}', {status})"


def audit_posting_list(
    posting_list: PostingList,
    jump_index: Optional[BlockJumpIndex] = None,
) -> AuditReport:
    """Offline audit of one posting list (and its jump pointers, if any).

    Checks:

    * document IDs are non-decreasing across the entire list (a violation
      means a low-level append bypassed the honest writer — the
      binary-search attack of Section 4 leaves exactly this trace);
    * every set jump pointer goes forward and targets a block containing
      an ID inside the pointer's range (Section 4.3's monotonicity
      property).

    Uses uncounted reads (audits are not part of any reported figure).
    """
    report = AuditReport(subject=f"posting list '{posting_list.name}'")
    last = -1
    block_last: List[int] = []
    for block_no in range(posting_list.num_blocks):
        entries = posting_list.read_block_postings(block_no, counted=False)
        for posting in entries:
            report.entries_checked += 1
            if posting.doc_id < last:
                report.add(
                    f"block {block_no}: doc ID {posting.doc_id} after {last} "
                    "(append-order violation)"
                )
            last = max(last, posting.doc_id)
        block_last.append(entries[-1].doc_id if entries else -1)
    if jump_index is not None:
        _audit_jump_pointers(posting_list, jump_index, block_last, report)
    return report


def _audit_jump_pointers(
    posting_list: PostingList,
    jump_index: BlockJumpIndex,
    block_last: List[int],
    report: AuditReport,
) -> None:
    """Check every committed jump pointer against its range invariant."""
    store = posting_list.store
    for block_no in range(posting_list.num_blocks):
        nb = block_last[block_no]
        for slot in range(jump_index.num_slots):
            target = store.peek_slot(posting_list.name, block_no, slot)
            if target is None:
                continue
            report.entries_checked += 1
            if target <= block_no:
                report.add(
                    f"block {block_no} slot {slot}: pointer goes backwards "
                    f"to block {target}"
                )
                continue
            if target >= posting_list.num_blocks:
                report.add(
                    f"block {block_no} slot {slot}: pointer targets "
                    f"nonexistent block {target}"
                )
                continue
            lo, hi = jump_index.slot_range(nb, slot)
            entries = posting_list.read_block_postings(target, counted=False)
            if not any(lo <= p.doc_id < hi for p in entries):
                report.add(
                    f"block {block_no} slot {slot}: target block {target} "
                    f"holds no ID in [{lo}, {hi})"
                )


def audit_search_result(
    result_doc_ids: Sequence[int],
    query_terms: Sequence[str],
    *,
    document_exists,
    document_contains,
) -> AuditReport:
    """Detect posting-list stuffing in a query result (Section 5).

    Mala may append postings whose document IDs do not exist or whose
    documents do not contain the query keywords, hoping to bury the
    incriminating record in noise.  The certified engine cross-checks
    every returned ID against the (WORM-resident, hence trustworthy)
    documents themselves:

    Parameters
    ----------
    result_doc_ids:
        The IDs the index produced.
    query_terms:
        The keywords the user asked for.
    document_exists:
        ``f(doc_id) -> bool`` — the document is actually on WORM.
    document_contains:
        ``f(doc_id, term) -> bool`` — the stored document contains the
        term.  Checked for at least one query term per document (the
        disjunctive matching contract).
    """
    report = AuditReport(subject=f"result for query {list(query_terms)!r}")
    for doc_id in result_doc_ids:
        report.entries_checked += 1
        if not document_exists(doc_id):
            report.add(
                f"doc {doc_id}: posting refers to a nonexistent document "
                "(stuffed posting)"
            )
            continue
        if not any(document_contains(doc_id, term) for term in query_terms):
            report.add(
                f"doc {doc_id}: document contains none of the query terms "
                "(stuffed posting)"
            )
    return report


def _document_checks(engine):
    """``(exists, contains)``: the two questions
    :func:`audit_search_result` asks, put to ``engine``'s archive."""
    documents = engine.documents
    term_counts = engine.analyzer.term_counts

    def exists(doc_id: int) -> bool:
        # A legitimately disposed document is not stuffing: its absence
        # is explained by an auditable WORM record.
        return documents.exists(doc_id) or engine.is_disposed(doc_id)

    def contains(doc_id: int, term: str) -> bool:
        if not documents.exists(doc_id):
            # Disposed: content gone, disposition record vouches.
            return True
        return term in term_counts(documents.get(doc_id).text)

    return exists, contains


def verify_results(
    engine, doc_ids: Sequence[int], terms: Sequence[str]
) -> AuditReport:
    """Cross-check result IDs against ``engine``'s WORM-resident documents."""
    exists, contains = _document_checks(engine)
    return audit_search_result(
        doc_ids, list(terms), document_exists=exists, document_contains=contains
    )


def _verify_traced(engine, results: Sequence, query, trace) -> AuditReport:
    """``engine.verify_results`` over ``results``, under a ``verify`` span
    of ``trace`` (when there is one) that notes the verdict."""
    span = None if trace is None else trace.begin("verify", results=len(results))
    report = engine.verify_results([r.doc_id for r in results], query.terms)
    if span is not None:
        span.note(ok=report.ok)
        trace.finish(span)
    return report


def require_verified(engine, results: Sequence, query, trace=None) -> None:
    """The verify step of ``search``: raise if ``results`` were stuffed.

    Surfaces the attempt; the caller (Bob) decides what to do with the
    evidence.
    """
    report = _verify_traced(engine, results, query, trace)
    if not report.ok:
        raise TamperDetectedError(
            f"result verification failed: {report.violations}",
            location=f"query {query.terms!r}",
            invariant=RESULT_INVARIANT,
        )


def search_with_incident_handling(engine, query, *, top_k: int = 10, trace=None):
    """Search, verify, and *handle* any detected stuffing.

    Returns ``(results, report)``: results are verified against the
    WORM documents with known-bad (quarantined) IDs excluded — the
    search over-fetches by the quarantine's size, so ``top_k`` is
    refilled past them — and the report lists what verification found
    this time.  Newly exposed fabricated IDs are quarantined in the
    archive's own incident log: they cannot be removed from WORM, so
    the engine appends durable knowledge that they are malicious
    instead (the paper's Section 6 future-work question, answered the
    WORM way).  Keyword-mismatch plants are real documents stuffed into
    the wrong list, so they are excluded from *this* result only — they
    remain legitimate answers to other queries.
    """
    if isinstance(query, str):
        from repro.search.query import parse_query  # search imports core

        query = parse_query(query, analyzer=engine.analyzer)
    incidents = engine.incidents
    results = [
        r
        for r in engine.search(
            query, top_k=top_k + len(incidents.quarantined_doc_ids), trace=trace
        )
        if not incidents.is_quarantined(r.doc_id)
    ]
    report = _verify_traced(engine, results, query, trace)
    if not report.ok:
        exists, contains = _document_checks(engine)
        fabricated = [r.doc_id for r in results if not exists(r.doc_id)]
        planted = {
            r.doc_id
            for r in results
            if exists(r.doc_id)
            and not any(contains(r.doc_id, term) for term in query.terms)
        }
        incidents.record(
            "posting-stuffing",
            location=f"query {query.terms!r}",
            invariant=RESULT_INVARIANT,
            description="; ".join(report.violations),
            quarantine_doc_ids=fabricated,
        )
        results = [
            r
            for r in results
            if r.doc_id not in planted and not incidents.is_quarantined(r.doc_id)
        ]
    return results[:top_k], report
