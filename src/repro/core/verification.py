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
and the router for K shards.  A global ID no shard committed, or a
synthetic negative one, exists nowhere and was disposed by no one:
fabricated in both.
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

    Runs the checks the readers run, reporting every violation instead
    of stopping at the first:

    * the order check (:meth:`PostingList.check_order`) over the whole
      list: a document ID below one before it means a low-level
      append bypassed the honest writer — the binary-search attack of
      Section 4 leaves exactly this trace;
    * the pointer check (:meth:`BlockJumpIndex.pointer_fault`) on every
      set jump pointer: it goes forward, to a block that exists,
      holding an ID inside the pointer's range (Section 4.3's
      monotonicity property).

    Uses uncounted reads (audits are not part of any reported figure).
    """
    report = AuditReport(subject=f"posting list '{posting_list.name}'")
    columns, violations = posting_list.check_order()
    for block_no, doc_id, last in violations:
        report.add(
            f"block {block_no}: doc ID {doc_id} after {last} "
            "(append-order violation)"
        )
    report.entries_checked = sum(map(len, columns))
    if jump_index is not None:
        _audit_jump_pointers(jump_index, columns, report)
    return report


def _audit_jump_pointers(
    jump_index: BlockJumpIndex, columns: List[Sequence[int]], report: AuditReport
) -> None:
    """Hold every committed jump pointer to the pointer check; ``columns``
    are the list's blocks' document IDs."""
    for block_no, doc_ids in enumerate(columns):
        nb = doc_ids[-1] if doc_ids else -1
        for slot, target in enumerate(jump_index.slots(block_no)):
            if target is None:
                continue
            report.entries_checked += 1
            fault = jump_index.pointer_fault(
                block_no, nb, slot, target, columns.__getitem__
            )
            if fault is not None:
                report.add(f"block {block_no} slot {slot}: {fault[1]}")


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
