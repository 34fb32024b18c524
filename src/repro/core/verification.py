"""Certified-reader auditors (Sections 2.1, 4.3, 5).

Bob runs a certified search engine; these are the checks it (and an
offline auditor) performs so that Mala's WORM-legal manipulations —
appends of spurious entries, malicious pointer assignments, posting-list
stuffing — are *detected* rather than silently distorting answers.

Auditors come in two flavours:

* raising — the query-path checks inside the index structures raise
  :class:`~repro.errors.TamperDetectedError` the moment a violation is
  observed (the paper's ``assert`` lines);
* reporting — the offline :func:`audit_posting_list` pass and the
  result check :func:`verify_results` collect *all* violations into an
  :class:`AuditReport`, the artifact an investigator would file.

The **result check** of Section 5 and the incident handling on top of it
(:func:`verify_results`, :func:`require_verified`,
:func:`search_with_incident_handling`) are written here once, for every
engine.  :func:`verify_results` works out each result's verdict in one
pass over the archive: ``engine.documents.exists`` once per ID,
``engine.is_disposed`` for an absent document, and for a present one a
single ``engine.documents.get`` and ``analyzer.term_counts``.  An ANY
query's hit must hold one of its terms, an ALL query's hit every one.
The report, the raise and the quarantine all read that one
:class:`ResultVerdict`.  The document store and retention log answer
for one engine, and the global document view and the router for K
shards.  A global ID no shard committed, or a synthetic negative one,
exists nowhere and was disposed by no one: fabricated in both.
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


@dataclass
class ResultVerdict(AuditReport):
    """The result check's report, with the IDs it condemned.

    ``fabricated`` IDs name no committed document, and no disposition
    record explains their absence; ``mismatched`` ones name a document
    that lacks what the query asked for.  Each also has its line in
    ``violations``, in result order.
    """

    fabricated: List[int] = field(default_factory=list)
    mismatched: List[int] = field(default_factory=list)


def verify_results(engine, doc_ids: Sequence[int], query) -> ResultVerdict:
    """Hold each result ID to ``engine``'s WORM-resident documents
    (Section 5), reading and analysing each document at most once.

    ``query`` is a string or a :class:`~repro.search.query.Query`.  An ID
    passes when it names a committed document that holds one of an ANY
    query's terms, or every term of an ALL query, or when a disposition
    record explains its absence: disposal deletes a document, not its
    postings.
    """
    from repro.search.query import QueryMode, parse_query  # search imports core

    if isinstance(query, str):
        query = parse_query(query, analyzer=engine.analyzer)
    terms, need_all = query.terms, query.mode is QueryMode.ALL
    documents, term_counts = engine.documents, engine.analyzer.term_counts
    verdict = ResultVerdict(f"result for query {list(terms)!r}", entries_checked=len(doc_ids))
    for doc_id in doc_ids:
        if documents.exists(doc_id):
            counts = term_counts(documents.get(doc_id).text)
            missing = [term for term in terms if term not in counts]
            if len(missing) == len(terms):
                problem = "document contains none of the query terms"
            elif need_all and missing:
                problem = f"document lacks the query terms {missing!r}"
            else:
                continue
            verdict.mismatched.append(doc_id)
        elif engine.is_disposed(doc_id):
            continue
        else:
            problem = "posting refers to a nonexistent document"
            verdict.fabricated.append(doc_id)
        verdict.add(f"doc {doc_id}: {problem} (stuffed posting)")
    return verdict


def _verify_traced(engine, results: Sequence, query, trace) -> ResultVerdict:
    """``engine.verify_results`` over ``results``, under a ``verify`` span
    of ``trace`` (when there is one) that notes the verdict."""
    span = None if trace is None else trace.begin("verify", results=len(results))
    verdict = engine.verify_results([r.doc_id for r in results], query)
    if span is not None:
        span.note(ok=verdict.ok)
        trace.finish(span)
    return verdict


def require_verified(engine, results: Sequence, query, trace=None) -> None:
    """The verify step of ``search``: raise if ``results`` were stuffed.

    Surfaces the attempt; the caller (Bob) decides what to do with the
    evidence.
    """
    verdict = _verify_traced(engine, results, query, trace)
    if not verdict.ok:
        raise TamperDetectedError(
            f"result verification failed: {verdict.violations}",
            location=f"query {query.terms!r}",
            invariant=RESULT_INVARIANT,
        )


def search_with_incident_handling(engine, query, *, top_k: int = 10, trace=None):
    """Search, verify, and *handle* any detected stuffing.

    Returns ``(results, verdict)``: results are verified against the
    WORM documents with known-bad (quarantined) IDs excluded — the
    search over-fetches by the quarantine's size, so ``top_k`` is
    refilled past them — and the verdict reports what verification
    found this time.  Newly exposed fabricated IDs are quarantined in
    the archive's own incident log: they cannot be removed from WORM,
    so the engine appends durable knowledge that they are malicious
    instead (the paper's Section 6 future-work question, answered the
    WORM way).  Mismatched documents are real documents stuffed into
    the wrong list, so they are excluded from *this* result only — they
    remain legitimate answers to queries they match.
    """
    if isinstance(query, str):
        from repro.search.query import parse_query  # search imports core

        query = parse_query(query, analyzer=engine.analyzer)
    incidents = engine.incidents
    quarantined = incidents.quarantined_doc_ids
    hits = engine.search(query, top_k=top_k + len(quarantined), trace=trace)
    results = [r for r in hits if r.doc_id not in quarantined]
    verdict = _verify_traced(engine, results, query, trace)
    if not verdict.ok:
        incidents.record(
            "posting-stuffing",
            location=f"query {query.terms!r}",
            invariant=RESULT_INVARIANT,
            description="; ".join(verdict.violations),
            quarantine_doc_ids=verdict.fabricated,
        )
        condemned = {*verdict.fabricated, *verdict.mismatched}
        results = [r for r in results if r.doc_id not in condemned]
    return results[:top_k], verdict
