"""Full-audit pass for an engine, unsharded or sharded.

What an investigator (or a scheduled compliance job) runs: audit every
posting list, every jump-pointer set, the lexicon log and the
commit-time log — per shard, when the archive has shards.  Unlike the
query-path checks — which raise the moment they cross a violation — the
audit *collects* everything into reports, the artifact Bob files.
"""

from __future__ import annotations

from typing import List

from repro.core.verification import AuditReport, audit_posting_list
from repro.errors import TamperDetectedError


def full_engine_audit(engine) -> List[AuditReport]:
    """Audit all index state of ``engine``; returns one report per subject.

    Covers:

    * every physical posting list (order + jump-pointer invariants) —
      one whose document IDs descend, which every reader refuses, too:
      its report names each descent;
    * every live sealed segment's names: bytes appended to its shared
      file after the seal, postings appended to a long list past the
      count its directory entry records, and files its directory does
      not name are committed by no manifest record, and are reported, a
      finding per file;
    * the ranking statistics, recounted from the stored documents
      (:meth:`~repro.search.engine.TrustworthySearchEngine.verify_statistics`):
      a report, under ``statistics``, only when they differ;
    * the lexicon log: every line checked as a reopen checks it, and
      the whole log exactly the terms the engine numbered, in order;
    * the commit-time log (monotonicity of times and document IDs).

    A sharded engine gets all of it for each shard (report subjects
    prefixed with the shard number); its global IDs are derived from
    the shards' commit-time logs, so there is nothing else to audit.

    The returned list always includes the logs' reports; check
    ``all(r.ok for r in reports)`` for a clean bill of health.
    """
    shards = getattr(engine, "shards", None)
    if shards is not None:
        reports: List[AuditReport] = []
        for shard_id, shard in enumerate(shards):
            for report in full_engine_audit(shard):
                report.subject = f"shard {shard_id}: {report.subject}"
                reports.append(report)
        return reports
    # Every posting list ever committed — the directly-appended merged
    # lists and the sealed segments' alike carry the same order/jump
    # invariants (a reopened engine attaches them lazily; the iterator
    # attaches the rest).
    reports = [
        audit_posting_list(posting_list, jump)
        for posting_list, jump in engine.iter_posting_lists(audit=True)
    ]
    for segment in engine.iter_segments():
        for name, size in segment.unreachable_files():
            report = AuditReport(subject=f"segment {segment.info.seg_no}")
            report.add(
                f"file '{name}': {size} bytes its manifest record does not "
                "commit (written after the seal; no reader takes them)"
            )
            reports.append(report)
    try:
        engine.verify_statistics()
    except TamperDetectedError as exc:
        report = AuditReport(subject="statistics")
        report.add(str(exc))
        reports.append(report)
    # Each log verifies itself: it returns the records it checked, or
    # raises on the first bad one.
    for subject, verify in (
        ("lexicon log", engine.verify_lexicon),
        ("commit-time log", engine.time_index.verify),
    ):
        log_report = AuditReport(subject=subject)
        try:
            log_report.entries_checked = verify()
        except TamperDetectedError as exc:
            log_report.add(str(exc))
        reports.append(log_report)
    return reports


#: The name sharded callers know the audit by.
full_sharded_audit = full_engine_audit
