"""Full-audit pass for an engine, unsharded or sharded.

What an investigator (or a scheduled compliance job) runs: audit every
posting list, every jump-pointer set, and the commit-time log — per
shard, plus the document map, when the archive has shards.  Unlike the
query-path checks — which raise the moment they cross a violation — the
audit *collects* everything into reports, the artifact Bob files.
"""

from __future__ import annotations

from typing import List

from repro.core.verification import AuditReport, audit_posting_list
from repro.errors import TamperDetectedError


def _log_report(subject: str, verify) -> AuditReport:
    """The report on one self-verifying WORM log: ``verify()`` returns
    the number of records it checked, or raises on the first bad one."""
    report = AuditReport(subject=subject)
    try:
        report.entries_checked = verify()
    except TamperDetectedError as exc:
        report.add(str(exc))
    return report


def full_engine_audit(engine) -> List[AuditReport]:
    """Audit all index state of ``engine``; returns one report per subject.

    Covers:

    * every physical posting list (order + jump-pointer invariants);
    * every live sealed segment's names: bytes appended to its shared
      file after the seal and files its directory does not name are
      read by no query, and are reported, a finding per file;
    * the commit-time log (monotonicity of times and document IDs).

    A sharded engine gets both for each shard (report subjects prefixed
    with the shard number) and one more report for the coordinator's
    WORM document map — the cross-shard trust anchor that has no
    counterpart in the unsharded engine.

    The returned list always includes at least a log's report; check
    ``all(r.ok for r in reports)`` for a clean bill of health.
    """
    shards = getattr(engine, "shards", None)
    if shards is not None:
        reports: List[AuditReport] = []
        for shard_id, shard in enumerate(shards):
            for report in full_engine_audit(shard):
                report.subject = f"shard {shard_id}: {report.subject}"
                reports.append(report)
        reports.append(_log_report("shard document map", engine.router.verify))
        return reports
    # Every posting list ever committed — the directly-appended merged
    # lists and the sealed segments' alike carry the same order/jump
    # invariants (a reopened engine attaches them lazily; the iterator
    # attaches the rest).
    reports = [
        audit_posting_list(posting_list, jump)
        for posting_list, jump in engine.iter_posting_lists()
    ]
    for segment in engine.iter_segments():
        for name, size in segment.unreachable_files():
            report = AuditReport(subject=f"segment {segment.info.seg_no}")
            report.add(
                f"file '{name}': {size} bytes its manifest record does not "
                "commit (written after the seal; no query reads them)"
            )
            reports.append(report)
    reports.append(_log_report("commit-time log", engine.time_index.verify))
    return reports


#: The name sharded callers know the audit by.
full_sharded_audit = full_engine_audit
