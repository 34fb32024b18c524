"""Full-audit pass for a :class:`~repro.search.engine.TrustworthySearchEngine`.

What an investigator (or a scheduled compliance job) runs: audit every
posting list, every jump-pointer set, and the commit-time log.  Unlike
the query-path checks — which raise the moment they cross a violation —
the audit *collects* everything into reports, the artifact Bob files.
"""

from __future__ import annotations

from typing import List

from repro.core.verification import AuditReport, audit_posting_list
from repro.errors import TamperDetectedError


def full_engine_audit(engine) -> List[AuditReport]:
    """Audit all index state of ``engine``; returns one report per subject.

    Covers:

    * every physical posting list (order + jump-pointer invariants);
    * the commit-time log (monotonicity of times and document IDs).

    The returned list always includes at least the commit-log report;
    check ``all(r.ok for r in reports)`` for a clean bill of health.
    """
    # Every posting list ever committed — the directly-appended merged
    # lists and the sealed segments' alike carry the same order/jump
    # invariants (a reopened engine attaches them lazily; the iterator
    # attaches the rest).
    reports: List[AuditReport] = [
        audit_posting_list(posting_list, jump)
        for posting_list, jump in engine.iter_posting_lists()
    ]
    commit_report = AuditReport(subject="commit-time log")
    try:
        engine.time_index.verify()
        commit_report.entries_checked = len(engine.time_index)
    except TamperDetectedError as exc:
        commit_report.add(str(exc))
    reports.append(commit_report)
    return reports


def full_sharded_audit(sharded_engine) -> List[AuditReport]:
    """Audit every shard of a sharded engine, plus the document map.

    Runs :func:`full_engine_audit` on each shard (prefixing report
    subjects with the shard number) and appends one report for the
    coordinator's WORM document map — the cross-shard trust anchor that
    has no counterpart in the unsharded engine.
    """
    reports: List[AuditReport] = []
    for shard_id, shard in enumerate(sharded_engine.shards):
        for report in full_engine_audit(shard):
            report.subject = f"shard {shard_id}: {report.subject}"
            reports.append(report)
    map_report = AuditReport(subject="shard document map")
    try:
        map_report.entries_checked = sharded_engine.router.verify()
    except TamperDetectedError as exc:
        map_report.add(str(exc))
    reports.append(map_report)
    return reports
