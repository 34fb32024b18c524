"""Command-line interface: a compliance archive in a single journal file.

Usage (also available as ``python -m repro``)::

    repro-search init    --archive records.worm [--num-lists N] [--block-size B]
                         [--branching B] [--retention PERIOD] [--shards K]
                         [--tail-max-docs N] [--seal-strategy uniform|popular|epoch]
                         [--seal-popular K] [--merge-at N]
    repro-search index   --archive records.worm --text "..." [--text "..."]
    repro-search index   --archive records.worm file1.txt ... [--batch-size N]
                         [--commit-time T] [--fsync] [--group-commit N]
                         [--metrics-json out.json]
    repro-search search  --archive records.worm "stewart waksal" [--top-k K]
                         [--verify] [--trace]
                         [--read-cache] [--cache-mb MB] [--repeat N]
                         [--metrics-json out.json]
    repro-search audit   --archive records.worm [--json case.json]
    repro-search stats   --archive records.worm
    repro-search metrics --archive records.worm [--json out.json]
    repro-search profile --archive records.worm "+a +b +c" --query-file log.txt
    repro-search dispose --archive records.worm --now TIME
                         [--fsync] [--group-commit N]
    repro-search verify-journal --archive records.worm
    repro-search segments --archive records.worm [--seal] [--merge]
                         [--fsync] [--group-commit N]
    repro-search serve   --archive records.worm [--host H] [--port P]
                         [--rate R] [--burst B] [--max-inflight N]
                         [--max-queue Q] [--queue-timeout S]
                         [--request-timeout S] [--fsync] [--group-commit N]
                         [--read-cache] [--cache-mb MB] [--log-requests]
                         [--seal-interval S]

The archive is one append-only journal file holding the entire WORM
device: documents, posting lists, jump pointers, commit-time log,
incident and disposition logs.  The engine configuration is committed
into the archive at ``init`` time (it shapes committed state, so it must
not drift between sessions).

With ``init --shards K`` (K > 1) the archive is partitioned: the main
journal becomes the coordinator (configuration, global incident log;
global document IDs are derived from the shards) and each shard lives
in a sibling journal
``records.worm.shard00`` … ``records.worm.shard{K-1}``.  Every other
subcommand detects the sharded layout from the committed configuration;
a query visits every shard and merges their ranked runs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace
from typing import List, Optional

from repro.errors import ReproError, TamperDetectedError
from repro.search.engine import EngineConfig, TrustworthySearchEngine
from repro.sharding.engine import ShardedSearchEngine
from repro.worm.persistent import JournaledWormDevice
from repro.worm.storage import CachedWormStore

_CONFIG_FILE = "archive/config"

#: Keys of the config record, in the order it lists them: the
#: ``EngineConfig`` fields that shape committed state, and the shard
#: count.  Every record holds the first five; ``shards`` and the
#: tail-mode fields after it postdate some archives.
_ORIGINAL_CONFIG_KEYS = (
    "num_lists",
    "block_size",
    "branching",
    "ranking",
    "retention_period",
)
_CONFIG_KEYS = _ORIGINAL_CONFIG_KEYS + (
    "shards",
    "tail_max_docs",
    "seal_strategy",
    "seal_popular_terms",
    "merge_at_segments",
)


def _shard_path(path: str, shard_id: int) -> str:
    return f"{path}.shard{shard_id:02d}"


def _write_config(
    store: CachedWormStore, config: EngineConfig, shards: int
) -> None:
    record = {
        key: shards if key == "shards" else getattr(config, key)
        for key in _CONFIG_KEYS
    }
    payload = json.dumps(record, separators=(",", ":")).encode("utf-8")
    worm_file = store.create_file(_CONFIG_FILE)
    for start in range(0, len(payload), store.block_size):
        worm_file.append_record(payload[start : start + store.block_size])


def _read_config(store: CachedWormStore):
    """The recorded config, at the block size of the config file itself:
    the size the archive's files are made at, which the record of an
    archive initialised before it was applied (always 8 KiB files) can
    contradict."""
    worm_file = store.open_file(_CONFIG_FILE)
    payload = b"".join(
        store.peek_block(_CONFIG_FILE, b) for b in range(worm_file.num_blocks)
    )
    try:
        data = json.loads(payload.decode("utf-8"))
    except ValueError as error:  # not UTF-8, or not one JSON object
        raise TamperDetectedError(
            f"the config record init wrote does not decode: {error}",
            location=f"config file '{_CONFIG_FILE}'", invariant="config-record",
        ) from None
    # An absent newer key reads as one shard, or as the field's default:
    # the archive was built legacy-synchronous (tail disabled).
    fields = {
        key: data[key]
        for key in _CONFIG_KEYS
        if key in data or key in _ORIGINAL_CONFIG_KEYS
    }
    shards = fields.pop("shards", 1)
    fields["block_size"] = worm_file.block_size
    return EngineConfig(**fields), shards


class _ArchiveHandle:
    """Closer for a sharded archive: the engine, then every journal."""

    def __init__(self, devices, engine):
        self._devices = devices
        self._engine = engine

    def close(self) -> None:
        self._engine.close()
        for device in self._devices:
            device.close()


def open_archive(
    path: str,
    *,
    create: Optional[EngineConfig] = None,
    shards: int = 1,
    fsync: bool = False,
    group_commit: int = 1,
    read_cache: bool = False,
    cache_mb: float = 8.0,
):
    """Open (or with ``create``, initialize) an archive at ``path``.

    Returns ``(engine, handle)``; call ``handle.close()`` when done.
    ``shards`` only applies at ``create`` time — reopening reads the
    shard count from the committed configuration.  ``fsync`` /
    ``group_commit`` are per-session durability knobs applied to every
    journal the archive opens (coordinator and shards alike);
    ``read_cache`` / ``cache_mb`` likewise enable the session-scoped
    read-path cache (per shard on a sharded archive) — none of these is
    persisted, because none shapes committed state.
    """
    if create is not None:
        strays = [_shard_path(path, i) for i in range(shards if shards > 1 else 0)]
        stray = next(filter(os.path.exists, strays), None)
        if stray is not None:
            raise ReproError(f"shard journal '{stray}' already exists: a new archive adopts none")
    device = JournaledWormDevice(path, fsync=fsync, group_commit=group_commit)
    store = CachedWormStore(None, device=device)
    try:
        if create is not None:
            if device.exists(_CONFIG_FILE):
                raise ReproError(f"archive '{path}' is already initialized")
            device.block_size = create.block_size
            _write_config(store, create, shards)
            config = create
        else:
            if not device.exists(_CONFIG_FILE):
                raise ReproError(
                    f"'{path}' is not an initialized archive (run 'init' first)"
                )
            config, shards = _read_config(store)
            device.block_size = config.block_size
    except Exception:
        device.close()
        raise
    if read_cache:
        config = replace(config, read_cache=True, read_cache_mb=cache_mb)
    if shards <= 1:
        engine = TrustworthySearchEngine(config, store=store)
        return engine, device
    devices = [device]

    def shard_store(shard_id: int) -> CachedWormStore:
        shard_device = JournaledWormDevice(
            _shard_path(path, shard_id),
            block_size=config.block_size,
            fsync=fsync,
            group_commit=group_commit,
        )
        devices.append(shard_device)
        return CachedWormStore(None, device=shard_device)

    engine = ShardedSearchEngine(
        config,
        num_shards=shards,
        store_factory=shard_store,
        coordinator_store=store,
    )
    return engine, _ArchiveHandle(devices, engine)


def _require(condition, message: str) -> None:
    """An argument check: unmet, ``main`` prints ``error: <message>``
    and exits 2."""
    if not condition:
        raise ReproError(message)


def _session_options(args) -> dict:
    """The :func:`open_archive` keywords of the session option groups
    (durability, read cache) the subcommand declares."""
    names = ("fsync", "group_commit", "read_cache", "cache_mb")
    return {name: getattr(args, name) for name in names if hasattr(args, name)}


def _write_metrics_json(engine, path: str, traces=()) -> None:
    """Write one stable ``repro-metrics/v1`` JSON snapshot to ``path``."""
    from repro.observability.adapters import metrics_document

    doc = metrics_document(engine, traces=traces)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, indent=2, sort_keys=True)
        handle.write("\n")


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------
def _cmd_init(args) -> int:
    _require(args.shards >= 1, f"--shards must be >= 1 (got {args.shards})")
    config = EngineConfig(
        num_lists=args.num_lists,
        block_size=args.block_size,
        branching=args.branching,
        retention_period=args.retention,
        tail_max_docs=args.tail_max_docs or None,
        seal_strategy=args.seal_strategy,
        seal_popular_terms=args.seal_popular,
        merge_at_segments=args.merge_at or None,
    )
    engine, handle = open_archive(
        args.archive, create=config, shards=args.shards
    )
    handle.close()
    jump = f"B={config.branching}" if config.branching else "disabled"
    layout = (
        f", {args.shards} shards" if args.shards > 1 else ""
    )
    tail = (
        f", tail seals at {config.tail_max_docs} docs "
        f"({config.seal_strategy})"
        if config.tail_max_docs is not None
        else ""
    )
    print(
        f"initialized archive '{args.archive}': {config.num_lists} merged "
        f"lists, {config.block_size} B blocks, jump index {jump}, "
        f"retention {config.retention_period or 'forever'}{layout}{tail}"
    )
    return 0


def _cmd_index(args) -> int:
    engine, archive = open_archive(args.archive, **_session_options(args))
    try:
        texts: List[str] = list(args.text or [])
        for file_name in args.files:
            try:
                with open(file_name, "r", encoding="utf-8") as handle:
                    texts.append(handle.read())
            except OSError as exc:
                raise ReproError(f"cannot read '{file_name}': {exc}") from exc
        _require(texts, "nothing to index: pass --text or file paths")
        _require(
            args.commit_time is None or len(texts) == 1,
            "--commit-time requires a single document",
        )
        for start in range(0, len(texts), args.batch_size):
            batch = texts[start:start + args.batch_size]
            commit_times = (
                None if args.commit_time is None else [args.commit_time]
            )
            doc_ids = engine.index_batch(batch, commit_times=commit_times)
            for doc_id, text in zip(doc_ids, batch):
                preview = " ".join(text.split())[:60]
                print(f"committed doc {doc_id}: {preview}")
        if args.metrics_json:
            _write_metrics_json(engine, args.metrics_json)
            print(f"wrote metrics snapshot to {args.metrics_json}")
        return 0
    finally:
        archive.close()


def _cmd_search(args) -> int:
    _require(args.cache_mb > 0, f"--cache-mb must be positive (got {args.cache_mb})")
    _require(args.repeat >= 1, f"--repeat must be >= 1 (got {args.repeat})")
    engine, archive = open_archive(args.archive, **_session_options(args))
    want_trace = args.trace or args.metrics_json
    trace = None
    try:
        try:
            # --repeat re-runs the query in one session; with
            # --read-cache the later runs hit the result cache, which is
            # what the printed (last-run) trace demonstrates.
            for _ in range(args.repeat):
                if want_trace:
                    from repro.observability.trace import QueryTrace

                    trace = QueryTrace(args.query)
                if args.verify:
                    results, report = engine.search_with_incident_handling(
                        args.query, top_k=args.top_k, trace=trace
                    )
                    if not report.ok:
                        print(
                            f"WARNING: tampering detected and handled "
                            f"({len(report.violations)} violations logged)",
                            file=sys.stderr,
                        )
                else:
                    results = engine.search(
                        args.query, top_k=args.top_k, trace=trace
                    )
        except TamperDetectedError as exc:
            print(f"TAMPERING DETECTED: {exc}", file=sys.stderr)
            return 3
        if results:
            for hit in results:
                doc = engine.documents.get(hit.doc_id)
                preview = " ".join(doc.text.split())[:70]
                print(f"doc {hit.doc_id}  score {hit.score:6.2f}  t={doc.commit_time}  {preview}")
        else:
            print("no results")
        if args.trace and trace is not None:
            print(trace.pretty())
        if args.metrics_json:
            _write_metrics_json(
                engine, args.metrics_json, traces=[trace] if trace else []
            )
            print(f"wrote metrics snapshot to {args.metrics_json}")
        return 0
    finally:
        archive.close()


def _cmd_metrics(args) -> int:
    """Render the archive's metrics (Prometheus text, optionally JSON)."""
    from repro.observability.adapters import engine_metrics

    engine, archive = open_archive(args.archive)
    try:
        registry = engine_metrics(engine)
        if args.json:
            _write_metrics_json(engine, args.json)
            print(f"wrote metrics snapshot to {args.json}", file=sys.stderr)
        sys.stdout.write(registry.render_prometheus())
        return 0
    finally:
        archive.close()


def _cmd_audit(args) -> int:
    from repro.adversary.detection import full_engine_audit

    engine, archive = open_archive(args.archive)
    try:
        reports = full_engine_audit(engine)
        if args.json:
            with open(args.json, "w", encoding="utf-8") as handle:
                json.dump(
                    [r.to_dict() for r in reports], handle, indent=2
                )
            print(f"wrote {len(reports)} audit reports to {args.json}")
        bad = [r for r in reports if not r.ok]
        checked = sum(r.entries_checked for r in reports)
        print(
            f"audited {len(reports)} subjects ({checked} entries): "
            f"{len(bad)} with violations"
        )
        for report in bad:
            print(f"  {report.subject}:")
            for violation in report.violations:
                print(f"    - {violation}")
        incident_count = len(engine.incidents)
        if incident_count:
            print(f"incident log: {incident_count} recorded incidents")
            for incident in engine.incidents.incidents():
                print(
                    f"  #{incident.seq} [{incident.kind}] {incident.location} "
                    f"quarantined={list(incident.quarantined_doc_ids)}"
                )
        return 1 if bad else 0
    finally:
        archive.close()


def _cmd_stats(args) -> int:
    engine, archive = open_archive(args.archive)
    try:
        stats = engine.archive_stats()
        width = max(len(k) for k in stats)
        for key, value in stats.items():
            print(f"{key.rjust(width)}  {value}")
        return 0
    finally:
        archive.close()


def _cmd_profile(args) -> int:
    from repro.search.profiling import recommend_configuration

    engine, archive = open_archive(args.archive)
    try:
        queries: List[str] = list(args.query or [])
        if args.query_file:
            try:
                with open(args.query_file, "r", encoding="utf-8") as handle:
                    queries.extend(
                        line.strip() for line in handle if line.strip()
                    )
            except OSError as exc:
                raise ReproError(
                    f"cannot read '{args.query_file}': {exc}"
                ) from exc
        _require(queries, "nothing to profile: pass queries or --query-file")
        profiles = [engine.profile(raw) for raw in queries]
        for profile in profiles:
            print(profile.summary())
        print()
        print(recommend_configuration(profiles))
        return 0
    finally:
        archive.close()


def _cmd_verify_journal(args) -> int:
    """fsck for the archive: scan every journal without applying state.

    Works even on archives too corrupt to open — scanning checks
    framing, CRCs, sequence numbers, opcodes and record sizes record by
    record, and reports journal bytes per opcode beside the payload
    bytes the appends carry (framing overhead per stored byte).
    """
    from repro.worm.persistent import scan_journal

    _require(os.path.exists(args.archive), f"no archive at '{args.archive}'")
    paths = [args.archive]
    shard_id = 0
    while os.path.exists(_shard_path(args.archive, shard_id)):
        paths.append(_shard_path(args.archive, shard_id))
        shard_id += 1
    tampered = 0
    for path in paths:
        report = scan_journal(path)
        print(report.summary())
        if not report.ok:
            tampered += 1
    scanned = "journal" if len(paths) == 1 else f"{len(paths)} journals"
    if tampered:
        print(
            f"verified {scanned}: {tampered} TAMPERED", file=sys.stderr
        )
        return 1
    print(f"verified {scanned}: clean")
    return 0


def _cmd_dispose(args) -> int:
    # Disposition-log appends and WORM deletes are exactly the writes
    # that must not be lost; honour the same durability knobs as index.
    engine, archive = open_archive(args.archive, **_session_options(args))
    try:
        disposed = engine.dispose_expired(now=args.now)
        if disposed:
            print(f"disposed {len(disposed)} expired documents: {disposed}")
        else:
            print("nothing past its retention horizon")
        return 0
    finally:
        archive.close()


def _print_segment_table(info, indent: str = "") -> None:
    print(f"{indent}tail: {info['tail_docs']} docs, {info['tail_postings']} postings")
    if not info["segments"]:
        print(f"{indent}no sealed segments")
        return
    print(
        f"{indent}{'seg':>5} {'docs':>12} {'count':>7} "
        f"{'strategy':<8} {'popular':>7} {'lists':>6} {'short':>6} "
        f"{'blocks':>6} merged-from"
    )
    for seg in info["segments"]:
        merged = (
            ",".join(str(s) for s in seg["merged_from"])
            if seg["merged_from"]
            else "-"
        )
        # A segment sealed before short lists shared a file has no counts.
        lists, short, blocks = (
            "-" if seg[key] is None else seg[key]
            for key in ("lists", "short_lists", "shared_blocks")
        )
        print(
            f"{indent}{seg['seg_no']:>5} "
            f"{seg['first_doc']:>5}..{seg['last_doc']:<5} "
            f"{seg['doc_count']:>7} {seg['strategy']:<8} "
            f"{seg['popular_terms']:>7} {lists:>6} {short:>6} {blocks:>6} {merged}"
        )


def _cmd_segments(args) -> int:
    """Show — and optionally advance — the tail/segment layout."""
    # Seals and merges append segment lists and manifest records; honour
    # the same durability knobs as index.
    engine, archive = open_archive(args.archive, **_session_options(args))
    try:
        _require(
            engine.tail_enabled,
            "archive is not in tail mode (init with --tail-max-docs)",
        )
        if args.seal:
            sealed = engine.seal_tail()
            print(f"sealed tail into segment(s): {sealed}")
        if args.merge:
            merged = engine.merge_segments()
            print(f"merged live segments into: {merged}")
        info = engine.segments_info()
        if "shards" in info:
            for shard_id, shard_info in enumerate(info["shards"]):
                print(f"shard {shard_id}:")
                _print_segment_table(shard_info, indent="  ")
        else:
            _print_segment_table(info)
        return 0
    finally:
        archive.close()


def _cmd_serve(args) -> int:
    """Run the long-lived archive service until a signal drains it."""
    import signal
    import threading

    from repro.service.admission import AdmissionConfig
    from repro.service.server import ServiceConfig, serve_archive

    _require(
        0 <= args.port <= 65535, f"--port must be in [0, 65535] (got {args.port})"
    )
    _require(args.rate >= 0, f"--rate must be >= 0 (got {args.rate})")
    _require(
        args.seal_interval >= 0,
        f"--seal-interval must be >= 0 (got {args.seal_interval})",
    )
    config = ServiceConfig(
        admission=AdmissionConfig(
            rate=None if args.rate == 0 else args.rate,
            burst=args.burst,
            max_inflight=args.max_inflight,
            max_queue=args.max_queue,
            queue_timeout=args.queue_timeout,
        ),
        request_timeout=args.request_timeout,
        log_requests=args.log_requests,
        seal_interval=args.seal_interval,
    )
    try:
        server = serve_archive(
            args.archive,
            host=args.host,
            port=args.port,
            config=config,
            **_session_options(args),
        )
    except OSError as exc:
        raise ReproError(f"cannot bind {args.host}:{args.port}: {exc}") from exc
    stop = threading.Event()

    def _trigger_drain(_signum, _frame) -> None:
        stop.set()

    previous = {
        sig: signal.signal(sig, _trigger_drain)
        for sig in (signal.SIGTERM, signal.SIGINT)
    }
    server.start()
    rate = "off" if config.admission.rate is None else (
        f"{config.admission.rate:g}/s (burst {config.admission.burst:g})"
    )
    print(
        f"serving archive '{args.archive}' at {server.endpoint} — "
        f"rate limit {rate}, inflight {config.admission.max_inflight}, "
        f"queue {config.admission.max_queue}; SIGTERM drains"
    )
    sys.stdout.flush()
    try:
        while not stop.wait(timeout=0.2):
            pass
    except KeyboardInterrupt:
        pass
    finally:
        for sig, handler in previous.items():
            signal.signal(sig, handler)
    print("draining: rejecting new work, finishing in-flight requests ...")
    sys.stdout.flush()
    server.drain()
    print("drained: journals synced, archive closed")
    return 0


def _add_metrics_json_option(parser: argparse.ArgumentParser) -> None:
    """``--metrics-json``, shared by index and search."""
    parser.add_argument(
        "--metrics-json", default=None, metavar="PATH",
        help="write a metrics snapshot (repro-metrics/v1 JSON; search adds "
        "the query trace) once the command has run",
    )


def _add_durability_options(
    parser: argparse.ArgumentParser, *, group_commit: int = 64
) -> None:
    """``--fsync`` and ``--group-commit``, for every subcommand that
    writes: index, dispose, segments, serve."""
    parser.add_argument(
        "--fsync", action="store_true",
        help="fsync the journal(s) as this session writes (durable but "
        "slower)",
    )
    parser.add_argument(
        "--group-commit", type=int, default=group_commit,
        help="with --fsync, records per fsync batch (default: "
        f"{group_commit}; 1 = fsync every record)",
    )


def _add_read_cache_options(parser: argparse.ArgumentParser) -> None:
    """``--read-cache`` and ``--cache-mb``, shared by search and serve."""
    parser.add_argument(
        "--read-cache", action="store_true",
        help="enable the session-scoped read-path cache (each list "
        "family's retrieval of a query's terms)",
    )
    parser.add_argument(
        "--cache-mb", type=float, default=8.0,
        help="read-cache budget in MB (default: 8)",
    )


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro-search",
        description="Trustworthy keyword search over a WORM archive",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    init = sub.add_parser("init", help="initialize a new archive")
    init.add_argument("--archive", required=True, help="journal file path")
    init.add_argument("--num-lists", type=int, default=1024)
    init.add_argument("--block-size", type=int, default=8192)
    init.add_argument(
        "--branching", type=int, default=32,
        help="jump-index branching factor; 0 disables jump indexes",
    )
    init.add_argument(
        "--retention", type=int, default=None,
        help="retention period in commit-time units (default: forever)",
    )
    init.add_argument(
        "--shards", type=int, default=1,
        help="partition the archive across K shards (default: 1)",
    )
    init.add_argument(
        "--tail-max-docs", type=int, default=0, metavar="N",
        help="enable the write–read decoupled tail: buffer up to N docs "
        "per shard in the in-memory tail before sealing a WORM segment "
        "(default: 0 = legacy synchronous posting-list appends)",
    )
    init.add_argument(
        "--seal-strategy", choices=["uniform", "popular", "epoch"],
        default="uniform",
        help="merging strategy applied when sealing a segment: uniform "
        "hash, keep-popular-unmerged (by tail term counts), or epoch "
        "(popularity from the previous seal) (default: uniform)",
    )
    init.add_argument(
        "--seal-popular", type=int, default=8, metavar="K",
        help="with popular/epoch sealing, terms kept unmerged (default: 8)",
    )
    init.add_argument(
        "--merge-at", type=int, default=8, metavar="N",
        help="auto-merge live segments once N accumulate; 0 disables "
        "background merging (default: 8)",
    )
    init.set_defaults(func=_cmd_init)

    index = sub.add_parser("index", help="commit and index documents")
    index.add_argument("--archive", required=True)
    index.add_argument("--text", action="append", help="inline document text")
    index.add_argument("files", nargs="*", help="text files to commit")
    index.add_argument(
        "--commit-time", type=int, default=None,
        help="explicit commit timestamp (default: engine clock)",
    )
    index.add_argument(
        "--batch-size", type=int, default=64,
        help="documents committed per batched index pass (default: 64)",
    )
    _add_durability_options(index)
    _add_metrics_json_option(index)
    index.set_defaults(func=_cmd_index)

    search = sub.add_parser(
        "search", aliases=["query"], help="query the archive"
    )
    search.add_argument("--archive", required=True)
    search.add_argument("query", help="keywords; '+a +b' = conjunctive; '@t1..t2' = time range")
    search.add_argument("--top-k", type=int, default=10)
    search.add_argument(
        "--verify", action="store_true",
        help="verify results against WORM documents; quarantine stuffing",
    )
    search.add_argument(
        "--trace", action="store_true",
        help="print the per-stage query trace (spans with micro-costs)",
    )
    _add_read_cache_options(search)
    search.add_argument(
        "--repeat", type=int, default=1,
        help="run the query N times in one session (with --read-cache the "
        "later runs are served from the result cache)",
    )
    _add_metrics_json_option(search)
    search.set_defaults(func=_cmd_search)

    audit = sub.add_parser("audit", help="full tamper audit of the archive")
    audit.add_argument("--archive", required=True)
    audit.add_argument(
        "--json", help="also write the reports to a JSON case file"
    )
    audit.set_defaults(func=_cmd_audit)

    stats = sub.add_parser("stats", help="operational archive summary")
    stats.add_argument("--archive", required=True)
    stats.set_defaults(func=_cmd_stats)

    metrics = sub.add_parser(
        "metrics",
        help="render archive metrics (Prometheus text; --json for a snapshot)",
    )
    metrics.add_argument("--archive", required=True)
    metrics.add_argument(
        "--json", default=None, metavar="PATH",
        help="also write the repro-metrics/v1 JSON snapshot to PATH",
    )
    metrics.set_defaults(func=_cmd_metrics)

    profile = sub.add_parser(
        "profile", help="measure query costs and recommend a configuration"
    )
    profile.add_argument("--archive", required=True)
    profile.add_argument("query", nargs="*", help="queries to profile")
    profile.add_argument(
        "--query-file", help="file with one query per line (e.g. a query log)"
    )
    profile.set_defaults(func=_cmd_profile)

    verify_journal = sub.add_parser(
        "verify-journal",
        help="fsck-style integrity scan of the archive journal(s)",
    )
    verify_journal.add_argument("--archive", required=True)
    verify_journal.set_defaults(func=_cmd_verify_journal)

    dispose = sub.add_parser(
        "dispose", help="dispose of documents past their retention horizon"
    )
    dispose.add_argument("--archive", required=True)
    dispose.add_argument("--now", type=int, required=True, help="current time")
    # Dispositions are few and precious: fsync each record by default.
    _add_durability_options(dispose, group_commit=1)
    dispose.set_defaults(func=_cmd_dispose)

    segments = sub.add_parser(
        "segments",
        help="show the tail/segment layout of a tail-mode archive "
        "(optionally seal the tail or merge live segments)",
    )
    segments.add_argument("--archive", required=True)
    segments.add_argument(
        "--seal", action="store_true",
        help="seal the current tail into a WORM segment first",
    )
    segments.add_argument(
        "--merge", action="store_true",
        help="merge all live segments into one (after --seal, if both)",
    )
    _add_durability_options(segments)
    segments.set_defaults(func=_cmd_segments)

    serve = sub.add_parser(
        "serve",
        help="serve the archive over HTTP (search/ingest/audit/metrics) "
        "until drained by SIGTERM",
    )
    serve.add_argument("--archive", required=True)
    serve.add_argument(
        "--host", default="127.0.0.1", help="bind address (default: loopback)"
    )
    serve.add_argument(
        "--port", type=int, default=8080,
        help="bind port; 0 picks a free one (default: 8080)",
    )
    serve.add_argument(
        "--rate", type=float, default=200.0,
        help="per-tenant sustained requests/second; 0 disables rate "
        "limiting (default: 200)",
    )
    serve.add_argument(
        "--burst", type=float, default=400.0,
        help="per-tenant burst allowance (default: 400)",
    )
    serve.add_argument(
        "--max-inflight", type=int, default=8,
        help="concurrent requests executing (default: 8)",
    )
    serve.add_argument(
        "--max-queue", type=int, default=64,
        help="requests allowed to wait for a slot before 503 (default: 64)",
    )
    serve.add_argument(
        "--queue-timeout", type=float, default=5.0,
        help="longest a queued request waits before being shed (default: 5s)",
    )
    serve.add_argument(
        "--request-timeout", type=float, default=5.0,
        help="socket read / keep-alive idle timeout (default: 5s)",
    )
    _add_durability_options(serve)
    _add_read_cache_options(serve)
    serve.add_argument(
        "--log-requests", action="store_true",
        help="echo one access-log line per request to stderr",
    )
    serve.add_argument(
        "--seal-interval", type=float, default=0.0, metavar="S",
        help="on a tail-mode archive, background-seal the tail every S "
        "seconds so quiet periods still bound tail residency "
        "(default: 0 = size-triggered sealing only)",
    )
    serve.set_defaults(func=_cmd_serve)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "branching", None) == 0:
        args.branching = None
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via tests of main()
    sys.exit(main())
