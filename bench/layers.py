"""Which functions of the program the traced run puts spans around.

Every span is taken from outside: ``install`` replaces attributes of the
program's modules and classes with timing wrappers and hands back a
function that puts the originals back.  Nothing under ``src/`` knows it
is being traced, and an untraced run never imports this module's targets
through a wrapper.

Span names are ``<module path>.<what>``; the per-layer metrics in
``BENCHMARK.json`` are ``<span name>_s`` (summed self time) and counts
read at the same boundaries.  A target is ``"module:attribute.path"``.
Functions that other modules import by name are listed once per module
that holds a binding, because replacing the definition would not reach
those.  Where a layer has no public function at its boundary the span
goes on the private function that is the layer's single choke point
(the journal's record writer, the executor's per-shard run).

A span costs about a microsecond, so a function called several hundred
thousand times a second gets none: the store's ``read_block`` (the
commit-time index reads a block per record), the lexicon's ``lookup`` (a
dict access) and the jump index's per-posting ``insert`` would be timed
wrapper, not program.  Their time stays in the self time of the span that
calls them, and where the program counts their calls the count is read.
"""

from __future__ import annotations

import importlib
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Dict, List, Tuple

from bench.trace import Tracer, propagate_through_submit

LAYERS: Dict[str, Tuple[str, ...]] = {
    # WORM device + journal
    "worm.persistent.replay": ("repro.worm.persistent:JournaledWormDevice.__init__",),
    "worm.persistent.append": ("repro.worm.persistent:JournaledWormDevice._write_record",),
    "worm.persistent.fsync": ("repro.worm.persistent:JournaledWormDevice._fsync_journal",),
    # posting lists / sealed segments / tail
    "core.posting_list.load_block": (
        "repro.core.posting_list:PostingList.load_block_postings",
        "repro.core.posting_list:PostingList.read_block_postings",
    ),
    "core.vecdecode.decode": ("repro.core.vecdecode:decode_columns",),
    "core.segments.scan": ("repro.core.segments:SealedSegment.collect_candidates",),
    "core.segments.join": ("repro.core.segments:SealedSegment.conjunctive_doc_ids",),
    "core.tail.scan": (
        "repro.core.tail:TailSnapshot.collect_candidates",
        "repro.core.tail:TailSnapshot.docs_with_all",
    ),
    "core.tail.add": ("repro.core.tail:MutableTailIndex.add",),
    "core.tail.snapshot": ("repro.core.tail:MutableTailIndex.snapshot",),
    "core.segments.seal": ("repro.search.engine:TrustworthySearchEngine.seal_tail",),
    "core.segments.merge": ("repro.search.engine:TrustworthySearchEngine.merge_segments",),
    "core.segments.write_lists": ("repro.search.engine:write_segment_lists",),
    # jump index and commit-time index
    "core.block_jump_index.find_geq": (
        "repro.core.block_jump_index:BlockJumpIndex.find_geq",
    ),
    "core.time_index.range": ("repro.core.time_index:CommitTimeIndex.docs_in_range",),
    # engine: parse, resolve, match, join, verify, ingest
    "search.analyzer.analyze": (
        "repro.search.analyzer:Analyzer.term_counts",
        "repro.search.analyzer:Analyzer.query_terms",
    ),
    "search.query.parse": (
        "repro.sharding.engine:parse_query",
        "repro.sharding.executor:parse_query",
        "repro.search.engine:parse_query",
    ),
    "search.engine.match": ("repro.search.engine:TrustworthySearchEngine.match",),
    "search.join.join": (
        "repro.search.engine:conjunctive_join",
        "repro.core.segments:conjunctive_join",
    ),
    "search.documents.verify": (
        "repro.sharding.engine:ShardedSearchEngine.verify_results",
    ),
    "search.documents.get": ("repro.search.documents:DocumentStore.get",),
    "search.documents.commit": ("repro.search.documents:DocumentStore.commit",),
    "search.engine.index_batch": (
        "repro.search.engine:TrustworthySearchEngine.index_batch",
    ),
    # shard executor, router, batch ingest
    "sharding.engine.search": ("repro.sharding.engine:ShardedSearchEngine.search",),
    "sharding.executor.fanout": (
        "repro.sharding.executor:ParallelQueryExecutor.search",
    ),
    "sharding.executor.shard_run": (
        "repro.sharding.executor:ParallelQueryExecutor._shard_run",
    ),
    "sharding.batch.ingest": ("repro.sharding.batch:BatchIngestor.ingest",),
    "sharding.router.assign": ("repro.sharding.router:ShardRouter.assign_many",),
    # service: HTTP, admission, RW lock, protocol; and the client transport
    "service.server.dispatch": ("repro.service.server:ArchiveService.dispatch",),
    "service.server.handle_search": (
        "repro.service.server:ArchiveService.handle_search",
    ),
    "service.server.handle_ingest": (
        "repro.service.server:ArchiveService.handle_ingest",
    ),
    "service.admission.admit": ("repro.service.admission:AdmissionController.admit",),
    "service.locks.read_wait": ("repro.service.locks:ReadWriteLock.acquire_read",),
    "service.locks.write_wait": ("repro.service.locks:ReadWriteLock.acquire_write",),
    "service.protocol.parse": (
        "repro.service.server:parse_search_request",
        "repro.service.server:parse_ingest_request",
    ),
}

#: The two ends of an HTTP request; wrapped by ``_link_http`` rather than
#: ``Tracer.wrap`` because the server side has to find its client's span.
HTTP_CLIENT = "loadtest.transport.request"
HTTP_SERVER = "service.server.http"


def _resolve(target: str):
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *parents, attribute = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attribute


def _link_http(tracer: Tracer) -> List[Tuple[object, str, Callable]]:
    """Spans on both ends of a request, the server's a child of the client's.

    The harness's clients are closed-loop and keep one connection each, so
    a connection's local address identifies the one request in flight on
    it; the handler thread looks its peer address up and adopts that span.
    """
    from repro.loadtest.transport import HTTPTransport
    from repro.service.server import _Handler

    in_flight: Dict[Tuple[str, int], Tuple[int, int]] = {}
    request = HTTPTransport._request
    handle = _Handler._handle
    traced_handle = tracer.wrap(HTTP_SERVER, handle)

    def traced_request(transport, *args, **kwargs):
        with tracer.span(HTTP_CLIENT) as span_id:
            address = transport._connection().sock.getsockname()
            in_flight[address] = (span_id, tracer.current()[1])
            return request(transport, *args, **kwargs)

    def adopting_handle(handler, *args, **kwargs):
        context = in_flight.get(handler.client_address)
        if context is not None:
            tracer.adopt(*context)
        return traced_handle(handler, *args, **kwargs)

    return [
        (HTTPTransport, "_request", traced_request),
        (_Handler, "_handle", adopting_handle),
    ]


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap every target; returns the function that undoes it."""
    replacements: List[Tuple[object, str, Callable]] = []
    for name, targets in LAYERS.items():
        for target in targets:
            owner, attribute = _resolve(target)
            replacements.append(
                (owner, attribute, tracer.wrap(name, getattr(owner, attribute)))
            )
    replacements.extend(_link_http(tracer))
    replacements.append(
        (
            ThreadPoolExecutor,
            "submit",
            propagate_through_submit(tracer, ThreadPoolExecutor.submit),
        )
    )
    originals = [
        (owner, attribute, owner.__dict__[attribute])
        for owner, attribute, _ in replacements
    ]
    for owner, attribute, wrapper in replacements:
        setattr(owner, attribute, wrapper)

    def restore() -> None:
        for owner, attribute, original in originals:
            setattr(owner, attribute, original)

    return restore


def installed() -> List[str]:
    """Targets that currently hold a wrapper (empty in an untraced run)."""
    wrapped = []
    for targets in LAYERS.values():
        for target in targets:
            owner, attribute = _resolve(target)
            if hasattr(getattr(owner, attribute), "__wrapped__"):
                wrapped.append(target)
    return wrapped
