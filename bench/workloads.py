"""The four workloads: what they build, what they run, what they return.

Each workload is one fixed, pre-generated op list driven in a closed
loop (a client sends its next op when the reply to the last one is in).
The list is a pure function of ``(workload, seed, seconds)``: its length
is ``seconds`` times a per-workload rate frozen on the seed machine, so
that the timed window lasts about ``seconds`` there while the same
queries, seals and merges land on the same ops in every run.

``build`` runs in the parent (it is the set-up being timed); ``run``
runs in a fresh child process that only ever holds the engine under
measurement, and hands every answer back for the parent to check.

Common shape: 2 shards, thread executor, engine defaults
(``num_lists=1024``, ``block_size=8192``, ``branching=32``, BM25),
``top_k=10``.  Flush policy: fsync off everywhere, which is the CLI's
default; every journal record is written and flushed to the operating
system as it is committed, and synced once when the archive closes.  With
``fsync=True, group_commit=64`` a window of ``ingest-seal`` makes 1,800
fsyncs of about 1 ms each whose latency on the seed machine's shared disk
varies several-fold with the neighbours: the same seed's
``ingest_docs_per_s`` then spreads by 23 % between runs against 5 % without,
and the benchmark could not hold its own bounds.
"""

from __future__ import annotations

import os
import random
import select
import signal
import subprocess
import sys
import threading
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from bench import gen
from bench.measure import bytes_under, peak_rss_mb, peak_rss_mb_of

TOP_K = 10
SHARDS = 2
BATCH_DOCS = 16
#: Searches run untimed before a timed window, to fill lazily built state.
WARMUP_OPS = 50
TAIL_MAX_DOCS = 128
MERGE_AT_SEGMENTS = 8
SVC_POOL_QUERIES = 300
SVC_INGEST_SHARE = 0.15
#: ``serve`` is given this long to come up, and this long to drain.
SERVE_START_TIMEOUT_S = 60.0
SERVE_DRAIN_TIMEOUT_S = 10.0


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: Tail + sealed segments, or the paper's directly appended merged lists.
    tail: bool
    preload_docs: int
    #: Ops in the list per second of ``--seconds``, per client.
    ops_per_second: float
    #: Closed-loop clients, each with an op list of its own.
    clients: int = 1
    #: Documents whose id token is searched for after the final reopen from disk.
    read_back_docs: int = 0

    def op_count(self, seconds: float) -> int:
        return max(1, round(self.ops_per_second * seconds))


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "disj-scan",
            "Disjunctive Zipf queries over sealed segments and a live tail, cache "
            "off: posting scan, decode and rank do the work; jump index, join, "
            "verify and journal do none.",
            tail=True,
            preload_docs=1900,
            ops_per_second=110,
        ),
        Workload(
            "conj-jump",
            "Verified conjunctive +head +body queries, 1 in 4 time-ranged, over "
            "legacy merged lists: zigzag join, FindGeq on long lists, commit-time "
            "index and document verification dominate; the other read path.",
            tail=False,
            preload_docs=3000,
            ops_per_second=700,
        ),
        Workload(
            "ingest-seal",
            "One client ingests 16-document batches through seals and each "
            "shard's first merge, then reopens and reads back: the write path "
            "alone, and the merge stall.",
            tail=True,
            preload_docs=1900,
            ops_per_second=18,
            # These searches are also the workload's search latencies; with
            # 200 of them their 90th percentile spread by 13-19 % between runs.
            read_back_docs=600,
        ),
        Workload(
            "svc-mixed",
            "Two keep-alive HTTP clients, 85% hot-pool searches and 15% ingest "
            "batches, against the serve subprocess with the read cache on: reads "
            "and writes together through admission, RW lock, HTTP and JSON.",
            tail=True,
            preload_docs=1900,
            ops_per_second=60,
            clients=2,
            read_back_docs=200,
        ),
    )
}


def program_source() -> str:
    """``src/`` of the checkout the benchmark runs from."""
    return os.path.join(os.getcwd(), "src")


def _open(path: str, **kwargs):
    from repro.cli import open_archive

    return open_archive(path, **kwargs)


def archive_path(directory: str) -> str:
    return os.path.join(directory, "archive.worm")


# ----------------------------------------------------------------------
# set-up (parent process)
# ----------------------------------------------------------------------
@dataclass
class Build:
    seconds: float
    batch_seconds: List[float]
    user_bytes: int
    #: When the build started, on the ``perf_counter`` clock.
    started: float


def build(workload: Workload, seed: int, directory: str) -> Build:
    """Generate the preload and build, then close, the archive under
    ``directory``; all of it is the set-up time."""
    from repro.search.engine import EngineConfig

    started = perf_counter()
    docs = gen.documents(seed, 0, workload.preload_docs)
    config = (
        EngineConfig(tail_max_docs=TAIL_MAX_DOCS, merge_at_segments=MERGE_AT_SEGMENTS)
        if workload.tail
        else EngineConfig()
    )
    engine, handle = _open(archive_path(directory), create=config, shards=SHARDS)
    batch_seconds = []
    try:
        for at in range(0, len(docs), BATCH_DOCS):
            batch = docs[at : at + BATCH_DOCS]
            sent = perf_counter()
            doc_ids = engine.index_batch(batch)
            batch_seconds.append(perf_counter() - sent)
            if doc_ids != list(range(at, at + len(batch))):
                raise RuntimeError(f"preload batch at {at} committed as {doc_ids}")
    finally:
        handle.close()
    return Build(
        seconds=perf_counter() - started,
        batch_seconds=batch_seconds,
        user_bytes=sum(len(doc.encode("utf-8")) for doc in docs),
        started=started,
    )


# ----------------------------------------------------------------------
# op lists
# ----------------------------------------------------------------------
def search_ops(workload: Workload, seed: int, seconds: float) -> List[str]:
    """Query strings of a read-only workload (warm-up ops first)."""
    count = WARMUP_OPS + workload.op_count(seconds)
    if workload.name == "disj-scan":
        return gen.disjunctive_queries(seed, count)
    return gen.conjunctive_queries(seed, count, workload.preload_docs)


def ingest_batches(workload: Workload, seed: int, seconds: float) -> List[Tuple[int, List[str]]]:
    """``(first corpus position, documents)`` per ``ingest-seal`` batch."""
    return [
        (position, gen.documents(seed, position, BATCH_DOCS))
        for position in range(
            workload.preload_docs,
            workload.preload_docs + workload.op_count(seconds) * BATCH_DOCS,
            BATCH_DOCS,
        )
    ]


def service_ops(workload: Workload, seed: int, seconds: float) -> List[List[gen.Op]]:
    """One op list per ``svc-mixed`` client; clients ingest disjoint ranges."""
    per_client = workload.op_count(seconds)
    pools = gen.hot_pools(seed, SVC_POOL_QUERIES, workload.preload_docs)
    return [
        gen.mixed_ops(
            seed,
            client,
            per_client,
            pools,
            ingest_share=SVC_INGEST_SHARE,
            batch_docs=BATCH_DOCS,
            first_doc=workload.preload_docs + client * per_client * BATCH_DOCS,
        )
        for client in range(workload.clients)
    ]


# ----------------------------------------------------------------------
# measurement (child process)
# ----------------------------------------------------------------------
#: ``(doc_id, score)`` pairs, the form answers travel back to the parent in.
Hits = List[Tuple[int, float]]


@dataclass
class Run:
    """Everything one pass over a workload's op list observed."""

    reopen_s: float = 0.0
    window_s: float = 0.0
    #: When the reopen, the window and the read-back started, on the
    #: ``perf_counter`` clock (the machine gauge is read over these spans).
    reopen_started: float = 0.0
    window_started: float = 0.0
    read_back_started: float = 0.0
    read_back_s: float = 0.0
    #: Ops of the list executed inside the timed window (answered or failed).
    ops: int = 0
    #: ``(query, sent at, seconds, hits)`` per timed search.
    searches: List[Tuple[str, float, float, Hits]] = field(default_factory=list)
    #: ``(first corpus position, acknowledged at, seconds, doc ids)`` per batch.
    ingests: List[Tuple[int, float, float, List[int]]] = field(default_factory=list)
    #: ``(corpus position, seconds, hits)`` per id token read back after reopen.
    read_back: List[Tuple[int, float, Hits]] = field(default_factory=list)
    read_back_attempts: int = 0
    #: One line per op that raised or was refused.
    errors: List[str] = field(default_factory=list)
    #: UTF-8 bytes of the documents the window's batches carried.
    ingested_bytes: int = 0
    disk_bytes: int = 0
    peak_rss_mb: float = 0.0


class NoProbe:
    """What an untraced pass is given in place of ``bench.probe.Probe``."""

    @contextmanager
    def phase(self, name: str, engine=None) -> Iterator[Callable[[], None]]:
        yield lambda: None

    def request(self, number: int) -> None:
        pass


def _timed(run: Run, label: str, call: Callable[[], object]):
    """``(sent at, seconds, value)`` of one op, or ``None`` after counting its failure."""
    sent = perf_counter()
    try:
        value = call()
    except Exception as exc:  # noqa: BLE001 - a failed op is a counted outcome
        run.errors.append(f"{label}: {type(exc).__name__}: {exc}")
        return None
    return sent, perf_counter() - sent, value


def _hits(target, query: str, **kwargs) -> Hits:
    return [(hit.doc_id, hit.score) for hit in target.search(query, top_k=TOP_K, **kwargs)]


def _search(run: Run, target, query: str, **kwargs) -> None:
    outcome = _timed(run, f"search {query!r}", lambda: _hits(target, query, **kwargs))
    if outcome is not None:
        run.searches.append((query, *outcome))


def _ingest(run: Run, target, position: int, docs: Sequence[str]) -> None:
    outcome = _timed(run, f"ingest at {position}", lambda: list(target.index_batch(docs)))
    if outcome is not None:
        sent, seconds, doc_ids = outcome
        run.ingests.append((position, sent + seconds, seconds, doc_ids))
        run.ingested_bytes += sum(len(doc.encode("utf-8")) for doc in docs)


def _read_back(run: Run, engine, seed: int, committed: Sequence[int], count: int) -> None:
    """On an engine reopened from disk, search (verified) for the id tokens
    of a seeded sample of the ``committed`` corpus positions."""
    rng = random.Random(f"readback/{seed}")
    sample = sorted(rng.sample(committed, min(count, len(committed))))
    run.read_back_attempts = len(sample)
    run.read_back_started = perf_counter()
    for position in sample:
        token = gen.id_token(seed, position)
        outcome = _timed(
            run, f"read back {token}", lambda t=token: _hits(engine, t, verify=True)
        )
        if outcome is not None:
            run.read_back.append((position, *outcome[1:]))
    run.read_back_s = perf_counter() - run.read_back_started


@contextmanager
def _reopening(run: Run, probe) -> Iterator[None]:
    """The block is the run's reopen: timed, under the ``bench.reopen`` phase."""
    with probe.phase("bench.reopen"):
        run.reopen_started = perf_counter()
        yield
        run.reopen_s = perf_counter() - run.reopen_started


@contextmanager
def _window(run: Run, probe, engine) -> Iterator[Callable[[], None]]:
    """The block is the run's timed window, under the ``bench.window`` phase;
    yields the probe's ``adopt`` for threads the block starts."""
    with probe.phase("bench.window", engine) as adopt:
        run.window_started = perf_counter()
        yield adopt
        run.window_s = perf_counter() - run.window_started


def run_search(workload: Workload, seed: int, seconds: float, directory: str, probe) -> Run:
    """``disj-scan`` / ``conj-jump``: reopen, warm, run the query list."""
    run = Run(disk_bytes=bytes_under(directory))
    queries = search_ops(workload, seed, seconds)
    verify = workload.name == "conj-jump"
    with _reopening(run, probe):
        engine, handle = _open(archive_path(directory))
    try:
        for query in queries[:WARMUP_OPS]:
            engine.search(query, top_k=TOP_K, verify=verify)
        with _window(run, probe, engine):
            for number, query in enumerate(queries[WARMUP_OPS:]):
                probe.request(number)
                _search(run, engine, query, verify=verify)
    finally:
        handle.close()
    run.ops = len(run.searches) + len(run.errors)
    return run


def run_ingest(workload: Workload, seed: int, seconds: float, directory: str, probe) -> Run:
    """``ingest-seal``: ingest the batch list, close, reopen, read back.

    No warm-up: ingest has no cache to fill, and skipped batches would
    change what is on disk when the bytes are counted.
    """
    run = Run()
    batches = ingest_batches(workload, seed, seconds)
    path = archive_path(directory)
    engine, handle = _open(path)
    try:
        with _window(run, probe, engine):
            for number, (position, docs) in enumerate(batches):
                probe.request(number)
                _ingest(run, engine, position, docs)
    finally:
        handle.close()
    run.ops = len(run.ingests) + len(run.errors)
    run.disk_bytes = bytes_under(directory)
    with _reopening(run, probe):
        engine, handle = _open(path)
    try:
        committed = range(workload.preload_docs + len(batches) * BATCH_DOCS)
        _read_back(run, engine, seed, committed, workload.read_back_docs)
    finally:
        handle.close()
    return run


@dataclass
class _Served:
    """A running archive service."""

    endpoint: str
    #: The engine, when the service runs inside this process.
    engine: object = None
    #: The service's process, when it is not this one.
    pid: Optional[int] = None

    def peak_rss_mb(self) -> float:
        return peak_rss_mb_of(self.pid) if self.pid else peak_rss_mb()


@contextmanager
def _serve_subprocess(path: str) -> Iterator[_Served]:
    """``python -m repro serve`` until the block ends; always drained."""
    process = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve", "--archive", path,
            "--port", "0", "--rate", "0", "--read-cache",
        ],  # fmt: skip
        env=dict(os.environ, PYTHONPATH=program_source()),
        stdout=subprocess.PIPE,
        text=True,
    )
    try:
        yield _Served(_await_endpoint(process), pid=process.pid)
    finally:
        if process.poll() is None:
            process.send_signal(signal.SIGTERM)
            try:
                process.wait(timeout=SERVE_DRAIN_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()
        process.stdout.close()


def _await_endpoint(process: subprocess.Popen) -> str:
    """The URL ``serve`` prints once it listens, then a 200 from /healthz."""
    from repro.loadtest.transport import HTTPTransport

    deadline = perf_counter() + SERVE_START_TIMEOUT_S
    while True:
        remaining = max(0.0, deadline - perf_counter())
        ready, _, _ = select.select([process.stdout], [], [], remaining)
        line = process.stdout.readline() if ready else ""
        if not line:
            raise RuntimeError(f"serve did not come up (exit code {process.poll()})")
        if " at http://" in line:
            endpoint = line.split(" at ", 1)[1].split()[0]
            break
    with HTTPTransport(endpoint) as transport:
        transport.healthz()
    return endpoint


@contextmanager
def _serve_in_process(path: str) -> Iterator[_Served]:
    """The same service hosted here, so a tracer can reach its layers."""
    from repro.service import AdmissionConfig, ServiceConfig, serve_archive

    server = serve_archive(
        path,
        config=ServiceConfig(admission=AdmissionConfig(rate=None)),
        read_cache=True,
    ).start()
    try:
        yield _Served(server.endpoint, engine=server.service.engine)
    finally:
        server.drain()


def run_service(
    workload: Workload,
    seed: int,
    seconds: float,
    directory: str,
    probe,
    *,
    in_process: bool = False,
) -> Run:
    """``svc-mixed``: serve, warm, two closed-loop clients, drain, read back."""
    from repro.loadtest.transport import HTTPTransport

    run = Run()
    client_ops = service_ops(workload, seed, seconds)
    path = archive_path(directory)
    serving = _serve_in_process(path) if in_process else _serve_subprocess(path)
    with ExitStack() as stack:
        with _reopening(run, probe):
            served = stack.enter_context(serving)
        transport = stack.enter_context(HTTPTransport(served.endpoint))
        warm = [payload for kind, payload in client_ops[0] if kind == "search"]
        for query in warm[:WARMUP_OPS]:
            transport.search(query, top_k=TOP_K)
        # Each client records into its own Run; the lists are joined after.
        parts = [Run() for _ in client_ops]
        with _window(run, probe, served.engine) as adopt:
            threads = [
                threading.Thread(target=_client, args=(part, ops, transport, probe, adopt))
                for part, ops in zip(parts, client_ops)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        for part in parts:
            run.searches.extend(part.searches)
            run.ingests.extend(part.ingests)
            run.errors.extend(part.errors)
            run.ingested_bytes += part.ingested_bytes
        run.peak_rss_mb = served.peak_rss_mb()
    run.ops = len(run.searches) + len(run.ingests) + len(run.errors)
    run.disk_bytes = bytes_under(directory)
    committed = list(range(workload.preload_docs))
    for position, _, _, doc_ids in sorted(run.ingests):
        committed.extend(range(position, position + len(doc_ids)))
    engine, handle = _open(path)
    try:
        _read_back(run, engine, seed, committed, workload.read_back_docs)
    finally:
        handle.close()
    return run


def _client(run: Run, ops: Sequence[gen.Op], transport, probe, adopt) -> None:
    adopt()
    for number, (kind, payload) in enumerate(ops):
        probe.request(number)
        if kind == "search":
            _search(run, transport, payload)
        else:
            _ingest(run, transport, *payload)
