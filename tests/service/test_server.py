"""End-to-end service tests: real HTTP, concurrency, and the drain.

These drive :class:`ArchiveServer` over loopback sockets with
:class:`HTTPTransport` as the client, covering what the socketless
handler tests cannot: keep-alive plumbing, the reader-writer discipline
under real thread interleavings, and the graceful-drain contract (no
accepted request is lost).  The client's own rule — what it sends a
second time and what it never does — is tested against a raw socket
server that misbehaves on cue.
"""

import json
import socketserver
import threading
import time
from dataclasses import replace

import pytest

from repro.cli import open_archive
from repro.loadtest.transport import (
    HTTPTransport,
    RateLimitedError,
    ServiceClientError,
    ServiceOverloadedError,
)
from repro.search.engine import EngineConfig
from repro.service import (
    AdmissionConfig,
    ArchiveServer,
    ArchiveService,
    ServiceConfig,
)
from tests.helpers import DEFAULT_CORPUS, SMALL_CONFIG, build_engine

#: Keep pathological-connection waits short in tests.
FAST = ServiceConfig(request_timeout=2.0)

ARCHIVE_CONFIG = EngineConfig(num_lists=64, block_size=4096, branching=None)


@pytest.fixture()
def server():
    with ArchiveServer(ArchiveService(build_engine(batch=True), config=FAST)) as srv:
        yield srv


class TestEndToEnd:
    def test_search_ingest_audit_roundtrip(self, server):
        with HTTPTransport(server.endpoint) as client:
            health = client.healthz()
            assert health["status"] == "ok"
            assert health["documents"] == len(DEFAULT_CORPUS)

            hits = client.search("imclone", top_k=5)
            assert hits and all(isinstance(h.doc_id, int) for h in hits)

            doc_ids = client.index_batch(["quagga sighting report"])
            assert doc_ids == [len(DEFAULT_CORPUS)]
            assert [h.doc_id for h in client.search("quagga")] == doc_ids

            audit = client._call("GET", "/audit")
            assert audit["ok"] is True

            metrics = client._call("GET", "/metrics")
            assert "repro_service_requests_total" in metrics["text"]

    def test_get_search_query_string(self, server):
        with HTTPTransport(server.endpoint) as client:
            body = client._call("GET", "/search?q=imclone&top_k=2")
            assert 0 < body["count"] <= 2

    def test_rate_limit_over_the_wire(self):
        config = ServiceConfig(
            admission=AdmissionConfig(rate=0.001, burst=1), request_timeout=2.0
        )
        service = ArchiveService(build_engine(batch=True), config=config)
        with ArchiveServer(service) as srv, HTTPTransport(srv.endpoint) as client:
            assert client.search("imclone")
            with pytest.raises(RateLimitedError) as excinfo:
                client.search("imclone")
            assert excinfo.value.retry_after >= 1

    def test_overload_over_the_wire(self):
        config = ServiceConfig(
            admission=AdmissionConfig(
                rate=None, max_inflight=1, max_queue=0, queue_timeout=0
            ),
            request_timeout=2.0,
        )
        service = ArchiveService(build_engine(batch=True), config=config)
        with ArchiveServer(service) as srv, HTTPTransport(srv.endpoint) as client:
            service.admission.gate.try_enter()  # simulate a saturated service
            try:
                with pytest.raises(ServiceOverloadedError):
                    client.search("imclone")
            finally:
                service.admission.gate.leave()
            assert client.search("imclone")  # slot free again


class _MisbehavingServer(socketserver.ThreadingTCPServer):
    """A loopback server that answers its n-th request as ``script[n]``
    says (and any further one as the last): ``"answer"``; ``"late"``
    (after ``LATE`` seconds); ``"hang up"`` (close, unanswered);
    ``"answer, then close"`` (what a server does to a connection it has
    kept alive long enough).  Leaving the ``with`` block joins every
    connection's thread, so ``requests`` is complete when it is read."""

    LATE = 0.8
    ANSWER = b'{"results": [], "doc_ids": [0]}'

    def __init__(self, *script):
        super().__init__(("127.0.0.1", 0), _MisbehavingHandler)
        self.script = script
        self.requests = []
        self.connections = 0
        self.closed_one = threading.Event()
        self.endpoint = "http://127.0.0.1:%d" % self.server_address[1]
        threading.Thread(target=self.serve_forever, args=(0.05,)).start()

    def __exit__(self, *exc_info):
        self.shutdown()
        super().__exit__(*exc_info)


class _MisbehavingHandler(socketserver.StreamRequestHandler):
    def handle(self):
        server = self.server
        server.connections += 1
        while True:
            request_line = self.rfile.readline()
            if not request_line:
                return  # the client hung up
            length = 0
            for header in iter(self.rfile.readline, b"\r\n"):
                name, _, value = header.partition(b":")
                if name.lower() == b"content-length":
                    length = int(value)
            self.rfile.read(length)
            action = server.script[min(len(server.requests), len(server.script) - 1)]
            server.requests.append(request_line.decode().rsplit(" ", 1)[0])
            if action == "hang up":
                return
            if action == "late":
                time.sleep(server.LATE)
            try:
                self.wfile.write(
                    b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
                    b"Content-Length: %d\r\n\r\n%s" % (len(server.ANSWER), server.ANSWER)
                )
            except OSError:
                return  # the client gave up waiting
            if action == "answer, then close":
                return

    def finish(self):
        super().finish()
        self.server.closed_one.set()


class TestClientRetry:
    @pytest.mark.parametrize(
        "script",
        [("late",), ("hang up",), ("answer", "late")],
        ids=["late answer", "fresh connection hung up", "late on a kept-alive one"],
    )
    def test_an_ingest_is_never_sent_twice(self, script):
        """An archive cannot take a committed duplicate back, and a write
        waiting out a merge behind the writer lock is how an answer gets
        late: the client raises and leaves the decision to its caller."""
        with _MisbehavingServer(*script) as srv:
            with HTTPTransport(srv.endpoint, timeout=0.3) as client:
                for _ in script[:-1]:
                    client.search("put the connection in use")
                with pytest.raises(ServiceClientError):
                    client.index_batch(["a record to be committed once"])
        searches = len(script) - 1
        assert srv.requests == ["POST /search"] * searches + ["POST /ingest"]

    def test_reconnects_when_the_server_closed_an_idle_connection(self):
        with _MisbehavingServer("answer, then close", "answer") as srv:
            with HTTPTransport(srv.endpoint, timeout=2.0) as client:
                assert client.index_batch(["first"]) == [0]
                assert srv.closed_one.wait(timeout=5)
                assert client.index_batch(["second"]) == [0]
        assert srv.requests == ["POST /ingest", "POST /ingest"]
        assert srv.connections == 2


class TestHitsArePlainNumbers:
    def test_hits_are_python_numbers_and_json_encodable(self, tmp_path):
        """Ranking works on arrays; what leaves it must not be array
        scalars: ``/search`` JSON-encodes hits.  One query ranks by
        columns (hundreds of postings), one by the scalar scorer (a
        single posting)."""
        path = str(tmp_path / "archive")
        engine, handle = open_archive(path, create=ARCHIVE_CONFIG, shards=2)
        engine.index_batch([f"imclone memo record{i}" for i in range(120)])
        handle.close()

        engine, handle = open_archive(path)
        service = ArchiveService(engine, config=FAST)
        try:
            for query, expected in (("imclone memo", 5), ("record7", 1)):
                hits = service.engine.search(query, top_k=5)
                assert len(hits) == expected
                for hit in hits:
                    assert type(hit.doc_id) is int and type(hit.score) is float
                status, body, _ = service.handle_search({"query": query, "top_k": 5})
                assert status == 200
                assert json.loads(json.dumps(body))["results"] == [
                    {"doc_id": hit.doc_id, "score": hit.score} for hit in hits
                ]
        finally:
            handle.close()


class TestSnapshotConsistency:
    def test_searches_never_observe_a_partial_ingest(self, server):
        """Ingest batches are atomic to concurrent readers.

        Every document in a batch carries the same marker term, so any
        search observing only part of a batch would count a non-multiple
        of the batch size.
        """
        batch_size, batches = 8, 5
        counts, failures = [], []
        stop = threading.Event()

        def searcher():
            with HTTPTransport(server.endpoint) as client:
                while not stop.is_set():
                    try:
                        counts.append(len(client.search("zanzibar", top_k=100)))
                    except ServiceClientError as exc:  # pragma: no cover
                        failures.append(exc)
                        return

        readers = [threading.Thread(target=searcher) for _ in range(3)]
        for reader in readers:
            reader.start()
        with HTTPTransport(server.endpoint) as writer:
            for batch_no in range(batches):
                writer.index_batch(
                    [
                        f"zanzibar cable {batch_no}-{i}"
                        for i in range(batch_size)
                    ]
                )
        stop.set()
        for reader in readers:
            reader.join(timeout=10.0)
        assert not failures
        assert counts, "searchers never ran"
        torn = [count for count in counts if count % batch_size]
        assert not torn, f"saw partial batches: {sorted(set(torn))}"


class TestGracefulDrain:
    def test_drain_is_idempotent_and_rejects_after(self, server):
        with HTTPTransport(server.endpoint) as client:
            assert client.search("imclone")
        server.drain()
        server.drain()  # second drain is a no-op
        with HTTPTransport(server.endpoint, timeout=1.0) as client:
            with pytest.raises(ServiceClientError):  # listener is gone
                client.search("imclone")

    def test_no_accepted_ingest_is_lost(self, tmp_path):
        """Every ingest the draining server acknowledged is on disk."""
        path = str(tmp_path / "archive")
        engine, handle = open_archive(path, create=ARCHIVE_CONFIG, shards=2)
        engine.index_batch([f"seed record {i}" for i in range(4)])
        handle.close()

        engine, handle = open_archive(path)
        service = ArchiveService(engine, handle, config=FAST)
        server = ArchiveServer(service).start()
        accepted, rejected = [], []
        barrier = threading.Barrier(5)

        def ingester(worker: int):
            with HTTPTransport(server.endpoint, timeout=5.0) as client:
                barrier.wait()
                for attempt in range(10):
                    try:
                        ids = client.index_batch(
                            [f"drainproof w{worker} a{attempt}"]
                        )
                        accepted.extend(ids)
                    except ServiceClientError as exc:
                        rejected.append(exc)
                        return

        workers = [
            threading.Thread(target=ingester, args=(w,)) for w in range(4)
        ]
        for worker in workers:
            worker.start()
        barrier.wait()  # drain lands while ingests are in flight
        server.drain()
        for worker in workers:
            worker.join(timeout=10.0)

        # Acknowledged IDs are unique and, after reopening the archive
        # from disk, every one of them is committed and searchable.
        assert len(accepted) == len(set(accepted))
        engine, handle = open_archive(path)
        try:
            assert len(engine.documents) == 4 + len(accepted)
            found = {
                hit.doc_id for hit in engine.search("drainproof", top_k=100)
            }
            assert found == set(accepted)
        finally:
            handle.close()


class TestBackgroundSealer:
    TAIL_CONFIG = replace(SMALL_CONFIG, tail_max_docs=100, merge_at_segments=None)

    def test_sealer_freezes_tail_while_serving(self):
        """The sealer thread turns tail docs into segments behind live
        traffic, and searches stay correct throughout."""
        engine = build_engine(config=self.TAIL_CONFIG, batch=True)
        config = ServiceConfig(request_timeout=2.0, seal_interval=0.05)
        with ArchiveServer(
            ArchiveService(engine, config=config)
        ) as srv, HTTPTransport(srv.endpoint) as client:
            sealer = srv._sealer
            assert sealer is not None and sealer.is_alive()
            client.index_batch(["quagga sighting report"])
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                if engine.segments_info()["segments"]:
                    break
                time.sleep(0.02)
            else:  # pragma: no cover - diagnostic
                pytest.fail("sealer never produced a segment")
            assert srv.sealer_error is None
            # Sealed docs answer exactly as before.
            assert client.search("imclone")
            assert [h.doc_id for h in client.search("quagga")] == [
                len(DEFAULT_CORPUS)
            ]
        assert not sealer.is_alive()  # drain joined the sealer

    def test_no_sealer_without_tail_or_interval(self):
        # Legacy engine: interval set but nothing to seal.
        config = ServiceConfig(request_timeout=2.0, seal_interval=0.05)
        with ArchiveServer(
            ArchiveService(build_engine(batch=True), config=config)
        ) as srv:
            assert srv._sealer is None
        # Tail engine with the sealer disabled (default interval).
        engine = build_engine(config=self.TAIL_CONFIG, batch=True)
        with ArchiveServer(ArchiveService(engine, config=FAST)) as srv:
            assert srv._sealer is None
            assert engine.segments_info()["tail_docs"] == len(DEFAULT_CORPUS)


class TestWarmServiceLatency:
    def test_warm_search_beats_cold_open_per_query(self, tmp_path):
        """The reason the service exists: open once, not once per query."""
        path = str(tmp_path / "archive")
        engine, handle = open_archive(path, create=ARCHIVE_CONFIG)
        engine.index_batch(
            [f"imclone filing {i} with assorted padding terms" for i in range(60)]
        )
        handle.close()

        warm = []
        with ArchiveServer(
            ArchiveService(*open_archive(path), config=FAST)
        ) as srv, HTTPTransport(srv.endpoint) as client:
            client.search("imclone")  # connection + cache warmup
            for _ in range(10):
                started = time.perf_counter()
                assert client.search("imclone", top_k=10)
                warm.append(time.perf_counter() - started)

        cold = []
        for _ in range(3):
            started = time.perf_counter()
            engine, handle = open_archive(path)
            assert engine.search("imclone", top_k=10)
            handle.close()
            cold.append(time.perf_counter() - started)

        warm_median = sorted(warm)[len(warm) // 2]
        cold_median = sorted(cold)[len(cold) // 2]
        assert warm_median < cold_median, (
            f"warm {warm_median * 1e3:.2f} ms !< cold {cold_median * 1e3:.2f} ms"
        )
