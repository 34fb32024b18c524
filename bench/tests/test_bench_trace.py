"""The tracer's arithmetic and the wrappers' hygiene."""

import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from bench import layers
from bench.probe import Probe
from bench.trace import NONE, Tracer, propagate_through_submit


def _busy(seconds):
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        pass


class FakeClock:
    """A ``perf_counter`` that only moves when the test says so."""

    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now

    def spend(self, seconds):
        self.now += seconds


def test_self_times_and_unattributed_add_up_to_wall(monkeypatch):
    clock = FakeClock()
    monkeypatch.setattr("bench.trace.perf_counter", clock)
    tracer = Tracer()
    leaf = tracer.wrap("leaf", lambda: clock.spend(0.004))

    def middle():
        clock.spend(0.003)
        leaf()
        leaf()

    middle = tracer.wrap("middle", middle)
    with tracer.span("root") as root:
        clock.spend(0.002)  # the runner's own time: unattributed
        for _ in range(5):
            middle()
    summary = tracer.summarize(root)
    assert summary.wall == pytest.approx(0.057)
    assert summary.count == {"root": 1, "middle": 5, "leaf": 10}
    assert summary.seconds("leaf") == pytest.approx(0.040)
    assert summary.seconds("middle") == pytest.approx(0.015)
    assert summary.seconds("root") == pytest.approx(0.002)
    assert sum(summary.self_s.values()) == pytest.approx(summary.wall)
    assert summary.total_s["middle"] == pytest.approx(0.055)
    assert summary.max_s["leaf"] == pytest.approx(0.004)


def test_spans_on_pool_threads_attach_to_the_request_that_caused_them():
    tracer = Tracer()
    submit = propagate_through_submit(tracer, ThreadPoolExecutor.submit)
    shard = tracer.wrap("shard", lambda: (_busy(0.005), threading.get_ident())[1])

    def search(pool):
        futures = [submit(pool, shard) for _ in range(2)]
        return [future.result() for future in futures]

    search = tracer.wrap("search", search)
    with ThreadPoolExecutor(max_workers=2) as pool, tracer.span("root") as root:
        for request in range(3):
            tracer.set_request(request)
            threads = search(pool)
            assert threading.get_ident() not in threads
    spans = list(tracer.spans())
    searches = {span_id: request for span_id, _, request, name, _, _ in spans if name == "search"}
    shards = [(parent, request) for _, parent, request, name, _, _ in spans if name == "shard"]
    assert len(searches) == 3 and len(shards) == 6
    for parent, request in shards:
        assert searches[parent] == request
    assert tracer.orphans(root) == []
    # Two shard runs overlap in time but share one wall clock: below the
    # root everything still adds up to the root's duration.
    summary = tracer.summarize(root)
    total = sum(summary.self_s.values())
    assert total == pytest.approx(summary.wall, rel=0.01)


def test_concurrent_children_share_the_interval_they_overlap_in():
    tracer = Tracer()
    with tracer.span("root") as root:
        def client():
            tracer.adopt(root, NONE)
            with tracer.span("client"):
                time.sleep(0.05)
        threads = [threading.Thread(target=client) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    summary = tracer.summarize(root)
    clients = [(start, end) for _, _, _, name, start, end in tracer.spans() if name == "client"]
    (first_start, first_end), (second_start, second_end) = sorted(clients)
    assert second_start < first_end  # they did overlap
    assert summary.total_s["client"] == pytest.approx(  # each span in full
        first_end - first_start + second_end - second_start
    )
    assert summary.seconds("client") == pytest.approx(  # one wall clock between them
        max(first_end, second_end) - first_start
    )
    assert sum(summary.self_s.values()) == pytest.approx(summary.wall, rel=0.01)


def test_a_thread_that_adopts_nothing_is_reported_as_an_orphan():
    tracer = Tracer()
    with tracer.span("root") as root:
        thread = threading.Thread(target=tracer.wrap("stray", lambda: None))
        thread.start()
        thread.join()
    assert tracer.orphans(root) == ["stray"]


def test_wrappers_are_absent_unless_installed_and_gone_after_restore():
    assert layers.installed() == []
    submit = ThreadPoolExecutor.submit
    restore = Probe().install()
    try:
        wrapped = layers.installed()
        assert len(wrapped) == sum(len(targets) for targets in layers.LAYERS.values())
        assert ThreadPoolExecutor.submit is not submit
    finally:
        restore()
    assert layers.installed() == []
    assert ThreadPoolExecutor.submit is submit


def test_every_target_names_something_that_exists():
    for targets in layers.LAYERS.values():
        for target in targets:
            owner, attribute = layers._resolve(target)
            assert callable(getattr(owner, attribute)), target
