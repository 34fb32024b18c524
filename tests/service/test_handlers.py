"""Handler unit tests: status codes, schemas, and admission — no socket.

:meth:`ArchiveService.dispatch` takes ``(method, path, payload)`` and
returns ``(status, body, headers)``, so the whole request plane is
exercised here against an in-memory engine.
"""

import pytest

from repro.errors import TamperDetectedError
from repro.service.admission import AdmissionConfig
from repro.service.protocol import PROTOCOL_SCHEMA
from repro.service.server import ArchiveService, ServiceConfig
from tests.helpers import (
    DEFAULT_CORPUS,
    POINTER_CONFIG,
    POINTER_CORPUS,
    build_engine,
    plant_pointer_past_the_end,
)


@pytest.fixture()
def service():
    return ArchiveService(build_engine(batch=True))


class TestSearch:
    def test_post_search_answers_ranked_hits(self, service):
        status, body, _ = service.dispatch(
            "POST", "/search", {"query": "imclone", "top_k": 5}
        )
        assert status == 200
        assert body["schema"] == PROTOCOL_SCHEMA
        assert body["count"] == len(body["results"]) > 0
        hit = body["results"][0]
        assert set(hit) == {"doc_id", "score"}
        assert body["verified"] is False

    def test_verified_search_reports_ok(self, service):
        status, body, _ = service.dispatch(
            "POST", "/search", {"query": "imclone", "verify": True}
        )
        assert status == 200
        assert body["verified"] is True
        assert body["ok"] is True
        assert body["violations"] == []

    def test_get_search_uses_query_parameters(self, service):
        status, body, _ = service.dispatch(
            "GET", "/search", {"query": "imclone", "top_k": 2}
        )
        assert status == 200
        assert 0 < body["count"] <= 2

    @pytest.mark.parametrize(
        "payload",
        [
            None,
            [],
            {},
            {"query": ""},
            {"query": "ok", "top_k": 0},
            {"query": "ok", "top_k": 10**6},
            {"query": "ok", "top_k": True},
            {"query": "ok", "verify": "yes"},
            {"query": "ok", "tpo_k": 3},  # unknown field
        ],
    )
    def test_malformed_search_is_400(self, service, payload):
        status, body, _ = service.dispatch("POST", "/search", payload)
        assert status == 400
        assert body["error"]["code"] == "bad_request"
        assert "/search" in body["error"]["message"]


class TestIngest:
    def test_ingest_assigns_sequential_ids_and_is_searchable(self, service):
        status, body, _ = service.dispatch(
            "POST",
            "/ingest",
            {"documents": ["xylophone ruling", "xylophone appeal"]},
        )
        assert status == 200
        base = len(DEFAULT_CORPUS)
        assert body["doc_ids"] == [base, base + 1]
        assert body["count"] == 2
        _, found, _ = service.dispatch("POST", "/search", {"query": "xylophone"})
        assert {hit["doc_id"] for hit in found["results"]} == {base, base + 1}

    @pytest.mark.parametrize(
        "payload",
        [
            {},
            {"documents": []},
            {"documents": "one string"},
            {"documents": [1, 2]},
            {"documents": ["a"], "commit_times": [1, 2]},
            {"documents": ["a"], "commit_times": "soon"},
            {"documents": ["a"], "extra": True},
        ],
    )
    def test_malformed_ingest_is_400(self, service, payload):
        status, body, _ = service.dispatch("POST", "/ingest", payload)
        assert status == 400
        assert body["error"]["code"] == "bad_request"


class TestRouting:
    def test_unknown_endpoint_is_404(self, service):
        status, body, _ = service.dispatch("GET", "/nope", None)
        assert status == 404
        assert body["error"]["code"] == "not_found"

    @pytest.mark.parametrize(
        "method,path",
        [
            ("DELETE", "/search"),
            ("POST", "/audit"),
            ("POST", "/healthz"),
            ("POST", "/metrics"),
        ],
    )
    def test_wrong_method_is_405_with_allow(self, service, method, path):
        status, body, headers = service.dispatch(method, path, None)
        assert status == 405
        assert body["error"]["code"] == "method_not_allowed"
        assert "Allow" in headers


class TestAdmission:
    def test_rate_limited_tenant_gets_429_with_retry_after(self):
        config = ServiceConfig(admission=AdmissionConfig(rate=0.001, burst=1))
        service = ArchiveService(build_engine(batch=True), config=config)
        status, _, _ = service.dispatch("POST", "/search", {"query": "imclone"})
        assert status == 200
        status, body, headers = service.dispatch(
            "POST", "/search", {"query": "imclone"}
        )
        assert status == 429
        assert body["error"]["code"] == "rate_limited"
        assert int(headers["Retry-After"]) >= 1
        assert body["error"]["retry_after_seconds"] >= 1
        # Another tenant is not punished for this one's burst.
        status, _, _ = service.dispatch(
            "POST", "/search", {"query": "imclone"}, tenant="auditor"
        )
        assert status == 200
        rejections = service.registry.snapshot()["repro_service_rejections_total"]
        assert rejections["series"] == [{"labels": {"reason": "rate_limit"}, "value": 1}]

    def test_full_gate_sheds_with_503(self):
        config = ServiceConfig(
            admission=AdmissionConfig(
                rate=None, max_inflight=1, max_queue=0, queue_timeout=0
            )
        )
        service = ArchiveService(build_engine(batch=True), config=config)
        assert service.admission.gate.try_enter()  # occupy the only slot
        try:
            status, body, headers = service.dispatch(
                "POST", "/search", {"query": "imclone"}
            )
        finally:
            service.admission.gate.leave()
        assert status == 503
        assert body["error"]["code"] == "overloaded"
        assert "Retry-After" in headers
        # The slot freed up: the same request is admitted now.
        status, _, _ = service.dispatch("POST", "/search", {"query": "imclone"})
        assert status == 200

    def test_ops_endpoints_bypass_admission(self):
        config = ServiceConfig(admission=AdmissionConfig(rate=0.001, burst=1))
        service = ArchiveService(build_engine(batch=True), config=config)
        assert service.dispatch("POST", "/search", {"query": "imclone"})[0] == 200
        assert service.dispatch("POST", "/search", {"query": "imclone"})[0] == 429
        assert service.dispatch("GET", "/healthz", None)[0] == 200
        assert service.dispatch("GET", "/metrics", None)[0] == 200


class TestDrain:
    def test_draining_rejects_work_but_answers_ops(self, service):
        service.begin_drain()
        status, body, headers = service.dispatch(
            "POST", "/search", {"query": "imclone"}
        )
        assert status == 503
        assert body["error"]["code"] == "draining"
        assert headers.get("Connection") == "close"
        status, body, _ = service.dispatch("GET", "/healthz", None)
        assert status == 503
        assert body["status"] == "draining"
        assert service.dispatch("GET", "/metrics", None)[0] == 200


class TestOpsEndpoints:
    def test_healthz_shape(self, service):
        status, body, _ = service.dispatch("GET", "/healthz", None)
        assert status == 200
        assert body["status"] == "ok"
        assert body["documents"] == len(DEFAULT_CORPUS)
        assert body["shards"] == 1
        assert body["uptime_seconds"] >= 0

    def test_audit_reports_clean_archive(self, service):
        status, body, _ = service.dispatch("GET", "/audit", None)
        assert status == 200
        assert body["ok"] is True
        assert body["subjects"] > 0
        assert body["entries_checked"] > 0
        assert body["violations"] == []

    def test_metrics_prometheus_text(self, service):
        service.dispatch("POST", "/search", {"query": "imclone"})
        status, body, headers = service.dispatch("GET", "/metrics", None)
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain")
        assert "repro_service_requests_total" in body["text"]
        assert "repro_service_queue_depth" in body["text"]

    def test_metrics_json_snapshot(self, service):
        status, body, _ = service.dispatch(
            "GET", "/metrics", {"format": "json"}
        )
        assert status == 200
        assert body["schema"] == "repro-metrics/v1"
        assert isinstance(body["metrics"], dict)

    def test_metrics_unknown_format_is_400(self, service):
        status, body, _ = service.dispatch(
            "GET", "/metrics", {"format": "xml"}
        )
        assert status == 400
        assert body["error"]["code"] == "bad_request"


class _BoomEngine:
    """An engine whose read path fails — exercises error mapping."""

    documents = ()

    def __init__(self, exc: Exception):
        self._exc = exc

    def search(self, query, top_k=10):
        raise self._exc


class TestErrorMapping:
    def test_unexpected_exception_is_500_internal(self):
        service = ArchiveService(_BoomEngine(RuntimeError("kaboom")))
        status, body, _ = service.dispatch("POST", "/search", {"query": "x"})
        assert status == 500
        assert body["error"]["code"] == "internal"
        assert "RuntimeError" in body["error"]["message"]

    def test_tampering_is_500_with_its_own_code(self):
        service = ArchiveService(
            _BoomEngine(
                TamperDetectedError(
                    "forged posting", location="list 3", invariant="ordering"
                )
            )
        )
        status, body, _ = service.dispatch("POST", "/search", {"query": "x"})
        assert status == 500
        assert body["error"]["code"] == "tampering"

    def test_pointer_past_the_end_is_tampering(self):
        engine = build_engine(POINTER_CORPUS, config=POINTER_CONFIG, batch=True)
        plant_pointer_past_the_end(engine)
        status, body, _ = ArchiveService(engine).dispatch(
            "POST", "/search", {"query": "+alpha +beta", "verify": True}
        )
        assert status == 500
        assert body["error"]["code"] == "tampering"
