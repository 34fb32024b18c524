"""Integration tests for the CLI observability surface.

Covers the ``metrics`` subcommand, the ``query`` alias, ``--trace``
output, and the ``--metrics-json`` snapshot emitted by ``index`` and
``search``/``query``.
"""

import json

import pytest

from repro.cli import main


@pytest.fixture()
def archive(tmp_path):
    path = str(tmp_path / "records.worm")
    run("init", "--archive", path, "--num-lists", "32", "--shards", "2")
    return path


def run(*argv):
    return main(list(argv))


def _index_corpus(archive):
    run(
        "index", "--archive", archive,
        "--text", "imclone trading memo for stewart",
        "--text", "stewart waksal phone call",
        "--text", "quarterly finance audit",
    )


class TestMetricsSubcommand:
    def test_prometheus_text_on_stdout(self, archive, capsys):
        _index_corpus(archive)
        capsys.readouterr()
        assert run("metrics", "--archive", archive) == 0
        out = capsys.readouterr().out
        assert "# TYPE repro_store_block_reads_total counter" in out
        assert "# TYPE repro_cache_hit_rate gauge" in out
        assert 'shard="coordinator"' in out
        assert 'shard="0"' in out and 'shard="1"' in out
        assert out.endswith("\n")

    def test_json_flag_writes_snapshot(self, archive, tmp_path, capsys):
        _index_corpus(archive)
        out_path = tmp_path / "metrics.json"
        assert run("metrics", "--archive", archive, "--json", str(out_path)) == 0
        captured = capsys.readouterr()
        # stdout stays pure Prometheus text; the notice goes to stderr
        assert str(out_path) in captured.err
        assert "# TYPE" in captured.out
        doc = json.loads(out_path.read_text())
        assert doc["schema"] == "repro-metrics/v1"
        assert doc["traces"] == []


class TestQueryAlias:
    def test_query_is_an_alias_for_search(self, archive, capsys):
        _index_corpus(archive)
        capsys.readouterr()
        assert run("query", "--archive", archive, "imclone") == 0
        assert "doc 0" in capsys.readouterr().out


class TestTraceFlag:
    def test_trace_prints_span_tree(self, archive, capsys):
        _index_corpus(archive)
        capsys.readouterr()
        assert run(
            "search", "--archive", archive, "+stewart +waksal", "--trace"
        ) == 0
        out = capsys.readouterr().out
        assert "doc 1" in out
        assert "trace '+stewart +waksal'" in out
        for stage in ("shard", "merge"):
            assert stage in out
        assert "results=" in out

    def test_trace_emitted_even_without_matches(self, archive, capsys):
        _index_corpus(archive)
        capsys.readouterr()
        assert run(
            "search", "--archive", archive, "+no +hits", "--trace"
        ) == 0
        out = capsys.readouterr().out
        assert "no results" in out
        assert "trace '+no +hits'" in out


class TestMetricsJsonFlag:
    def test_index_writes_snapshot(self, archive, tmp_path):
        out_path = tmp_path / "ingest.json"
        run(
            "index", "--archive", archive,
            "--text", "alpha beta", "--metrics-json", str(out_path),
        )
        doc = json.loads(out_path.read_text())
        metrics = doc["metrics"]
        total = sum(
            s["value"]
            for s in metrics["repro_documents_indexed_total"]["series"]
        )
        assert total == 1
        assert "repro_ingest_batches_total" in metrics

    def test_query_snapshot_meets_acceptance_criteria(
        self, archive, tmp_path, capsys
    ):
        _index_corpus(archive)
        capsys.readouterr()
        out_path = tmp_path / "query.json"
        assert run(
            "query", "--archive", archive, "+stewart +waksal",
            "--metrics-json", str(out_path),
        ) == 0
        doc = json.loads(out_path.read_text())
        assert doc["schema"] == "repro-metrics/v1"
        metrics = doc["metrics"]

        # storage I/O counters, per shard
        reads = metrics["repro_store_block_reads_total"]["series"]
        assert {s["labels"]["shard"] for s in reads} >= {"0", "1"}

        # cache hit-rate
        rates = metrics["repro_cache_hit_rate"]["series"]
        assert all(0.0 <= s["value"] <= 1.0 for s in rates)

        # per-shard latency histograms from the executor
        runs = metrics["repro_shard_run_seconds"]["series"]
        assert {s["labels"]["shard"] for s in runs} == {"0", "1"}
        assert all(s["count"] == 1 for s in runs)
        assert metrics["repro_fanout_queries_total"]["series"][0]["value"] == 1

        # per-stage spans in the attached trace (sharded path: per-shard
        # execution spans plus the coordinator's global merge)
        (trace,) = doc["traces"]
        assert trace["query"] == "+stewart +waksal"
        names = [s["name"] for s in trace["spans"]]
        assert "shard" in names and "merge" in names
        shard_spans = [s for s in trace["spans"] if s["name"] == "shard"]
        assert {s["attrs"]["shard"] for s in shard_spans} == {0, 1}
        assert all("results" in s["attrs"] for s in shard_spans)

    def test_snapshot_is_stable_json(self, archive, tmp_path, capsys):
        _index_corpus(archive)
        capsys.readouterr()
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for path in (a, b):
            run(
                "query", "--archive", archive, "imclone",
                "--metrics-json", str(path),
            )
        doc_a, doc_b = (json.loads(p.read_text()) for p in (a, b))
        # identical structure: same families, labels, and key order
        assert list(doc_a["metrics"]) == list(doc_b["metrics"])
        for name, family in doc_a["metrics"].items():
            other = doc_b["metrics"][name]
            assert family["type"] == other["type"]
            assert [s["labels"] for s in family["series"]] == [
                s["labels"] for s in other["series"]
            ]
