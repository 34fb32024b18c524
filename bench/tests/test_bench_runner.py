"""Drive the real runner at tiny sizes: every declared metric, once, with its unit."""

import dataclasses
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from bench import layers, measure, runner, workloads
from bench.metrics import END_TO_END, PER_LAYER
from bench.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[2]
#: Small archives and about a dozen ops: enough to pass every code path.
TINY = {
    "disj-scan": dict(preload_docs=300, ops_per_second=40),
    "conj-jump": dict(preload_docs=300, ops_per_second=40),
    "ingest-seal": dict(preload_docs=200, ops_per_second=20),
    "svc-mixed": dict(preload_docs=300, ops_per_second=40),
}
#: Split over the runner's three repeats: 0.25 s each, 10 ops (5 batches).
SECONDS = 0.75


def tiny(name):
    return dataclasses.replace(WORKLOADS[name], **TINY[name])


@pytest.fixture(autouse=True)
def _few_samples_are_fine(monkeypatch):
    monkeypatch.setattr(measure, "MIN_SAMPLES_BEYOND", 0)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_untraced_run_reports_every_end_to_end_metric(name):
    work = ROOT / runner.WORK_DIRECTORY
    before = set(work.iterdir()) if work.exists() else set()
    report = runner.run_workload(tiny(name), seed=3, seconds=SECONDS, trace=0)
    assert report.problems == [] and report.correct and report.failed == 0
    assert report.attempted >= 15
    assert list(report.metrics) == [m.name for m in END_TO_END]
    assert all(value > 0 for value in report.metrics.values()), report.metrics
    result = report.result()
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    for metric in END_TO_END:
        assert result["metrics"][metric.name]["unit"] == metric.unit
    assert layers.installed() == []  # an untraced run leaves no wrapper behind
    assert set(work.iterdir()) == before  # ... and no archive


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_run_reports_every_per_layer_metric(name):
    report = runner.run_workload(tiny(name), seed=3, seconds=SECONDS, trace=1)
    assert report.problems == [] and report.correct
    assert list(report.metrics) == [m.name for m in PER_LAYER]
    m = report.metrics
    assert 0 <= m["bench.unattributed_frac"] < 0.5
    assert m["bench.spans"] > 100
    assert m["worm.persistent.replay_s"] > 0
    searching = name != "ingest-seal"
    assert (m["search.engine.match_s"] > 0) == searching
    assert (m["worm.persistent.append_s"] > 0) == (name in ("ingest-seal", "svc-mixed"))
    assert (m["service.server.dispatch_s"] > 0) == (name == "svc-mixed")
    if name == "disj-scan":
        assert m["core.block_jump_index.find_geq_calls"] == 0
        assert m["core.posting_list.entries_scanned"] > 0
    if name == "conj-jump":
        assert m["search.join.seeks"] > 0 and m["search.documents.docs_read"] > 0
    if name == "ingest-seal":
        assert m["core.segments.seal_count"] >= 2  # 200 + 80 documents: each shard seals at 128
        assert m["worm.persistent.bytes_per_user_byte"] > 1


def test_a_short_op_list_is_refused(monkeypatch):
    monkeypatch.setattr(runner, "expected_ops", lambda workload, seconds: 10**6)
    with pytest.raises(RuntimeError, match="ops were executed"):
        runner.run_workload(tiny("conj-jump"), seed=3, seconds=SECONDS, trace=0)


def test_wrong_answers_are_counted(monkeypatch):
    """Feed the checker a run whose answers lost a document and gained a stranger."""
    workload = tiny("conj-jump")
    docs = workloads.gen.documents(3, 0, workload.preload_docs)
    reference = runner.oracle.Oracle()
    for position, text in enumerate(docs):
        reference.add(position, text)
    query = "+w00001 +w00002"
    matched = sorted(reference.matching(query))
    stranger = next(d for d in range(len(docs)) if d not in matched)
    run = workloads.Run()
    run.searches.append((query, 0.0, 0.001, [(d, 1.0) for d in matched[1:10]] + [(stranger, 0.5)]))
    run.read_back.append((5, 0.001, []))
    problems = runner.check(workload, 3, run)
    assert len(problems) == 2 and "do not match" in problems[0] and "id3x000005" in problems[1]


def test_command_line_prints_each_metric_once_and_the_result_last(tmp_path):
    out = tmp_path / "runs.jsonl"
    completed = subprocess.run(
        [sys.executable, "-m", "bench", "--workload", "conj-jump", "--seed", "2",
         "--seconds", "1", "--trace", "0", "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )  # fmt: skip
    assert completed.returncode == 0, completed.stderr
    lines = completed.stdout.strip().splitlines()
    assert "nproc=" in lines[0] and "python=" in lines[0] and "seed=2" in lines[0]
    assert "fsync" in lines[0]
    for metric in END_TO_END:
        printed = [line.split() for line in lines if line.split()[0] == metric.name]
        assert len(printed) == 1, metric.name
        assert printed[0][2] == metric.unit and re.fullmatch(r"[A-Za-z0-9_.-]+", printed[0][0])
    result = json.loads(lines[-1])
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 500
    assert set(result["metrics"]) == {m.name for m in END_TO_END}
    assert json.loads(out.read_text())["workload"] == "conj-jump"


def test_without_the_program_there_is_no_result(tmp_path):
    """In a directory holding only BENCHMARK.json and bench/, the command fails."""
    import shutil

    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    completed = subprocess.run(
        [sys.executable, "-m", "bench", "--workload", "disj-scan", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )  # fmt: skip
    assert completed.returncode != 0
    assert completed.stdout.strip() == ""
