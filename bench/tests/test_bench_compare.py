import json

import pytest

from bench import compare


def test_spread_is_interquartile_share_of_median():
    assert compare.spread([10.0]) == 0.0
    assert compare.spread([9, 10, 10, 10, 11]) == pytest.approx(0.1, abs=0.06)


def test_verdicts():
    steady = [10.0, 10.1, 9.9, 10.0]
    assert compare.verdict(steady, [10.5, 10.4, 10.6, 10.5], "lower", 0.10) == "ok"
    assert compare.verdict(steady, [12.0, 12.1, 11.9, 12.0], "lower", 0.10) == "regressed"
    assert compare.verdict(steady, [8.0, 8.1, 7.9, 8.0], "higher", 0.10) == "regressed"
    assert compare.verdict(steady, [12.0, 12.1, 11.9, 12.0], "higher", 0.10) == "ok"
    noisy = [6.0, 10.0, 14.0, 9.0, 11.0]
    assert compare.verdict(noisy, [7.0, 12.0, 13.0, 9.5, 10.0], "lower", 0.10) == "unresolved"
    # Spread wider than the bound, but every run of the change beats every run of the parent.
    assert compare.verdict(noisy, [3.0, 4.0, 5.0, 3.5, 4.5], "lower", 0.10) == "ok"


def _write(path, workload, values, failed=0, trace=0):
    with open(path, "a") as out:
        for value in values:
            out.write(json.dumps({
                "workload": workload, "seed": 1, "seconds": 10, "trace": trace,
                "correct": not failed, "attempted": 100, "failed": failed,
                "metrics": {"latency_ms": {"value": value, "unit": "ms"}},
            }) + "\n")


DECLARED = [{"name": "latency_ms", "unit": "ms", "better": "lower", "bound": 0.10}]


def test_compare_files_one_row_per_workload_and_metric(tmp_path):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    _write(a, "w1", [10.0, 10.1, 9.9])
    _write(a, "w2", [5.0, 5.0, 5.1])
    _write(a, "w1", [99.0], trace=1)  # traced runs are not end-to-end numbers
    _write(b, "w1", [10.2, 10.3, 10.1])
    _write(b, "w2", [6.0, 6.1, 5.9])
    rows = compare.compare(compare.load(a), compare.load(b), DECLARED, aa=False)
    assert [(row[0], row[1], row[-1]) for row in rows] == [
        ("w1", "latency_ms", "ok"),
        ("w2", "latency_ms", "regressed"),
    ]
    # A/A flags a difference in either direction.
    rows = compare.compare(compare.load(b), compare.load(a), DECLARED, aa=False)
    assert rows[1][-1] == "ok"
    rows = compare.compare(compare.load(b), compare.load(a), DECLARED, aa=True)
    assert rows[1][-1] == "regressed"


def test_command_line_exit_codes(tmp_path, monkeypatch, capsys):
    benchmark = tmp_path / "BENCHMARK.json"
    benchmark.write_text(json.dumps({"end_to_end": DECLARED}))
    a, b, c = tmp_path / "a.jsonl", tmp_path / "b.jsonl", tmp_path / "c.jsonl"
    _write(a, "w1", [10.0, 10.1, 9.9])
    _write(b, "w1", [10.1, 10.0, 10.2])
    _write(c, "w1", [10.1, 10.0, 10.2], failed=1)

    def run(*argv):
        monkeypatch.setattr("sys.argv", ["compare", "--benchmark", str(benchmark), *argv])
        return compare.main()

    assert run(str(a), str(b)) == 0
    assert run("--aa", str(a), str(b)) == 0
    assert run(str(a), str(c)) == 1  # failed ops rose
    assert "failed ops rose" in capsys.readouterr().out
    assert run("--spread", str(a)) == 0
