"""Compare two sets of benchmark results, metric by metric, workload by workload.

``python3 -m bench --out A.jsonl`` appends one result per run; run it
several times (same or different seeds) to make a set.  Then::

    python3 -m bench.compare A.jsonl B.jsonl        # parent A, change B
    python3 -m bench.compare --aa A.jsonl B.jsonl   # same commit twice
    python3 -m bench.compare --spread A.jsonl       # run-to-run spread of one set

Direction and bound of every end-to-end metric come from
``BENCHMARK.json`` in the current directory.  Per metric and workload the
verdict is

* ``ok``         the change's median is no worse than the parent's by more
                 than the bound;
* ``regressed``  it is worse by more than the bound;
* ``unresolved`` the spread between runs of one side (distance between the
                 quartiles as a share of the median) is wider than the
                 bound, and not every run of the change beats every run of
                 the parent — the data cannot tell.

Exit code 1 on any regression or any rise in failed ops.  ``--aa`` is the
self-agreement check: both files come from one commit, so a difference
beyond the bound in *either* direction, or an unresolved row, exits 1.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from typing import Dict, List, Tuple

#: ``{workload: {metric: [value per run]}}`` and ``{workload: failed ops}``.
ResultSet = Tuple[Dict[str, Dict[str, List[float]]], Dict[str, int]]


def load(path: str) -> ResultSet:
    """The untraced runs of a ``--out`` file, grouped by workload."""
    values: Dict[str, Dict[str, List[float]]] = {}
    failed: Dict[str, int] = {}
    with open(path, encoding="utf-8") as lines:
        for line in lines:
            record = json.loads(line)
            if record["trace"]:
                continue
            per_metric = values.setdefault(record["workload"], {})
            for name, metric in record["metrics"].items():
                per_metric.setdefault(name, []).append(metric["value"])
            failed[record["workload"]] = failed.get(record["workload"], 0) + record["failed"]
    return values, failed


def spread(values: List[float]) -> float:
    """Distance between the quartiles as a share of the median (0 for one run)."""
    if len(values) < 2:
        return 0.0
    first, _, third = statistics.quantiles(values, n=4)
    return (third - first) / abs(statistics.median(values))


def worse_by(parent: float, change: float, better: str) -> float:
    """How much worse ``change`` is than ``parent``, as a share of ``parent``
    (negative = better)."""
    delta = (change - parent) / abs(parent)
    return delta if better == "lower" else -delta


def verdict(parent: List[float], change: List[float], better: str, bound: float) -> str:
    if max(spread(parent), spread(change)) > bound:
        if better == "lower":
            clear_win = max(change) < min(parent)
        else:
            clear_win = min(change) > max(parent)
        return "ok" if clear_win else "unresolved"
    worse = worse_by(statistics.median(parent), statistics.median(change), better)
    return "regressed" if worse > bound else "ok"


def compare(parent: ResultSet, change: ResultSet, declared, *, aa: bool) -> List[Tuple]:
    """Rows ``(workload, metric, parent median, change median, worse by, verdict)``."""
    rows = []
    for workload, metrics in parent[0].items():
        if workload not in change[0]:
            continue
        for metric in declared:
            name, better, bound = metric["name"], metric["better"], metric["bound"]
            a, b = metrics[name], change[0][workload][name]
            outcome = verdict(a, b, better, bound)
            if aa and outcome == "ok" and verdict(b, a, better, bound) == "regressed":
                outcome = "regressed"
            rows.append(
                (
                    workload,
                    name,
                    statistics.median(a),
                    statistics.median(b),
                    worse_by(statistics.median(a), statistics.median(b), better),
                    outcome,
                )
            )
    return rows


def main() -> int:
    parser = argparse.ArgumentParser(prog="python3 -m bench.compare", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)  # fmt: skip
    parser.add_argument("results", nargs="+", help="one file with --spread, else parent and change")
    parser.add_argument("--aa", action="store_true", help="self-agreement check")
    parser.add_argument("--spread", action="store_true", help="print one set's spreads")
    parser.add_argument("--benchmark", default="BENCHMARK.json")
    args = parser.parse_args()
    with open(args.benchmark, encoding="utf-8") as handle:
        declared = json.load(handle)["end_to_end"]

    if args.spread:
        values, _ = load(args.results[0])
        wide = 0
        for workload, metrics in values.items():
            for metric in declared:
                runs = metrics[metric["name"]]
                share = spread(runs)
                flag = "" if share <= metric["bound"] / 3 else (
                    "  > bound/3" if share <= metric["bound"] else "  > BOUND"
                )  # fmt: skip
                wide += share > metric["bound"] and metric["name"] != "setup_s"
                print(
                    f"{workload:<12} {metric['name']:<20} n={len(runs):<3} "
                    f"median {statistics.median(runs):>12.6g}  spread {share:7.2%}  "
                    f"bound {metric['bound']:.0%}{flag}"
                )
        return 1 if wide else 0

    if len(args.results) != 2:
        parser.error("give the parent's and the change's result files")
    parent, change = load(args.results[0]), load(args.results[1])
    rows = compare(parent, change, declared, aa=args.aa)
    for workload, name, a, b, worse, outcome in rows:
        print(f"{workload:<12} {name:<20} {a:>12.6g} -> {b:>12.6g}  {worse:+8.2%}  {outcome}")
    status = 0
    for workload, count in change[1].items():
        if count > parent[1].get(workload, 0):
            print(f"{workload:<12} failed ops rose from {parent[1].get(workload, 0)} to {count}")
            status = 1
    bad = {"regressed", "unresolved"} if args.aa else {"regressed"}
    if any(outcome in bad for *_, outcome in rows):
        status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
