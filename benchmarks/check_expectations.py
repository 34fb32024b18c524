"""Compare regenerated benchmark outputs against committed expectations.

Usage::

    REPRO_BENCH_SCALE=small PYTHONPATH=src python -m pytest benchmarks -q
    python benchmarks/check_expectations.py [--expected out_small]

Every figure the benchmark suite emits is deterministic for a given
scale — the workloads are seeded and costs are counted, not timed — so
the regenerated ``out/`` files must match the committed expectation
directory byte for byte.  The one exception is ``FIG4.txt``: it reports
measured wall-clock ratios, which vary run to run, so it is compared for
presence only.

Exit status: 0 when everything matches, 1 otherwise (CI-friendly).
"""

from __future__ import annotations

import argparse
import difflib
import pathlib
import sys

HERE = pathlib.Path(__file__).parent

#: Compared for presence, not content (wall-clock measurements inside).
NONDETERMINISTIC = {
    "FIG4.txt",
    "OBS-OVERHEAD.txt",
    "READ-CACHE.txt",
    "VEC-DECODE.txt",
    "VEC-SCORE.txt",
}


def compare(
    out_dir: pathlib.Path,
    expected_dir: pathlib.Path,
    only: str | None = None,
) -> int:
    """Diff ``out_dir`` against ``expected_dir``; returns the exit code.

    With ``only``, restrict the comparison to the single expectation
    named ``<only>.txt`` (so a CI job that regenerates one figure can
    check just that figure without MISSING noise from the rest).
    """
    failures = 0
    expected_files = sorted(p.name for p in expected_dir.glob("*.txt"))
    if only is not None:
        wanted = f"{only}.txt" if not only.endswith(".txt") else only
        if wanted not in expected_files:
            print(f"no expectation named {wanted} in {expected_dir}", file=sys.stderr)
            return 1
        expected_files = [wanted]
    if not expected_files:
        print(f"no expectation files in {expected_dir}", file=sys.stderr)
        return 1
    for name in expected_files:
        regenerated = out_dir / name
        if not regenerated.exists():
            print(f"MISSING  {name}: benchmark suite did not emit it")
            failures += 1
            continue
        if name in NONDETERMINISTIC:
            print(f"SKIPPED  {name}: wall-clock figures are not compared")
            continue
        expected_text = (expected_dir / name).read_text()
        actual_text = regenerated.read_text()
        if actual_text == expected_text:
            print(f"OK       {name}")
            continue
        failures += 1
        print(f"DIFFERS  {name}:")
        diff = difflib.unified_diff(
            expected_text.splitlines(),
            actual_text.splitlines(),
            fromfile=f"expected/{name}",
            tofile=f"regenerated/{name}",
            lineterm="",
        )
        for line in diff:
            print(f"  {line}")
    if only is None:
        stray = sorted(
            p.name
            for p in out_dir.glob("*.txt")
            if p.name not in set(expected_files)
        )
        for name in stray:
            print(f"STRAY    {name}: no committed expectation (add one?)")
    if failures:
        print(f"\n{failures} expectation(s) failed")
        return 1
    print(f"\nall {len(expected_files)} expectations satisfied")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out", default=HERE / "out", type=pathlib.Path,
        help="directory the benchmark suite wrote (default: benchmarks/out)",
    )
    parser.add_argument(
        "--expected", default=HERE / "out_small", type=pathlib.Path,
        help="committed expectation directory (default: benchmarks/out_small)",
    )
    parser.add_argument(
        "--only", default=None, metavar="NAME",
        help="check a single expectation (e.g. OBS-OVERHEAD); skips the "
        "stray-file scan",
    )
    args = parser.parse_args(argv)
    return compare(args.out, args.expected, only=args.only)


if __name__ == "__main__":
    sys.exit(main())
