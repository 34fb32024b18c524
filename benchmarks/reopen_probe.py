"""Reopen probe: what a restart of a tail-mode archive costs, by size.

Builds one-shard tail-mode archives of 2^11 .. 2^14 ``bench.gen``
documents (16-document batches through ``repro.cli.open_archive``,
engine defaults: seal at 128 documents, merge at 8 live segments, fsync
off), closes each, then reopens it three times in the same process and
prints, per archive, the best of the three:

* ``reopen s``: the whole ``open_archive`` call — journal replay,
  manifest, lexicon, statistics, tail;
* ``restore s``: the part of it that rebuilds the statistics and the
  tail (``TrustworthySearchEngine._restore_state``);
* ``re-analysed``: the stored documents read and analysed again, out
  of the ``docs`` committed;
* ``segments``: live sealed segments, and how many carry a
  document-length column.

Times are wall-clock on whatever machine runs it, not normalised by a
gauge: compare rows of one run, not runs of different machines.  Not
part of tier-1 (pytest collects only ``test_*.py``)::

    PYTHONPATH=src python benchmarks/reopen_probe.py [--seed 1] [--max-exp 14]
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir))

from bench.gen import documents  # noqa: E402
from repro.cli import open_archive  # noqa: E402
from repro.search.analyzer import Analyzer  # noqa: E402
from repro.search.engine import EngineConfig, TrustworthySearchEngine  # noqa: E402

BATCH = 16


def build(path: str, seed: int, count: int) -> None:
    engine, handle = open_archive(path, create=EngineConfig(tail_max_docs=128))
    texts = documents(seed, 0, count)
    for at in range(0, count, BATCH):
        engine.index_batch(texts[at : at + BATCH])
    handle.close()


def reopen(path: str):
    """One reopen: ``(reopen s, restore s, documents re-analysed, live
    segments, segments with a column)``."""
    spent, analysed = [0.0], [0]
    restore, term_counts = TrustworthySearchEngine._restore_state, Analyzer.term_counts

    def timed_restore(engine):
        start = time.perf_counter()
        restore(engine)
        spent[0] += time.perf_counter() - start

    def counted(analyzer, text):
        analysed[0] += 1
        return term_counts(analyzer, text)

    TrustworthySearchEngine._restore_state, Analyzer.term_counts = timed_restore, counted
    try:
        start = time.perf_counter()
        engine, handle = open_archive(path)
        seconds = time.perf_counter() - start
    finally:
        TrustworthySearchEngine._restore_state, Analyzer.term_counts = restore, term_counts
    segments = engine.iter_segments()
    handle.close()
    with_column = sum(getattr(s.info, "lengths", False) for s in segments)  # False: older code
    return seconds, spent[0], analysed[0], len(segments), with_column


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--min-exp", type=int, default=11)
    parser.add_argument("--max-exp", type=int, default=14)
    args = parser.parse_args(argv)
    print("| docs | reopen s | restore s | re-analysed | segments (with column) |")
    print("|---|---|---|---|---|")
    for exp in range(args.min_exp, args.max_exp + 1):
        count = 2**exp
        with tempfile.TemporaryDirectory() as directory:
            path = os.path.join(directory, "probe.worm")
            build(path, args.seed, count)
            runs = [reopen(path) for _ in range(3)]
        seconds, restore, analysed, live, with_column = min(runs)
        print(
            f"| {count:,} | {seconds:.3f} | {min(r[1] for r in runs):.3f} | "
            f"{analysed:,} | {live} ({with_column}) |",
            flush=True,
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
