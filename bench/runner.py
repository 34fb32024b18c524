"""One run of one workload: set up, measure in a child, check, report.

The parent process generates inputs and builds the archive (that is the
set-up being timed), hands the archive to a fresh child process that
holds the engine under measurement, then checks every answer the child
brings back against ``bench.oracle`` and turns the timings into the
metrics of ``bench.metrics``.  Archives live in a temporary directory
under ``.bench_work/`` in the checkout, removed when the run ends.
"""

from __future__ import annotations

import os
import platform
import shutil
import statistics
import sys
import tempfile
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from multiprocessing import get_context
from typing import Dict, List, Optional, Tuple

from bench import gen, oracle, workloads
from bench.measure import MachineGauge, peak_rss_mb, percentile
from bench.metrics import END_TO_END, PER_LAYER, UNITS
from bench.workloads import BATCH_DOCS, TOP_K, NoProbe, Run, Workload

#: Times an untraced run sets up and measures; its metrics combine them.
REPEATS = 3
WORK_DIRECTORY = ".bench_work"


@dataclass
class Report:
    """What one run prints and what ``--out`` appends."""

    workload: str
    seed: int
    seconds: float
    trace: int
    attempted: int
    failed: int
    metrics: Dict[str, float]
    #: First few reasons behind ``failed`` (for the human reader).
    problems: List[str] = field(default_factory=list)
    #: Median machine speed during the windows (1.0 = the reference machine).
    machine_speed: float = 1.0

    @property
    def correct(self) -> bool:
        return self.failed == 0

    def result(self) -> Dict[str, object]:
        """The driver's result object (also the last line printed)."""
        return {
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                name: {"value": value, "unit": UNITS[name]}
                for name, value in self.metrics.items()
            },
        }


# ----------------------------------------------------------------------
# child process
# ----------------------------------------------------------------------
def _run_pass(workload: Workload, seed: int, seconds: float, directory: str, probe, traced: bool):
    if workload.name == "ingest-seal":
        return workloads.run_ingest(workload, seed, seconds, directory, probe)
    if workload.name == "svc-mixed":
        # A traced run hosts the service in this process (both passes, so
        # that the overhead compares like with like); the timed run
        # spawns ``python -m repro serve``.
        return workloads.run_service(workload, seed, seconds, directory, probe, in_process=traced)
    return workloads.run_search(workload, seed, seconds, directory, probe)


def measure(
    workload: Workload,
    seed: int,
    seconds: float,
    directories: List[str],
    spans_path: Optional[str],
    sys_path: List[str],
) -> Tuple[Run, Optional[Dict[str, float]]]:
    """Child entry point: one untraced pass, or an untraced then a traced
    pass over two copies of the archive; returns the last pass and, when
    traced, its per-layer metrics (the spans go to ``spans_path``)."""
    sys.path[:] = sys_path
    traced = len(directories) > 1
    run = _run_pass(workload, seed, seconds, directories[0], NoProbe(), traced)
    layer_metrics = None
    if traced:
        from bench.probe import run_traced

        untraced_window_s = run.window_s
        probe, run = run_traced(
            lambda probe: _run_pass(workload, seed, seconds, directories[1], probe, True)
        )
        layer_metrics = probe.layer_metrics(
            results=sum(len(hits) for _, _, _, hits in run.searches),
            user_bytes=run.ingested_bytes,
            untraced_window_s=untraced_window_s,
        )
        if spans_path:
            probe.tracer.write(spans_path, workload=workload.name, seed=seed, seconds=seconds)
    if not run.peak_rss_mb:
        run.peak_rss_mb = peak_rss_mb()
    return run, layer_metrics


def _in_child(*arguments):
    """Run ``measure`` in a fresh process, so that nothing but the engine
    under measurement has ever lived in it."""
    with ProcessPoolExecutor(max_workers=1, mp_context=get_context("spawn")) as pool:
        return pool.submit(measure, *arguments, list(sys.path)).result()


# ----------------------------------------------------------------------
# checking
# ----------------------------------------------------------------------
def check(workload: Workload, seed: int, run: Run) -> List[str]:
    """Everything wrong with the answers of ``run`` (empty = all correct)."""
    reference = oracle.Oracle()
    for position, text in enumerate(gen.documents(seed, 0, workload.preload_docs)):
        reference.add(position, text)
    doc_id_of = {position: position for position in range(workload.preload_docs)}
    acknowledged = []  # (acknowledged at, doc ids), to bound what a search must see
    problems = []
    for position, done, _, doc_ids in run.ingests:
        texts = gen.documents(seed, position, BATCH_DOCS)
        if len(doc_ids) != len(texts):
            problems.append(f"ingest at {position} acknowledged {len(doc_ids)} documents")
        for offset, (doc_id, text) in enumerate(zip(doc_ids, texts)):
            reference.add(doc_id, text)
            doc_id_of[position + offset] = doc_id
        acknowledged.append((done, doc_ids))
    acknowledged.sort()
    visible = set(range(workload.preload_docs))
    for query, sent, _, hits in sorted(run.searches, key=lambda search: search[1]):
        while acknowledged and acknowledged[0][0] <= sent:
            visible.update(acknowledged.pop(0)[1])
        for problem in reference.check_search(query, hits, top_k=TOP_K, visible=visible):
            problems.append(f"search {query!r}: {problem}")
    for position, _, hits in run.read_back:
        problems.extend(
            oracle.check_read_back(gen.id_token(seed, position), doc_id_of[position], hits)
        )
    return problems


# ----------------------------------------------------------------------
# parent process
# ----------------------------------------------------------------------
def expected_ops(workload: Workload, seconds: float) -> int:
    """Ops one repeat must execute for its numbers to be reported."""
    return workload.op_count(seconds) * workload.clients


def _combine(repeats: List[List[float]], same_order: bool) -> List[float]:
    """The latency samples percentiles are taken over.

    With one client every repeat runs the same ops in the same order, so an
    op has one sample per repeat and its latency is their median: a slow
    spell of the machine hits different ops in different repeats and the
    median drops it.  With two clients an op's latency depends on what the
    other client had in flight, which differs from repeat to repeat, and the
    median over repeats of one op means nothing; the samples are pooled.
    """
    if same_order:
        return [statistics.median(times) for times in zip(*repeats)]
    return [seconds for times in repeats for seconds in times]


def _end_to_end(
    workload: Workload, builds: List[workloads.Build], runs: List[Run], gauge: MachineGauge
) -> Dict[str, float]:
    """The end-to-end metrics of ``REPEATS`` repeats.

    Every time is divided by the machine's speed over the span it was
    measured in (see ``measure.MachineGauge``); scalars are then the
    median of the repeats, latencies combined as in ``_combine``.
    """
    build_speed = [gauge.speed(b.started, b.started + b.seconds) for b in builds]
    reopen_speed = [gauge.speed(r.reopen_started, r.reopen_started + r.reopen_s) for r in runs]
    window_speed = [gauge.speed(r.window_started, r.window_started + r.window_s) for r in runs]
    if runs[0].searches:
        search_s = [
            [seconds / speed for _, _, seconds, _ in run.searches]
            for run, speed in zip(runs, window_speed)
        ]
    else:
        read_back_speed = [
            gauge.speed(r.read_back_started, r.read_back_started + r.read_back_s) for r in runs
        ]
        search_s = [
            [seconds / speed for _, seconds, _ in run.read_back]
            for run, speed in zip(runs, read_back_speed)
        ]
    if runs[0].ingests:
        ingest_s = [
            [seconds / speed for _, _, seconds, _ in sorted(run.ingests)]
            for run, speed in zip(runs, window_speed)
        ]
        docs_per_s = [
            sum(len(ids) for _, _, _, ids in run.ingests) * speed / run.window_s
            for run, speed in zip(runs, window_speed)
        ]
    else:
        ingest_s = [
            [seconds / speed for seconds in build.batch_seconds]
            for build, speed in zip(builds, build_speed)
        ]
        docs_per_s = [
            workload.preload_docs * speed / sum(build.batch_seconds)
            for build, speed in zip(builds, build_speed)
        ]
    one_client = workload.clients == 1
    search_s, ingest_s = _combine(search_s, one_client), _combine(ingest_s, one_client)
    median = statistics.median
    return {
        "setup_s": median(b.seconds / speed for b, speed in zip(builds, build_speed)),
        "reopen_s": median(r.reopen_s / speed for r, speed in zip(runs, reopen_speed)),
        "ops_per_s": median(r.ops * speed / r.window_s for r, speed in zip(runs, window_speed)),
        "search_p50_ms": percentile(search_s, 50) * 1e3,
        "search_p90_ms": percentile(search_s, 90) * 1e3,
        "ingest_docs_per_s": median(docs_per_s),
        "ingest_p50_ms": percentile(ingest_s, 50) * 1e3,
        "write_amp": median(
            run.disk_bytes / (build.user_bytes + run.ingested_bytes)
            for build, run in zip(builds, runs)
        ),
        "peak_rss_mb": median(run.peak_rss_mb for run in runs),
    }


def run_workload(
    workload: Workload,
    seed: int,
    seconds: float,
    trace: int,
    spans_path: Optional[str] = None,
) -> Report:
    """Set up, measure in child processes, check, and assemble the report.

    An untraced run repeats build -> fresh child -> window ``REPEATS``
    times, each window sized ``seconds / REPEATS``, and combines the
    repeats (see ``_end_to_end``).  A traced run does one repeat, and in
    it an untraced and a traced pass over two copies of the archive; the
    traced pass's spans are appended to ``spans_path`` when one is given.
    """
    seconds_each = seconds / REPEATS
    work_root = os.path.join(os.getcwd(), WORK_DIRECTORY)
    os.makedirs(work_root, exist_ok=True)
    builds, runs, layer_metrics = [], [], None
    with MachineGauge() as gauge:
        for _ in range(1 if trace else REPEATS):
            with tempfile.TemporaryDirectory(
                dir=work_root, prefix=f"{workload.name}-"
            ) as scratch:
                directories = [os.path.join(scratch, "archive")]
                os.mkdir(directories[0])
                builds.append(workloads.build(workload, seed, directories[0]))
                if trace:
                    directories.append(os.path.join(scratch, "traced"))
                    shutil.copytree(*directories)
                run, layer_metrics = _in_child(
                    workload, seed, seconds_each, directories, spans_path
                )
            if run.ops != expected_ops(workload, seconds_each):
                raise RuntimeError(
                    f"{workload.name}: {run.ops} of {expected_ops(workload, seconds_each)} "
                    "ops were executed; not reporting"
                )
            runs.append(run)
    problems = [problem for run in runs for problem in run.errors + check(workload, seed, run)]
    attempted = sum(run.ops + run.read_back_attempts for run in runs)
    metrics = layer_metrics if trace else _end_to_end(workload, builds, runs, gauge)
    declared = [m.name for m in (PER_LAYER if trace else END_TO_END)]
    if sorted(metrics) != sorted(declared):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(declared))} are not as declared")
    return Report(
        workload=workload.name,
        seed=seed,
        seconds=seconds,
        trace=trace,
        attempted=attempted,
        failed=min(len(problems), attempted),
        metrics={metric: metrics[metric] for metric in declared},
        problems=problems[:5],
        machine_speed=statistics.median(
            gauge.speed(run.window_started, run.window_started + run.window_s) for run in runs
        ),
    )


def header(report: Report) -> str:
    """Run conditions, printed above the metrics."""
    return (
        f"# {report.workload} seed={report.seed} seconds={report.seconds:g} "
        f"trace={report.trace} | nproc={os.cpu_count()} "
        f"python={platform.python_version()} | flush: fsync off (journal records "
        f"written and flushed to the OS per commit, synced at close)"
    )
