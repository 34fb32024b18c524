"""The traced pass: spans around the layers plus the program's own counters.

A ``Probe`` is handed to a workload in place of ``workloads.NoProbe``.
It marks the phases (``bench.reopen``, ``bench.window``) as root spans,
tags spans with the op number that caused them, reads the counters the
program already keeps (metrics registry, journal accessors, store and
read-cache statistics) at the edges of the window, and turns all of it
into the per-layer metrics of ``bench.metrics.PER_LAYER``.
"""

from __future__ import annotations

import functools
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, Tuple

from bench import layers
from bench.trace import NONE, Tracer

#: Registry counter families read at the window's edges (summed over shards).
_REGISTRY_COUNTERS = {
    "seeks": "repro_join_seeks_total",
    "pointers_followed": "repro_jump_pointer_follows_total",
    "entries_scanned": "repro_scan_entries_total",
    "blocks_decoded": "repro_decode_blocks_total",
    "seals": "repro_tail_seals_total",
    "merges": "repro_segment_merges_total",
    "rejections": "repro_service_rejections_total",
}


def read_counters(engine) -> Dict[str, float]:
    """Counters the program exposes, summed over shards and coordinator."""
    totals = dict.fromkeys(_REGISTRY_COUNTERS, 0.0)
    wanted = {family: key for key, family in _REGISTRY_COUNTERS.items()}
    for family in engine.metrics.families():
        key = wanted.get(family.name)
        if key is not None:
            totals[key] = sum(series.value for _, series in family.series())
    stores = [shard.store for shard in engine.shards] + [engine.coordinator]
    totals["journal_bytes"] = sum(store.device.journal_bytes for store in stores)
    totals["records"] = sum(store.device.records for store in stores)
    totals["cache_hits"] = sum(store.cache.stats.hits for store in stores)
    totals["cache_misses"] = sum(store.cache.stats.misses for store in stores)
    read_cache = engine.read_cache_stats()
    for tier in ("results", "blocks"):
        for key in ("hits", "misses", "evictions", "invalidations"):
            totals[f"{tier}_{key}"] = read_cache[tier][key] if read_cache else 0
    return totals


def live_segments(engine) -> int:
    return sum(
        len(shard.iter_segments()) for shard in engine.shards if shard.tail_enabled
    )


class Probe:
    """Tracer, phase roots and counter deltas of one traced pass."""

    def __init__(self) -> None:
        self.tracer = Tracer()
        self.roots: Dict[str, int] = {}
        self.counters: Dict[str, float] = {}
        self.segments = 0
        #: Totals kept by the two counting wrappers below.
        self.candidates = 0
        self.rewritten_bytes = 0

    def install(self) -> Callable[[], None]:
        """Put the wrappers in place; returns the function that removes them."""
        restore_layers = layers.install(self.tracer)
        restore_counts = self._install_counts()

        def restore() -> None:
            restore_counts()
            restore_layers()

        return restore

    def _install_counts(self) -> Callable[[], None]:
        """Counts taken at the same boundaries as two of the spans: candidates
        ``match`` hands to ranking, journal bytes a merge writes."""
        from repro.search.engine import TrustworthySearchEngine as Engine

        match, merge = Engine.match, Engine.merge_segments

        @functools.wraps(match)
        def counting_match(engine, *args, **kwargs):
            candidates = match(engine, *args, **kwargs)
            self.candidates += len(candidates)
            return candidates

        @functools.wraps(merge)
        def counting_merge(engine, *args, **kwargs):
            before = engine.store.device.journal_bytes
            try:
                return merge(engine, *args, **kwargs)
            finally:
                self.rewritten_bytes += engine.store.device.journal_bytes - before

        Engine.match, Engine.merge_segments = counting_match, counting_merge

        def restore() -> None:
            Engine.match, Engine.merge_segments = match, merge

        return restore

    @contextmanager
    def phase(self, name: str, engine=None) -> Iterator[Callable[[], None]]:
        """A root span; with ``engine``, also the counter deltas across it.

        Yields the function a thread started inside the phase calls first,
        so that its spans hang below this root.
        """
        before = self._read(engine) if engine is not None else None
        with self.tracer.span(name) as span_id:
            self.roots[name] = span_id
            yield lambda: self.tracer.adopt(span_id, NONE)
        if engine is not None:
            after = self._read(engine)
            self.counters = {key: after[key] - before[key] for key in after}
            self.segments = live_segments(engine)

    def _read(self, engine) -> Dict[str, float]:
        """The program's counters and the two kept by ``_install_counts``."""
        return dict(
            read_counters(engine), candidates=self.candidates, rewritten=self.rewritten_bytes
        )

    def request(self, number: int) -> None:
        self.tracer.set_request(number)

    # ------------------------------------------------------------------
    def shard_skew(self) -> float:
        """Slowest shard run / mean shard run, averaged over the window's
        fanned-out searches."""
        spans = self.tracer.spans()
        opened, closed = next(
            (start, end) for span_id, _, _, _, start, end in spans
            if span_id == self.roots["bench.window"]
        )  # fmt: skip
        runs: Dict[int, list] = {}
        for _, parent, _, name, start, end in spans:
            if name == "sharding.executor.shard_run" and opened <= start and end <= closed:
                runs.setdefault(parent, []).append(end - start)
        skews = [
            max(times) * len(times) / sum(times)
            for times in runs.values()
            if len(times) > 1 and sum(times) > 0
        ]
        return sum(skews) / len(skews) if skews else 0.0

    def layer_metrics(
        self, *, results: int, user_bytes: int, untraced_window_s: float
    ) -> Dict[str, float]:
        """Every ``PER_LAYER`` metric of this pass, by name.

        ``results`` is the number of hits the window's searches returned,
        ``user_bytes`` the UTF-8 bytes it ingested, ``untraced_window_s``
        the same op list's window without the wrappers.
        """
        tracer = self.tracer
        window = tracer.summarize(self.roots["bench.window"])
        reopen = tracer.summarize(self.roots["bench.reopen"])
        c = self.counters
        metrics = {
            f"{span}_s": window.seconds(span)
            for span in [*layers.LAYERS, layers.HTTP_SERVER, layers.HTTP_CLIENT]
        }
        # Replay happens while reopening, outside the timed window.
        metrics["worm.persistent.replay_s"] = reopen.seconds("worm.persistent.replay")

        def ratio(part: float, whole: float) -> float:
            return part / whole if whole else 0.0

        count = window.count.get
        requests = count(layers.HTTP_CLIENT, 0)
        metrics.update(
            {
                "worm.persistent.journal_bytes": c["journal_bytes"],
                "worm.persistent.records": c["records"],
                "worm.persistent.fsyncs": count("worm.persistent.fsync", 0),
                "worm.persistent.bytes_per_user_byte": ratio(c["journal_bytes"], user_bytes),
                "worm.storage.block_reads": c["cache_hits"] + c["cache_misses"],
                "worm.storage.cache_hit_rate": ratio(
                    c["cache_hits"], c["cache_hits"] + c["cache_misses"]
                ),
                "core.posting_list.blocks_decoded": c["blocks_decoded"],
                "core.posting_list.entries_scanned": c["entries_scanned"],
                "core.block_jump_index.find_geq_calls": count(
                    "core.block_jump_index.find_geq", 0
                ),
                "core.block_jump_index.pointers_followed": c["pointers_followed"],
                "core.segments.seal_count": c["seals"],
                "core.segments.seal_max_ms": window.max_s.get("core.segments.seal", 0.0) * 1e3,
                "core.segments.merge_count": c["merges"],
                "core.segments.merge_max_ms": window.max_s.get("core.segments.merge", 0.0) * 1e3,
                "core.segments.bytes_rewritten": c["rewritten"],
                "core.segments.live_segments": self.segments,
                "search.engine.entries_per_result": ratio(c["entries_scanned"], results),
                "search.ranking.candidates_scored": c["candidates"],
                "search.join.seeks": c["seeks"],
                "search.join.seeks_per_result": ratio(c["seeks"], results),
                "search.documents.docs_read": count("search.documents.get", 0),
                "search.readcache.result_hit_rate": ratio(
                    c["results_hits"], c["results_hits"] + c["results_misses"]
                ),
                "search.readcache.block_hit_rate": ratio(
                    c["blocks_hits"], c["blocks_hits"] + c["blocks_misses"]
                ),
                "search.readcache.evictions": c["results_evictions"] + c["blocks_evictions"],
                "search.readcache.invalidations": (
                    c["results_invalidations"] + c["blocks_invalidations"]
                ),
                "sharding.executor.shard_skew": self.shard_skew(),
                "service.admission.rejections": c["rejections"],
                "service.http_overhead_ms": 1e3
                * ratio(
                    window.total_s.get(layers.HTTP_CLIENT, 0.0)
                    - window.total_s.get("service.server.dispatch", 0.0),
                    requests,
                ),
                "bench.unattributed_frac": ratio(window.seconds("bench.window"), window.wall),
                "bench.trace_overhead_frac": ratio(
                    window.wall - untraced_window_s, untraced_window_s
                ),
                "bench.spans": len(tracer),
            }
        )
        return metrics


def run_traced(run_pass: Callable[[Probe], object]) -> Tuple[Probe, object]:
    """Run one pass with the wrappers installed; always removes them."""
    probe = Probe()
    restore = probe.install()
    try:
        return probe, run_pass(probe)
    finally:
        restore()
