"""The metrics the benchmark reports: names, units, directions, bounds.

``BENCHMARK.json`` at the repository root is this module written out
(``python -m bench.metrics`` prints it; a test holds the two equal).
The runner takes units from here, ``bench.compare`` takes directions and
bounds from the JSON file.

Every end-to-end metric is reported on every workload, because the
driver expects one set.  Where a workload has no timed phase of a kind,
the metric comes from the phase of that kind it does have, as stated in
``meaning``: the read-only workloads take their ingest figures from the
preload build (fsync off), ``ingest-seal`` takes its search figures from
the verified read-back after reopening.

``moves`` on a per-layer metric is the prediction written down before
measuring: which end-to-end metric on which workload it should move, and
where it should stay flat.
"""

from __future__ import annotations

import json
import sys
from typing import Dict, List, NamedTuple

from bench import layers
from bench.workloads import WORKLOADS

RUN_SECONDS = 10


class EndToEnd(NamedTuple):
    name: str
    unit: str
    better: str
    bound: float
    meaning: str


class PerLayer(NamedTuple):
    name: str
    unit: str
    better: str
    moves: str


END_TO_END: List[EndToEnd] = [
    EndToEnd("setup_s", "s", "lower", 0.25,
             "generate the preload, build and close the archive; median of 3 builds"),
    EndToEnd("reopen_s", "s", "lower", 0.25,
             "open_archive on the built archive (journal replay + derived state); "
             "svc-mixed: spawn of serve until /healthz answers; ingest-seal: reopen "
             "after the ingest"),
    EndToEnd("ops_per_s", "op/s", "higher", 0.25,
             "ops in the fixed list / wall time of the timed window"),
    EndToEnd("search_p50_ms", "ms", "lower", 0.25,
             "client-observed search latency, median; ingest-seal: read-back searches"),
    EndToEnd("search_p90_ms", "ms", "lower", 0.25,
             "same, p90: at least 36 samples beyond it on every workload inside a "
             "10 s run (ingest-seal reads back 600 id tokens)"),
    EndToEnd("ingest_docs_per_s", "doc/s", "higher", 0.25,
             "acknowledged documents / wall time; read-only workloads: the preload build"),
    EndToEnd("ingest_p50_ms", "ms", "lower", 0.25,
             "per-batch (16 documents) commit latency, median"),
    EndToEnd("write_amp", "B/B", "lower", 0.02,
             "bytes on disk under the archive / UTF-8 bytes of user documents, after close"),
    EndToEnd("peak_rss_mb", "MB", "lower", 0.10,
             "peak RSS of the process holding the engine (child, or serve via VmHWM)"),
]  # fmt: skip

_TIME_MOVES: Dict[str, str] = {
    "worm.persistent.replay": "reopen_s on all",
    "worm.persistent.append": "ingest_docs_per_s, write_amp on ingest-seal; flat on disj-scan, conj-jump",
    "worm.persistent.fsync": "ingest_p50_ms on ingest-seal, svc-mixed; flat on disj-scan, conj-jump",
    "core.posting_list.load_block": "search_p50_ms on disj-scan, conj-jump; flat on ingest-seal",
    "core.vecdecode.decode": "search_p50_ms on disj-scan; flat on ingest-seal",
    "core.segments.scan": "search_p50_ms, search_p90_ms, ops_per_s on disj-scan; flat on conj-jump",
    "core.segments.join": "search_p50_ms on svc-mixed (ALL queries over segments); flat on disj-scan",
    "core.tail.scan": "search_p50_ms on disj-scan, svc-mixed; flat on conj-jump",
    "core.tail.add": "ingest_p50_ms on ingest-seal; flat on conj-jump",
    "core.tail.snapshot": "search_p50_ms on svc-mixed; flat on conj-jump",
    "core.segments.seal": "ingest_docs_per_s on ingest-seal; flat on disj-scan",
    "core.segments.merge": "ingest_docs_per_s, reopen_s on ingest-seal; search_p90_ms on svc-mixed; flat on conj-jump",
    "core.segments.write_lists": "ingest_docs_per_s, write_amp on ingest-seal; flat on disj-scan",
    "core.block_jump_index.find_geq": "search_p50_ms, search_p90_ms on conj-jump; flat on disj-scan",
    "core.time_index.range": "search_p90_ms on conj-jump; flat on disj-scan",
    "search.analyzer.analyze": "ingest_p50_ms on ingest-seal; flat on disj-scan",
    "search.query.parse": "search_p50_ms on conj-jump (short queries, so fixed costs show)",
    "search.engine.match": "self time of match() outside scan/join (candidate maps, copies): search_p50_ms on disj-scan, svc-mixed",
    "search.join.join": "search_p50_ms on conj-jump; flat on disj-scan",
    "search.documents.verify": "search_p50_ms on conj-jump; flat on disj-scan",
    "search.documents.get": "search_p50_ms on conj-jump; flat on disj-scan",
    "search.documents.commit": "ingest_p50_ms on ingest-seal; flat on disj-scan",
    "search.engine.index_batch": "ingest_p50_ms on ingest-seal; flat on disj-scan",
    "sharding.engine.search": "search_p50_ms on conj-jump",
    "sharding.executor.fanout": "fan-out, wait and k-way merge: search_p50_ms on conj-jump (cheap shard work, so fan-out is a visible share)",
    "sharding.executor.shard_run": "per-candidate scoring and the sort of each shard's run: search_p50_ms, search_p90_ms on disj-scan; flat on conj-jump",
    "sharding.batch.ingest": "ingest_p50_ms on ingest-seal; flat on disj-scan",
    "sharding.router.assign": "ingest_p50_ms on ingest-seal; flat on disj-scan",
    "service.server.dispatch": "search_p50_ms, ingest_p50_ms on svc-mixed; flat on the in-process workloads",
    "service.server.handle_search": "search_p50_ms on svc-mixed; flat on the in-process workloads",
    "service.server.handle_ingest": "ingest_p50_ms on svc-mixed; flat on the in-process workloads",
    "service.admission.admit": "search_p50_ms on svc-mixed; flat on the in-process workloads",
    "service.locks.read_wait": "search_p90_ms on svc-mixed (searches queue behind seals and merges); flat on the in-process workloads",
    "service.locks.write_wait": "ingest_p50_ms on svc-mixed; flat on the in-process workloads",
    "service.protocol.parse": "search_p50_ms on svc-mixed; flat on the in-process workloads",
    layers.HTTP_SERVER: "server side of a request outside dispatch (body read, JSON, reply): search_p50_ms on svc-mixed",
    layers.HTTP_CLIENT: "client side of a request plus socket time: search_p50_ms on svc-mixed",
}  # fmt: skip

PER_LAYER: List[PerLayer] = [
    PerLayer(f"{span}_s", "s", "lower", _TIME_MOVES[span])
    for span in [*layers.LAYERS, layers.HTTP_SERVER, layers.HTTP_CLIENT]
] + [
    PerLayer("worm.persistent.journal_bytes", "B", "lower", "write_amp on ingest-seal; 0 on disj-scan, conj-jump"),
    PerLayer("worm.persistent.records", "count", "lower", "ingest_docs_per_s on ingest-seal"),
    PerLayer("worm.persistent.fsyncs", "count", "lower", "ingest_p50_ms on ingest-seal, svc-mixed"),
    PerLayer("worm.persistent.bytes_per_user_byte", "B/B", "lower", "journal bytes per ingested user byte in the window: write_amp on ingest-seal"),
    PerLayer("worm.storage.block_reads", "count", "lower", "counted store reads (cache hits + misses): search_p90_ms on conj-jump, where the commit-time index reads a block per record; the store gets no span of its own, a million calls a second would be mostly wrapper"),
    PerLayer("worm.storage.cache_hit_rate", "ratio", "higher", "search_p50_ms on disj-scan"),
    PerLayer("core.posting_list.blocks_decoded", "count", "lower", "search_p50_ms on disj-scan"),
    PerLayer("core.posting_list.entries_scanned", "count", "lower", "ops_per_s on disj-scan; 0 on conj-jump"),
    PerLayer("core.block_jump_index.find_geq_calls", "count", "lower", "search_p50_ms on conj-jump; 0 on disj-scan"),
    PerLayer("core.block_jump_index.pointers_followed", "count", "lower", "search_p50_ms on conj-jump; 0 on disj-scan"),
    PerLayer("core.segments.seal_count", "count", "lower", "ingest_docs_per_s on ingest-seal; 0 on the read-only workloads"),
    PerLayer("core.segments.seal_max_ms", "ms", "lower", "ingest_docs_per_s on ingest-seal"),
    PerLayer("core.segments.merge_count", "count", "lower", "ingest_docs_per_s on ingest-seal"),
    PerLayer("core.segments.merge_max_ms", "ms", "lower", "the merge stall: service.locks.read_wait_s then search_p90_ms on svc-mixed"),
    PerLayer("core.segments.bytes_rewritten", "B", "lower", "journal bytes written inside merges: write_amp on ingest-seal"),
    PerLayer("core.segments.live_segments", "count", "lower", "search_p50_ms on disj-scan, reopen_s on ingest-seal"),
    PerLayer("search.engine.entries_per_result", "ratio", "lower", "entries scanned / results returned (waste): ops_per_s on disj-scan"),
    PerLayer("search.ranking.candidates_scored", "count", "lower", "search_p50_ms, search_p90_ms on disj-scan; small on conj-jump"),
    PerLayer("search.join.seeks", "count", "lower", "search_p50_ms on conj-jump; 0 on disj-scan"),
    PerLayer("search.join.seeks_per_result", "ratio", "lower", "search_p50_ms on conj-jump"),
    PerLayer("search.documents.docs_read", "count", "lower", "search_p50_ms on conj-jump; 0 on disj-scan"),
    PerLayer("search.readcache.result_hit_rate", "ratio", "higher", "search_p50_ms on svc-mixed; 0 on disj-scan (cache off)"),
    PerLayer("search.readcache.block_hit_rate", "ratio", "higher", "search_p50_ms on svc-mixed; 0 on disj-scan (cache off)"),
    PerLayer("search.readcache.evictions", "count", "lower", "search_p50_ms on svc-mixed"),
    PerLayer("search.readcache.invalidations", "count", "lower", "search_p50_ms on svc-mixed (appends invalidate results)"),
    PerLayer("sharding.executor.shard_skew", "ratio", "lower", "slowest shard run / mean shard run, averaged over searches: search_p90_ms on disj-scan"),
    PerLayer("service.admission.rejections", "count", "lower", "failed ops on svc-mixed; 0 elsewhere"),
    PerLayer("service.http_overhead_ms", "ms", "lower", "client-observed time minus server handle time, per request: search_p50_ms on svc-mixed"),
    PerLayer("bench.unattributed_frac", "ratio", "lower", "share of the window's wall time outside every span above"),
    PerLayer("bench.trace_overhead_frac", "ratio", "lower", "(traced - untraced window) / untraced window: the honesty check on every row above"),
    PerLayer("bench.spans", "count", "lower", "spans recorded in the traced pass"),
]  # fmt: skip

UNITS: Dict[str, str] = {m.name: m.unit for m in [*END_TO_END, *PER_LAYER]}


def benchmark_json() -> Dict[str, object]:
    """The contents of ``BENCHMARK.json``."""
    return {
        "command": ["python3", "-m", "bench"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS.values()],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
        ],
    }


if __name__ == "__main__":
    json.dump(benchmark_json(), sys.stdout, indent=2)
    sys.stdout.write("\n")
