"""Query cost profiling: the paper's instrumentation as a public API.

The evaluation measures queries in *posting entries scanned* (the
workload cost Q of Section 3.1) and *blocks read* (the Figure 8(c)
metric).  :func:`profile_query` runs one query against an engine and
reports both, along with the plan it took — so a deployment can measure
its own workload the way the paper measured IBM's, and decide (per
Section 4.5) whether its query mix justifies a jump index.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.core.segments import ReadCosts
from repro.search.query import QueryMode, parse_query


@dataclass
class QueryProfile:
    """Cost breakdown of one profiled query.

    Attributes
    ----------
    terms:
        The analyzed query terms.
    mode:
        ``"disjunctive"`` or ``"conjunctive"``.
    physical_lists:
        Distinct merged posting lists the query touched.
    entries_scanned:
        Posting entries read (the unit of the workload cost Q).  For
        conjunctive queries this counts entries in the blocks actually
        loaded, not whole lists — that is the point of the zigzag join.
    blocks_read:
        Distinct posting-list blocks loaded (the Figure 8(c) unit).
    matches:
        Documents matched (before ranking/top-k).
    used_jump_index:
        Whether jump-index seeks were available on the conjunctive path.
    per_list_blocks:
        Blocks read per physical list id.
    """

    terms: Tuple[str, ...]
    mode: str
    physical_lists: int
    entries_scanned: int
    blocks_read: int
    matches: int
    used_jump_index: bool
    per_list_blocks: Dict[int, int] = field(default_factory=dict)

    def summary(self) -> str:
        """One-line human-readable cost summary."""
        jump = "jump-index" if self.used_jump_index else "sequential"
        return (
            f"{self.mode} {list(self.terms)}: {self.matches} matches, "
            f"{self.blocks_read} blocks / {self.entries_scanned} entries "
            f"over {self.physical_lists} lists ({jump})"
        )


def profile_query(engine, query) -> QueryProfile:
    """Run ``query`` against ``engine``, measuring its I/O footprint.

    A read-out, not a second executor: the query runs through
    :meth:`engine.match
    <repro.search.engine.TrustworthySearchEngine.match>` — whichever
    index layout the engine has — and the profile reports the
    micro-costs that one read path returns.  Reads only; on an engine
    with the read cache on, a result-cache hit honestly costs nothing.
    """
    if isinstance(query, str):
        query = parse_query(query, analyzer=engine.analyzer)
    conjunctive = query.mode is QueryMode.ALL
    costs = ReadCosts()
    matches = engine.match(query, costs=costs)
    return QueryProfile(
        terms=query.terms,
        mode="conjunctive" if conjunctive else "disjunctive",
        physical_lists=costs.lists,
        entries_scanned=costs.entries,
        blocks_read=costs.blocks,
        matches=len(matches),
        used_jump_index=costs.used_jump_index,
        per_list_blocks=costs.per_list_blocks,
    )


@dataclass
class ShardedQueryProfile:
    """Cost breakdown of one query fanned out across engine shards.

    Sharded query cost has two readings, and the profile reports both:

    * ``total_*`` — work *done*: the sum over shards, i.e. what the
      query costs in aggregate device I/O (the billing view);
    * ``critical_path_entries`` / ``critical_path_blocks`` — work
      *waited for*: the slowest single shard, i.e. the query's latency
      under perfect fan-out (the paper's workload cost Q per
      Section 3.1, applied to the parallel plan).

    ``modeled_speedup`` is their ratio — the factor by which fanning out
    shortens the entry-scan critical path versus scanning the same
    postings serially.  On a balanced K-shard archive it approaches K.
    """

    terms: Tuple[str, ...]
    mode: str
    shards: int
    per_shard: List[QueryProfile]
    total_entries_scanned: int
    total_blocks_read: int
    critical_path_entries: int
    critical_path_blocks: int
    matches: int
    modeled_speedup: float

    def summary(self) -> str:
        """One-line human-readable cost summary."""
        return (
            f"{self.mode} {list(self.terms)} over {self.shards} shards: "
            f"{self.matches} matches, "
            f"{self.total_entries_scanned} entries total / "
            f"{self.critical_path_entries} on the critical path "
            f"({self.modeled_speedup:.2f}x modeled speedup)"
        )


def profile_sharded_query(sharded_engine, query) -> ShardedQueryProfile:
    """Profile ``query`` against every shard of a sharded engine.

    Runs :func:`profile_query` independently per shard (each shard is a
    complete engine with its own lists and jump indexes) and aggregates
    the per-shard footprints into total and critical-path costs.
    """
    if isinstance(query, str):
        query = parse_query(query, analyzer=sharded_engine.analyzer)
    per_shard = [
        profile_query(shard, query) for shard in sharded_engine.shards
    ]
    total_entries = sum(p.entries_scanned for p in per_shard)
    total_blocks = sum(p.blocks_read for p in per_shard)
    critical_entries = max(
        (p.entries_scanned for p in per_shard), default=0
    )
    critical_blocks = max((p.blocks_read for p in per_shard), default=0)
    if critical_entries:
        speedup = total_entries / critical_entries
    else:
        speedup = 1.0
    return ShardedQueryProfile(
        terms=per_shard[0].terms if per_shard else query.terms,
        mode=per_shard[0].mode if per_shard else "disjunctive",
        shards=len(per_shard),
        per_shard=per_shard,
        total_entries_scanned=total_entries,
        total_blocks_read=total_blocks,
        critical_path_entries=critical_entries,
        critical_path_blocks=critical_blocks,
        matches=sum(p.matches for p in per_shard),
        modeled_speedup=speedup,
    )


def recommend_configuration(profiles: List[QueryProfile]) -> str:
    """The Section 4.5 deployment rule, applied to measured profiles.

    "If most queries are disjunctive or involve only two or three
    keywords, one should use merged posting lists with no jump index.
    If most queries conjoin many keywords, it is best to use merged
    posting lists and a jump index with B = 32."
    """
    if not profiles:
        return "no profiles: keep merged posting lists without a jump index"
    many_keyword = sum(
        1
        for p in profiles
        if p.mode == "conjunctive" and len(p.terms) >= 4
    )
    share = many_keyword / len(profiles)
    if share > 0.5:
        return (
            f"{share:.0%} of profiled queries conjoin >= 4 keywords: use "
            "merged posting lists with a B=32 jump index"
        )
    return (
        f"only {share:.0%} of profiled queries conjoin >= 4 keywords: use "
        "merged posting lists without a jump index"
    )
