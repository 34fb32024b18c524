"""Seeded input generator: documents and query strings, nothing else.

Standalone on purpose (stdlib ``random`` only, no import from ``repro``):
a later change under ``src/`` must not be able to shift the benchmark's
inputs.  ``bench/tests/test_bench_gen.py`` pins a sha256 of the seed-1 corpus
and op lists.

The corpus is Zipf(s=1.1) over a 20,000-term vocabulary with about 40
distinct terms per document plus one unique id token per document, which
the read-back check uses to fetch exactly that document.
"""

from __future__ import annotations

import bisect
import hashlib
import itertools
import random
from typing import Iterable, List, Sequence, Tuple

VOCABULARY_SIZE = 20_000
ZIPF_S = 1.1
#: Tokens drawn per document; about 40 of them are distinct under Zipf(1.1).
MIN_TOKENS, MAX_TOKENS = 35, 75

_CUM_WEIGHTS = list(
    itertools.accumulate(1.0 / rank**ZIPF_S for rank in range(1, VOCABULARY_SIZE + 1))
)


def term(rank: int) -> str:
    """Vocabulary term of 1-based popularity ``rank`` (``w00001`` is the head)."""
    return f"w{rank:05d}"


def id_token(seed: int, position: int) -> str:
    """The token only document ``position`` of this seed's corpus contains."""
    return f"id{seed}x{position:06d}"


def _zipf_ranks(rng: random.Random, count: int) -> List[int]:
    # Index i of the cumulative table is rank i + 1.
    return [
        i + 1
        for i in rng.choices(range(VOCABULARY_SIZE), cum_weights=_CUM_WEIGHTS, k=count)
    ]


def _stratified(rng: random.Random, cum_weights: Sequence[float], count: int) -> List[int]:
    """``count`` indices into a weighted table, one from each of ``count``
    equally likely strata, in random order.

    Each index is distributed by the weights, as with ``rng.choices``, but
    the draws of one list share the strata between them, so every seed's
    list holds nearly the same number of head and of tail items.  An op
    list is a few hundred draws from a heavy-tailed distribution; drawn
    independently, its total work differs by 4 % from seed to seed, which
    is as much as the machine's noise and says nothing about the program.
    """
    step = cum_weights[-1] / count
    points = [(stratum + rng.random()) * step for stratum in range(count)]
    rng.shuffle(points)
    last = len(cum_weights) - 1
    return [min(bisect.bisect_left(cum_weights, point), last) for point in points]


def _balanced(rng: random.Random, values: Sequence[int], count: int) -> List[int]:
    """``count`` items of ``values`` in equal numbers, in random order."""
    items = [values[i % len(values)] for i in range(count)]
    rng.shuffle(items)
    return items


def documents(seed: int, start: int, count: int) -> List[str]:
    """Documents ``start .. start+count-1`` of the seed's corpus.

    Document ``i`` depends only on ``(seed, i)``, so a preload and a later
    ingest feed can be generated apart and still form one corpus.
    """
    docs = []
    for position in range(start, start + count):
        rng = random.Random(f"doc/{seed}/{position}")
        ranks = _zipf_ranks(rng, rng.randint(MIN_TOKENS, MAX_TOKENS))
        words = [term(r) for r in ranks]
        words.append(id_token(seed, position))
        docs.append(" ".join(words))
    return docs


def disjunctive_queries(seed: int, count: int) -> List[str]:
    """``count`` ANY-queries of 1-5 terms, Zipf-popular like the corpus.

    Query popularity follows the same rank order as document frequency,
    so head terms — the long posting lists — are asked for most often.
    """
    rng = random.Random(f"disj/{seed}")
    lengths = _balanced(rng, range(1, 6), count)
    deck = [i + 1 for i in _stratified(rng, _CUM_WEIGHTS, sum(lengths))]
    queries = []
    for length in lengths:
        chosen: List[int] = []
        for _ in range(length):
            rank = deck.pop()
            # A rank the query already holds goes back into the deck for a
            # later query, so the list as a whole keeps every draw.
            for _ in range(8):
                if rank not in chosen or not deck:
                    break
                deck.insert(rng.randrange(len(deck)), rank)
                rank = deck.pop()
            chosen.append(rank)
        queries.append(" ".join(term(r) for r in dict.fromkeys(chosen)))
    return queries


def conjunctive_queries(seed: int, count: int, num_docs: int) -> List[str]:
    """``count`` ALL-queries ``+head +body[+body]``; every 4th time-ranged.

    One term from document-frequency ranks 1-50 (a long list to jump
    through) and one or two from ranks 100-2,000 (short lists that drive
    the zigzag).  The range covers the middle half of commit times, which
    equal global document IDs when one client ingests.
    """
    rng = random.Random(f"conj/{seed}")
    heads = _balanced(rng, range(1, 51), count)
    body_counts = _balanced(rng, (1, 2), count)
    bodies = iter(_stratified(rng, range(1, 1902), sum(body_counts)))
    queries = []
    for i in range(count):
        ranks = [heads[i]] + [100 + next(bodies) for _ in range(body_counts[i])]
        text = " ".join(f"+{term(r)}" for r in dict.fromkeys(ranks))
        if i % 4 == 3:
            text += f" @{num_docs // 4}..{3 * num_docs // 4}"
        queries.append(text)
    return queries


#: ALL queries per ANY query among the ``svc-mixed`` searches.  An ALL query
#: costs a third of an ANY query and the two kinds make two modes of latency:
#: in equal numbers the median search falls in the gap between the modes,
#: where a handful of ops more on one side moves it by a third; at three to
#: one it falls inside the ALL mode and the 90th percentile inside the ANY
#: mode, where ops are dense.
ALL_PER_ANY = 3

#: Skew of query popularity over each ``svc-mixed`` pool.  Flatter than the
#: corpus: at 1.1 a handful of queries would be half of a window's searches
#: and the window's latency would be theirs, a property of the seed.
POOL_ZIPF_S = 0.8

#: ``mixed_ops`` fixes the ingest share per block of this many ops, so every
#: seed ingests the same number of documents.
MIX_BLOCK = 20

#: One ``svc-mixed`` op: ``("search", query)`` or
#: ``("ingest", (first corpus position, [doc, ...]))``.
Op = Tuple[str, object]


def hot_pools(seed: int, size: int, num_docs: int) -> Tuple[List[str], List[str]]:
    """The ``svc-mixed`` query pools, ``size`` queries in all: ANY and ALL."""
    any_size = size // (1 + ALL_PER_ANY)
    return (
        disjunctive_queries(seed + 1_000_003, any_size),
        conjunctive_queries(seed + 1_000_003, size - any_size, num_docs),
    )


def mixed_ops(
    seed: int,
    client: int,
    count: int,
    pools: Tuple[Sequence[str], Sequence[str]],
    *,
    ingest_share: float,
    batch_docs: int,
    first_doc: int,
) -> List[Op]:
    """Fixed op list of one ``svc-mixed`` client.

    Of the searches, one in ``1 + ALL_PER_ANY`` is an ANY query; each kind
    draws from its pool by Zipf(``POOL_ZIPF_S``) over pool position (a few
    queries are hot, most are asked once or twice, so the result cache sees
    both hits and misses).  Exactly ``ingest_share`` of every ``MIX_BLOCK``
    ops are ingest batches, at seeded positions; they take the corpus
    documents from ``first_doc`` on, so clients need disjoint ranges.
    """
    rng = random.Random(f"mixed/{seed}/{client}")
    ingests = sum(
        round(min(MIX_BLOCK, count - start) * ingest_share) for start in range(0, count, MIX_BLOCK)
    )
    kinds = _balanced(rng, (0,) + (1,) * ALL_PER_ANY, count - ingests)
    draws = []
    for kind, pool in enumerate(pools):
        weights = list(
            itertools.accumulate(1.0 / rank**POOL_ZIPF_S for rank in range(1, len(pool) + 1))
        )
        draws.append([pool[i] for i in _stratified(rng, weights, kinds.count(kind))])
    searches = (draws[kind].pop() for kind in kinds)
    ops: List[Op] = []
    next_doc = first_doc
    for block_start in range(0, count, MIX_BLOCK):
        block = min(MIX_BLOCK, count - block_start)
        ingest_at = set(rng.sample(range(block), round(block * ingest_share)))
        for i in range(block):
            if i in ingest_at:
                ops.append(("ingest", (next_doc, documents(seed, next_doc, batch_docs))))
                next_doc += batch_docs
            else:
                ops.append(("search", next(searches)))
    return ops


def digest(items: Iterable[str]) -> str:
    """sha256 over ``items`` joined by newlines (the pin the tests check)."""
    sha = hashlib.sha256()
    for item in items:
        sha.update(item.encode("utf-8"))
        sha.update(b"\n")
    return sha.hexdigest()
