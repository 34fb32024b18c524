"""Baseline index structures the paper compares against (and attacks).

* :mod:`repro.baselines.bplus_tree` — the bottom-up append-only B+ tree
  of Figure 6.  Efficient, WORM-compatible — and **not trustworthy**: a
  WORM-legal append at the root can shadow a committed entry.
* :mod:`repro.baselines.binary_search` — plain binary search over an
  append-only sorted run; defeated by appending a smaller key at the tail
  (Section 4's second attack).
* :mod:`repro.baselines.ght` — the Generalized Hash Tree fossilized
  index: trustworthy, but exact-match only and with poor locality, which
  is why the paper rejects it for posting-list joins.
* :mod:`repro.baselines.unmerged` — unmerged per-term posting lists, each
  with its own B+ tree: the paper's "ideal" (fast but untrustworthy)
  comparator in Figure 8(c) and the Section 6 conclusion numbers.
"""
