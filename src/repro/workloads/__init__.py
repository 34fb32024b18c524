"""Synthetic IBM-intranet-like workload generators.

The paper evaluates on one million documents crawled from IBM's intranet
and 300,000 logged user queries — both confidential and unavailable.  This
subpackage substitutes generators that reproduce every *property of the
data that the paper's results actually depend on*:

* Zipfian term-frequency distribution ``ti`` (Figure 3(a), citing Zipf),
* Zipfian query-frequency distribution ``qi`` (Figure 3(b)),
* strong rank correlation between the two — "the most common terms in the
  queries are also very common in the documents" (Section 3.3),
* a minority of terms that are common in documents but rarely queried
  (the paper's example: *following*),
* an average of roughly 500 distinct keywords per document at full scale
  (Section 2.3), configurable for scaled-down runs.

All generators are deterministic under a seed and expose their parameters,
so every figure harness records exactly what workload it ran.
"""
