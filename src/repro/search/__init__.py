"""Keyword search engine built on the trustworthy index.

The paper validates its scheme inside IBM's Trevi intranet engine; this
subpackage is our equivalent substrate:

* :mod:`repro.search.analyzer` — tokenization and stopwording;
* :mod:`repro.search.documents` — the WORM-resident document store (the
  "conventional WORM for the documents themselves", Section 2.2);
* :mod:`repro.search.ranking` — Okapi BM25 and cosine scorers
  (Section 3.1 cites both as the similarity measures in use);
* :mod:`repro.search.query` — query model: disjunctive, conjunctive and
  commit-time-constrained queries;
* :mod:`repro.search.join` — the zigzag join (Figure 5) over seekable
  posting cursors, with blocks-read accounting;
* :mod:`repro.search.engine` — :class:`TrustworthySearchEngine`, the
  end-to-end public API: real-time trustworthy ingest, ranked search,
  conjunctive joins, time-range filtering and result verification —
  and, with ``seal_strategy="epoch"``, the Section 3.3 epochs: each
  sealed segment is one, laid out from the epoch before it.
"""
