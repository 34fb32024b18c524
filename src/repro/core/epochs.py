"""Learning term popularity from a workload prefix (Section 3.3).

The paper's popularity-aware merging heuristics need the frequencies
``ti`` / ``qi``, which are not known a priori.  Section 3.3's answer:

* the frequencies are **stable** over time and space — Figures 3(f)/3(g)
  show that statistics learned from the first 10% of the workload drive
  merging decisions for the entire index with almost no cost change;
* where they are less stable, divide time into **epochs**, maintain a
  separate index per epoch, and choose each epoch's merging from the
  statistics of the previous epoch; queries fan out over all epochs, and
  time-constrained queries only touch the epochs overlapping the
  requested interval.

This module is the learning step (:func:`learn_popular_terms` and the
two prefix statistics behind Figures 3(f)/3(g)).  The epochs themselves
are the engine's sealed segments:
``EngineConfig(tail_max_docs=..., seal_strategy="epoch")`` in
:mod:`repro.search.engine`.
"""

from __future__ import annotations

import numpy as np

from repro.errors import WorkloadError
from repro.workloads.stats import WorkloadStats


def learn_popular_terms(
    stats: WorkloadStats, k: int, *, by: str = "qi"
) -> np.ndarray:
    """Top-``k`` term IDs by the chosen statistic from (prefix) stats.

    ``by='qi'`` ranks by query frequency (Figure 3(d)/(f)); ``by='ti'``
    ranks by term/document frequency (Figure 3(e)/(g)).
    """
    if by == "qi":
        return stats.top_terms_by_qf(k)
    if by == "ti":
        return stats.top_terms_by_tf(k)
    raise WorkloadError(f"by must be 'qi' or 'ti', got {by!r}")


def prefix_term_frequencies(corpus, fraction: float) -> np.ndarray:
    """``ti`` measured over the first ``fraction`` of a corpus stream.

    The "first 10% of the documents crawled" statistic of Figure 3(g).
    """
    if not 0 < fraction <= 1:
        raise WorkloadError(f"fraction must be in (0, 1], got {fraction}")
    limit = max(1, int(corpus.config.num_docs * fraction))
    counts = np.zeros(corpus.config.vocabulary_size, dtype=np.int64)
    for doc in corpus.documents():
        if doc.doc_id - corpus.first_doc_id >= limit:
            break
        counts[doc.term_ids] += 1
    return counts


def prefix_query_frequencies(query_log, fraction: float) -> np.ndarray:
    """``qi`` measured over the first ``fraction`` of a query log.

    The "first 10% of the queries submitted" statistic of Figure 3(f).
    """
    if not 0 < fraction <= 1:
        raise WorkloadError(f"fraction must be in (0, 1], got {fraction}")
    limit = max(1, int(query_log.config.num_queries * fraction))
    counts = np.zeros(query_log.config.vocabulary_size, dtype=np.int64)
    for query in query_log.queries():
        if query.query_id >= limit:
            break
        for term in query.term_ids:
            counts[term] += 1
    return counts
