"""Workloads whose term popularity drifts over time (Section 3.3's "if").

Figures 3(f)/3(g) show IBM's intranet statistics are stable, so one
learning pass suffices.  For "an environment where the frequencies are
less stable, the system can learn the frequencies online, and the
merging strategy can be adapted accordingly" — the epoch scheme.  To
evaluate that scheme one needs a workload where the premise of static
learning actually fails; this module generates it.

:class:`DriftingWorkload` produces a sequence of epochs.  Within each
epoch, query popularity follows a Zipf profile over a ranking that
rotates inside a pool of document-popular terms: epoch ``e`` promotes
the pool slice starting at ``e * drift_stride`` to the hottest query
ranks.  For a top-``k`` hot set, adjacent epochs overlap by roughly
``1 - drift_stride / k`` — tunable from "slow drift" to "complete
churn".  Document statistics stay fixed (news-cycle-style workloads:
the content is stable, the interest moves).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional

import numpy as np

from repro.errors import WorkloadError
from repro.workloads.queries import SyntheticQuery
from repro.workloads.zipf import ZipfSampler, zipf_weights


@dataclass(frozen=True)
class DriftConfig:
    """Parameters of a drifting multi-epoch workload.

    Attributes
    ----------
    vocabulary_size:
        Term universe size (shared by all epochs).
    num_epochs:
        Number of epochs to generate.
    queries_per_epoch:
        Query count per epoch.
    hot_pool_size:
        The pool of plausibly-hot terms (drawn from the document-popular
        head, as in real logs — people query popular topics).  Query
        popularity rotates *within* this pool.
    drift_stride:
        How many pool ranks the popularity profile rotates per epoch.
        ``0`` reproduces a stable workload; with a top-k hot set, the
        hot-set overlap between consecutive epochs is roughly
        ``1 - stride/k``.
    zipf_s:
        Skew of the per-epoch query popularity.
    terms_per_query:
        Keyword count of every generated query (kept constant so cost
        differences isolate the merging decision).
    seed:
        Determinism seed.
    """

    vocabulary_size: int = 20_000
    num_epochs: int = 4
    queries_per_epoch: int = 4_000
    hot_pool_size: int = 1_000
    drift_stride: int = 50
    zipf_s: float = 1.1
    terms_per_query: int = 2
    seed: int = 13

    def __post_init__(self) -> None:
        if self.vocabulary_size <= 0 or self.num_epochs <= 0:
            raise WorkloadError("vocabulary_size and num_epochs must be positive")
        if self.queries_per_epoch <= 0:
            raise WorkloadError("queries_per_epoch must be positive")
        if not 0 < self.hot_pool_size <= self.vocabulary_size:
            raise WorkloadError(
                f"hot_pool_size must be in (0, {self.vocabulary_size}]"
            )
        if not 0 <= self.drift_stride <= self.hot_pool_size:
            raise WorkloadError(
                f"drift_stride must be in [0, {self.hot_pool_size}]"
            )
        if self.terms_per_query < 1:
            raise WorkloadError("terms_per_query must be >= 1")


@dataclass
class EpochWorkload:
    """One epoch's queries and its query-frequency statistics."""

    epoch_no: int
    queries: List[SyntheticQuery]
    qi: np.ndarray


class DriftingWorkload:
    """Generator of per-epoch query workloads with rotating popularity."""

    def __init__(self, config: Optional[DriftConfig] = None):
        self.config = config = config if config is not None else DriftConfig()
        self._base = zipf_weights(config.vocabulary_size, config.zipf_s)

    def epoch_popularity(self, epoch_no: int) -> np.ndarray:
        """The (normalized) query-popularity profile of epoch ``epoch_no``.

        Terms keep their identity as document-popular or not (ranks
        outside the hot pool are untouched); *within* the pool, the
        ranking rotates by ``epoch_no * drift_stride``, so each epoch a
        slice of the pool takes over the hottest query ranks.
        """
        cfg = self.config
        shift = (epoch_no * cfg.drift_stride) % cfg.hot_pool_size
        ranking = np.concatenate(
            [
                np.roll(np.arange(cfg.hot_pool_size), -shift),
                np.arange(cfg.hot_pool_size, cfg.vocabulary_size),
            ]
        )
        derived = np.empty(cfg.vocabulary_size, dtype=np.float64)
        # The term at permuted rank r receives the base rank-r weight.
        derived[ranking] = self._base
        return derived

    def epochs(self) -> Iterator[EpochWorkload]:
        """Yield every epoch's workload, deterministically."""
        cfg = self.config
        for epoch_no in range(cfg.num_epochs):
            rng = np.random.default_rng(cfg.seed + 7919 * epoch_no)
            sampler = ZipfSampler(
                cfg.vocabulary_size,
                cfg.zipf_s,
                rng=rng,
                weights=self.epoch_popularity(epoch_no),
            )
            queries: List[SyntheticQuery] = []
            qi = np.zeros(cfg.vocabulary_size, dtype=np.int64)
            for query_id in range(cfg.queries_per_epoch):
                terms: List[int] = []
                while len(terms) < cfg.terms_per_query:
                    term = int(sampler.sample_one())
                    if term not in terms:
                        terms.append(term)
                for term in terms:
                    qi[term] += 1
                queries.append(
                    SyntheticQuery(query_id=query_id, term_ids=tuple(terms))
                )
            yield EpochWorkload(epoch_no=epoch_no, queries=queries, qi=qi)

    def hot_set_overlap(self, epoch_a: int, epoch_b: int, *, top_k: int = 100) -> float:
        """Fraction of epoch ``a``'s top-k terms still hot in epoch ``b``.

        Diagnostic for how fast the workload drifts (1.0 = stable).
        """
        pa = self.epoch_popularity(epoch_a)
        pb = self.epoch_popularity(epoch_b)
        top_a = set(np.argsort(pa)[::-1][:top_k].tolist())
        top_b = set(np.argsort(pb)[::-1][:top_k].tolist())
        return len(top_a & top_b) / top_k
