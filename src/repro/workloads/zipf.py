"""Zipf-distributed sampling over a finite rank space.

Typical document databases have Zipfian keyword distributions (the paper
cites Zipf's classic study and observes it in Figure 3(a) for the IBM
intranet corpus).  :class:`ZipfSampler` draws ranks ``0 .. n-1`` where rank
``r`` has probability proportional to ``1 / (r + 1) ** s``.

``numpy.random.Generator.zipf`` samples from the *unbounded* zeta
distribution, which is unusable here — we need a bounded vocabulary and
full control over the exponent (including ``s <= 1``, where the unbounded
law does not normalize).  Sampling is therefore done by inverse-CDF lookup
(``searchsorted`` over the cumulative weights), which is exact, vectorized
and deterministic under a seed.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import WorkloadError


def zipf_weights(n: int, s: float = 1.0) -> np.ndarray:
    """Normalized Zipf probabilities for ranks ``0 .. n-1``.

    Parameters
    ----------
    n:
        Size of the rank space (vocabulary size).
    s:
        Zipf exponent; larger means more skew.  ``s = 0`` degenerates to
        the uniform distribution.
    """
    if n <= 0:
        raise WorkloadError(f"rank space must be positive, got n={n}")
    if s < 0:
        raise WorkloadError(f"Zipf exponent must be non-negative, got s={s}")
    ranks = np.arange(1, n + 1, dtype=np.float64)
    weights = ranks ** (-s)
    return weights / weights.sum()


class ZipfSampler:
    """Draw Zipf-distributed ranks from a bounded rank space.

    Parameters
    ----------
    n:
        Size of the rank space.
    s:
        Zipf exponent.
    rng:
        Optional ``numpy.random.Generator``; a fresh deterministic one is
        created from ``seed`` when omitted.
    seed:
        Seed used when ``rng`` is omitted.
    weights:
        Optional explicit (unnormalized) weight vector overriding the pure
        Zipf law, e.g. a permuted or perturbed popularity profile.  Length
        must equal ``n``.
    """

    def __init__(
        self,
        n: int,
        s: float = 1.0,
        *,
        rng: Optional[np.random.Generator] = None,
        seed: int = 0,
        weights: Optional[np.ndarray] = None,
    ):
        if weights is None:
            probabilities = zipf_weights(n, s)
        else:
            weights = np.asarray(weights, dtype=np.float64)
            if weights.shape != (n,):
                raise WorkloadError(
                    f"weights must have shape ({n},), got {weights.shape}"
                )
            if np.any(weights < 0) or weights.sum() <= 0:
                raise WorkloadError("weights must be non-negative and sum > 0")
            probabilities = weights / weights.sum()
        self.n = n
        self.s = s
        self.probabilities = probabilities
        self._cumulative = np.cumsum(probabilities)
        # Guard against floating-point undershoot at the top end.
        self._cumulative[-1] = 1.0
        self.rng = rng if rng is not None else np.random.default_rng(seed)

    def sample(self, size: int) -> np.ndarray:
        """Draw ``size`` ranks (with replacement), as an int64 array."""
        if size < 0:
            raise WorkloadError(f"sample size must be non-negative, got {size}")
        uniforms = self.rng.random(size)
        return np.searchsorted(self._cumulative, uniforms, side="right").astype(
            np.int64
        )

    def sample_one(self) -> int:
        """Draw a single rank."""
        return int(self.sample(1)[0])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ZipfSampler(n={self.n}, s={self.s})"


def correlated_popularity(
    base_weights: np.ndarray,
    *,
    rank_jitter: float,
    rng: np.random.Generator,
    demoted_ranks: Optional[np.ndarray] = None,
    demotion_factor: float = 1e-3,
) -> np.ndarray:
    """Derive a second popularity profile rank-correlated with a first.

    Used to build the query-frequency profile ``qi`` from the
    term-frequency profile ``ti``: people "generally query on terms that
    they know about" (Section 3.3), so the profiles correlate strongly —
    but not perfectly, and some document-popular terms (the paper's
    *following*) are almost never queried.

    Parameters
    ----------
    base_weights:
        The source profile (e.g. Zipf weights by term rank).
    rank_jitter:
        Standard deviation, in ranks, of Gaussian noise applied to each
        term's rank before re-assigning weights.  ``0`` reproduces the
        source ranking exactly.
    rng:
        Randomness source.
    demoted_ranks:
        Ranks (indices into ``base_weights``) whose derived popularity is
        multiplied by ``demotion_factor`` — the document-popular,
        rarely-queried terms.
    demotion_factor:
        Multiplier applied to demoted terms (default: three orders of
        magnitude down).
    """
    n = len(base_weights)
    positions = np.arange(n, dtype=np.float64)
    if rank_jitter > 0:
        positions = positions + rng.normal(0.0, rank_jitter, size=n)
    # The term whose (jittered) position is smallest receives the largest
    # weight, preserving the Zipf *shape* while shuffling *which* term holds
    # each rank.
    order = np.argsort(positions)
    sorted_base = np.sort(base_weights)[::-1]
    derived = np.empty(n, dtype=np.float64)
    derived[order] = sorted_base
    if demoted_ranks is not None and len(demoted_ranks) > 0:
        derived = derived.copy()
        derived[demoted_ranks] *= demotion_factor
    return derived / derived.sum()
