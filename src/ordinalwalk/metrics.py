"""Scalar measures on pattern distributions.

permutation_entropy     normalized Shannon entropy, in [0, 1]
kl_divergence           normalized KL divergence, pseudocounts where unsupported
missing_pattern_count   patterns with zero empirical weight
g_statistic             total within-class deviation from class means
momentum_epsilon        excess of the monotone pattern over its step-model value

All logs are base 2; the log(n!) normalization makes the choice cancel.

One smoothing rule holds for every divergence: q is used as given where
it supports p; otherwise, for a sampled q (sample_count M > 0) and alpha
> 0, the pseudocounts (count + alpha) / (M + alpha n!) replace it, and an
exact q or alpha = 0 raises SupportError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .classes import EquivalenceClassTable
from .errors import OrderMismatchError, RangeError, SupportError
from .patterns import _FACT, PatternDistribution


def permutation_entropy(dist: PatternDistribution) -> float:
    """Shannon entropy of the weights divided by log(n!).

    1 for the uniform distribution, 0 for a point mass; 0 log 0 counts
    as 0.
    """
    w = dist.weights[dist.weights > 0]
    h = -float(np.sum(w * np.log2(w)))
    return h / math.log2(_FACT[dist.order])


def _kl_rows(p_rows: np.ndarray, q: PatternDistribution, smoothing: float) -> np.ndarray:
    """kl_divergence from q of every row of a (rows, n!) weight matrix,
    with the smoothing rule applied row by row."""
    if smoothing < 0:
        raise RangeError(f"smoothing must be >= 0, got {smoothing}")
    used = p_rows > 0
    unsupported = (used & (q.weights == 0)).any(axis=1)
    q_rows = q.weights
    if unsupported.any():
        if smoothing == 0 or q.sample_count == 0:
            raise SupportError(
                "q has zero weight on a pattern p uses; pass smoothing > 0 "
                "for sampled models"
            )
        m = q.sample_count
        smoothed = (q.weights * m + smoothing) / (m + smoothing * _FACT[q.order])
        q_rows = np.where(unsupported[:, None], smoothed, q.weights)
    ratio = np.divide(p_rows, q_rows, out=np.ones_like(p_rows), where=used)
    return (p_rows * np.log2(ratio)).sum(axis=1) / math.log2(_FACT[q.order])


def kl_divergence(
    p: PatternDistribution,
    q: PatternDistribution,
    smoothing: float = 0.0,
) -> float:
    """KL divergence D(p || q) divided by log(n!).

    If q supports p the divergence is unsmoothed, whatever the smoothing.
    Otherwise, with smoothing alpha > 0 and a sampled q (sample_count M
    > 0), q is replaced by the pseudocount estimate (count + alpha) /
    (M + alpha n!); exact weights (sample_count 0) are never smoothed.
    Against the uniform distribution this equals 1 - permutation_entropy(p).

    Raises
    ------
    SupportError
        if p puts weight where q has none and q cannot be smoothed.
    """
    if p.order != q.order:
        raise OrderMismatchError(f"orders differ: {p.order} vs {q.order}")
    return float(_kl_rows(p.weights[None, :], q, smoothing)[0])


def missing_pattern_count(dist: PatternDistribution) -> int:
    """Number of patterns with zero weight (meaningful for empirical data)."""
    return int(np.count_nonzero(dist.weights == 0))


def g_statistic(dist: PatternDistribution, classes: EquivalenceClassTable) -> float:
    """Sum over classes of the absolute deviations from the class mean.

    Zero exactly when the distribution is constant within every class, so
    walk-generated data drives this to zero as the series grows.
    """
    if dist.order != classes.order:
        raise OrderMismatchError(
            f"distribution order {dist.order} vs table order {classes.order}"
        )
    means = np.bincount(classes.ids, dist.weights) / np.bincount(classes.ids)
    return float(np.abs(dist.weights - means[classes.ids]).sum())


def momentum_epsilon(
    dist_n: PatternDistribution,
    dist_2: PatternDistribution,
    direction: str = "up",
) -> float:
    """Momentum excess of the monotone pattern.

    up:   p_{12...n} - (p_12)^(n-1)
    down: p_{n...21} - (p_21)^(n-1)

    dist_2 must be the order-2 distribution of the same series at the
    same delay. Any i.i.d.-step walk gives exactly zero in expectation,
    so persistent positive values read as momentum.
    """
    if dist_2.order != 2:
        raise OrderMismatchError(f"dist_2 must have order 2, got {dist_2.order}")
    if dist_n.order < 2:
        raise OrderMismatchError("dist_n must have order >= 2")
    n = dist_n.order
    if direction == "up":
        return float(dist_n.weights[0]) - float(dist_2.weights[0]) ** (n - 1)
    if direction == "down":
        return float(dist_n.weights[-1]) - float(dist_2.weights[1]) ** (n - 1)
    raise RangeError(f"direction must be 'up' or 'down', got {direction!r}")


@dataclass(frozen=True)
class MetricReport:
    """One order's worth of analysis results, with provenance.

    model and seed describe the null model used for kl_to_model and the
    band fields; classes_source says which class table backed g_statistic
    ("reference" for n <= 5, "rc_closure" beyond).
    """

    n: int
    permutation_entropy: float
    missing_count: int
    kl_to_model: float | None = None
    g_statistic: float | None = None
    epsilon_up: float | None = None
    epsilon_down: float | None = None
    kl_band_mean: float | None = None
    kl_band_std: float | None = None
    classes_source: str | None = None
    model: str = ""
    seed: int | None = None

    def __post_init__(self):
        if not 0.0 <= self.permutation_entropy <= 1.0 + 1e-12:
            raise RangeError(
                f"permutation entropy out of [0, 1]: {self.permutation_entropy}"
            )
        if not 0 <= self.missing_count <= _FACT[self.n]:
            raise RangeError(f"missing_count out of range: {self.missing_count}")

    def to_json_dict(self) -> dict:
        """Stable field names for serialization."""
        return {
            "n": self.n,
            "permutation_entropy": self.permutation_entropy,
            "missing_count": self.missing_count,
            "kl_to_model": self.kl_to_model,
            "g_statistic": self.g_statistic,
            "epsilon_up": self.epsilon_up,
            "epsilon_down": self.epsilon_down,
            "kl_band_mean": self.kl_band_mean,
            "kl_band_std": self.kl_band_std,
            "classes_source": self.classes_source,
            "model": self.model,
            "seed": self.seed,
        }
