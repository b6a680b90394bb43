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
from dataclasses import asdict, dataclass

import numpy as np

from .classes import EquivalenceClassTable
from .errors import OrderMismatchError, RangeError, SupportError
from .patterns import _FACT, PatternDistribution, _check_order


def permutation_entropy(dist: PatternDistribution) -> float:
    """Shannon entropy of the weights divided by log(n!).

    1 for the uniform distribution, 0 for a point mass; 0 log 0 counts
    as 0.
    """
    w = dist.weights[dist.weights > 0]
    h = -float(np.sum(w * np.log2(w)))
    return h / math.log2(_FACT[dist.order])


def _check_smoothing(smoothing: float) -> None:
    """The one smoothing check, for kl_divergence and AnalysisConfig."""
    if not math.isfinite(smoothing):
        raise RangeError(f"smoothing must be finite, got {smoothing}")
    if smoothing < 0:
        raise RangeError(f"smoothing must be >= 0, got {smoothing}")


def _kl_rows(p_rows: np.ndarray, q_rows: np.ndarray, sample_count: int,
             smoothing: float) -> np.ndarray:
    """kl_divergence of every row of a (rows, n!) weight matrix from q_rows,
    one null's weights or one per row, all sampled from sample_count
    windows, with the smoothing rule applied row by row."""
    _check_smoothing(smoothing)
    size = p_rows.shape[-1]  # n!
    used = p_rows > 0
    unsupported = (used & (q_rows == 0)).any(axis=1)
    if unsupported.any():
        if smoothing == 0 or sample_count == 0:
            raise SupportError(
                "q has zero weight on a pattern p uses; pass smoothing > 0 "
                "for sampled models"
            )
        smoothed = (q_rows * sample_count + smoothing) / (sample_count + smoothing * size)
        q_rows = np.where(unsupported[:, None], smoothed, q_rows)
    ratio = np.divide(p_rows, q_rows, out=np.ones_like(p_rows), where=used)
    return (p_rows * np.log2(ratio)).sum(axis=1) / math.log2(size)


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
    return float(_kl_rows(p.weights[None, :], q.weights, q.sample_count, smoothing)[0])


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
    band fields; classes_source says which classes backed g_statistic
    ("reference": the derived ones at orders 3..5; "rc_closure" at 6, 7).
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
        _check_order(self.n)
        if not 0.0 <= self.permutation_entropy <= 1.0 + 1e-12:
            raise RangeError(
                f"permutation entropy out of [0, 1]: {self.permutation_entropy}"
            )
        if not 0 <= self.missing_count <= _FACT[self.n]:
            raise RangeError(f"missing_count out of range: {self.missing_count}")

    def to_json_dict(self) -> dict:
        """Stable field names for serialization: the dataclass fields."""
        return asdict(self)
