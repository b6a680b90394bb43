"""Ordinal-pattern core: extraction, lexicographic coding, symmetries,
and empirical pattern distributions.

The rank convention throughout: the pattern of a window (x_1, ..., x_n) is
the permutation word where word[i] is the rank of x_i among the window
values, 1 for the smallest. So (1.2, 3.4, 0.5) has pattern 231. Series
are ranked as lex-rank arrays (_lag_ranks); the patterns themselves come
from one table per order, _patterns(n), whose entry r has lex rank r.

Main entry points
-----------------
standardize            pattern of a single window
extract_patterns       all patterns of a series (order n, delay d)
empirical_distribution relative pattern frequencies of a series
pattern_counts         window counts at several orders, of a series or a stack
lex_rank / lex_unrank  bijection between patterns and 0..n!-1
symmetry_transform     complement / reverse / reverse-complement
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations
from typing import Iterable, Literal, Sequence

import numpy as np

from .errors import LengthError, OrderError, RangeError, TieError

#: Largest pattern order, where analysis stops: dense n! tables stay small.
MAX_ORDER = 7

_FACT = [math.factorial(k) for k in range(MAX_ORDER + 1)]


def _check_order(n: int) -> int:
    # the one check of 2..MAX_ORDER; each narrower range lives with its owner
    try:
        n = operator.index(n)  # an integer of any integer type, never a truncated float
    except TypeError:
        raise OrderError(f"orders must be integers, got {n!r}") from None
    if not 2 <= n <= MAX_ORDER:
        raise OrderError(f"patterns support orders 2..{MAX_ORDER}, got {n}")
    return n


def _check_orders(orders) -> list[int]:
    """The distinct orders, ascending, each checked by _check_order."""
    orders = sorted({_check_order(n) for n in orders})
    if not orders:
        raise RangeError("need at least one order")
    return orders


# --------------------------------------------------------------------------
# domain types
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class TimeSeries:
    """A finite, real-valued series.

    Parameters
    ----------
    values : array_like
        One-dimensional, nonempty, all values finite. Stored as a
        read-only float64 array.
    """

    values: np.ndarray

    def __post_init__(self):
        arr = np.array(self.values, dtype=np.float64)
        if arr.ndim != 1 or arr.size == 0:
            raise LengthError("series must be one-dimensional and nonempty")
        if not np.isfinite(arr).all():
            raise RangeError("series values must be finite")
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    def __len__(self) -> int:
        return int(self.values.size)


TieMode = Literal["strict", "stable", "jitter"]


@dataclass(frozen=True)
class TiePolicy:
    """How equal values within a window are ranked.

    stable (the default) ranks the earlier index as smaller; strict raises
    TieError on any duplicate; jitter adds seeded normal noise of scale
    jitter_scale to the values before ranking.
    """

    mode: TieMode = "stable"
    jitter_scale: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.mode not in ("strict", "stable", "jitter"):
            raise RangeError(f"unknown tie mode {self.mode!r}")
        if self.mode == "jitter" and not self.jitter_scale > 0:
            raise RangeError("jitter mode requires jitter_scale > 0")


@dataclass(frozen=True, order=True)
class OrdinalPattern:
    """A permutation of {1..n} in one-line notation.

    word[i] is the rank of the i-th window value (1 = smallest). Patterns
    compare and sort lexicographically by word, and serialize as digit
    strings ("2314").
    """

    word: tuple[int, ...]

    def __post_init__(self):
        word = tuple(int(v) for v in self.word)
        object.__setattr__(self, "word", word)
        n = len(word)
        _check_order(n)
        if sorted(word) != list(range(1, n + 1)):
            raise RangeError(f"{word} is not a permutation of 1..{n}")

    @property
    def order(self) -> int:
        return len(self.word)

    @property
    def rank(self) -> int:
        return lex_rank(self)

    def __str__(self) -> str:
        return "".join(str(v) for v in self.word)

    @classmethod
    def from_string(cls, text: str) -> "OrdinalPattern":
        """Parse "231" back into a pattern."""
        text = text.strip()
        try:
            return cls(tuple(int(p) for p in text))
        except ValueError as exc:
            raise RangeError(f"cannot parse pattern string {text!r}") from exc


@dataclass(frozen=True)
class PatternDistribution:
    """A probability vector over all n! patterns, indexed by lex rank.

    kind says whether the weights came from data ("empirical") or from a
    null model ("model"); sample_count is the number of windows or draws
    behind the weights, 0 for exact closed forms.
    """

    order: int
    weights: np.ndarray
    kind: Literal["empirical", "model"]
    sample_count: int = 0

    def __post_init__(self):
        n = int(self.order)
        _check_order(n)
        w = np.array(self.weights, dtype=np.float64)
        if w.shape != (_FACT[n],):
            raise RangeError(
                f"expected {_FACT[n]} weights for order {n}, got shape {w.shape}"
            )
        if not np.isfinite(w).all():
            raise RangeError("weights must be finite")
        if np.any(w < 0):
            raise RangeError("weights must be nonnegative")
        total = float(w.sum())
        if abs(total - 1.0) > 1e-12:
            raise RangeError(f"weights must sum to 1 (got {total!r})")
        if self.kind not in ("empirical", "model"):
            raise RangeError(f"unknown distribution kind {self.kind!r}")
        if self.sample_count < 0:
            raise RangeError("sample_count must be nonnegative")
        w.setflags(write=False)
        object.__setattr__(self, "order", n)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "sample_count", int(self.sample_count))

    @classmethod
    def uniform(cls, n: int) -> "PatternDistribution":
        """The uniform distribution over all n! patterns."""
        _check_order(n)
        size = _FACT[n]
        return cls(n, np.full(size, 1.0 / size), "model", 0)

    def weight_of(self, pattern: OrdinalPattern) -> float:
        if pattern.order != self.order:
            raise RangeError(
                f"pattern order {pattern.order} does not match distribution "
                f"order {self.order}"
            )
        return float(self.weights[pattern.rank])

    def as_dict(self) -> dict[str, float]:
        """Weights keyed by pattern string, in lexicographic order."""
        return {str(p): float(w) for p, w in zip(_patterns(self.order), self.weights)}


# --------------------------------------------------------------------------
# lexicographic coding
# --------------------------------------------------------------------------

def lex_rank(pattern: OrdinalPattern) -> int:
    """Lexicographic rank of a pattern, 0 for 12...n."""
    word = pattern.word
    n = len(word)
    rank = 0
    for i in range(n - 1):
        smaller_after = sum(word[j] < word[i] for j in range(i + 1, n))
        rank += smaller_after * _FACT[n - 1 - i]
    return rank


@lru_cache(maxsize=None)
def _patterns(n: int) -> tuple[OrdinalPattern, ...]:
    """Every order-n pattern, the one at index r of lex rank r; built once
    per order. permutations() of a sorted sequence yields lex order."""
    return tuple(map(OrdinalPattern, permutations(range(1, _check_order(n) + 1))))


def lex_unrank(n: int, rank: int) -> OrdinalPattern:
    """Inverse of lex_rank: the pattern of given order at the given rank."""
    patterns = _patterns(n)
    if not 0 <= rank < len(patterns):
        raise RangeError(f"rank must be in [0, {n}!), got {rank}")
    return patterns[rank]


def all_patterns(n: int) -> list[OrdinalPattern]:
    """Every order-n pattern in lexicographic order."""
    return list(_patterns(n))


def symmetry_transform(
    pattern: OrdinalPattern,
    kind: Literal["complement", "reverse", "reverse_complement"],
) -> OrdinalPattern:
    """Apply a pattern symmetry.

    complement maps each value v to n+1-v (the pattern of the sign-flipped
    window); reverse reads the word backwards (the pattern of the
    time-reversed window is reverse of complement, so these two compose);
    reverse_complement applies both, in either order.
    """
    n = pattern.order
    word = pattern.word
    if kind == "complement":
        out = tuple(n + 1 - v for v in word)
    elif kind == "reverse":
        out = word[::-1]
    elif kind == "reverse_complement":
        out = tuple(n + 1 - v for v in word[::-1])
    else:
        raise RangeError(f"unknown symmetry {kind!r}")
    return OrdinalPattern(out)


@lru_cache(maxsize=None)
def _symmetry_ranks(n: int, kind: str) -> np.ndarray:
    """Read-only intp array mapping each lex rank of order n to the rank
    of its symmetry_transform under kind; built once per (n, kind)."""
    ranks = np.array([symmetry_transform(p, kind).rank for p in _patterns(n)], dtype=np.intp)
    ranks.setflags(write=False)
    return ranks


# --------------------------------------------------------------------------
# extraction
# --------------------------------------------------------------------------

def _as_series(series) -> TimeSeries:
    # unlike _as_values, this rejects a 2-D stack of series
    return series if isinstance(series, TimeSeries) else TimeSeries(series)


def _as_values(series) -> np.ndarray:
    if isinstance(series, TimeSeries):
        return series.values
    arr = np.asarray(series, dtype=np.float64)
    if arr.ndim == 2:  # a stack of equal-length series, one per row
        if arr.size == 0 or not np.isfinite(arr).all():
            raise RangeError("a series stack must be nonempty and finite")
        return arr
    return TimeSeries(arr).values


def _apply_jitter(values: np.ndarray, scale: float, seed) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return values + rng.normal(0.0, scale, size=values.shape)


def _lag_ranks(x: np.ndarray, orders, d: int):
    """Yield (n, ranks) for each requested order n, in increasing order.

    ranks holds the lex rank of every length-n, delay-d window along the
    last axis of x (a series, or a stack with one series per row). All
    orders share one set of lag comparisons c_k[t] = x[t+kd] < x[t]
    (the Lehmer code): with S_m = c_1 + ... + c_m,
    rank_{m+1}[t] = m! S_m[t] + rank_m[t+d]. Equal values rank
    earlier-index-smaller; the strict tie rule is _prepared's. Each
    yielded array feeds the next order's ranks, so callers reduce it (to
    counts, say) without modifying it before resuming.
    """
    size = x.shape[-1]
    below = np.zeros_like(x, dtype=np.int8)  # S_m, shrinking by d per m
    rank = np.broadcast_to(np.int32(0), x.shape)  # rank_1; 7! < 2**31
    for m in range(1, max(orders)):
        width = size - m * d
        below = below[..., :width]
        below += x[..., m * d:] < x[..., :width]
        step = below.astype(np.int32)
        step *= _FACT[m]
        step += rank[..., d:]
        rank = step
        if m + 1 in orders:
            yield m + 1, rank


def _check_span(length: int, orders, d: int) -> None:
    """Raise unless d >= 1 and `length` values hold a top-order window."""
    if d < 1:
        raise RangeError(f"delay must be >= 1, got {d}")
    n = max(orders)
    span = (n - 1) * d + 1
    if length < span:
        raise LengthError(f"series of length {length} is too short for order {n} "
                          f"at delay {d} (needs {span})")


def _prepared(series, orders, d: int, policy: TiePolicy | None) -> np.ndarray:
    """Validated (and, under jitter, perturbed) values for _lag_ranks.

    Owns the strict tie rule: TieError if any window of a requested order
    holds two equal values. Those lie k*d apart for some 0 < k < n, and
    the W windows of the lowest order n > k reach every such pair whose
    first index, taken mod d, is below W (every pair once W >= d).
    """
    policy = policy or TiePolicy()
    values = _as_values(series)
    size = values.shape[-1]
    _check_span(size, orders, d)
    if policy.mode == "jitter":
        values = _apply_jitter(values, policy.jitter_scale, policy.seed)
    if policy.mode == "strict":
        for k in range(1, max(orders)):
            windows = size - (min(n for n in orders if n > k) - 1) * d
            equal = values[..., k * d:] == values[..., :size - k * d]
            if equal[..., np.arange(size - k * d) % d < windows].any():
                raise TieError("window contains duplicate values (strict ties)")
    return values


def pattern_counts(
    series,
    orders: Iterable[int],
    d: int = 1,
    policy: TiePolicy | None = None,
) -> dict[int, np.ndarray]:
    """Window counts per lex rank at every requested order, in one pass.

    series is one series, or a 2-D stack with one series per row; the
    counts of order n then have shape (n!,) or (rows, n!).
    """
    orders = _check_orders(orders)
    values = _prepared(series, orders, d, policy)
    return {n: _row_counts(ranks, n) for n, ranks in _lag_ranks(values, orders, d)}


def _row_counts(ranks: np.ndarray, n: int) -> np.ndarray:
    """Counts per lex rank of order-n ranks, (n!,) or (rows, n!) for a stack."""
    if ranks.ndim == 1:
        return np.bincount(ranks, minlength=_FACT[n])
    rows = ranks.shape[0]
    offset = np.arange(rows, dtype=np.intp)[:, None] * _FACT[n]
    flat = np.bincount((ranks + offset).ravel("K"), minlength=rows * _FACT[n])
    return flat.reshape(rows, _FACT[n])


def standardize(window: Sequence[float], policy: TiePolicy | None = None) -> OrdinalPattern:
    """Ordinal pattern of a single window.

    Parameters
    ----------
    window : sequence of float
        At least two values.
    policy : TiePolicy, optional
        Tie handling; stable by default.

    Returns
    -------
    OrdinalPattern
        word[i] is the rank of window[i], 1 for the smallest value.
    """
    vals = np.asarray(window, dtype=np.float64)
    if vals.ndim != 1 or vals.size < 2:
        raise LengthError("a window needs at least two values")
    return extract_patterns(vals, vals.size, 1, policy)[0]  # its one window


def extract_patterns(
    series,
    n: int,
    d: int = 1,
    policy: TiePolicy | None = None,
) -> list[OrdinalPattern]:
    """All ordinal patterns of a series.

    Windows are (x_t, x_{t+d}, ..., x_{t+(n-1)d}) for t = 1..N-(n-1)d, so
    exactly N-(n-1)d patterns come back, in series order.
    """
    orders = _check_orders((n,))
    values = _prepared(_as_series(series), orders, d, policy)
    _, ranks = next(_lag_ranks(values, orders, d))
    patterns = _patterns(n)
    return [patterns[r] for r in ranks.tolist()]


def empirical_distribution(
    series,
    n: int,
    d: int = 1,
    policy: TiePolicy | None = None,
) -> PatternDistribution:
    """Relative frequency of each pattern across the series' windows.

    Returns
    -------
    PatternDistribution
        kind "empirical", sample_count = number of windows. The output is
        invariant under positive affine maps of the input values.
    """
    return empirical_distributions(series, (n,), d, policy)[n]


def empirical_distributions(
    series,
    orders: Iterable[int],
    d: int = 1,
    policy: TiePolicy | None = None,
) -> dict[int, PatternDistribution]:
    """empirical_distribution at several orders, from one pass of the
    rank kernel; keyed by order."""
    out = {}
    for n, counts in pattern_counts(_as_series(series), orders, d, policy).items():
        windows = int(counts.sum())
        out[n] = PatternDistribution(n, counts / windows, "empirical", windows)
    return out
