"""Ordinal-pattern core: extraction, lexicographic coding, symmetries,
and empirical pattern distributions.

The rank convention throughout: the pattern of a window (x_1, ..., x_n) is
the permutation word where word[i] is the rank of x_i among the window
values, 1 for the smallest. So (1.2, 3.4, 0.5) has pattern 231. One
ranker, _lag_ranks, ranks series, walks and words, and every per-order
table comes from one word array per order, _words(n), row r of lex rank r.
One counter, _counted, jitters (_noised), ranks and counts every series,
stack and sampled walk (in nullmodels) in the blocks of _blocks, so no
pass holds more than about _CHUNK windows' values, noise or temporaries.
The blocks tile each row, and _counted alone ranks a long row's later
block behind the tail of the one before, so every window is counted.
It counts each window once, at its top order n: the order-m window at
start t + (n - m) d is the last m values of the order-n window at t, and
_lag_ranks makes rank_n mod m! its rank, so order m's counts are the top
counts summed over their n!/m! quotients (_fold), plus order m's first
(n - m) d windows, which end no top-order window and which _block_ranks
slices from a row's first block, from the same pass (_folded).

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
from functools import cached_property, lru_cache
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


def _check_int(value, name: str, low: int | None = None, error=RangeError) -> int:
    """value as an int, if it is an integer of any integer type (never a
    bool, nor a float, which would be truncated) and, given low, at least
    low; else error, naming the argument. Every integer argument but an
    order (_check_order) is checked here."""
    if isinstance(value, bool) or not hasattr(value, "__index__"):  # True is an int
        raise error(f"{name} must be an integer, got {value!r}")
    if low is not None and operator.index(value) < low:
        raise error(f"{name} must be >= {low}, got {value}")
    return operator.index(value)


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
        One-dimensional, nonempty, all values finite. A float64 array that
        no one can write (it and every array it views are read-only) is kept
        as it is; anything else is copied, and the copy frozen.
    """

    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _checked_series(_frozen(self.values)))

    def __len__(self) -> int:
        return int(self.values.size)


def _frozen(values) -> np.ndarray:
    """values as a float64 array that no one can write: one that is read-only,
    as is every array on its .base chain, which ends at an array that owns its
    data, is kept; anything else is copied and the copy frozen."""
    owner = values
    while isinstance(owner, np.ndarray) and not owner.flags.writeable and not owner.flags.owndata:
        owner = owner.base
    if not (isinstance(owner, np.ndarray) and not owner.flags.writeable
            and values.dtype == np.float64):
        values = np.array(values, dtype=np.float64)
        values.setflags(write=False)
    return values


def _checked_series(arr: np.ndarray) -> np.ndarray:
    """arr, if it is a one-dimensional, nonempty, finite series."""
    if arr.ndim != 1 or arr.size == 0:
        raise LengthError("series must be one-dimensional and nonempty")
    if not np.isfinite(arr).all():
        raise RangeError("series values must be finite")
    return arr


TieMode = Literal["strict", "stable", "jitter"]


@dataclass(frozen=True)
class TiePolicy:
    """How equal values within a window are ranked.

    stable (the default) ranks the earlier index as smaller; strict raises
    TieError on any duplicate; jitter adds normal noise of scale
    jitter_scale, drawn from seed (an int >= 0, a SeedSequence or a
    Generator), before ranking. A Generator is stored as its own
    SeedSequence, so every pass draws the same noise, and a fresh
    default_rng(s) the noise of seed s. jitter_scale must be finite, and a
    pass whose noised values are not raises RangeError.
    """

    mode: TieMode = "stable"
    jitter_scale: float = 0.0
    seed: int | np.random.SeedSequence | np.random.Generator = 0

    def __post_init__(self):
        if self.mode not in ("strict", "stable", "jitter"):
            raise RangeError(f"unknown tie mode {self.mode!r}")
        if not math.isfinite(self.jitter_scale):
            raise RangeError(f"jitter_scale must be finite, got {self.jitter_scale}")
        if self.mode == "jitter" and not self.jitter_scale > 0:
            raise RangeError("jitter mode requires jitter_scale > 0")
        if isinstance(_check_seed(self.seed), np.random.Generator):
            object.__setattr__(self, "seed", self.seed.bit_generator.seed_seq)


def _check_seed(seed):
    """seed as given if it is a SeedSequence or a Generator, else as an
    int >= 0 (_check_int), before numpy refuses it untyped; None, which
    would draw fresh entropy, is refused."""
    if isinstance(seed, (np.random.SeedSequence, np.random.Generator)):
        return seed
    return _check_int(seed, "seed", 0)


@dataclass(frozen=True, order=True)
class OrdinalPattern:
    """A permutation of {1..n} in one-line notation.

    word[i] is the rank of the i-th window value (1 = smallest). Patterns
    compare and sort lexicographically by word, and serialize as digit
    strings ("2314").
    """

    word: tuple[int, ...]

    def __post_init__(self):
        word = tuple(_check_int(v, "pattern value") for v in self.word)
        object.__setattr__(self, "word", word)
        n = _check_order(len(word))
        if sorted(word) != list(range(1, n + 1)):
            raise RangeError(f"{word} is not a permutation of 1..{n}")

    @property
    def order(self) -> int:
        return len(self.word)

    @cached_property
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
        n = _check_order(self.order)
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
        count = _check_int(self.sample_count, "sample_count")
        if count < 0:
            raise RangeError("sample_count must be nonnegative")
        w.setflags(write=False)
        object.__setattr__(self, "order", n)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "sample_count", count)

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
        return dict(zip(_pattern_strings(self.order), self.weights.tolist()))


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
def _words(n: int) -> np.ndarray:
    """Every order-n word as a read-only (n!, n) int8 array, row r of lex
    rank r: the words that start with f, for f = 1..n, are f followed by the
    order-(n-1) words in lex order, each value from f up raised by one."""
    n = _check_order(n)
    tail = _words(n - 1) if n > 2 else np.ones((1, 1), dtype=np.int8)
    first = np.arange(1, n + 1, dtype=np.int8)[:, None, None]
    words = np.concatenate((np.broadcast_to(first, (n, len(tail), 1)), tail + (tail >= first)),
                           axis=2).reshape(-1, n)
    words.setflags(write=False)
    return words


@lru_cache(maxsize=None)
def _patterns(n: int) -> tuple[OrdinalPattern, ...]:
    """Every order-n pattern, for the public functions that return them."""
    return tuple(map(OrdinalPattern, _words(n).tolist()))


@lru_cache(maxsize=None)
def _pattern_strings(n: int) -> tuple[str, ...]:
    """str() of every order-n pattern in lex order, read off _words(n)."""
    text = (_words(n) + ord("0")).tobytes().decode()
    return tuple(text[i:i + n] for i in range(0, len(text), n))


def lex_unrank(n: int, rank: int) -> OrdinalPattern:
    """Inverse of lex_rank: the pattern of given order at the given rank."""
    patterns = _patterns(n)
    if not 0 <= _check_int(rank, "rank") < len(patterns):
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
    of its symmetry_transform under kind, from the transformed words."""
    if kind not in ("complement", "reverse", "reverse_complement"):
        raise RangeError(f"unknown symmetry {kind!r}")
    words = _words(n) if kind == "complement" else _words(n)[:, ::-1]
    if kind != "reverse":
        words = n + 1 - words
    ranks = next(_lag_ranks(words, (n,), 1))[1][:, 0].astype(np.intp)  # a word is a window
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
    return _checked_series(arr)  # only read here, so never copied


def _lag_ranks(x: np.ndarray, orders, d: int):
    """Yield (n, ranks) for each requested order n, in increasing order.

    ranks holds the lex rank of every length-n, delay-d window along the
    last axis of x (a series, or a stack with one series per row). All
    orders share one set of lag comparisons c_k[t] = x[t+kd] < x[t]
    (the Lehmer code): with S_m = c_1 + ... + c_m,
    rank_{m+1}[t] = m! S_m[t] + rank_m[t+d]. Equal values rank
    earlier-index-smaller; the strict tie rule is _prepared's. Each
    yielded array feeds the next order's ranks, so callers must not
    modify it; it is never modified after it is yielded. It ranks all of
    x at once; the passes that bound their memory hand it the blocks of
    _blocks, whose size this module owns.
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


def _check_span(length: int, orders, d: int) -> int:
    """d as an int (_check_int), if it is an integer >= 1 and `length`
    values hold a top-order window; else raise."""
    d = _check_int(d, "delay", 1)
    n = max(orders)
    span = (n - 1) * d + 1
    if length < span:
        raise LengthError(f"series of length {length} is too short for order {n} "
                          f"at delay {d} (needs {span})")
    return d


def _prepared(series, orders, d: int, policy: TiePolicy | None) -> tuple[np.ndarray, int]:
    """Validated values for a rank pass, and d as an int (_check_span); a
    jitter policy's noise is _noised's.

    Owns the strict tie rule: TieError if any window of a requested order
    holds two equal values. Those lie k*d apart for some 0 < k < n, and
    the W windows of the lowest order n > k reach every such pair whose
    first index, taken mod d, is below W (every pair once W >= d).
    """
    values = _as_values(series)
    size = values.shape[-1]
    d = _check_span(size, orders, d)
    if policy is not None and policy.mode == "strict":
        for k in range(1, max(orders)):
            windows = size - (min(n for n in orders if n > k) - 1) * d
            equal = values[..., k * d:] == values[..., :size - k * d]
            if windows < d:  # else the windows reach every pair, and no mask is needed
                equal = equal[..., np.arange(size - k * d) % d < windows]
            if equal.any():
                raise TieError("window contains duplicate values (strict ties)")
    return values, d


#: new values ranked and counted at a time: the one block size of every
#: rank pass, here and in the sampler (nullmodels), which bounds its memory;
#: no count depends on it
_CHUNK = 1 << 16


def _blocks(rows: int, size: int, orders, d: int):
    """The blocks of a rank pass over `rows` series of `size` values each,
    as (row slice, lo, hi): values lo..hi-1 of those rows.

    The blocks tile each row. Rows of at most _CHUNK values are taken
    whole, as many as fit in _CHUNK values; a longer row is taken alone, in
    tiles of max(_CHUNK, span) values, where span = (max(orders) - 1) d + 1
    keeps a top-order window in a row's first block.
    """
    width = max(_CHUNK, (max(orders) - 1) * d + 1)
    step = max(_CHUNK // size, 1)
    for start in range(0, rows, step):
        for lo in range(0, size, width):
            yield slice(start, min(start + step, rows)), lo, min(lo + width, size)


def _block_ranks(x: np.ndarray, orders, d: int, first: bool):
    """The (n, ranks) of a block that _counted counts, from one _lag_ranks
    pass: the top order's windows, which _counted makes those that end in
    the block's new values, then, in a row's first block, each lower
    order's first (top - n) d windows, which end no top-order window. The
    rest are suffixes of top-order windows, which _folded counts from the
    top."""
    top, heads = max(orders), []
    for n, ranks in _lag_ranks(x, orders, d):
        if n == top:
            yield n, ranks
        elif first:  # copied, and counted after the pass, which faults fewer pages
            heads.append((n, ranks[..., :(top - n) * d].copy()))
    yield from heads


def _fold(counts: np.ndarray, n: int, m: int, dtype) -> np.ndarray:
    """Order-m counts, in dtype, of the last m values of the windows whose
    order-n counts run along the last axis of counts: an order-n rank mod
    m! is the rank of those values (_lag_ranks), so the counts of each
    order-m rank are summed over the n!/m! quotients."""
    return counts.reshape(counts.shape[:-1] + (_FACT[n] // _FACT[m], _FACT[m])).sum(
        axis=-2, dtype=dtype)


def _folded(counts: dict[int, np.ndarray]) -> dict[int, np.ndarray]:
    """The counts a pass took of _block_ranks' ranks, completed in place:
    each lower order's plus the top order's folded down to it."""
    top = max(counts)
    for n, c in counts.items():
        if n < top:
            c += _fold(counts[top], top, n, c.dtype)
    return counts


def _noised(blocks, policy: TiePolicy | None):
    """The (row slice, lo, values) blocks given, with a jitter policy's
    noise added to each block's values: from default_rng(policy.seed), once
    per value in block order. A block that owns its memory (the sampler's)
    is noised in place, and a view, which may be the caller's, into a copy.
    RangeError if a noised value is not finite."""
    if policy is None or policy.mode != "jitter":
        yield from blocks
        return
    rng = np.random.default_rng(policy.seed)
    for rows, lo, x in blocks:
        block = x if x.base is None else np.empty_like(x)
        with np.errstate(over="ignore"):  # an overflow is refused below
            np.add(x, rng.normal(0.0, policy.jitter_scale, x.shape), out=block)
        if not np.isfinite(block).all():
            raise RangeError("jittered values must be finite")
        yield rows, lo, block


#: the most counts _counted keeps, rows times n! summed over the counted
#: orders: 64 Mi counts are 512 MiB of intp
_MAX_STACK_COUNTS = 1 << 26


def _counted(blocks, orders, d: int, policy: TiePolicy | None, keep: int, dtype):
    """Pattern counts per order of the rows whose blocks of _blocks come as
    (row slice, lo, values from lo on), jittered by _noised, counted once
    per window from _block_ranks, then _folded: pooled over every row in
    int64, and per row for the first `keep` rows in dtype. A long row's
    later block is ranked behind the last (max(orders) - 1) d noised values
    of the block before, so its top-order windows are those that end in its
    own values. RangeError, before any count is allocated, if the kept
    counts would exceed _MAX_STACK_COUNTS."""
    cells = keep * sum(_FACT[n] for n in orders)
    if cells > _MAX_STACK_COUNTS:
        raise RangeError(f"{keep} rows at orders {sorted(orders)} need {cells} counts, "
                         f"more than {_MAX_STACK_COUNTS}")
    pooled = {n: np.zeros(_FACT[n], dtype=np.int64) for n in orders}
    kept = {n: np.zeros((keep, _FACT[n]), dtype) for n in orders}
    overlap = (max(orders) - 1) * d
    for rows, lo, x in _noised(blocks, policy):
        if lo:  # a long row's later block, joined to the end of the one before
            x = np.concatenate((tail, x), axis=-1)
        tail = x[:, -overlap:]
        for n, ranks in _block_ranks(x, orders, d, lo == 0):
            mine = kept[n][rows]  # a view, empty past the kept rows
            if len(mine):  # one bincount, each row's ranks offset by n! times its index
                mine += np.bincount(
                    (ranks[:len(mine)] + np.arange(len(mine))[:, None] * _FACT[n]).ravel("K"),
                    minlength=mine.size).reshape(mine.shape).astype(dtype, copy=False)
            pooled[n] += np.bincount(ranks[len(mine):].ravel("K"), minlength=_FACT[n])
    for n, c in pooled.items():
        c += kept[n].sum(axis=0, dtype=np.int64)
    return _folded(pooled), _folded(kept)


def pattern_counts(
    series,
    orders: Iterable[int],
    d: int = 1,
    policy: TiePolicy | None = None,
) -> dict[int, np.ndarray]:
    """Window counts per lex rank at every requested order, in one pass.

    series is one series, or a 2-D stack with one series per row; the
    counts of order n then have shape (n!,) or (rows, n!). The values are
    jittered, ranked and counted in the blocks of _blocks (_counted), each
    window once, at the top order. A stack whose counts, rows times n!
    summed over the orders, exceed _MAX_STACK_COUNTS raises RangeError
    before they are allocated.
    """
    orders = _check_orders(orders)
    values, d = _prepared(series, orders, d, policy)
    size = values.shape[-1]
    stack = values.reshape(-1, size)  # a series is a stack of one row
    blocks = ((rows, lo, stack[rows, lo:hi])
              for rows, lo, hi in _blocks(len(stack), size, orders, d))
    _, counts = _counted(blocks, orders, d, policy, len(stack), np.intp)
    return {n: c.reshape(values.shape[:-1] + (_FACT[n],)) for n, c in counts.items()}


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
    values, d = _prepared(_as_series(series), orders, d, policy)
    values = values[None]  # one row, one block
    (*_, values), = _noised([(None, 0, values)], policy)
    _, ranks = next(_lag_ranks(values[0], orders, d))
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
