"""Independent reference pattern counter for checking program output.

A window's pattern is the word whose i-th entry is the rank of the i-th
value, 1 for the smallest, with ties ranked earlier-index-smaller (the
program's stable rule). Ranks come from a stable double argsort over
sliding_window_view; each word maps to its lexicographic rank through a
table built from itertools.permutations, which emits permutations of
sorted input in lexicographic order. Nothing here imports ordinalwalk.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


@functools.cache
def pattern_words(n: int) -> tuple[str, ...]:
    """All order-n pattern strings in lexicographic order."""
    return tuple("".join(str(v + 1) for v in perm)
                 for perm in itertools.permutations(range(n)))


@functools.cache
def _lex_table(n: int) -> np.ndarray:
    # base-n code of a zero-based rank word -> lexicographic index
    table = np.full(n ** n, -1, dtype=np.int64)
    weights = n ** np.arange(n - 1, -1, -1)
    for lex, perm in enumerate(itertools.permutations(range(n))):
        table[int(np.dot(perm, weights))] = lex
    return table


def pattern_ranks(values, n: int) -> np.ndarray:
    """Lexicographic rank of the pattern of every length-n window."""
    windows = sliding_window_view(np.asarray(values, dtype=np.float64), n)
    order = np.argsort(windows, axis=1, kind="stable")
    ranks = np.argsort(order, axis=1, kind="stable")
    return _lex_table(n)[ranks @ (n ** np.arange(n - 1, -1, -1))]


def pattern_counts(values, n: int) -> np.ndarray:
    """Count of each order-n pattern, indexed by lexicographic rank."""
    return np.bincount(pattern_ranks(values, n), minlength=math.factorial(n))


def pattern_of(window) -> str:
    """Pattern string of a single window, e.g. (1.2, 3.4, 0.5) -> '231'."""
    return pattern_words(len(window))[int(pattern_ranks(window, len(window))[0])]


def entropy(counts: np.ndarray) -> float:
    """Normalized permutation entropy of a count vector."""
    p = counts[counts > 0] / counts.sum()
    return float(-np.sum(p * np.log2(p)) / math.log2(counts.size))


def epsilons(counts_n: np.ndarray, counts_2: np.ndarray, n: int) -> tuple[float, float]:
    """Momentum excesses p(12..n) - p(12)^(n-1) and p(n..21) - p(21)^(n-1)."""
    p = counts_n / counts_n.sum()
    p2 = counts_2 / counts_2.sum()
    return (float(p[0]) - float(p2[0]) ** (n - 1),
            float(p[-1]) - float(p2[1]) ** (n - 1))
