"""Pattern equivalence classes of random walks.

Patterns in the same class occur with identical probability in any random
walk with i.i.d. steps, whatever the step law. For n = 3, 4, 5 the classes
are derived on first use: a walk's pattern is fixed by the signs of its
steps' subset sums, and permuting the steps permutes the chambers of that
arrangement without changing the law, so patterns that every generic
integer step vector of the box [-5, 5]^(n-1) (no subset sums to 0) hits
equally often, over all (n-1)! step orders, are equally likely. The box
reaches all 6, 32 and 370 chambers (OEIS A034997), as
tests/test_derived_classes.py checks, so the 4, 14 and 58 classes are the
full partition. Reverse-complement closure gives the finer two-element
grouping that holds at every order. walk_classes states which applies.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations_with_replacement
from typing import Literal

import numpy as np

from .errors import OrderError, OrderMismatchError
from .patterns import (
    _FACT,
    OrdinalPattern,
    PatternDistribution,
    _check_order,
    _lag_ranks,
    _pattern_strings,
    _symmetry_ranks,
    _words,
)

#: The orders whose classes are derived, and the radius of the box of
#: integer steps that reaches every chamber at each of them.
_DERIVED_ORDERS = (3, 4, 5)
_RADIUS = 5


@dataclass(frozen=True)
class EquivalenceClassTable:
    """A partition of all n! lex ranks into groups of equal-probability
    patterns. Validated on construction: groups are disjoint, cover S_n,
    and each is closed under reverse-complement.

    classes come out sorted, and ids is the read-only intp array with
    ids[rank] the index in classes of the group holding that rank.
    """

    order: int
    classes: tuple[tuple[int, ...], ...]
    source: Literal["reference", "rc_closure"]
    ids: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = self.order
        _check_order(n)
        groups = tuple(tuple(sorted(int(r) for r in g)) for g in self.classes)
        groups = tuple(sorted(groups))
        object.__setattr__(self, "classes", groups)
        flat = [r for g in groups for r in g]
        if sorted(flat) != list(range(_FACT[n])):
            raise OrderError(
                f"classes do not partition the {_FACT[n]} patterns of order {n}"
            )
        ids = np.empty(_FACT[n], dtype=np.intp)
        ids[flat] = np.repeat(np.arange(len(groups)), [len(g) for g in groups])
        ids.setflags(write=False)
        object.__setattr__(self, "ids", ids)
        open_classes = ids[ids[_symmetry_ranks(n, "reverse_complement")] != ids]
        if open_classes.size:
            raise OrderError(
                f"class {groups[open_classes.min()]} is not closed under reverse-complement"
            )

    def __len__(self) -> int:
        return len(self.classes)

    def class_of(self, pattern: OrdinalPattern) -> tuple[int, ...]:
        """The group of lex ranks containing the given pattern."""
        if pattern.order != self.order:
            raise OrderMismatchError(
                f"pattern order {pattern.order} vs table order {self.order}"
            )
        return self.classes[self.ids[pattern.rank]]

    def as_strings(self) -> list[list[str]]:
        """Classes as lists of pattern strings, for JSON export."""
        strings = _pattern_strings(self.order)
        return [[strings[r] for r in g] for g in self.classes]


@lru_cache(maxsize=None)
def equivalence_classes(n: int) -> EquivalenceClassTable:
    """The full equal-probability partition for n in {3, 4, 5}: 4, 14 and
    58 classes. Derived on first use from the step box (see the module
    docstring) and validated once per order; later calls share the table.
    """
    if n not in _DERIVED_ORDERS:
        raise OrderError(f"class tables exist for n in {_DERIVED_ORDERS}, got {n}")
    k = _check_order(n) - 1  # refuses 3.0, which passes the test above
    box = range(-_RADIUS, _RADIUS + 1)
    steps = np.array(list(combinations_with_replacement(box, k)), np.int8)  # walks fit int8
    subsets = (np.arange(1, 2 ** k)[:, None] >> np.arange(k)) & 1
    steps = steps[(steps @ subsets.T != 0).all(axis=1)]  # the generic vectors
    walks = np.zeros((len(steps), _FACT[k], n), dtype=steps.dtype)
    np.cumsum(steps[:, _words(k) - 1], axis=2, out=walks[..., 1:])  # every step order
    _, ranks = next(_lag_ranks(walks, (n,), 1))
    cells = np.arange(len(steps))[:, None] * _FACT[n] + ranks[..., 0]
    hits = np.bincount(cells.ravel(), minlength=len(steps) * _FACT[n])
    groups = {}  # patterns with equal hits from every vector share a class
    for rank, column in enumerate(hits.reshape(len(steps), _FACT[n]).T):
        groups.setdefault(column.tobytes(), []).append(rank)
    return EquivalenceClassTable(n, tuple(groups.values()), "reference")


@lru_cache(maxsize=None)
def rc_closure(n: int) -> EquivalenceClassTable:
    """Partition of S_n into reverse-complement orbits (size 1 or 2).

    Sound for any walk but finer than the derived classes: every orbit lies
    inside one equivalence_classes(n) group for n in {3, 4, 5}. Built and
    validated once per order, like equivalence_classes.
    """
    partners = _symmetry_ranks(n, "reverse_complement").tolist()
    groups = tuple((r,) if p == r else (r, p) for r, p in enumerate(partners) if r <= p)
    return EquivalenceClassTable(n, groups, "rc_closure")


def _class_means(counts: np.ndarray, classes: EquivalenceClassTable) -> np.ndarray:
    """counts, one n! row or a stack of them, with each pattern's count
    replaced by the mean count of its class in that row."""
    ids, k = classes.ids, len(classes)
    rows = counts.reshape(-1, ids.size)
    cells = (np.arange(len(rows))[:, None] * k + ids).ravel()
    sums = np.bincount(cells, rows.ravel(), minlength=len(rows) * k).reshape(-1, k)
    return (sums / np.bincount(ids))[:, ids].reshape(counts.shape)


def walk_classes(n: int, jittered: bool = False) -> EquivalenceClassTable:
    """The finest partition known to be equal-probability at order n, and
    the one place that decides which classes apply: equivalence_classes(n)
    for an i.i.d.-step walk at n in 3..5 (stable ties and any delay keep
    the steps i.i.d.), else rc_closure(n), which also holds for a walk
    plus i.i.d. noise (jittered), whose steps are not exchangeable. The
    associated null and its band average within these classes, and
    g_statistic reads the unjittered ones: it asks whether the series is
    a walk."""
    return rc_closure(n) if jittered or n not in _DERIVED_ORDERS else equivalence_classes(n)


@dataclass(frozen=True)
class ClassSpreadReport:
    """Per-class max-minus-min weight, and whether all stay within tolerance."""

    order: int
    tolerance: float
    spreads: tuple[float, ...]
    max_spread: float
    passed: bool


def validate_classes(
    dist: PatternDistribution,
    classes: EquivalenceClassTable,
    tolerance: float,
) -> ClassSpreadReport:
    """Check that a distribution is (near-)constant within every class.

    A walk-compatible empirical distribution should pass at a tolerance
    a few times its sampling noise; an exact model distribution passes
    at tolerance 0.
    """
    if dist.order != classes.order:
        raise OrderMismatchError(
            f"distribution order {dist.order} vs table order {classes.order}"
        )
    high = np.full(len(classes), -np.inf)
    low = np.full(len(classes), np.inf)
    np.maximum.at(high, classes.ids, dist.weights)
    np.minimum.at(low, classes.ids, dist.weights)
    spreads = (high - low).tolist()
    max_spread = max(spreads)
    return ClassSpreadReport(
        order=dist.order,
        tolerance=float(tolerance),
        spreads=tuple(spreads),
        max_spread=max_spread,
        passed=max_spread <= tolerance,
    )
