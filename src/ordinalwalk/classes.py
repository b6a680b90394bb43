"""Pattern equivalence classes of random walks.

Patterns in the same class occur with identical probability in any random
walk with i.i.d. steps, whatever the step law. The tables for n = 3, 4, 5
are embedded as data; reverse-complement closure provides the finer
two-element grouping that holds at every order and is used as a fallback
beyond n = 5.

The n = 3 and 4 tables are the full partition. The 61-class n = 5 table
is valid (each class is equiprobable) but not the full partition: three
pairs of its classes are provably equal, {14532, 43125} with {21453,
31254}, {15432, 43215} with {21543, 32154} and {32451, 51243} with
{43512, 45132}. tests/test_derived_classes.py derives the classes from
step exchangeability and checks all of this.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Literal

import numpy as np

from .errors import OrderError, OrderMismatchError
from .patterns import (
    _FACT,
    OrdinalPattern,
    PatternDistribution,
    _check_order,
    _pattern_strings,
    _symmetry_ranks,
)

_N3_CLASSES = [
    ["123"],
    ["132", "213"],
    ["231", "312"],
    ["321"],
]

_N4_CLASSES = [
    ["1234"],
    ["1243", "2134"],
    ["1324"],
    ["1342", "3124"],
    ["1423", "2314"],
    ["1432", "2143", "3214"],
    ["2341", "3412", "4123"],
    ["2413"],
    ["2431", "4213"],
    ["3142"],
    ["3241", "4132"],
    ["3421", "4312"],
    ["4231"],
    ["4321"],
]

_N5_CLASSES = [
    ["12345"], ["14325"], ["21354"], ["25314"],
    ["41352"], ["45312"], ["52341"], ["54321"],
    ["21453", "31254"],
    ["12543", "32145"], ["13245", "12435"], ["13425", "14235"],
    ["15243", "32415"], ["15342", "42315"], ["15432", "43215"],
    ["21345", "12354"], ["21435", "13254"], ["21543", "32154"],
    ["23145", "12534"], ["23415", "15234"], ["24153", "31524"],
    ["24315", "15324"], ["24513", "35124"], ["24531", "53124"],
    ["25134", "23514"], ["25341", "52314"], ["25413", "35214"],
    ["25431", "53214"], ["31245", "12453"], ["31425", "14253"],
    ["31542", "42153"], ["32514", "25143"], ["32541", "52143"],
    ["35142", "42513"], ["35241", "52413"], ["41235", "13452"],
    ["41253", "31452"], ["41325", "14352"], ["41523", "34152"],
    ["41532", "43152"], ["42135", "13542"], ["42351", "51342"],
    ["45231", "53412"], ["51324", "24351"], ["51423", "34251"],
    ["51432", "43251"], ["53142", "42531"], ["53241", "52431"],
    ["54123", "34521"], ["54132", "43521"], ["54213", "35421"],
    ["54231", "53421"], ["54312", "45321"], ["43125", "14532"],
    ["34125", "14523"], ["13524", "24135"], ["51243", "32451"],
    ["43512", "45132"],
    ["35412", "52134", "45213", "23541"],
    ["23451", "45123", "34512", "51234"],
    ["21534", "23154", "15423", "34215"],
]

_TABLES = {3: _N3_CLASSES, 4: _N4_CLASSES, 5: _N5_CLASSES}


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
    """The equal-probability class table for n in {3, 4, 5}.

    Counts: 4 classes at n = 3, 14 at n = 4, 61 at n = 5 (8 singletons,
    50 pairs, 3 quadruples). Every class is equiprobable; the n = 3 and 4
    tables are the full partition, and at n = 5 three pairs of classes are
    provably equal as well (see the module docstring). Built and validated
    once per order; the frozen table is shared by later calls.
    """
    table = _TABLES.get(n)
    if table is None:
        raise OrderError(f"class tables exist for n in {tuple(_TABLES)}, got {n}")
    rank = {s: r for r, s in enumerate(_pattern_strings(n))}
    groups = tuple(tuple(rank[s] for s in g) for g in table)
    return EquivalenceClassTable(n, groups, "reference")


@lru_cache(maxsize=None)
def rc_closure(n: int) -> EquivalenceClassTable:
    """Partition of S_n into reverse-complement orbits (size 1 or 2).

    Sound for any walk but finer than the tables: every orbit lies
    inside one equivalence_classes(n) group for n in {3, 4, 5}. Built and
    validated once per order, like equivalence_classes.
    """
    partners = _symmetry_ranks(n, "reverse_complement").tolist()
    groups = tuple((r,) if p == r else (r, p) for r, p in enumerate(partners) if r <= p)
    return EquivalenceClassTable(n, groups, "rc_closure")


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
