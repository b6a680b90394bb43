"""The equal-probability pattern classes, derived from step exchangeability.

For i.i.d. steps y in R^(n-1), the pattern of the walk (0, y1, y1+y2, ...)
is fixed by the signs of its interval sums, and every interval sum is a
subset sum of y. So each chamber of the arrangement of hyperplanes
{sum(y_i, i in S) = 0 : S nonempty} lies inside one pattern's cone.
Permuting the steps maps chambers to chambers and leaves every i.i.d. law
unchanged, so P(A) = sum over S_(n-1) orbits O of c_A(O) P(O), where
c_A(O) counts the chambers of O inside A's cone. Patterns with equal count
vectors are therefore equally likely under every i.i.d. step law.

The orbits are found from points of the sorted cone y1 < ... < y(n-1)
drawn from a fixed seed, and checked complete by the known chamber totals
of the arrangement: 6, 32 and 370 for n = 3, 4, 5 (OEIS A034997; Billera
et al. 2012, "Maximal unbalanced families"). This sampler is the
independent reference for the package, which derives its classes from the
generic integer step vectors of a box instead; the box is checked here to
reach every chamber and every orbit, which is what makes that derivation
the full partition.
"""

from functools import lru_cache
from itertools import combinations_with_replacement, permutations

import numpy as np
import pytest

from ordinalwalk import equivalence_classes, lex_unrank, pattern_counts, rc_closure
from ordinalwalk.classes import _RADIUS

CHAMBERS = {3: 6, 4: 32, 5: 370}
ORBITS = {3: 4, 4: 10, 5: 36}

# the three pairs of classes that a hand-typed n = 5 table once split,
# though each pair is provably equal
MERGED_AT_5 = [
    {"14532", "43125", "21453", "31254"},
    {"15432", "43215", "21543", "32154"},
    {"32451", "51243", "43512", "45132"},
]


@lru_cache(maxsize=None)
def orbits(n: int, points: int = 20_000, seed: int = 0):
    """One sorted-cone point per S_(n-1) orbit of chambers, and each
    orbit's size."""
    k = n - 1
    subsets = np.array([[(s >> i) & 1 for i in range(k)] for s in range(1, 2 ** k)], float)
    perms = np.array(list(permutations(range(k))))
    rng = np.random.default_rng(seed)
    # scales spread over decades reach the thin chambers as well
    y = np.sort(rng.standard_normal((points, k)) * np.exp(rng.uniform(-3, 3, (points, k))),
                axis=1)
    bits = 1 << np.arange(len(subsets), dtype=np.int64)
    # chambers[p, i]: the sign vector of point i with its steps permuted by p
    chambers = np.stack([((y[:, p] @ subsets.T) > 0) @ bits for p in perms])
    _, first = np.unique(chambers.min(axis=0), return_index=True)
    sizes = [np.unique(chambers[:, i]).size for i in first]
    return y[first], sizes, perms


@lru_cache(maxsize=None)
def derived_classes(n: int) -> set[frozenset[str]]:
    """Patterns grouped by their chamber counts over the orbits."""
    points, sizes, perms = orbits(n)
    columns = []
    for y, size in zip(points, sizes):
        walks = np.zeros((len(perms), n))
        np.cumsum(y[perms], axis=1, out=walks[:, 1:])
        hits = pattern_counts(walks, (n,))[n].sum(axis=0)
        # each chamber of the orbit is reached by (n-1)!/size permutations
        assert not ((hits * size) % len(perms)).any()
        columns.append(hits * size // len(perms))
    counts = np.array(columns).T  # (n!, orbits)
    assert (counts.sum(axis=1) > 0).all()
    _, ids = np.unique(counts, axis=0, return_inverse=True)
    groups: dict[int, set[str]] = {}
    for rank, cid in enumerate(ids.ravel()):
        groups.setdefault(int(cid), set()).add(str(lex_unrank(n, rank)))
    return {frozenset(g) for g in groups.values()}


def as_sets(table) -> set[frozenset[str]]:
    return {frozenset(g) for g in table.as_strings()}


@pytest.mark.parametrize("n", [3, 4, 5])
def test_orbits_cover_every_chamber(n):
    _, sizes, _ = orbits(n)
    assert len(sizes) == ORBITS[n]
    assert sum(sizes) == CHAMBERS[n]


@pytest.mark.parametrize("n", [3, 4, 5])
def test_every_table_class_lies_in_one_derived_class(n):
    # so each table class is equiprobable, and each derived class is a
    # union of table classes
    derived = derived_classes(n)
    for group in as_sets(equivalence_classes(n)):
        assert sum(group <= d for d in derived) == 1


@pytest.mark.parametrize("n", [3, 4])
def test_tables_are_the_full_partition_at_three_and_four(n):
    assert derived_classes(n) == as_sets(equivalence_classes(n))


def test_five_classes_are_the_sampled_partition_with_the_three_pairs_merged():
    classes = as_sets(equivalence_classes(5))
    assert len(classes) == 58
    assert classes == derived_classes(5)
    for merged in MERGED_AT_5:
        assert merged in classes


@pytest.mark.parametrize("n", [3, 4, 5])
def test_the_step_box_reaches_every_chamber_and_orbit(n):
    # the generic integer vectors of the package's box, walked in every
    # step order, land in every chamber of the arrangement
    k = n - 1
    subsets = np.array([[(s >> i) & 1 for i in range(k)] for s in range(1, 2 ** k)])
    steps = np.array(list(combinations_with_replacement(range(-_RADIUS, _RADIUS + 1), k)))
    steps = steps[(steps @ subsets.T != 0).all(axis=1)]
    perms = np.array(list(permutations(range(k))))
    bits = 1 << np.arange(len(subsets), dtype=np.int64)
    chambers = ((steps[:, perms] @ subsets.T) > 0) @ bits  # (vectors, (n-1)!)
    assert np.unique(chambers).size == CHAMBERS[n]
    assert np.unique(chambers.min(axis=1)).size == ORBITS[n]


@pytest.mark.parametrize("n", [3, 4, 5])
def test_reverse_complement_orbits_lie_in_derived_classes(n):
    derived = derived_classes(n)
    for orbit in as_sets(rc_closure(n)):
        assert sum(orbit <= d for d in derived) == 1
