"""Equivalence-class tables and their validation."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ordinalwalk import (
    EquivalenceClassTable,
    OrderError,
    OrderMismatchError,
    OrdinalPattern,
    StepModel,
    all_patterns,
    closed_form_uniform,
    equivalence_classes,
    monte_carlo_distribution,
    rc_closure,
    symmetry_transform,
    validate_classes,
)
from ordinalwalk.classes import walk_classes


def _covers_all(table, n):
    seen = sorted(p for group in table.classes for p in group)
    return seen == sorted(p.rank for p in all_patterns(n))


def test_reference_tables_partition():
    for n, count in ((3, 4), (4, 14), (5, 58)):
        table = equivalence_classes(n)
        assert len(table.classes) == count
        assert _covers_all(table, n)


def test_reference_table_n3_contents():
    groups = equivalence_classes(3).as_strings()
    assert sorted(map(sorted, groups)) == sorted(map(sorted, [
        ["123"], ["321"], ["132", "213"], ["231", "312"],
    ]))


def test_monotone_patterns_are_singletons():
    for n in (3, 4, 5):
        table = equivalence_classes(n)
        up = OrdinalPattern(tuple(range(1, n + 1))).rank
        down = OrdinalPattern(tuple(range(n, 0, -1))).rank
        assert (up,) in table.classes
        assert (down,) in table.classes


def test_classes_only_for_three_four_five():
    with pytest.raises(OrderError):
        equivalence_classes(6)
    with pytest.raises(OrderError):
        equivalence_classes(2)


@pytest.mark.parametrize("n", [1, 8, -1])
def test_class_table_order_cap(n):
    with pytest.raises(OrderError, match="orders 2..7"):
        EquivalenceClassTable(n, ((0,),), "reference")


def test_rc_closure_small_orders():
    # every class is closed under reverse-complement, so the closure of
    # the full pattern set refines into orbits of size 1 or 2
    for n in (3, 4, 5, 6):
        table = rc_closure(n)
        assert _covers_all(table, n)
        for group in table.classes:
            assert len(group) in (1, 2)


def test_rc_closure_orbit_example():
    table = rc_closure(4)
    pat = OrdinalPattern.from_string("1342")
    partner = symmetry_transform(pat, "reverse_complement")
    assert set(table.class_of(pat)) == {pat.rank, partner.rank}


def test_rc_closure_order_cap():
    with pytest.raises(OrderError):
        rc_closure(8)


@given(st.integers(3, 5))
def test_rc_closure_refines_reference_tables(n):
    reference = equivalence_classes(n)
    fine = rc_closure(n)
    lookup = {}
    for i, group in enumerate(reference.classes):
        for rank in group:
            lookup[rank] = i
    for group in fine.classes:
        assert len({lookup[rank] for rank in group}) == 1


@pytest.mark.parametrize("n", range(2, 8))
def test_walk_classes_are_the_finest_known_at_each_order(n):
    # exchangeable steps give the full classes where they are derived;
    # a walk plus noise, and every other order, keeps the reverse-complement pairs
    full = equivalence_classes(n) if 3 <= n <= 5 else rc_closure(n)
    assert walk_classes(n) is full
    assert walk_classes(n, jittered=True) is rc_closure(n)


def test_validate_classes_accepts_its_own_model():
    # closed-form weights are exactly constant within classes
    dist = closed_form_uniform(4, 0.62)
    report = validate_classes(dist, equivalence_classes(4), tolerance=1e-12)
    assert report.passed
    assert report.max_spread <= 1e-12


def test_validate_classes_flags_mismatched_distribution():
    # a sampled distribution has noise above an absurdly tight tolerance
    dist = monte_carlo_distribution(StepModel.uniform(0.6), 4, 20000, seed=9)
    report = validate_classes(dist, equivalence_classes(4), tolerance=1e-9)
    assert not report.passed
    assert report.max_spread > 1e-9
    assert len(report.spreads) == 14


def test_validate_classes_order_mismatch():
    with pytest.raises(OrderMismatchError):
        validate_classes(closed_form_uniform(3, 0.6), equivalence_classes(4), 0.01)


def test_spread_definition():
    # spread is max weight minus min weight within each class
    dist = monte_carlo_distribution(StepModel.uniform(0.7), 3, 5000, seed=2)
    w = dist.weights
    table = equivalence_classes(3)
    report = validate_classes(dist, table, tolerance=1.0)
    for group, spread in zip(table.classes, report.spreads):
        values = [w[r] for r in group]
        assert spread == pytest.approx(max(values) - min(values), abs=1e-15)


def test_g_zero_iff_spreads_zero():
    from ordinalwalk import g_statistic

    exact = closed_form_uniform(4, 0.71)
    table = equivalence_classes(4)
    assert g_statistic(exact, table) == 0.0
    assert validate_classes(exact, table, tolerance=0.0).passed

    noisy = monte_carlo_distribution(StepModel.uniform(0.71), 4, 3000, seed=4)
    assert g_statistic(noisy, table) > 0.0
    assert not validate_classes(noisy, table, tolerance=0.0).passed
