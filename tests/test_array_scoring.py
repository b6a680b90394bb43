"""Array scoring against the per-class and per-replicate loops it replaced.

Each reference below is a copy of the loop the package used before class
tables carried a rank -> class-id array and the band scored replicates as
one (rows, n!) matrix; the array versions must agree with them (bit for bit
where no floating-point sum is reordered).
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ordinalwalk import (
    EquivalenceClassTable,
    OrderError,
    OrdinalPattern,
    PatternDistribution,
    SupportError,
    closed_form_uniform,
    equivalence_classes,
    g_statistic,
    lex_unrank,
    rc_closure,
    symmetry_transform,
    validate_classes,
)
from ordinalwalk.metrics import _kl_rows
from ordinalwalk.patterns import _FACT, _symmetry_ranks

TABLES = [(equivalence_classes, n) for n in (3, 4, 5)] + [(rc_closure, n) for n in range(2, 8)]
KINDS = ("complement", "reverse", "reverse_complement")


# --------------------------------------------------------------------------
# reference loops
# --------------------------------------------------------------------------

def _reference_kl(p, q, smoothing):
    qw = q.weights
    if smoothing > 0 and q.sample_count > 0:
        m = q.sample_count
        counts = qw * m
        qw = (counts + smoothing) / (m + smoothing * _FACT[q.order])
    mask = p.weights > 0
    if np.any(qw[mask] == 0):
        raise SupportError("q has zero weight on a pattern p uses")
    pw = p.weights[mask]
    div = float(np.sum(pw * np.log2(pw / qw[mask])))
    return div / math.log2(_FACT[p.order])


def _reference_kl_with_fallback(p, q, smoothing):
    try:
        return _reference_kl(p, q, 0.0)
    except SupportError:
        if smoothing <= 0 or q.sample_count == 0:
            raise
        return _reference_kl(p, q, smoothing)


def _reference_g(weights, classes):
    total = 0.0
    for g in classes:
        w = weights[np.asarray(g, dtype=np.intp)]
        total += float(np.abs(w - w.mean()).sum())
    return total


def _reference_spreads(weights, classes):
    spreads = []
    for g in classes:
        w = weights[np.asarray(g, dtype=np.intp)]
        spreads.append(float(w.max() - w.min()))
    return spreads


def _reference_class_of(classes, rank):
    for g in classes:
        if rank in g:
            return g
    raise AssertionError(f"rank {rank} missing from table")


def _reference_closure_error(n, classes):
    groups = tuple(sorted(tuple(sorted(g)) for g in classes))
    for g in groups:
        for r in g:
            partner = symmetry_transform(lex_unrank(n, r), "reverse_complement").rank
            if partner not in g:
                return f"class {g} is not closed under reverse-complement"
    return None


_REFERENCE_UNIF = {
    3: [
        (("123",), lambda b: b ** 2, None),
        (("132", "213"), lambda b: 0.5 * (1.0 - b) * (3.0 * b - 1.0), None),
        (("231", "312"), lambda b: 0.5 * (1.0 - b) ** 2, None),
        (("321",), lambda b: (1.0 - b) ** 2, None),
    ],
    4: [
        (("1234",), lambda b: b ** 3, None),
        (("1243", "2134"), lambda b: 0.5 * b * (1.0 - b) * (3.0 * b - 1.0), None),
        (("1324",), lambda b: (1.0 - b) * (7.0 * b * b - 5.0 * b + 1.0) / 3.0, None),
        (("1342", "3124"), lambda b: (1.0 - b) ** 2 * (4.0 * b - 1.0) / 6.0, None),
        (("1423", "2314"), lambda b: (1.0 - b) ** 2 * (5.0 * b - 2.0) / 6.0, None),
        (("1432", "2143", "3214"),
         lambda b: (2.0 - 12.0 * b + 24.0 * b * b - 15.0 * b ** 3) / 6.0,
         lambda b: (1.0 - b) ** 2 * (2.0 * b - 1.0)),
        (("2341", "3412", "4123"), lambda b: (1.0 - b) ** 3 / 6.0, None),
        (("2413",), lambda b: (1.0 - b) ** 3 / 6.0, None),
        (("2431", "4213"),
         lambda b: (24.0 * b ** 3 - 45.0 * b * b + 27.0 * b - 5.0) / 6.0,
         lambda b: 0.5 * (1.0 - b) ** 3),
        (("3142",),
         lambda b: (25.0 * b ** 3 - 48.0 * b * b + 30.0 * b - 6.0) / 6.0,
         lambda b: (1.0 - b) ** 3 / 3.0),
        (("3241", "4132"), lambda b: (1.0 - b) ** 3 / 6.0, None),
        (("3421", "4312"), lambda b: 0.5 * (1.0 - b) ** 3, None),
        (("4231",), lambda b: (1.0 - b) ** 3 / 3.0, None),
        (("4321",), lambda b: (1.0 - b) ** 3, None),
    ],
}


def _reference_uniform(n, b):
    def weights(b):
        out = np.empty(_FACT[n])
        for members, low, high in _REFERENCE_UNIF[n]:
            fn = low if (high is None or b <= 2.0 / 3.0) else high
            value = fn(b)
            for s in members:
                out[OrdinalPattern.from_string(s).rank] = value
        return out

    if b >= 0.5:
        return weights(b)
    perm = [symmetry_transform(lex_unrank(n, r), "complement").rank for r in range(_FACT[n])]
    return weights(1.0 - b)[perm]


# --------------------------------------------------------------------------
# strategies
# --------------------------------------------------------------------------

@st.composite
def kl_cases(draw):
    """A null q (sampled or exact, with zeros) and a (rows, n!) weight
    matrix whose rows q supports or not."""
    n = draw(st.integers(3, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    size = _FACT[n]
    q_counts = rng.integers(0, 4, size) * (rng.random(size) < draw(st.floats(0.2, 1.0)))
    q_counts[rng.integers(size)] += 1
    total = int(q_counts.sum())
    q = PatternDistribution(n, q_counts / total, "model", draw(st.sampled_from([0, total])))
    rows = draw(st.integers(1, 6))
    counts = rng.integers(0, 5, (rows, size)) * (rng.random((rows, size)) < 0.5)
    restrict = rng.random(rows) < 0.6
    counts[restrict] *= q_counts > 0
    for i in range(rows):
        if counts[i].sum() == 0:
            counts[i, np.flatnonzero(q_counts)[0]] = 1
    p_rows = counts / counts.sum(axis=1, keepdims=True)
    return p_rows, q, draw(st.sampled_from([0.0, 0.5, 1.0, 2.5]))


@st.composite
def weighted_tables(draw):
    """A class table and weights with zeros and within-class ties."""
    make, n = draw(st.sampled_from(TABLES))
    table = make(n)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    counts = rng.integers(0, draw(st.integers(1, 6)), _FACT[n]).astype(float)
    if draw(st.booleans()):  # flatten some classes exactly
        counts = np.where(rng.random(len(table))[table.ids] < 0.5, counts[table.ids] + 1.0, counts)
    counts[rng.integers(_FACT[n])] += 1.0
    return table, counts / counts.sum()


# --------------------------------------------------------------------------
# properties
# --------------------------------------------------------------------------

class TestRowKLAgainstPerRowFallback:

    @given(kl_cases())
    @settings(max_examples=300, deadline=None)
    def test_rows_match_per_row_fallback(self, case):
        p_rows, q, smoothing = case
        n = q.order
        expected, unsupported = [], False
        for row in p_rows:
            p = PatternDistribution(n, row, "empirical", 100)
            try:
                expected.append(_reference_kl_with_fallback(p, q, smoothing))
            except SupportError:
                unsupported = True
        if unsupported:
            with pytest.raises(SupportError):
                _kl_rows(p_rows, q.weights, q.sample_count, smoothing)
            return
        got = _kl_rows(p_rows, q.weights, q.sample_count, smoothing)
        # the terms have signs and may cancel to ~1e-17, where only an
        # absolute bound on the reordered sum means anything
        assert got.tolist() == pytest.approx(expected, rel=1e-13, abs=1e-15)


class TestClassIdsAgainstClassLoops:

    @given(weighted_tables())
    @settings(max_examples=300, deadline=None)
    def test_g_statistic(self, case):
        table, weights = case
        dist = PatternDistribution(table.order, weights, "empirical", 100)
        expected = _reference_g(dist.weights, table.classes)
        assert g_statistic(dist, table) == pytest.approx(expected, rel=1e-13, abs=0.0)

    @given(weighted_tables())
    @settings(max_examples=300, deadline=None)
    def test_validate_classes_spreads_exact(self, case):
        table, weights = case
        dist = PatternDistribution(table.order, weights, "empirical", 100)
        spreads = _reference_spreads(dist.weights, table.classes)
        report = validate_classes(dist, table, tolerance=1e-3)
        assert report.spreads == tuple(spreads)
        assert report.max_spread == max(spreads)
        assert report.passed == (max(spreads) <= 1e-3)

    @pytest.mark.parametrize("make,n", TABLES)
    def test_class_of_every_rank(self, make, n):
        table = make(n)
        for rank in range(_FACT[n]):
            got = table.class_of(lex_unrank(n, rank))
            assert got == _reference_class_of(table.classes, rank)

    @given(st.integers(3, 4), st.data())
    @settings(max_examples=200, deadline=None)
    def test_closure_check_names_the_same_class(self, n, data):
        ids = data.draw(st.lists(st.integers(0, 5), min_size=_FACT[n], max_size=_FACT[n]))
        groups = [tuple(r for r, i in enumerate(ids) if i == k) for k in sorted(set(ids))]
        message = _reference_closure_error(n, groups)
        if message is None:
            assert EquivalenceClassTable(n, tuple(groups), "reference").classes == \
                tuple(sorted(groups))
        else:
            with pytest.raises(OrderError) as err:
                EquivalenceClassTable(n, tuple(groups), "reference")
            assert str(err.value) == message

    def test_closure_names_first_class_not_first_open_rank(self):
        # rank 3 (231) pairs with rank 4 (312), rank 1 (132) with rank 2 (213):
        # both (0, 3) and (1,) are open, and (0, 3) comes first
        with pytest.raises(OrderError, match=r"^class \(0, 3\) is not closed"):
            EquivalenceClassTable(3, ((1,), (0, 3), (2,), (4,), (5,)), "reference")


_BRANCHES = st.one_of(
    st.floats(0.5, 2.0 / 3.0),
    st.floats(2.0 / 3.0, 1.0, exclude_min=True, exclude_max=True),
    st.floats(0.0, 0.5, exclude_min=True, exclude_max=True),
    st.sampled_from([0.5, 2.0 / 3.0, 1.0 / 3.0, 0.25, 0.8]),
)


@given(st.sampled_from([3, 4]), _BRANCHES)
@settings(max_examples=300, deadline=None)
def test_uniform_closed_form_matches_string_tables(n, b):
    got = closed_form_uniform(n, b).weights
    assert got.tobytes() == _reference_uniform(n, b).tobytes()


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("n", range(2, 8))
def test_symmetry_ranks_is_a_read_only_involution(n, kind):
    ranks = _symmetry_ranks(n, kind)
    assert ranks.dtype == np.intp and not ranks.flags.writeable
    assert np.array_equal(ranks[ranks], np.arange(_FACT[n]))


@given(st.integers(2, 7).flatmap(lambda n: st.permutations(range(1, n + 1))),
       st.sampled_from(KINDS))
@settings(max_examples=400, deadline=None)
def test_symmetry_ranks_match_symmetry_transform(word, kind):
    pattern = OrdinalPattern(tuple(word))
    got = _symmetry_ranks(pattern.order, kind)[pattern.rank]
    assert got == symmetry_transform(pattern, kind).rank
