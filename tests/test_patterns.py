"""Pattern extraction mechanics: standardize, ranking, symmetries, windows."""

import tracemalloc
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ordinalwalk import patterns
from ordinalwalk import (
    LengthError,
    OrdinalPattern,
    PatternDistribution,
    RangeError,
    TieError,
    TiePolicy,
    TimeSeries,
    all_patterns,
    empirical_distribution,
    empirical_distributions,
    extract_patterns,
    lex_rank,
    lex_unrank,
    pattern_counts,
    standardize,
    symmetry_transform,
)
from ordinalwalk.patterns import _FACT, _lag_ranks, _patterns, _prepared

# ---------------------------------------------------------------- examples

def test_standardize_basic_window():
    assert str(standardize((1.2, 3.4, 0.5))) == "231"


def test_standardize_monotone():
    assert str(standardize((1.0, 2.0, 3.0, 4.0))) == "1234"
    assert str(standardize((4.0, 3.0, 2.0, 1.0))) == "4321"


def test_stable_ties_rank_earlier_value_smaller():
    assert str(standardize((2.0, 2.0))) == "12"
    assert str(standardize((5.0, 2.0, 2.0))) == "312"


def test_strict_ties_raise():
    with pytest.raises(TieError):
        standardize((2.0, 2.0), TiePolicy("strict"))


def test_jitter_is_deterministic():
    policy = TiePolicy("jitter", jitter_scale=1e-9, seed=42)
    window = (1.0, 1.0, 2.0)
    assert standardize(window, policy) == standardize(window, policy)


def test_window_too_short():
    with pytest.raises(LengthError):
        standardize((1.0,))


def test_rank_examples():
    assert OrdinalPattern.from_string("231").rank == 3
    assert OrdinalPattern.from_string("123").rank == 0
    assert OrdinalPattern.from_string("321").rank == 5
    assert lex_unrank(3, 3) == OrdinalPattern.from_string("231")


def test_pattern_string_roundtrip():
    for pat in all_patterns(4):
        assert OrdinalPattern.from_string(str(pat)) == pat


def test_bad_pattern_word():
    with pytest.raises(RangeError):
        OrdinalPattern((1, 1, 2))
    with pytest.raises(RangeError):
        OrdinalPattern((1,))


@pytest.mark.parametrize("rank", [2.0, "1", True], ids=["float", "str", "bool"])
def test_unrank_refuses_a_rank_that_is_not_an_integer(rank):
    # True would index as 1 (pattern 132); 2.0 and "1" used to escape untyped
    with pytest.raises(RangeError, match="rank must be an integer"):
        lex_unrank(3, rank)


def test_order_thirteen_rejected():
    with pytest.raises(RangeError):
        lex_unrank(13, 0)


def test_orders_above_seven_rejected():
    # analysis stops at order 7; dense 8! tables are refused up front
    with pytest.raises(RangeError):
        PatternDistribution.uniform(8)
    with pytest.raises(RangeError):
        lex_unrank(8, 0)
    with pytest.raises(RangeError):
        empirical_distribution(np.arange(20.0), 8)


def test_extract_patterns_count_and_delay():
    series = [3.0, 1.0, 4.0, 1.5, 5.0, 9.0, 2.0]
    pats = extract_patterns(series, 3)
    assert len(pats) == 7 - 2
    # delay 2 compares values two apart: windows (x0,x2,x4), (x1,x3,x5), ...
    pats_d2 = extract_patterns(series, 3, d=2)
    assert len(pats_d2) == 7 - 4
    assert str(pats_d2[0]) == str(standardize((3.0, 4.0, 5.0)))


def test_extract_patterns_length_guard():
    with pytest.raises(LengthError):
        extract_patterns([1.0, 2.0, 3.0], 4)
    with pytest.raises(RangeError):
        extract_patterns([1.0, 2.0, 3.0], 3, d=0)


@pytest.mark.parametrize("call", [
    lambda x: extract_patterns(x, 3),
    lambda x: empirical_distribution(x, 3),
    lambda x: empirical_distributions(x, (3, 4)),
])
def test_single_series_calls_refuse_a_stack(call):
    # only pattern_counts ranks a 2-D stack; the rest take one series
    stack = np.arange(40.0).reshape(2, 20)
    with pytest.raises(LengthError, match="one-dimensional"):
        call(stack)
    assert pattern_counts(stack, (3,))[3].shape == (2, 6)


def test_empirical_distribution_counts():
    series = [1.0, 2.0, 3.0, 2.5, 3.5]
    dist = empirical_distribution(series, 3)
    assert dist.sample_count == 3
    assert dist.weights.sum() == pytest.approx(1.0, abs=1e-15)
    np.testing.assert_allclose(dist.weights * 3, np.round(dist.weights * 3))


def test_timeseries_validation():
    with pytest.raises(RangeError):
        TimeSeries([1.0, np.nan])
    with pytest.raises(RangeError):
        TimeSeries([1.0, np.inf])
    with pytest.raises(LengthError):
        TimeSeries([])
    ts = TimeSeries([1.0, 2.0])
    with pytest.raises(ValueError):
        ts.values[0] = 9.0  # read-only


def test_timeseries_copies_a_writable_array_and_keeps_a_read_only_one():
    values = np.array([1.0, 3.0, 2.0])
    ts = TimeSeries(values)
    assert ts.values is not values and values.flags.writeable  # the caller's flags stay
    values[0] = 9.0  # the series holds a read-only copy
    assert ts.values.tolist() == [1.0, 3.0, 2.0] and not ts.values.flags.writeable
    values.setflags(write=False)  # read-only, so the series keeps it rather than a copy
    assert TimeSeries(values).values is values
    assert TimeSeries(values.astype(np.float32)).values.dtype == np.float64


def test_distribution_rejects_non_finite_weights():
    # a NaN total passes the sum check's comparison, so it needs its own
    with pytest.raises(RangeError, match="finite"):
        PatternDistribution(3, [np.nan, 0.2, 0.2, 0.2, 0.2, 0.2], "empirical", 10)


def test_distribution_must_sum_to_one():
    with pytest.raises(RangeError):
        PatternDistribution(3, np.full(6, 0.2), "model", 0)
    uni = PatternDistribution.uniform(3)
    assert uni.weights.sum() == pytest.approx(1.0)


# ------------------------------------------------------------- invariants

words = st.integers(3, 7).flatmap(
    lambda n: st.permutations(list(range(1, n + 1)))
)


class TestLexBijection:
    @given(words)
    def test_unrank_inverts_rank(self, word):
        pat = OrdinalPattern(tuple(word))
        assert lex_unrank(pat.order, lex_rank(pat)) == pat

    @given(st.integers(2, 6))
    def test_ranks_cover_factorial_range(self, n):
        ranks = sorted(p.rank for p in all_patterns(n))
        assert ranks == list(range(len(ranks)))

    @given(words)
    def test_rank_matches_lexicographic_position(self, word):
        pat = OrdinalPattern(tuple(word))
        smaller = sum(1 for q in all_patterns(pat.order) if q.word < pat.word)
        assert pat.rank == smaller


def _factorial_base_unrank(n: int, rank: int) -> tuple[int, ...]:
    # the factorial-base loop that lex_unrank ran before the pattern table
    remaining = list(range(1, n + 1))
    word = []
    rest = rank
    for i in range(n):
        base = _FACT[n - 1 - i]
        idx, rest = divmod(rest, base)
        word.append(remaining.pop(idx))
    return tuple(word)


@pytest.mark.parametrize("n", range(2, 8))
def test_pattern_table_matches_factorial_base_unrank(n):
    table = _patterns(n)
    assert len(table) == _FACT[n]
    for r, pattern in enumerate(table):
        assert pattern.word == _factorial_base_unrank(n, r)
        assert lex_rank(pattern) == r
        assert lex_unrank(n, r) is pattern
    assert all_patterns(n) == list(table)


class TestSymmetries:
    @given(words)
    def test_complement_is_involution(self, word):
        pat = OrdinalPattern(tuple(word))
        twice = symmetry_transform(symmetry_transform(pat, "complement"), "complement")
        assert twice == pat

    @given(words)
    def test_reverse_is_involution(self, word):
        pat = OrdinalPattern(tuple(word))
        twice = symmetry_transform(symmetry_transform(pat, "reverse"), "reverse")
        assert twice == pat

    @given(words)
    def test_reverse_complement_composes(self, word):
        pat = OrdinalPattern(tuple(word))
        rc = symmetry_transform(pat, "reverse_complement")
        assert rc == symmetry_transform(symmetry_transform(pat, "reverse"), "complement")
        assert rc == symmetry_transform(symmetry_transform(pat, "complement"), "reverse")

    def test_complement_example(self):
        pat = OrdinalPattern.from_string("1342")
        assert str(symmetry_transform(pat, "complement")) == "4213"


finite_series = st.lists(
    st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
    min_size=5, max_size=40,
)


integer_series = st.lists(
    st.integers(-1000, 1000).map(float), min_size=5, max_size=40,
)


class TestScaleInvariance:
    """Patterns depend only on relative order, so exact affine maps with
    positive slope must leave every pattern bit-identical. Integer values
    keep v * 2**k + offset exact in float arithmetic (extreme magnitudes
    would let the offset absorb small values and manufacture ties)."""

    @given(integer_series, st.integers(-8, 8), st.integers(-50, 50))
    def test_power_of_two_scale_and_integer_shift(self, series, k, offset):
        base = extract_patterns(series, 3)
        mapped = [v * 2.0 ** k + offset for v in series]
        assert extract_patterns(mapped, 3) == base

    @given(finite_series)
    def test_sign_flip_complements_every_pattern(self, series):
        # strictly distinct values so ties cannot flip asymmetrically
        distinct = [v + i * 1e-3 for i, v in enumerate(series)]
        assume(len(set(distinct)) == len(distinct))
        base = extract_patterns(distinct, 3)
        flipped = extract_patterns([-v for v in distinct], 3)
        assert flipped == [symmetry_transform(p, "complement") for p in base]


class TestVectorizedAgainstStandardize:
    """extract_patterns must agree with window-by-window standardize."""

    @given(finite_series, st.integers(3, 5), st.integers(1, 2))
    @settings(max_examples=60)
    def test_windows_match(self, series, n, d):
        if len(series) < (n - 1) * d + 1:
            return
        pats = extract_patterns(series, n, d)
        for i, pat in enumerate(pats):
            window = [series[i + j * d] for j in range(n)]
            assert standardize(window) == pat


def _pairwise_window_ranks(rows: np.ndarray, strict: bool) -> np.ndarray:
    """The pairwise (windows x n) kernel that the lag-comparison kernel
    replaced, kept as the reference it must reproduce."""
    m, n = rows.shape
    if strict:
        sorted_rows = np.sort(rows, axis=1)
        if np.any(sorted_rows[:, 1:] == sorted_rows[:, :-1]):
            raise TieError("window contains duplicate values (strict ties)")
    ranks = np.zeros(m, dtype=np.int64)
    for i in range(n - 1):
        col = rows[:, i]
        smaller_after = np.zeros(m, dtype=np.int64)
        for j in range(i + 1, n):
            smaller_after += rows[:, j] < col
        ranks += smaller_after * _FACT[n - 1 - i]
    return ranks


def _reference_ranks(values: np.ndarray, n: int, d: int, strict: bool) -> np.ndarray:
    # gather every window along the last axis, then rank pairwise
    m = values.shape[-1] - (n - 1) * d
    windows = values[..., np.arange(m)[:, None] + np.arange(n)[None, :] * d]
    return _pairwise_window_ranks(windows.reshape(-1, n), strict).reshape(windows.shape[:-1])


@st.composite
def kernel_cases(draw):
    orders = sorted(draw(st.sets(st.integers(2, 7), min_size=1, max_size=3)))
    d = draw(st.integers(1, 3))
    span = (max(orders) - 1) * d + 1
    length = draw(st.integers(span, span + 12))
    rows = draw(st.sampled_from([None, 1, 3]))
    shape = (length,) if rows is None else (rows, length)
    size = int(np.prod(shape))
    top = draw(st.sampled_from([1, 4, None]))
    if top is None:
        # distinct values with at most one planted tie, wherever it falls
        flat = [float(v) for v in draw(st.permutations(range(size)))]
        if draw(st.booleans()):
            flat[draw(st.integers(0, size - 1))] = flat[draw(st.integers(0, size - 1))]
    else:  # small ranges force many ties
        flat = draw(st.lists(st.integers(0, top).map(float),
                             min_size=size, max_size=size))
    mode = draw(st.sampled_from(["stable", "strict", "jitter"]))
    return np.array(flat).reshape(shape), orders, d, mode


@st.composite
def lag_tie_cases(draw):
    # one tie planted k*d apart in a series about one top-order span long,
    # at d > 1: the few windows reach some residues mod d and miss others,
    # and k may pass the lower orders' spans or every window's
    orders = sorted(draw(st.sets(st.integers(2, 7), min_size=1, max_size=3)))
    d = draw(st.integers(2, 3))
    span = (max(orders) - 1) * d + 1
    length = draw(st.integers(span, span + d))
    rows = draw(st.sampled_from([None, 1, 3]))
    shape = (length,) if rows is None else (rows, length)
    flat = [float(v) for v in draw(st.permutations(range(int(np.prod(shape)))))]
    k = draw(st.integers(1, (length - 1) // d))
    row = draw(st.integers(0, (rows or 1) - 1))
    first = row * length + draw(st.integers(0, length - 1 - k * d))
    flat[first + k * d] = flat[first]
    mode = draw(st.sampled_from(["stable", "strict", "jitter"]))
    return np.array(flat).reshape(shape), orders, d, mode


def _check_against_pairwise(case):
    values, orders, d, mode = case
    policy = TiePolicy(mode, jitter_scale=0.5 if mode == "jitter" else 0.0, seed=7)
    ranked = values
    if mode == "jitter":
        ranked = values + np.random.default_rng(7).normal(0.0, 0.5, values.shape)
    expected, tie = {}, False
    for n in orders:
        try:
            expected[n] = _reference_ranks(ranked, n, d, mode == "strict")
        except TieError:
            tie = True
    if tie:
        with pytest.raises(TieError):
            _prepared(values, orders, d, policy)
        with pytest.raises(TieError):
            pattern_counts(values, orders, d, policy)
        return
    _prepared(values, orders, d, policy)  # validates; the reference noise is drawn above
    got = {n: ranks.copy() for n, ranks in _lag_ranks(ranked, orders, d)}
    assert sorted(got) == orders
    counts = pattern_counts(values, orders, d, policy)
    for n in orders:
        assert np.array_equal(got[n], expected[n])
        per_row = np.atleast_2d(expected[n])
        want = np.array([np.bincount(r, minlength=_FACT[n]) for r in per_row])
        assert np.array_equal(np.atleast_2d(counts[n]), want)


class TestLagKernelAgainstPairwise:
    """The lag-comparison kernel must give the pairwise kernel's ranks bit
    for bit, and raise TieError in exactly the same cases, for series and
    for stacks of series."""

    @given(kernel_cases())
    @settings(max_examples=400, deadline=None)
    def test_ranks_and_tie_errors_match(self, case):
        _check_against_pairwise(case)

    @given(lag_tie_cases())
    @settings(max_examples=300, deadline=None)
    def test_ties_at_a_multiple_of_the_delay_match(self, case):
        _check_against_pairwise(case)

    @given(st.one_of(kernel_cases(), lag_tie_cases()),
           st.one_of(st.integers(1, 8), st.integers(1, 200)))
    @settings(max_examples=400, deadline=None)
    def test_counts_do_not_depend_on_the_block(self, case, chunk):
        # blocks smaller than a row split it, at every order, delay and
        # tie mode; blocks of several short rows split a stack
        with patch.object(patterns, "_CHUNK", chunk):
            _check_against_pairwise(case)


def _strict(values, orders, d=1):
    return pattern_counts(np.array(values, dtype=float), orders, d, TiePolicy("strict"))


class TestStrictTieCheck:
    """_prepared raises TieError exactly when a window of a requested
    order holds two equal values; the kernel itself never checks ties."""

    def test_tie_at_the_widest_lag_of_a_window_raises(self):
        # x[0] == x[3] share the one order-4 window (lag (N-1)d = 3)
        with pytest.raises(TieError):
            _strict([5.0, 1.0, 2.0, 5.0, 3.0], (4,))

    def test_tie_beyond_every_window_passes(self):
        # x[0] == x[4] lie N*d = 4 apart, wider than any order-4 window
        counts = _strict([5.0, 1.0, 2.0, 3.0, 5.0], (4,))
        assert counts[4].sum() == 2

    def test_tie_seen_only_at_the_top_order_raises(self):
        # no order-3 window holds both 5s, the order-5 window does
        values = [5.0, 1.0, 2.0, 3.0, 5.0]
        assert _strict(values, (3,))[3].sum() == 3
        with pytest.raises(TieError):
            _strict(values, (3, 5))

    def test_stack_checks_each_row(self):
        # the 5s are 4 apart in row 0, 3 apart in row 1; each row alone decides
        rows = [[5.0, 1.0, 2.0, 3.0, 5.0], [1.0, 5.0, 2.0, 3.0, 5.0]]
        assert _strict(rows[:1], (3, 4))[4].shape == (1, 24)
        with pytest.raises(TieError):
            _strict(rows, (3, 4))
        with pytest.raises(TieError):
            _strict(rows[1:], (3, 4))

    def test_delay_two(self):
        # windows (x0, x2, x4) and (x1, x3, x5): a tie two apart is inside one
        with pytest.raises(TieError):
            _strict([1.0, 7.0, 2.0, 7.0, 3.0, 4.0], (3,), d=2)
        # six apart (N*d) is not, nor is x1 == x3 when no window starts at x1
        assert _strict([7.0, 1.0, 2.0, 3.0, 4.0, 5.0, 7.0], (3,), d=2)[3].sum() == 3
        assert _strict([1.0, 7.0, 2.0, 7.0, 3.0], (3,), d=2)[3].sum() == 1
        # an order-2 window starting at x1 holds x1 and x3
        with pytest.raises(TieError):
            _strict([1.0, 7.0, 2.0, 7.0, 3.0], (2, 3), d=2)


def test_kernel_memory_on_a_long_walk():
    # one 1e6-point walk ranked at n = 7 must not materialize a
    # (windows x n) gather; this bounds the kernel's peak allocation
    walk = np.cumsum(np.random.default_rng(3).normal(size=1_000_000))
    tracemalloc.start()
    try:
        empirical_distribution(walk, 7)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 48 * 2 ** 20, f"peak {peak / 2 ** 20:.1f} MiB"


def _traced_peak(call) -> float:
    """The traced allocation peak of call(), in MiB."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()


def test_counts_of_a_long_walk_are_ranked_in_blocks():
    # a series is ranked _CHUNK windows at a time: 12.4 MiB when it was
    # ranked whole, and 8 MiB more when a raw array was copied first
    walk = np.cumsum(np.random.default_rng(3).normal(size=1_000_000))
    peak = _traced_peak(lambda: pattern_counts(walk, range(2, 8)))
    assert peak <= 2, f"peak {peak:.1f} MiB"
    peak = _traced_peak(lambda: pattern_counts(walk, (4, 5), policy=TiePolicy("strict")))
    assert peak <= 4, f"strict peak {peak:.1f} MiB"
