"""Each rank pass counts its windows once, at the top order: a lower
order's counts are the top counts summed over their quotients by m!, which
counts the top windows' suffixes, plus its own windows before the first
suffix. These tests hold the folded counts to per-order bincounts of
_lag_ranks, the fold to the lex_rank of each suffix, a rank mod m! to the
rank of its suffix, the column-summed walks to cumsum, and the direct
plotdata and newline counting to csv.writer and bytes.count."""

import csv
import io
from itertools import combinations, permutations
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ordinalwalk import analysis, patterns
from ordinalwalk import (
    AnalysisConfig,
    NullSpec,
    OrdinalPattern,
    RangeError,
    StepModel,
    TieError,
    TiePolicy,
    WindowSpec,
    analyze_run,
    build_nulls,
    emit,
    lex_rank,
    pattern_counts,
    windowed_run,
)
from ordinalwalk.analysis import _newlines
from ordinalwalk.nullmodels import _sample_steps, _walks
from ordinalwalk.patterns import _FACT, _fold, _lag_ranks, _prepared


def _per_order_counts(values, orders, d, policy):
    # pattern_counts as it was: every order's windows ranked by _lag_ranks
    # and bincounted on their own, with no blocks, and any jitter noise
    # drawn at once over the whole series or stack
    prepared, _ = _prepared(values, orders, d, policy)
    if policy.mode == "jitter":
        noise = np.random.default_rng(policy.seed).normal(0.0, policy.jitter_scale, values.shape)
        prepared = prepared + noise
    stack = prepared.reshape(-1, prepared.shape[-1])
    return {n: np.array([np.bincount(row, minlength=_FACT[n]) for row in ranks])
            .reshape(prepared.shape[:-1] + (_FACT[n],))
            for n, ranks in _lag_ranks(stack, orders, d)}


@st.composite
def count_cases(draw):
    orders = draw(st.sampled_from([(3, 7), (2, 7), (2, 5, 6)])
                  | st.sets(st.integers(2, 7), min_size=1, max_size=4).map(sorted))
    d = draw(st.integers(1, 3))
    span = (max(orders) - 1) * d + 1
    length = draw(st.integers(span, span + 60))
    rows = draw(st.sampled_from([None, 1, 4]))
    shape = (length,) if rows is None else (rows, length)
    size = int(np.prod(shape))
    top = draw(st.sampled_from([2, 6, None]))
    if top is None:  # distinct values, or nearly so
        flat = np.random.default_rng(draw(st.integers(0, 2 ** 32))).normal(size=size)
    else:  # few values: ties in most windows
        flat = draw(st.lists(st.integers(0, top).map(float), min_size=size, max_size=size))
    mode = draw(st.sampled_from(["stable", "strict", "jitter"]))
    return np.array(flat, dtype=float).reshape(shape), tuple(orders), d, mode


@given(count_cases(), st.integers(1, 200))
@settings(max_examples=150, deadline=None)
def test_folded_counts_are_the_per_order_counts(case, chunk):
    values, orders, d, mode = case
    policy = TiePolicy(mode, jitter_scale=0.5 if mode == "jitter" else 0.0, seed=3)
    try:
        want = _per_order_counts(values, orders, d, policy)
    except TieError:
        with pytest.raises(TieError), patch.object(patterns, "_CHUNK", chunk):
            pattern_counts(values, orders, d, policy)
        return
    with patch.object(patterns, "_CHUNK", chunk):
        got = pattern_counts(values, orders, d, policy)
    assert list(got) == sorted(orders)
    for n in orders:
        assert got[n].dtype == np.intp
        assert np.array_equal(got[n], want[n])


@given(model=st.sampled_from([StepModel.uniform(0.3), StepModel.normal(0.5, 1.0),
                              StepModel.empirical([-1.0, 0.0, 0.0, 2.0])]),
       orders=st.sets(st.integers(2, 7), min_size=1, max_size=3).map(sorted),
       samples=st.integers(1, 300), chunk=st.integers(1, 200), seed=st.integers(0, 2 ** 32))
@settings(max_examples=80, deadline=None)
def test_parametric_nulls_fold_their_trailing_windows(model, orders, samples, chunk, seed):
    top = max(orders)
    with patch.object(patterns, "_CHUNK", chunk):
        nulls = build_nulls((), orders, NullSpec(model, samples=samples), seed)
    steps = _sample_steps(model, (samples, top - 1), np.random.default_rng(seed))
    z = np.concatenate([np.zeros((samples, 1)), np.cumsum(steps, axis=1)], axis=1)
    ranks = dict(_lag_ranks(z, orders, 1))
    for null in nulls:
        n = null.order
        want = np.bincount(ranks[n][:, -1], minlength=_FACT[n])  # each walk's trailing window
        assert null.sample_count == samples
        assert null.distribution.weights.tobytes() == (want / samples).tobytes()


@pytest.mark.parametrize("n", range(3, 8))
def test_the_fold_counts_the_lex_ranks_of_the_suffixes(n):
    words = list(permutations(range(1, n + 1)))
    one_hot = np.eye(_FACT[n], dtype=np.int8)  # row r: one window, of lex rank r
    for m in range(2, n + 1):
        want = [lex_rank(OrdinalPattern(tuple(sorted(word[-m:]).index(v) + 1 for v in word[-m:])))
                for word in words]  # the standardized suffix of each word
        got = _fold(one_hot, n, m, np.int8)
        assert np.array_equal(got, np.eye(_FACT[m], dtype=np.int8)[want])


@given(rows=st.sampled_from([None, 1, 3]), orders=st.sets(st.integers(2, 7), min_size=2),
       d=st.integers(1, 3), extra=st.integers(0, 40), ties=st.booleans(),
       seed=st.integers(0, 2 ** 32))
@settings(max_examples=150, deadline=None)
def test_a_rank_mod_a_lower_factorial_is_the_rank_of_its_suffix(rows, orders, d, extra, ties,
                                                                 seed):
    # rank_n mod m! = rank_m at start t + (n - m) d: the identity the fold rests on
    length = (max(orders) - 1) * d + 1 + extra
    shape = (length,) if rows is None else (rows, length)
    rng = np.random.default_rng(seed)
    values = rng.integers(0, 3, shape).astype(float) if ties else rng.normal(size=shape)
    ranks = dict(_lag_ranks(values, orders, d))
    for m, n in combinations(sorted(orders), 2):
        assert np.array_equal(ranks[n] % _FACT[m], ranks[m][..., (n - m) * d:])


@given(rows=st.integers(1, 60), width=st.integers(0, 12), seed=st.integers(0, 2 ** 32))
@settings(max_examples=100, deadline=None)
def test_column_summed_walks_are_the_cumsum_walks(rows, width, seed):
    rng = np.random.default_rng(seed)
    steps = rng.normal(size=(rows, width)) * rng.choice([0.0, -0.0, 1.0, 1e300], (rows, width))
    z = _walks(steps)
    want = np.zeros((rows, width + 1))
    np.cumsum(steps, axis=-1, out=want[:, 1:])
    assert z.flags["F_CONTIGUOUS"]
    assert z.tobytes(order="C") == want.tobytes()  # bit for bit, signed zeros too


def _plotdata_by_csv_writer(results):
    # emit's plotdata as csv.writer rendered it
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(("window_start", "n", "pattern", "empirical", "null"))
    for r in results:
        for oa in r.per_order:
            n = oa.report.n
            for word, p, q in zip(patterns.all_patterns(n), oa.empirical.weights,
                                  oa.null.distribution.weights):
                writer.writerow((r.window_start, n, str(word), repr(float(p)), repr(float(q))))
    return buffer.getvalue().encode()


def test_plotdata_bytes_are_the_csv_writer_rendering():
    walk = np.cumsum(np.random.default_rng(4).uniform(-0.4, 0.6, 600))
    config = AnalysisConfig(orders=(3, 6), null=NullSpec(StepModel.uniform(0.5), samples=2000),
                            replicates=0, seed=2)
    result = analyze_run(walk, config)
    assert emit(result, "plotdata") == _plotdata_by_csv_writer([result])
    windows = windowed_run(walk, WindowSpec(200, 150), config)
    assert emit(windows, "plotdata") == _plotdata_by_csv_writer(windows)


@given(text=st.text(st.sampled_from("0123456789.,-\n\r "), max_size=300),
       piece=st.integers(1, 40), data=st.data())
@settings(max_examples=100, deadline=None)
def test_newlines_are_counted_as_bytes_count_does(text, piece, data):
    raw = text.encode()
    end = data.draw(st.integers(1, max(1, len(raw)))) if raw else 0
    with patch.object(analysis, "_NEWLINE_SLICE", piece):
        got = _newlines(raw, end) if end else 0
    assert got == raw.count(b"\n", 0, end)


def test_a_stack_over_the_count_bound_is_refused_before_it_is_counted():
    stack = np.arange(40, dtype=float).reshape(4, 10)
    cells = 4 * (_FACT[3] + _FACT[5])  # 504 counts
    with patch.object(patterns, "_MAX_STACK_COUNTS", cells):
        assert pattern_counts(stack, (3, 5))[5].shape == (4, 120)
    with patch.object(patterns, "_MAX_STACK_COUNTS", cells - 1), \
            patch.object(np, "zeros", side_effect=AssertionError("allocated")):
        with pytest.raises(RangeError, match="4 rows at orders \\[3, 5\\] need 504 counts"):
            pattern_counts(stack, (3, 5))


def test_band_rows_over_the_count_bound_are_refused_before_they_are_counted():
    # the series' own counts (orders 2, 4, 5: 146) fit, the band's 10 rows
    # of 24 + 120 counts do not, and no walk is drawn nor any row allocated
    walk = np.cumsum(np.random.default_rng(6).uniform(-0.4, 0.6, 300))
    config = AnalysisConfig(orders=(4, 5), replicates=10, null=NullSpec(walk_length=3000))
    zeros, shapes = np.zeros, []

    def recorded(shape, *args, **kwargs):
        shapes.append(shape)
        return zeros(shape, *args, **kwargs)

    with patch.object(patterns, "_MAX_STACK_COUNTS", 1440):
        assert analyze_run(walk, config).per_order[0].report.kl_band_std is not None
    with patch.object(patterns, "_MAX_STACK_COUNTS", 1439), \
            patch.object(np, "zeros", recorded), \
            patch("ordinalwalk.nullmodels._sample_steps", side_effect=AssertionError("drawn")):
        with pytest.raises(RangeError, match="10 rows at orders \\[4, 5\\] need 1440 counts, "
                                             "more than 1439"):
            analyze_run(walk, config)
    # of the per-row counts, only the series' own, at orders 2, 4 and 5
    assert [shape for shape in shapes if np.ndim(shape)] == [(1, 2), (1, 24), (1, 120)]


def test_a_given_nulls_band_over_the_count_bound_is_refused_before_the_null_is_drawn():
    # the band's 10 rows of 24 + 120 counts exceed the bound, and the
    # step-law null's 500 walks, which keep no rows, are never drawn
    walk = np.cumsum(np.random.default_rng(6).uniform(-0.4, 0.6, 300))
    config = AnalysisConfig(orders=(4, 5), replicates=10,
                            null=NullSpec(StepModel.uniform(0.6), samples=500))
    with patch.object(patterns, "_MAX_STACK_COUNTS", 1439), \
            patch("ordinalwalk.nullmodels._sample_steps", side_effect=AssertionError("drawn")):
        with pytest.raises(RangeError, match="10 rows at orders \\[4, 5\\] need 1440 counts, "
                                             "more than 1439"):
            analyze_run(walk, config)
