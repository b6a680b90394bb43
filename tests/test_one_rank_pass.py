"""One counter, patterns._counted, jitters, ranks and counts every series,
stack and sampled walk in the blocks of patterns._blocks, which tile each
row. These tests check the tiling, hold a series whose top-order span is
longer than a block to its whole-series counts, hold its jittered walk
counts, pooled and kept, bit for bit to one one-shot draw whatever the
block size (tests/test_fold_counts.py holds series and stacks to one
whole-series draw), bound the memory of a jittered pass, check that it
writes no caller's values, and check the finite-jitter rule and the
freeze rule of the values a pass reads."""

import math
import tracemalloc
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ordinalwalk import patterns
from ordinalwalk import (
    NullSpec,
    RangeError,
    StepModel,
    TiePolicy,
    TimeSeries,
    build_nulls,
    extract_patterns,
    ingest_csv,
    pattern_counts,
)
from ordinalwalk.cli import main
from ordinalwalk.nullmodels import _drawn_counts, _own_steps, _sample_steps
from ordinalwalk.patterns import _FACT, _lag_ranks, _prepared


def _per_row_counts(values, orders, d):
    """Counts per row and order of a stack's windows, every order ranked
    on its own by _lag_ranks, with no blocks."""
    return {n: np.array([np.bincount(row, minlength=_FACT[n]) for row in ranks])
            for n, ranks in _lag_ranks(values, orders, d)}


@given(model=st.sampled_from([StepModel.empirical([-1.0, 0.0, 0.0, 1.0]),
                              StepModel.normal(0.0, 1.0)]),
       orders=st.sets(st.integers(2, 7), min_size=1, max_size=3).map(sorted),
       d=st.integers(1, 3), extra=st.integers(0, 300), rows=st.integers(1, 6),
       keep=st.integers(0, 6), chunk=st.integers(1, 200), seed=st.integers(0, 2 ** 32))
@settings(max_examples=150, deadline=None)
def test_jittered_walk_counts_are_those_of_one_one_shot_draw(model, orders, d, extra, rows,
                                                             keep, chunk, seed):
    length = (max(orders) - 1) * d + 1 + extra
    keep = min(keep, rows)
    policy = TiePolicy("jitter", jitter_scale=0.3)
    with patch.object(patterns, "_CHUNK", chunk):
        pooled, kept = _drawn_counts(model, rows, length, orders, d, seed, policy, keep)
    steps = _sample_steps(model, (rows, length - 1), np.random.default_rng(seed))
    walks = np.zeros((rows, length))
    np.cumsum(steps, axis=1, out=walks[:, 1:])
    child = np.random.SeedSequence(seed).spawn(1)[0]  # the walk seed's first child
    walks += np.random.default_rng(child).normal(0.0, 0.3, walks.shape)
    want = _per_row_counts(walks, orders, d)
    for n in orders:
        assert pooled[n].tobytes() == want[n].sum(axis=0).tobytes()
        assert np.array_equal(kept[n], want[n][:keep])


@given(rows=st.integers(1, 5), orders=st.sets(st.integers(2, 7), min_size=1, max_size=3),
       d=st.integers(1, 40), extra=st.integers(0, 300), chunk=st.integers(1, 200))
@settings(max_examples=200, deadline=None)
def test_blocks_tile_each_row(rows, orders, d, extra, chunk):
    span = (max(orders) - 1) * d + 1
    size = span + extra
    seen = np.zeros((rows, size), dtype=int)
    with patch.object(patterns, "_CHUNK", chunk):
        for block, lo, hi in patterns._blocks(rows, size, orders, d):
            seen[block, lo:hi] += 1
            assert (block.stop - block.start) * (hi - lo) <= max(chunk, span)
            if lo == 0:  # a row's first block holds a top-order window
                assert hi >= span
    assert (seen == 1).all()


@pytest.mark.parametrize("mode", ["stable", "jitter"])
def test_a_span_longer_than_a_block_counts_every_window(mode):
    # a top-order window (72 001 values) longer than one block (65 536)
    values = np.random.default_rng(6).integers(0, 9, 150_000).astype(float)
    policy = TiePolicy(mode, 0.5 if mode == "jitter" else 0.0, 8)
    noised = values.copy()
    if mode == "jitter":
        noised += np.random.default_rng(8).normal(0.0, 0.5, values.shape)
    want = _per_row_counts(noised[None], (3, 7), 12_000)
    got = pattern_counts(values, (3, 7), 12_000, policy)
    for n in (3, 7):
        assert np.array_equal(got[n], want[n][0])


def test_extracted_patterns_are_those_of_one_whole_draw():
    values = np.repeat(np.arange(50.0), 4)  # every window tied
    policy = TiePolicy("jitter", jitter_scale=0.5, seed=11)
    noised = values + np.random.default_rng(11).normal(0.0, 0.5, values.shape)
    _, ranks = next(_lag_ranks(noised, (4,), 2))
    assert [p.rank for p in extract_patterns(values, 4, 2, policy)] == ranks.tolist()
    counts = np.bincount(ranks, minlength=24)
    with patch.object(patterns, "_CHUNK", 7):
        assert np.array_equal(pattern_counts(values, (4,), 2, policy)[4], counts)


def test_preparing_draws_no_noise():
    series = TimeSeries(np.repeat(np.arange(10.0), 3))
    values, _ = _prepared(series, (3,), 1, TiePolicy("jitter", jitter_scale=0.5))
    assert values is series.values


def test_a_jittered_pass_holds_blocks_not_the_series():
    # the whole series' noise and its noised copy would be 15 MiB
    series = TimeSeries(np.cumsum(np.random.default_rng(2).integers(-2, 3, 1_000_000)) * 0.5)
    policy = TiePolicy("jitter", 0.01, 3)
    tracemalloc.start()
    try:
        counts = pattern_counts(series, range(3, 8), 1, policy)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert [int(counts[n].sum()) for n in range(3, 8)] == [10 ** 6 - n + 1 for n in range(3, 8)]
    assert peak <= 4 * 2 ** 20, f"peak {peak / 2 ** 20:.1f} MiB"


def test_a_jittered_associated_null_noises_its_walks_in_place():
    # the sampler's blocks are its own, so noising them copies nothing
    walk = TimeSeries(np.cumsum(np.random.default_rng(1).uniform(-0.5, 0.5, 100_000)))
    policies = (None, TiePolicy("jitter", 0.01))
    for policy in policies:  # the class tables, built once, are not the pass's
        build_nulls(walk, (4, 5), NullSpec(walk_length=200_000), 7, 1, policy)
    peaks = []
    for policy in policies:
        tracemalloc.start()
        try:
            build_nulls(walk, (4, 5), NullSpec(), 7, 1, policy)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    stable, jittered = (peak / 2 ** 20 for peak in peaks)
    assert jittered <= stable + 0.1, f"jittered {jittered:.2f} MiB, stable {stable:.2f} MiB"


@pytest.mark.parametrize("chunk", [5, 1 << 16])
def test_a_jittered_pass_leaves_the_callers_values_as_they_were(chunk):
    stack = np.cumsum(np.random.default_rng(4).normal(size=(3, 40)), axis=1)
    before = stack.copy()
    policy = TiePolicy("jitter", 0.1, 5)
    with patch.object(patterns, "_CHUNK", chunk):
        pattern_counts(stack, (3, 4), 2, policy)
        pattern_counts(stack[0], (3, 4), 1, policy)
        extract_patterns(stack[1], 3, 1, policy)
    assert np.array_equal(stack, before)


# ------------------------------------------------------------ finite jitter

@pytest.mark.parametrize("mode", ["jitter", "stable"])
@pytest.mark.parametrize("scale", [math.inf, -math.inf, math.nan])
def test_a_non_finite_jitter_scale_is_refused(mode, scale):
    with pytest.raises(RangeError, match="jitter_scale"):
        TiePolicy(mode, jitter_scale=scale)


def test_the_cli_refuses_an_infinite_jitter_scale(tmp_path, capsys):
    path = tmp_path / "walk.csv"
    path.write_text("".join(f"{v!r}\n" for v in np.cumsum(np.ones(50)).tolist()))
    argv = ["analyze", str(path), "--ties", "jitter", "--jitter-scale", "inf", "--seed", "1"]
    assert main(argv) == 3
    assert "numerical error: jitter_scale must be finite, got inf" in capsys.readouterr().err


@pytest.mark.parametrize("chunk", [5, 1 << 16])
def test_noise_that_overflows_is_refused(chunk):
    # a finite scale whose draws pass the largest float
    policy = TiePolicy("jitter", jitter_scale=1e308)
    values = np.arange(100.0)
    with patch.object(patterns, "_CHUNK", chunk):
        with pytest.raises(RangeError, match="jittered values must be finite"):
            pattern_counts(values, (3, 4), 1, policy)
        with pytest.raises(RangeError, match="jittered values must be finite"):
            extract_patterns(values, 3, 1, policy)
        with pytest.raises(RangeError, match="jittered values must be finite"):
            build_nulls(values, (3,), NullSpec(walk_length=1000), 1, 1, policy)


# -------------------------------------------------------------- freeze rule

def _read_only_view():
    owner = np.arange(5.0)
    view = owner[:]
    view.setflags(write=False)
    return owner, view


def test_a_series_does_not_keep_a_read_only_view_of_a_writable_array():
    owner, view = _read_only_view()
    series = TimeSeries(view)
    owner[0] = 9.0
    assert series.values.tolist() == [0.0, 1.0, 2.0, 3.0, 4.0]


def test_empirical_steps_do_not_keep_a_read_only_view_of_a_writable_array():
    owner, view = _read_only_view()
    model = StepModel.empirical(view)
    owner[0] = np.nan
    assert np.isfinite(model.steps).all()
    assert not model.steps.flags.writeable


def test_arrays_no_one_can_write_are_kept(tmp_path):
    path = tmp_path / "series.csv"
    path.write_text("1.5\n2.5\n0.5\n4.0\n3.0\n")
    series = ingest_csv(path)  # loadtxt's column, a view of its (rows, 1) array
    assert TimeSeries(series.values).values is series.values
    window = TimeSeries(series.values[1:4])  # as windowed_run slices a series
    assert np.shares_memory(window.values, series.values)
    own = _own_steps(series.values)  # np.diff's fresh array, frozen
    assert StepModel.empirical(own.steps).steps is own.steps
