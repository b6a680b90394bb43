"""The associated null is drawn and ranked in the blocks of
patterns._blocks: whole walks of at most patterns._CHUNK values, or a
longer walk _CHUNK window starts at a time; these tests hold its weights
bit for bit to the class means of the counts of one one-shot (rows,
length) stack of the series' resampled steps, ranked by pattern_counts,
hold its band to those walks' own counts, and bound the memory the
blocks hold."""

import tracemalloc
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ordinalwalk import patterns
from ordinalwalk import (
    EquivalenceClassTable,
    LengthError,
    NullSpec,
    RangeError,
    StepModel,
    TiePolicy,
    build_nulls,
    monte_carlo_distribution,
    pattern_counts,
)
from ordinalwalk.classes import equivalence_classes, rc_closure
from ordinalwalk.metrics import _kl_rows
from ordinalwalk.nullmodels import _nulls_and_bands


def _outcome(call):
    """Weights and sample counts per order, or the error's type and text."""
    try:
        dists = call()
    except (LengthError, RangeError) as exc:
        return type(exc), str(exc)
    return [(d.order, d.weights.tobytes(), d.sample_count) for d in dists]


def _streamed(values, orders, length, seed, d=1, policy=None):
    spec = NullSpec(walk_length=length)
    return _outcome(lambda: [null.distribution for null in
                             build_nulls(values, orders, spec, seed, d, policy)])


def _classes(n, jittered) -> EquivalenceClassTable:
    """The full classes at orders 3..5 for i.i.d. steps; reverse-complement
    pairs at 2, 6 and 7, and for a walk plus noise."""
    return equivalence_classes(n) if 3 <= n <= 5 and not jittered else rc_closure(n)


def _class_mean(counts, classes):
    """Each count replaced by the mean count of its class."""
    return (np.bincount(classes.ids, counts) / np.bincount(classes.ids))[classes.ids]


def _walk_counts(values, orders, length, seed, d=1, scale=0.0, replicates=0):
    """Per-walk counts of the null drawn whole: max(replicates,
    ceil(length / walk)) walks of the series' length (or the top order's
    span, if longer), every window counted with stable ties, jittered from
    the seed's first child when scale > 0."""
    values = np.asarray(values, dtype=np.float64)
    walk = max(values.size, (max(orders) - 1) * d + 1)
    rows = max(replicates, -(-length // walk))
    stack = np.zeros((rows, walk))
    steps = np.random.default_rng(seed).choice(np.diff(values), size=(rows, walk - 1))
    np.cumsum(steps, axis=1, out=stack[:, 1:])
    if scale:
        stack += np.random.default_rng(seed.spawn(1)[0]).normal(0.0, scale, stack.shape)
    return pattern_counts(stack, orders, d)


def _one_shot(values, orders, length, seed, d=1, scale=0.0):
    """The null of _walk_counts: its pooled counts averaged within classes."""
    counts = _walk_counts(values, orders, length, seed, d, scale)
    return [(n, (_class_mean(c, _classes(n, scale > 0)) / c.sum()).tobytes(), int(c.sum()))
            for n, c in ((n, counts[n].sum(axis=0)) for n in orders)]


@st.composite
def _cases(draw, lowest=3):
    size = draw(st.integers(2, 40))
    if draw(st.booleans()):  # few distinct steps, so the walks tie often
        steps = draw(st.lists(st.integers(-2, 2), min_size=size - 1, max_size=size - 1))
        values = np.concatenate(([0.0], np.cumsum(steps, dtype=np.float64)))
    else:
        values = np.array(draw(st.lists(
            st.floats(-1e3, 1e3, allow_nan=False), min_size=size, max_size=size)))
    orders = tuple(sorted(draw(st.sets(st.integers(lowest, 7), min_size=1))))
    d = draw(st.integers(1, 3))
    mode = draw(st.sampled_from(["stable", "strict", "jitter"]))
    scale = 0.3 if mode == "jitter" else 0.0
    # chunks under one walk draw a walk a block; walks may be shorter
    # than the top order's span, and then take that span instead
    chunk = draw(st.integers(1, 200))
    length = draw(st.integers(2, 400))
    seed = np.random.SeedSequence(draw(st.integers(0, 2 ** 32)),
                                  spawn_key=(draw(st.integers(0, 9)),))
    return values, orders, d, mode, scale, chunk, length, seed


@settings(max_examples=300, deadline=None)
@given(_cases())
def test_blocked_null_matches_the_one_shot_stack(case):
    values, orders, d, mode, scale, chunk, length, seed = case
    policy = TiePolicy(mode, jitter_scale=scale)
    with patch.object(patterns, "_CHUNK", chunk):
        got = _streamed(values, orders, length, seed, d, policy)
    assert got == _one_shot(values, orders, length, seed, d, scale)


@settings(max_examples=200, deadline=None)
@given(_cases(lowest=2), st.integers(2, 12), st.sampled_from([0.5, 1.0]))
def test_null_and_band_are_class_means_of_the_walks(case, replicates, smoothing):
    values, orders, d, mode, scale, chunk, length, seed = case
    policy = TiePolicy(mode, jitter_scale=scale)
    spec = NullSpec(walk_length=length)
    with patch.object(patterns, "_CHUNK", chunk):
        got = _nulls_and_bands(values, orders, spec, seed, d, policy, replicates, smoothing)
    counts = _walk_counts(values, orders, length, seed, d, scale, replicates)
    for n, (null, band) in zip(orders, got):
        classes, per_walk = _classes(n, mode == "jitter"), counts[n]
        pool = per_walk.sum(axis=0)
        weights = null.distribution.weights
        assert null.sample_count == pool.sum()
        np.testing.assert_allclose(weights, _class_mean(pool, classes) / pool.sum(),
                                   rtol=1e-14, atol=0)
        for members in classes.classes:  # class members are exactly equal
            assert (weights[list(members)] == weights[members[0]]).all()
        windows = int(per_walk[0].sum())
        m = pool.sum() - windows
        expected = [_kl_rows(row[None] / windows, _class_mean(pool - row, classes) / m, m,
                             smoothing)[0] for row in per_walk[:replicates]]
        assert band.tolist() == expected


@pytest.mark.parametrize("chunk", [1, 3, 1000, 1 << 16])
def test_streamed_null_on_a_long_tied_walk(chunk):
    values = np.cumsum(np.random.default_rng(4).integers(-1, 2, 300)).astype(float)
    orders = (3, 5, 7)
    with patch.object(patterns, "_CHUNK", chunk):
        got = _streamed(values, orders, 5003, np.random.SeedSequence(7, spawn_key=(2,)))
    assert got == _one_shot(values, orders, 5003, np.random.SeedSequence(7, spawn_key=(2,)))
    # ceil(5003 / 300) = 17 walks of 300 values, 300 - n + 1 windows each
    assert [count for _, _, count in got] == [17 * 298, 17 * 296, 17 * 294]


def test_streamed_null_keeps_the_one_shot_errors():
    with patch.object(patterns, "_CHUNK", 4):
        # a single observation has no steps
        assert _streamed([1.0], (3,), 10, 0) == (
            LengthError, "need at least two observations to extract steps")
        # steps of 9e307 overflow some of the walks
        with np.errstate(over="ignore", invalid="ignore"):
            got = _streamed([0.0, 9e307, 0.0], (3,), 200, 1)
        assert got == (RangeError, "series values must be finite")


@pytest.mark.parametrize("model", [StepModel.uniform(0.6), StepModel.normal(0.1, 1.0),
                                   StepModel.empirical([-1.0, 0.0, 0.0, 2.0])])
def test_monte_carlo_does_not_depend_on_the_block(model):
    whole = monte_carlo_distribution(model, 5, 3001, seed=3)
    with patch.object(patterns, "_CHUNK", 70):
        blocked = monte_carlo_distribution(model, 5, 3001, seed=3)
    assert blocked.weights.tobytes() == whole.weights.tobytes()
    assert blocked.sample_count == whole.sample_count == 3001


def test_associated_null_memory_on_a_long_series():
    # the default null of a 1e5-point series draws 5e6 values, 50 walks
    # of the series' length; held whole they take over 100 MiB, drawn a
    # walk at a time a few MiB
    values = np.cumsum(np.random.default_rng(5).normal(size=100_000))
    tracemalloc.start()
    try:
        nulls = build_nulls(values, (4, 5), NullSpec(), seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert [null.sample_count for null in nulls] == [50 * (10 ** 5 - 3), 50 * (10 ** 5 - 4)]
    assert peak < 8 * 2 ** 20, f"peak {peak / 2 ** 20:.1f} MiB"


def test_long_walks_are_drawn_and_ranked_in_blocks():
    # two walks of a 1e6-point series, each longer than a block: drawn and
    # ranked whole they took 34 MiB beyond the step multiset the null
    # keeps (8 MiB of it), and 8 MiB more for a copy of the raw series
    values = np.cumsum(np.random.default_rng(6).normal(size=1_000_000))
    tracemalloc.start()
    try:
        nulls = build_nulls(values, (4, 5), NullSpec(walk_length=2_000_000), seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert [null.sample_count for null in nulls] == [2 * (10 ** 6 - 3), 2 * (10 ** 6 - 4)]
    steps = nulls[0].step_model.steps
    assert steps.nbytes == 8 * (10 ** 6 - 1)
    assert peak - steps.nbytes <= 4 * 2 ** 20, f"peak {peak / 2 ** 20:.1f} MiB"
