"""The associated null is drawn and ranked in blocks of nullmodels._CHUNK
steps; these tests hold the streamed counts to the one-shot walk
(`associated_walk` ranked by `empirical_distributions`) bit for bit, and
bound the memory the stream holds."""

import tracemalloc
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ordinalwalk import nullmodels
from ordinalwalk import (
    LengthError,
    NullSpec,
    RangeError,
    StepModel,
    associated_walk,
    build_nulls,
    empirical_distributions,
    monte_carlo_distribution,
)


def _outcome(call):
    """Weights and sample counts per order, or the error's type and text."""
    try:
        dists = call()
    except (LengthError, RangeError) as exc:
        return type(exc), str(exc)
    return [(d.order, d.weights.tobytes(), d.sample_count) for d in dists]


def _streamed(values, orders, length, seed):
    return _outcome(lambda: [null.distribution for null in
                             build_nulls(values, orders, NullSpec(walk_length=length), seed)])


def _one_shot(values, orders, length, seed):
    return _outcome(lambda: [empirical_distributions(
        associated_walk(values, length, seed), orders)[n] for n in orders])


@st.composite
def _cases(draw):
    size = draw(st.integers(2, 40))
    if draw(st.booleans()):  # few distinct steps, so the walk ties often
        steps = draw(st.lists(st.integers(-2, 2), min_size=size - 1, max_size=size - 1))
        values = np.concatenate(([0.0], np.cumsum(steps, dtype=np.float64)))
    else:
        values = np.array(draw(st.lists(
            st.floats(-1e3, 1e3, allow_nan=False), min_size=size, max_size=size)))
    orders = tuple(draw(st.sets(st.integers(3, 7), min_size=1)))
    chunk = draw(st.integers(1, 12))
    # the walk's length - 1 steps span 1 to 4 blocks, so 0 to 3 boundaries
    blocks = draw(st.integers(1, 4))
    length = 1 + draw(st.integers((blocks - 1) * chunk + 1, blocks * chunk))
    return values, orders, chunk, length, draw(st.integers(0, 2 ** 32))


@settings(max_examples=400, deadline=None)
@given(_cases())
def test_streamed_null_matches_the_one_shot_walk(case):
    # chunk sizes under max order - 1 leave blocks (and a last block) too
    # short to rank alone; walks under max order raise the one-shot error
    values, orders, chunk, length, seed = case
    with patch.object(nullmodels, "_CHUNK", chunk):
        got = _streamed(values, orders, length, seed)
    assert got == _one_shot(values, orders, length, seed)


@pytest.mark.parametrize("chunk", [1, 3, 1000, 1 << 16])
def test_streamed_null_on_a_long_tied_walk(chunk):
    values = np.cumsum(np.random.default_rng(4).integers(-1, 2, 300)).astype(float)
    orders = (3, 5, 7)
    with patch.object(nullmodels, "_CHUNK", chunk):
        got = _streamed(values, orders, 5003, np.random.SeedSequence(7, spawn_key=(2,)))
    assert got == _one_shot(values, orders, 5003, np.random.SeedSequence(7, spawn_key=(2,)))
    assert [count for _, _, count in got] == [5001, 4999, 4997]


def test_streamed_null_keeps_the_one_shot_errors():
    with patch.object(nullmodels, "_CHUNK", 4):
        # a single observation has no steps
        assert _streamed([1.0], (3,), 10, 0) == _one_shot([1.0], (3,), 10, 0)
        assert _streamed([1.0], (3,), 10, 0)[0] is LengthError
        # steps of 9e307 overflow the walk a few blocks in
        steep = [0.0, 9e307, 0.0]
        with np.errstate(over="ignore", invalid="ignore"):
            got, want = _streamed(steep, (3,), 200, 1), _one_shot(steep, (3,), 200, 1)
        assert got == want == (RangeError, "series values must be finite")


@pytest.mark.parametrize("model", [StepModel.uniform(0.6), StepModel.normal(0.1, 1.0),
                                   StepModel.empirical([-1.0, 0.0, 0.0, 2.0])])
def test_monte_carlo_does_not_depend_on_the_block(model):
    whole = monte_carlo_distribution(model, 5, 3001, seed=3)
    with patch.object(nullmodels, "_CHUNK", 70):
        blocked = monte_carlo_distribution(model, 5, 3001, seed=3)
    assert blocked.weights.tobytes() == whole.weights.tobytes()
    assert blocked.sample_count == whole.sample_count == 3001


def test_associated_null_memory_on_a_long_series():
    # the default walk of a 1e5-point series has 1e7 steps; held whole it
    # takes over 200 MiB, streamed a few blocks of _CHUNK values
    values = np.cumsum(np.random.default_rng(5).normal(size=100_000))
    tracemalloc.start()
    try:
        nulls = build_nulls(values, (4, 5), NullSpec(), seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert [null.sample_count for null in nulls] == [10 ** 7 - 3, 10 ** 7 - 4]
    assert peak < 8 * 2 ** 20, f"peak {peak / 2 ** 20:.1f} MiB"
