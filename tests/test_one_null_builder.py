"""build_nulls is the one null builder. A parametric Monte Carlo null is one
stack of walks at the top order, drawn in row blocks of nullmodels._CHUNK
values, and each order counts the walks' leading values; these tests hold
it to the per-order Monte Carlo draw it replaced and to a one-shot draw."""

from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ordinalwalk import nullmodels
from ordinalwalk import (
    NullSpec,
    PatternDistribution,
    RangeError,
    StepModel,
    build_null,
    build_nulls,
    monte_carlo_distribution,
    pattern_counts,
)
from ordinalwalk.nullmodels import _lag_ranks, _sample_steps, _walks
from ordinalwalk.patterns import _FACT, _check_order


def _previous_monte_carlo(model, n, samples, seed=0):
    # monte_carlo_distribution as it was when every order drew its own
    # walks, verbatim but for reading _CHUNK through the module
    _check_order(n)
    if samples < 1:
        raise RangeError(f"samples must be >= 1, got {samples}")
    rng = np.random.default_rng(seed)
    counts = np.zeros(_FACT[n], dtype=np.int64)
    remaining = samples
    while remaining > 0:
        k = min(nullmodels._CHUNK // n, remaining)
        # column-major, so the kernel's loops run down k walks, not along n
        z = _walks(_sample_steps(model, (k, n - 1), rng), order="F")
        _, ranks = next(_lag_ranks(z, (n,), 1))
        counts += np.bincount(ranks.ravel(), minlength=_FACT[n])
        remaining -= k
    return PatternDistribution(n, counts / samples, "model", samples)


@st.composite
def _models(draw):
    family = draw(st.sampled_from(["uniform_b", "normal", "empirical"]))
    if family == "uniform_b":
        return StepModel.uniform(draw(st.floats(0.01, 0.99)))
    if family == "normal":
        return StepModel.normal(draw(st.floats(-2.0, 2.0)), draw(st.floats(0.1, 3.0)))
    # few distinct steps, zeros among them, so the walks tie often
    return StepModel.empirical(draw(st.lists(st.integers(-2, 2), min_size=1, max_size=6)))


def _one_shot_steps(model, shape, rng):
    if model.family == "uniform_b":
        return rng.uniform(model.b - 1.0, model.b, shape)
    if model.family == "normal":
        return rng.normal(model.mu, model.sigma, shape)
    return rng.choice(model.steps, size=shape, replace=True)


@settings(max_examples=300, deadline=None)
@given(model=_models(), n=st.integers(2, 7), samples=st.integers(1, 300),
       blocks=st.integers(1, 6), seed=st.integers(0, 2 ** 32))
def test_monte_carlo_matches_the_per_order_draw(model, n, samples, blocks, seed):
    # _CHUNK small enough that the samples span `blocks` row blocks
    chunk = n * max(1, -(-samples // blocks))
    with patch.object(nullmodels, "_CHUNK", chunk):
        got = monte_carlo_distribution(model, n, samples, seed)
        want = _previous_monte_carlo(model, n, samples, seed)
    assert got.weights.tobytes() == want.weights.tobytes()
    assert got.sample_count == want.sample_count == samples


@settings(max_examples=200, deadline=None)
@given(model=_models(), orders=st.sets(st.integers(2, 7), min_size=1),
       samples=st.integers(1, 300), chunk=st.integers(7, 80), seed=st.integers(0, 2 ** 32))
def test_parametric_nulls_count_the_leading_values_of_one_draw(model, orders, samples,
                                                                chunk, seed):
    orders = tuple(orders)
    with patch.object(nullmodels, "_CHUNK", chunk):
        nulls = build_nulls([0.0, 1.0], orders, NullSpec(model, samples=samples), seed)
    top = max(orders)
    steps = _one_shot_steps(model, (samples, top - 1), np.random.default_rng(seed))
    walks = np.concatenate([np.zeros((samples, 1)), np.cumsum(steps, axis=1)], axis=1)
    assert [null.order for null in nulls] == list(orders)
    for null in nulls:
        n = null.order
        rows = pattern_counts(walks[:, :n], (n,))[n]  # one window per row
        assert null.distribution.weights.tobytes() == (rows.sum(axis=0) / samples).tobytes()
        assert null.sample_count == null.distribution.sample_count == samples
        assert null.method == "monte_carlo" and null.seed == seed


_SERIES = np.cumsum(np.random.default_rng(2).integers(-2, 3, 200)).astype(float)

_SPECS = {
    "associated": NullSpec(walk_length=3000),
    "uniform_mc": NullSpec(StepModel.uniform(0.6), samples=3000),
    "normal_mc": NullSpec(StepModel.normal(0.2, 1.5), samples=3000),
    "uniform_closed": NullSpec(StepModel.uniform(0.35), closed_form=True),
    "normal_closed": NullSpec(StepModel.normal(0.0, 2.0), closed_form=True),
}


@pytest.mark.parametrize("name", sorted(_SPECS))
@pytest.mark.parametrize("seed", [0, 9, np.random.SeedSequence(5, spawn_key=(1, 0))])
def test_build_null_is_build_nulls_at_one_order(name, seed):
    spec = _SPECS[name]
    for n in (3, 4):
        one = build_null(_SERIES, n, spec, seed)
        many, = build_nulls(_SERIES, (n,), spec, seed)
        assert one.to_json_dict() == many.to_json_dict()
        assert one.distribution.weights.tobytes() == many.distribution.weights.tobytes()


@pytest.mark.parametrize("name", sorted(_SPECS))
def test_empty_orders_raise_for_every_family(name):
    with pytest.raises(RangeError, match="need at least one order"):
        build_nulls(_SERIES, (), _SPECS[name], 1)
