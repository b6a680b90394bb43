"""An analysis run draws the associated null and its bootstrap band once.

The null is max(R, ceil(L / N)) walks of the series' own steps, averaged
within classes; the band is the first R of them, each scored against the
pool less its own walk, averaged the same way.
A parametric or closed-form null's band draws R own-step walks of its own.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ordinalwalk import (
    AnalysisConfig,
    GeneratorSpec,
    LengthError,
    NullSpec,
    PatternDistribution,
    StepModel,
    TiePolicy,
    analyze_run,
    build_nulls,
    generate,
    kl_divergence,
)
from ordinalwalk import nullmodels, patterns
from ordinalwalk.classes import equivalence_classes, rc_closure
from ordinalwalk.cli import main
from ordinalwalk.nullmodels import _nulls_and_bands
from ordinalwalk.patterns import _FACT, _lag_ranks

WALK = generate(GeneratorSpec("walk", 300, seed=5, step=StepModel.uniform(0.6)))


@pytest.fixture
def draws(monkeypatch):
    """The row count of every _sampled_walks call, in call order."""
    rows = []
    sampled_walks = nullmodels._sampled_walks

    def counted(model, count, *args, **kwargs):
        rows.append(count)
        return sampled_walks(model, count, *args, **kwargs)

    monkeypatch.setattr(nullmodels, "_sampled_walks", counted)
    return rows


@pytest.mark.parametrize("replicates, walks", [(0, 20), (10, 20), (40, 40)])
def test_an_associated_run_draws_once(draws, replicates, walks):
    # 6 000 values are 20 walks of 300; more replicates draw one walk each
    config = AnalysisConfig(null=NullSpec(walk_length=6000), replicates=replicates, seed=1)
    result = analyze_run(WALK, config)
    assert draws == [walks]
    for oa in result.per_order:
        assert oa.null.sample_count == walks * (300 - oa.report.n + 1)


@pytest.mark.parametrize("null, expected", [
    (NullSpec(StepModel.uniform(0.6), samples=500), [10, 500]),
    (NullSpec(StepModel.uniform(0.6), closed_form=True), [10]),
])
def test_a_given_null_draws_its_band_apart(draws, null, expected):
    analyze_run(WALK, AnalysisConfig(orders=(3, 4), null=null, replicates=10, seed=1))
    assert draws == expected


def test_a_band_within_the_budget_leaves_the_null_as_it_was():
    spec = NullSpec(walk_length=6000)
    alone = build_nulls(WALK, (3, 5), spec, seed=4, d=2)
    for null, (with_band, band) in zip(alone, _nulls_and_bands(WALK, (3, 5), spec, 4, 2,
                                                                  None, 20, 1.0)):
        assert null.sample_count == with_band.sample_count
        assert null.distribution.weights.tobytes() == with_band.distribution.weights.tobytes()
        assert band.shape == (20,)


def test_a_single_value_has_no_steps_to_draw():
    with pytest.raises(LengthError, match="at least two observations"):
        build_nulls([1.0], (2,), NullSpec())


def test_one_replicate_is_refused_before_any_draw(draws, tmp_path, capsys):
    path = tmp_path / "walk.csv"
    path.write_text("".join(f"{float(v)!r}\n" for v in WALK.values))
    assert main(["analyze", str(path), "--replicates", "1", "--seed", "1"]) == 3
    assert "replicates must be 0 or >= 2, got 1" in capsys.readouterr().err
    assert draws == []


@st.composite
def loo_cases(draw):
    orders = sorted(draw(st.sets(st.integers(2, 7), min_size=1, max_size=2)))
    d = draw(st.integers(1, 3))
    span = (max(orders) - 1) * d + 1
    size = draw(st.integers(span, span + 25))
    # steps from a few integers: walks tie often, and rare patterns leave
    # some walk alone with a pattern, which the smoothing rule must cover
    steps = draw(st.lists(st.integers(-2, 2).map(float), min_size=size - 1,
                          max_size=size - 1))
    mode = draw(st.sampled_from(["stable", "strict", "jitter"]))
    replicates = draw(st.integers(2, 12))
    walks = draw(st.integers(1, 15))  # ceil(L / N), below or above the replicates
    smoothing = draw(st.sampled_from([0.5, 1.0]))
    seed = draw(st.integers(0, 2**32 - 1))
    return (np.concatenate(([0.0], np.cumsum(steps))), tuple(orders), d, mode, replicates,
            walks, smoothing, seed)


@given(loo_cases())
@settings(max_examples=150, deadline=None)
def test_each_band_walk_is_scored_against_the_pool_without_it(case):
    values, orders, d, mode, replicates, walks, smoothing, seed = case
    policy = TiePolicy(mode, jitter_scale=0.3 if mode == "jitter" else 0.0)
    spec = NullSpec(walk_length=walks * values.size)
    drawn, block_ranks = [], patterns._block_ranks

    def recorded(z, *args):
        drawn.append(z.copy())  # the walk values as drawn (and jittered)
        return block_ranks(z, *args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(patterns, "_block_ranks", recorded)
        got = _nulls_and_bands(values, orders, spec, seed, d, policy, replicates, smoothing)
    rows = max(replicates, walks)
    walk_values = np.concatenate(drawn)  # every walk is one block's row here
    assert walk_values.shape == (rows, values.size)
    # every order counted from the walks themselves, not folded from the top
    per_walk = {n: np.array([np.bincount(row, minlength=_FACT[n]) for row in ranks])
                for n, ranks in _lag_ranks(walk_values, orders, d)}
    for n, (null, band) in zip(orders, got):
        counts = per_walk[n]
        pool, windows = counts.sum(axis=0), values.size - (n - 1) * d
        assert null.sample_count == rows * windows == pool.sum()
        assert band.shape == (replicates,)
        # the classes every walk of i.i.d. steps makes equally likely; a
        # walk plus noise keeps only the reverse-complement pairs
        ids = (equivalence_classes(n) if 3 <= n <= 5 and mode != "jitter"
               else rc_closure(n)).ids
        for row, kl in zip(counts, band):
            rest = pool - row  # averaged within classes; the walk's own row is not
            rest_mean = (np.bincount(ids, rest) / np.bincount(ids))[ids]
            p = PatternDistribution(n, row / windows, "empirical", windows)
            q = PatternDistribution(n, rest_mean / rest.sum(), "model", int(rest.sum()))
            assert kl == kl_divergence(p, q, smoothing)
