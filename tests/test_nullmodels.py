"""Null models: closed forms, Monte Carlo, quadrature, associated walks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ordinalwalk import nullmodels, patterns
from ordinalwalk import (
    AnalysisConfig,
    LengthError,
    NullSpec,
    OrderError,
    OrdinalPattern,
    PatternDistribution,
    RangeError,
    StepModel,
    TiePolicy,
    TimeSeries,
    all_patterns,
    build_null,
    build_nulls,
    closed_form_normal_zero_mean,
    closed_form_uniform,
    default_walk_length,
    generate,
    GeneratorSpec,
    kl_to_null,
    lex_unrank,
    monte_carlo_distribution,
    step_sign_distribution,
    symmetry_transform,
    volume_oracle,
)

# ------------------------------------------------------------- step models

def test_step_model_validation():
    with pytest.raises(RangeError):
        StepModel.uniform(0.0)
    with pytest.raises(RangeError):
        StepModel.uniform(1.0)
    with pytest.raises(RangeError):
        StepModel.normal(0.0, 0.0)
    with pytest.raises(RangeError):
        StepModel.empirical([])
    with pytest.raises(RangeError):
        StepModel.empirical([1.0, np.nan])


def test_empirical_steps_copy_a_writable_array_and_keep_a_read_only_one():
    steps = np.array([1.0, -2.0, 0.5])
    model = StepModel.empirical(steps)
    steps[0] = 9.0  # the model holds a read-only copy
    assert model.steps.tolist() == [1.0, -2.0, 0.5] and not model.steps.flags.writeable
    steps.setflags(write=False)  # read-only, so the model keeps it rather than a copy
    assert StepModel.empirical(steps).steps is steps


def test_step_sign_distribution():
    up = step_sign_distribution(StepModel.uniform(0.65))
    assert up.weights[0] == 0.65
    centered = step_sign_distribution(StepModel.normal(0.0, 2.0))
    assert centered.weights[0] == 0.5
    emp = step_sign_distribution(StepModel.empirical([1.0, -1.0, 0.0, 2.0]))
    assert emp.weights[0] == 0.75  # zero steps count as non-decreasing


# ------------------------------------------------------------ closed forms

def test_uniform_half_matches_normal_at_order_three():
    u = closed_form_uniform(3, 0.5)
    n = closed_form_normal_zero_mean(3)
    assert list(u.weights) == list(n.weights)


def test_closed_form_orders_guarded():
    with pytest.raises(OrderError):
        closed_form_uniform(5, 0.6)
    with pytest.raises(OrderError):
        closed_form_normal_zero_mean(5)
    with pytest.raises(RangeError):
        closed_form_uniform(4, 1.0)


def test_branch_formulas_join_continuously():
    # 1432's branch below 2/3, (2 - 12b + 24b^2 - 15b^3) / 6, differs from
    # its commonly printed form; only this one totals 1 and meets the other
    lo = closed_form_uniform(4, 2.0 / 3.0 - 1e-12)
    hi = closed_form_uniform(4, 2.0 / 3.0 + 1e-12)
    assert np.max(np.abs(lo.weights - hi.weights)) < 1e-10
    for n in (3, 4):
        for b in np.linspace(0.0, 1.0, 201)[1:-1]:
            assert abs(closed_form_uniform(n, b).weights.sum() - 1.0) <= 1e-14, (n, b)


def test_normal_constants_renormalized():
    d = closed_form_normal_zero_mean(4)
    assert d.weights.sum() == pytest.approx(1.0, abs=1e-15)
    # the orthant formula gives the monotone pattern exactly 1/8
    assert d.weight_of(OrdinalPattern.from_string("1234")) == 1 / 8


class TestClosedFormInvariants:
    bs = st.floats(0.01, 0.99)

    @given(bs, st.sampled_from([3, 4]))
    def test_all_weights_positive_and_never_uniform(self, b, n):
        d = closed_form_uniform(n, b)
        assert np.all(d.weights > 0.0)
        assert np.max(np.abs(d.weights - 1.0 / d.weights.size)) > 1e-4

    @given(bs, st.sampled_from([3, 4]))
    def test_reverse_complement_symmetry(self, b, n):
        d = closed_form_uniform(n, b)
        for pat in all_patterns(n):
            rc = symmetry_transform(pat, "reverse_complement")
            assert d.weights[pat.rank] == pytest.approx(
                d.weights[rc.rank], abs=1e-15)

    @given(st.sampled_from([3, 4]))
    def test_complement_symmetry_when_steps_symmetric(self, n):
        d = closed_form_uniform(n, 0.5)
        for pat in all_patterns(n):
            comp = symmetry_transform(pat, "complement")
            assert d.weights[pat.rank] == d.weights[comp.rank]
        g = closed_form_normal_zero_mean(n)
        for pat in all_patterns(n):
            comp = symmetry_transform(pat, "complement")
            assert g.weights[pat.rank] == g.weights[comp.rank]

    @given(st.floats(0.5, 0.99), st.sampled_from([3, 4]))
    def test_monotone_weight_is_exact_power(self, b, n):
        d = closed_form_uniform(n, b)
        assert d.weights[0] == b ** (n - 1)

    @given(st.floats(0.501, 0.99), st.sampled_from([3, 4]))
    def test_ascending_run_is_unique_argmax_above_half(self, b, n):
        w = closed_form_uniform(n, b).weights
        assert np.argmax(w) == 0
        assert np.sum(w == w[0]) == 1

    @given(bs, st.sampled_from([3, 4]))
    def test_reflection_identity(self, b, n):
        lo = closed_form_uniform(n, b)
        hi = closed_form_uniform(n, 1.0 - b)
        for pat in all_patterns(n):
            comp = symmetry_transform(pat, "complement")
            assert lo.weights[pat.rank] == hi.weights[comp.rank]


def test_monotone_weights_exact_both_sides():
    for b in (0.5, 0.6, 0.85):
        for n in (3, 4):
            d = closed_form_uniform(n, b)
            assert d.weights[0] == b ** (n - 1)
            assert d.weights[-1] == (1.0 - b) ** (n - 1)


# ------------------------------------------------------------- Monte Carlo

def test_monte_carlo_matches_closed_form():
    model = StepModel.uniform(0.62)
    mc = monte_carlo_distribution(model, 4, 400_000, seed=5)
    cf = closed_form_uniform(4, 0.62)
    assert np.max(np.abs(mc.weights - cf.weights)) < 0.004
    assert mc.sample_count == 400_000


def test_monte_carlo_deterministic():
    model = StepModel.normal(0.1, 1.0)
    a = monte_carlo_distribution(model, 3, 10_000, seed=7)
    b = monte_carlo_distribution(model, 3, 10_000, seed=7)
    assert np.array_equal(a.weights, b.weights)


def test_monte_carlo_chunking_is_seamless():
    # crossing the internal chunk boundary must not skew the tally
    model = StepModel.uniform(0.5)
    big = monte_carlo_distribution(model, 3, (1 << 20) + 17, seed=1)
    assert big.weights.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.max(np.abs(big.weights - closed_form_uniform(3, 0.5).weights)) < 0.003


def test_monte_carlo_guards():
    with pytest.raises(RangeError):
        monte_carlo_distribution(StepModel.uniform(0.5), 3, 0)
    with pytest.raises(RangeError):
        monte_carlo_distribution(StepModel.uniform(0.5), 13, 100)


# -------------------------------------------------------------- quadrature

def test_oracle_reference_points():
    assert volume_oracle(OrdinalPattern.from_string("123"),
                         StepModel.uniform(0.7), 2000) == pytest.approx(0.49, abs=0.002)
    assert volume_oracle(OrdinalPattern.from_string("231"),
                         StepModel.uniform(0.5), 2000) == pytest.approx(0.125, abs=0.002)


def test_oracle_agrees_with_closed_form_order_four():
    cf = closed_form_uniform(4, 0.58)
    for pat in all_patterns(4):
        vol = volume_oracle(pat, StepModel.uniform(0.58), 300)
        assert vol == pytest.approx(cf.weights[pat.rank], abs=0.003)


def test_oracle_mass_sums_to_one():
    total = sum(volume_oracle(p, StepModel.uniform(0.63), 250) for p in all_patterns(4))
    assert total == pytest.approx(1.0, abs=1e-9)


def test_oracle_order_five_supported():
    vols = [volume_oracle(p, StepModel.uniform(0.5), 30) for p in all_patterns(5)]
    assert sum(vols) == pytest.approx(1.0, abs=1e-9)
    mc = monte_carlo_distribution(StepModel.uniform(0.5), 5, 300_000, seed=11)
    assert np.max(np.abs(np.array(vols) - mc.weights)) < 0.005


def test_oracle_guards():
    with pytest.raises(RangeError):
        volume_oracle(OrdinalPattern.from_string("123"), StepModel.normal(0.0, 1.0), 100)
    with pytest.raises(OrderError):
        volume_oracle(lex_unrank(6, 0), StepModel.uniform(0.6), 10)
    with pytest.raises(RangeError):
        volume_oracle(OrdinalPattern.from_string("123"), StepModel.uniform(0.6), 1)


@pytest.mark.parametrize("resolution", [40.7, 2.5, "40", True])
def test_oracle_resolution_must_be_an_integer(resolution):
    # a float is never truncated, and True is not the integer 1
    with pytest.raises(RangeError, match="resolution must be an integer"):
        volume_oracle(OrdinalPattern.from_string("123"), StepModel.uniform(0.6), resolution)


def test_oracle_resolution_keeps_cell_sums_exact():
    # 2 (2^26 + 1)^2 > 2^53: refused before any sweep, at n = 3
    with pytest.raises(RangeError, match=r"at most 2\^53"):
        volume_oracle(OrdinalPattern.from_string("123"), StepModel.uniform(0.6), 2**26 + 1)
    assert volume_oracle(OrdinalPattern.from_string("123"), StepModel.uniform(0.6),
                         np.int64(40)) == volume_oracle(
        OrdinalPattern.from_string("123"), StepModel.uniform(0.6), 40)


# ------------------------------------------------------ associated null

def test_default_walk_length_floor():
    assert default_walk_length(100) == 500_000
    assert default_walk_length(10_000) == 500_000
    assert default_walk_length(50_000) == 2_500_000


# ------------------------------------------------------------- divergences

def test_kl_to_null_degenerate_is_exactly_zero():
    assert kl_to_null(np.arange(60.0), 4, seed=1) == 0.0


def test_kl_to_null_orders_iid_above_walk():
    iid = generate(GeneratorSpec("iid_uniform", 1500, seed=21))
    walk = generate(GeneratorSpec("walk", 1500, seed=21, step=StepModel.uniform(0.5)))
    assert kl_to_null(iid, 4, seed=2) > kl_to_null(walk, 4, seed=2)


def test_kl_to_null_accepts_step_model_and_spec():
    walk = generate(GeneratorSpec("walk", 800, seed=4, step=StepModel.uniform(0.7)))
    against_exact = kl_to_null(walk, 4, NullSpec(StepModel.uniform(0.7), closed_form=True))
    against_mc = kl_to_null(walk, 4, NullSpec(StepModel.uniform(0.7)), seed=8)
    assert against_exact == pytest.approx(against_mc, abs=0.01)


def _bands(series, orders, replicates, seed=0, policy=None, spec=None, band_seed=None):
    # the replicate divergences per order, scored as an analysis run scores them
    return [band for _, band in nullmodels._nulls_and_bands(
        series, orders, spec or NullSpec(walk_length=50_000), seed, 1, policy, replicates,
        1.0, band_seed)]


def test_bootstrap_band_reproducible():
    series = generate(GeneratorSpec("walk", 300, seed=6, step=StepModel.uniform(0.55)))
    a, = _bands(series, (3,), 20, seed=77)
    b, = _bands(series, (3,), 20, seed=77)
    assert a.tobytes() == b.tobytes()
    assert len(a) == 20
    assert np.std(a, ddof=1) > 0.0


def test_bootstrap_band_degenerate_zero():
    band, = _bands(np.arange(40.0), (3,), 5, seed=1)
    assert band.tolist() == [0.0] * 5


def test_bootstrap_band_replicate_guard():
    # a spread needs two replicates; the config refuses one before any draw
    with pytest.raises(RangeError, match="replicates must be 0 or >= 2, got 1"):
        AnalysisConfig(replicates=1)
    with pytest.raises(RangeError):
        AnalysisConfig(replicates=-1)


def test_bootstrap_band_all_orders_match_one_at_a_time():
    series = generate(GeneratorSpec("walk", 400, seed=3, step=StepModel.uniform(0.6)))
    both = _bands(series, (3, 5), 12, seed=4)
    alone = _bands(series, (3,), 12, seed=4) + _bands(series, (5,), 12, seed=4)
    assert [band.tobytes() for band in both] == [band.tobytes() for band in alone]


def test_bootstrap_band_blocks_do_not_change_the_draws(monkeypatch):
    # the walks are drawn, ranked and scored in blocks of rows, or a walk
    # in several blocks, to bound memory; the replicate walks are the same
    # rows of one stream, and a walk's counts the same, whatever the block
    series = generate(GeneratorSpec("walk", 300, seed=8, step=StepModel.uniform(0.6)))
    given = NullSpec(StepModel.uniform(0.6), closed_form=True)
    whole = _bands(series, (4,), 7, seed=2) + _bands(series, (4,), 7, spec=given, band_seed=2)
    for chunk in (2 * 300, 70):
        monkeypatch.setattr(patterns, "_CHUNK", chunk)
        blocked = (_bands(series, (4,), 7, seed=2)
                   + _bands(series, (4,), 7, spec=given, band_seed=2))
        assert [band.tobytes() for band in blocked] == [band.tobytes() for band in whole]


def test_bootstrap_band_blocks_do_not_change_the_jitter(monkeypatch):
    # the jitter has its own stream, so it too is the same whatever the block
    series = np.repeat(generate(GeneratorSpec("walk", 150, seed=8, step=StepModel.uniform(0.6))
                                ).values, 2)
    jitter = TiePolicy("jitter", jitter_scale=0.05)
    whole, = _bands(series, (4,), 7, seed=2, policy=jitter)
    for chunk in (2 * 300, 70):
        monkeypatch.setattr(patterns, "_CHUNK", chunk)
        blocked, = _bands(series, (4,), 7, seed=2, policy=jitter)
        assert blocked.tobytes() == whole.tobytes()


def test_bootstrap_band_jitter_gives_a_spread():
    # constant steps make every replicate walk identical; the jitter must
    # differ between replicates, or the band collapses to zero width
    band, = _bands(np.arange(60.0), (3,), 5, seed=1,
                   policy=TiePolicy("jitter", jitter_scale=0.5), spec=NullSpec(walk_length=5000))
    assert np.std(band, ddof=1) > 0.0


# --------------------------------------------------------------- build_null

def test_build_null_closed_form_guards():
    with pytest.raises(OrderError):
        build_null([0.0, 1.0], 5, NullSpec(StepModel.uniform(0.6), closed_form=True))
    with pytest.raises(RangeError):
        build_null([0.0, 1.0], 4, NullSpec(StepModel.normal(0.5, 1.0), closed_form=True))


def test_build_null_associated_uses_series_steps():
    series = generate(GeneratorSpec("walk", 400, seed=2, step=StepModel.uniform(0.8)))
    model = build_null(series, 3, NullSpec(walk_length=50_000), seed=5)
    assert model.method == "monte_carlo"
    # ceil(50 000 / 400) = 125 walks of the series' 400 values, 398 windows each
    assert model.sample_count == 125 * (400 - 2)
    # a b = 0.8 walk's resampled null leans heavily on ascents
    assert model.distribution.weights[0] > 0.5


def test_build_nulls_ranks_one_associated_walk_at_every_order():
    series = generate(GeneratorSpec("walk", 300, seed=9, step=StepModel.uniform(0.7)))
    spec = NullSpec(walk_length=20_000)
    nulls = build_nulls(series, (3, 4, 6), spec, seed=5)
    assert [m.order for m in nulls] == [3, 4, 6]
    for m in nulls:
        single = build_null(series, m.order, spec, seed=5)
        assert np.array_equal(m.distribution.weights, single.distribution.weights)
        # ceil(20 000 / 300) = 67 walks of the series' 300 values
        assert m.sample_count == 67 * (300 - (m.order - 1))


def test_build_nulls_parametric_draws_once_at_the_top_order():
    # one stack of walks of the top order's length: the top order is the
    # one-order Monte Carlo draw, a lower order counts the same walks'
    # leading values rather than walks of its own
    model = StepModel.uniform(0.6)
    spec = NullSpec(model, samples=2000)
    low, top = build_nulls([0.0, 1.0], (3, 5), spec, seed=4)
    alone = monte_carlo_distribution(model, 5, 2000, seed=4)
    assert top.distribution.weights.tobytes() == alone.weights.tobytes()
    assert not np.array_equal(low.distribution.weights,
                              monte_carlo_distribution(model, 3, 2000, seed=4).weights)
    assert low.sample_count == top.sample_count == 2000
    again = build_nulls([0.0, 1.0], (3, 5), spec, seed=4)
    assert np.array_equal(again[0].distribution.weights, low.distribution.weights)


def test_associated_null_spec_has_no_closed_form():
    with pytest.raises(RangeError, match="the associated null has no closed form"):
        NullSpec(closed_form=True)
    with pytest.raises(RangeError, match="the associated null has no closed form"):
        NullSpec(None, 5000, True)


def test_null_model_json_shape():
    model = build_null([0.0, 1.0], 4, NullSpec(StepModel.uniform(0.6), closed_form=True))
    doc = model.to_json_dict()
    assert doc["family"] == "uniform_b"
    assert doc["parameters"] == {"b": 0.6}
    assert doc["method"] == "closed_form"
    assert len(doc["weights"]) == 24
    assert doc["weights"]["1234"] == pytest.approx(0.6 ** 3)
