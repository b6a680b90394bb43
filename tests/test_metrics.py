"""Metric definitions: entropy, divergence, class spread, momentum."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ordinalwalk import (
    MetricReport,
    OrderMismatchError,
    OrdinalPattern,
    PatternDistribution,
    RangeError,
    SupportError,
    empirical_distribution,
    equivalence_classes,
    g_statistic,
    kl_divergence,
    missing_pattern_count,
    momentum_epsilon,
    permutation_entropy,
)


def _dist(n, weights, kind="empirical", count=100):
    return PatternDistribution(n, np.asarray(weights, float), kind, count)


def _point_mass(n, rank=0):
    w = np.zeros([2, 2, 6, 24, 120][n - 1] if n <= 5 else None)
    w[rank] = 1.0
    return _dist(n, w)


def test_entropy_uniform_is_one():
    assert permutation_entropy(PatternDistribution.uniform(4)) == pytest.approx(1.0)


def test_entropy_point_mass_is_zero():
    assert permutation_entropy(_point_mass(3)) == 0.0


def test_entropy_example_two_atoms():
    # two equal atoms among 3! patterns: H = 1 bit over log2(6)
    w = np.zeros(6)
    w[0] = w[3] = 0.5
    assert permutation_entropy(_dist(3, w)) == pytest.approx(1.0 / np.log2(6))


def test_missing_count():
    assert missing_pattern_count(_point_mass(4)) == 23
    assert missing_pattern_count(PatternDistribution.uniform(4)) == 0


def test_kl_self_is_zero():
    d = empirical_distribution([3.0, 1.0, 2.0, 5.0, 4.0, 0.0], 3)
    assert kl_divergence(d, d, 0.0) == 0.0


def test_kl_order_mismatch():
    with pytest.raises(OrderMismatchError):
        kl_divergence(PatternDistribution.uniform(3), PatternDistribution.uniform(4))


def test_kl_negative_smoothing_rejected():
    with pytest.raises(RangeError):
        kl_divergence(PatternDistribution.uniform(3), PatternDistribution.uniform(3), -1.0)


def test_kl_unsupported_without_smoothing():
    p = _point_mass(3, rank=0)
    q = _dist(3, [0.0, 0.5, 0.5, 0.0, 0.0, 0.0], "model", 10)
    with pytest.raises(SupportError):
        kl_divergence(p, q, 0.0)
    # pseudocounts rescue a sampled q
    assert kl_divergence(p, q, 1.0) > 0.0


def test_kl_smoothing_never_touches_exact_models():
    p = _point_mass(3, rank=0)
    q = _dist(3, [0.0, 0.5, 0.5, 0.0, 0.0, 0.0], "model", 0)  # exact zeros
    with pytest.raises(SupportError):
        kl_divergence(p, q, 1.0)


def test_kl_smoothing_formula():
    # q sampled from 10 windows, counts (5, 5, 0, 0, 0, 0), alpha = 1:
    # q~ = (counts + 1) / (10 + 6)
    p = _dist(3, [0.0, 0.0, 1.0, 0.0, 0.0, 0.0])
    q = _dist(3, [0.5, 0.5, 0.0, 0.0, 0.0, 0.0], "model", 10)
    expected = np.log2(16.0 / 1.0) / np.log2(6.0)
    assert kl_divergence(p, q, 1.0) == pytest.approx(expected, rel=1e-12)


def test_g_statistic_zero_when_classes_flat():
    table = equivalence_classes(3)
    w = np.array([0.3, 0.1, 0.1, 0.15, 0.15, 0.2])  # equal within each class
    assert g_statistic(_dist(3, w), table) == pytest.approx(0.0, abs=1e-15)


def test_g_statistic_counts_spread():
    table = equivalence_classes(3)
    w = np.array([0.3, 0.2, 0.0, 0.15, 0.15, 0.2])
    # class {132, 213} has mean 0.1, deviations 0.1 + 0.1
    assert g_statistic(_dist(3, w), table) == pytest.approx(0.2, abs=1e-12)


def test_g_statistic_order_mismatch():
    with pytest.raises(OrderMismatchError):
        g_statistic(PatternDistribution.uniform(4), equivalence_classes(3))


def test_momentum_epsilon_example():
    # p(123...) = 0.2, p(12) = 0.55, n = 4: eps_up = 0.2 - 0.55^3
    w4 = np.zeros(24)
    w4[0] = 0.2
    w4[-1] = 0.8
    d2 = _dist(2, [0.55, 0.45])
    eps = momentum_epsilon(_dist(4, w4), d2, "up")
    assert eps == pytest.approx(0.2 - 0.55 ** 3, abs=1e-15)
    assert momentum_epsilon(_dist(4, w4), d2, "down") == pytest.approx(
        0.8 - 0.45 ** 3, abs=1e-15)


def test_momentum_requires_order_two():
    with pytest.raises(OrderMismatchError):
        momentum_epsilon(PatternDistribution.uniform(4),
                         PatternDistribution.uniform(3), "up")


def test_momentum_direction_validated():
    with pytest.raises(RangeError):
        momentum_epsilon(PatternDistribution.uniform(4),
                         PatternDistribution.uniform(2), "sideways")


def test_report_json_field_names():
    report = MetricReport(
        n=4, permutation_entropy=0.9, missing_count=3, kl_to_model=0.01,
        g_statistic=0.005, epsilon_up=0.001, epsilon_down=-0.001,
        kl_band_mean=0.01, kl_band_std=0.002, classes_source="reference",
        model="associated(walk_length=auto)", seed=7,
    )
    doc = report.to_json_dict()
    assert set(doc) == {
        "n", "permutation_entropy", "missing_count", "kl_to_model",
        "g_statistic", "epsilon_up", "epsilon_down", "kl_band_mean",
        "kl_band_std", "classes_source", "model", "seed",
    }
    assert doc["seed"] == 7


random_dists = st.integers(3, 5).flatmap(
    lambda n: st.lists(
        st.floats(1e-6, 1.0), min_size=[6, 24, 120][n - 3],
        max_size=[6, 24, 120][n - 3],
    ).map(lambda raw: PatternDistribution(
        n, np.asarray(raw) / np.sum(raw), "empirical", 1000))
)


class TestEntropyDivergenceIdentity:
    """1 - PE equals the normalized divergence from the uniform mix."""

    @given(random_dists)
    def test_identity(self, dist):
        uniform = PatternDistribution.uniform(dist.order)
        lhs = 1.0 - permutation_entropy(dist)
        rhs = kl_divergence(dist, uniform, 0.0)
        assert abs(lhs - rhs) < 1e-12

    @given(random_dists)
    def test_entropy_in_unit_interval(self, dist):
        assert 0.0 <= permutation_entropy(dist) <= 1.0 + 1e-12


class TestSmoothingRule:
    """One rule for every divergence: q as given where it supports p, and
    pseudocounts only for the rows a sampled q leaves unsupported."""

    # q sampled from 8 windows: counts (4, 2, 2, 0, 0, 0)
    Q = _dist(3, [0.5, 0.25, 0.25, 0.0, 0.0, 0.0], "model", 8)
    ROWS = np.array([
        [0.5, 0.5, 0.0, 0.0, 0.0, 0.0],     # supported
        [0.0, 0.0, 0.0, 1.0, 0.0, 0.0],     # not supported
        [0.25, 0.25, 0.5, 0.0, 0.0, 0.0],   # supported
    ])

    def test_rows_smoothed_only_where_unsupported(self):
        from ordinalwalk.metrics import _kl_rows

        got = _kl_rows(self.ROWS, self.Q, 1.0)
        assert got[0] == 0.5 / np.log2(6.0)  # 0.5 log2(1) + 0.5 log2(2)
        for i in (0, 2):
            assert got[i] == kl_divergence(_dist(3, self.ROWS[i]), self.Q, 0.0)
        pseudo = (self.Q.weights * 8 + 1.0) / (8 + 1.0 * 6)
        assert got[1] == np.log2(1.0 / pseudo[3]) / np.log2(6.0)
        assert got[1] == kl_divergence(_dist(3, self.ROWS[1]), self.Q, 1.0)

    def test_exact_null_or_zero_smoothing_raises(self):
        from ordinalwalk.metrics import _kl_rows

        exact = _dist(3, self.Q.weights, "model", 0)
        with pytest.raises(SupportError):
            _kl_rows(self.ROWS, exact, 1.0)
        with pytest.raises(SupportError):
            _kl_rows(self.ROWS, self.Q, 0.0)
        with pytest.raises(SupportError):
            kl_divergence(_dist(3, self.ROWS[1]), exact, 1.0)
        # an exact null that supports every row needs no smoothing
        assert np.array_equal(_kl_rows(self.ROWS[[0, 2]], exact, 1.0),
                              _kl_rows(self.ROWS[[0, 2]], self.Q, 0.0))

    def test_supported_sampled_null_is_not_smoothed(self):
        p = _dist(3, self.ROWS[0])
        assert kl_divergence(p, self.Q, 1.0) == kl_divergence(p, self.Q, 0.0)
