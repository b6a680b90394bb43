"""The associated null and the bootstrap band are one kind of draw, ranked
as the series is: at the run's delay, jittered under a jitter policy, and
with stable ties otherwise, since a strict tie rule binds only the series.
Step-law nulls stay at delay 1 with no jitter."""

import numpy as np
import pytest

from ordinalwalk import (
    GeneratorSpec,
    NullSpec,
    RangeError,
    StepModel,
    TieError,
    TiePolicy,
    build_nulls,
    generate,
    kl_to_null,
    monte_carlo_distribution,
)
from ordinalwalk.analysis import AnalysisConfig, analyze
from ordinalwalk.cli import main
from ordinalwalk.nullmodels import _nulls_and_bands

JITTER = TiePolicy("jitter", jitter_scale=0.01)


def _write(tmp_path, values):
    path = tmp_path / "series.csv"
    path.write_text("\n".join(repr(float(v)) for v in values) + "\n")
    return path


def _alternating(size=401):
    # steps +3, -1, +3, ...: no tie in any window of up to 5 values, but
    # walks resampled from those steps tie often
    return np.concatenate(([0.0], np.cumsum(np.resize([3.0, -1.0], size - 1))))


def test_strict_ties_bind_only_the_series(tmp_path, capsysbinary):
    path = _write(tmp_path, _alternating())
    argv = ["analyze", str(path), "--ties", "strict", "--seed", "1", "--format", "csv"]
    assert main([*argv, "--replicates", "50"]) == 0
    out = capsysbinary.readouterr().out.decode().splitlines()
    assert [line.split(",")[1] for line in out[1:]] == ["4", "5"]
    assert all(line.split(",")[4] for line in out[1:])  # a band was drawn


def test_strict_ties_still_reject_a_tied_series(tmp_path, capsys):
    values = _alternating()
    values[200] = values[201]
    path = _write(tmp_path, values)
    code = main(["analyze", str(path), "--ties", "strict", "--seed", "1",
                 "--replicates", "50", "--format", "csv"])
    assert code == 2
    assert "data error: window contains duplicate values (strict ties)" in capsys.readouterr().err


def _band(series, orders, spec, replicates, policy=None, seed=3):
    (_, band), = _nulls_and_bands(series, orders, spec, seed, 1, policy, replicates, 1.0, seed)
    return band


def test_band_ranks_its_walks_with_stable_ties():
    # steps +3, -1, -1, -1 return a walk to its start within an order-5 window
    series = _alternating()
    for spec in (NullSpec(walk_length=20_000), NullSpec(StepModel.uniform(0.6), samples=500)):
        strict = _band(series, (5,), spec, 20, policy=TiePolicy("strict"))
        assert strict.tobytes() == _band(series, (5,), spec, 20).tobytes()


def test_associated_null_takes_the_run_delay():
    # at delay 3 the series used to be held against a null ranked at
    # delay 1: kl_to_model 0.097 at n = 3, band mean 0.100
    walk = generate(GeneratorSpec("walk", 20_000, seed=3, step=StepModel.uniform(0.7)))
    for report in analyze(walk, AnalysisConfig(orders=(3, 4), delay=3, seed=1,
                                               replicates=100)):
        assert report.kl_to_model < 1e-3
        assert report.kl_band_mean < 1e-3
        assert abs(report.kl_to_model - report.kl_band_mean) < 6 * report.kl_band_std


def test_associated_null_takes_the_run_jitter():
    # 38 % zero steps: ranked with stable ties they count as ascents in the
    # null but not in the jittered series (kl_to_model used to be 0.113)
    walk = np.cumsum(np.round(np.random.default_rng(4).normal(size=20_000)))
    for report in analyze(walk, AnalysisConfig(orders=(3, 4), policy=JITTER, seed=1,
                                               replicates=100)):
        assert report.kl_to_model < 1e-3
        assert report.kl_band_mean < 1e-3
        assert abs(report.kl_to_model - report.kl_band_mean) < 6 * report.kl_band_std


def test_kl_to_null_forwards_delay_and_ties():
    walk = generate(GeneratorSpec("walk", 5000, seed=3, step=StepModel.uniform(0.7)))
    assert kl_to_null(walk, 3, seed=1, d=3) < 2e-3
    tied = np.cumsum(np.round(np.random.default_rng(4).normal(size=5000)))
    assert kl_to_null(tied, 4, seed=1, policy=TiePolicy("jitter", 0.01, seed=2)) < 5e-3
    with pytest.raises(TieError):  # strict still binds the series
        kl_to_null(tied, 4, seed=1, policy=TiePolicy("strict"))


def test_step_law_nulls_stay_at_delay_one_without_jitter():
    spec = NullSpec(StepModel.uniform(0.6), samples=2000)
    plain = build_nulls([0.0, 1.0], (3, 5), spec, seed=4)
    ranked = build_nulls([0.0, 1.0], (3, 5), spec, seed=4, d=3, policy=JITTER)
    for a, b in zip(plain, ranked):
        assert a.distribution.weights.tobytes() == b.distribution.weights.tobytes()
        assert a.sample_count == b.sample_count == 2000


def test_monte_carlo_takes_every_seed_type():
    model = StepModel.empirical([-1.0, 0.0, 0.0, 2.0])
    by_int = monte_carlo_distribution(model, 4, 999, seed=3).weights.tobytes()
    for seed in (np.random.SeedSequence(3), np.random.default_rng(3)):
        assert monte_carlo_distribution(model, 4, 999, seed).weights.tobytes() == by_int


def test_band_walks_that_overflow_raise_one_error():
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(RangeError, match="^series values must be finite$"):
            _band([0.0, 9e307, 0.0], (3,), NullSpec(StepModel.uniform(0.6), closed_form=True), 50)
