"""windowed_run runs its windows on a thread pool; these tests hold it to
the one-window-at-a-time loop it replaced, result for result and error
for error."""

import os
import sys
import time

import numpy as np
import pytest

from ordinalwalk import analysis, classes, patterns
from ordinalwalk import (
    AnalysisConfig,
    GeneratorSpec,
    NullSpec,
    StepModel,
    TieError,
    TiePolicy,
    TimeSeries,
    WindowSpec,
    analyze_run,
    emit,
    generate,
    windowed_run,
)


def _one_at_a_time(series, wspec, config):
    values = np.asarray(series, dtype=np.float64)
    w, s = wspec.window_length, wspec.stride
    return [analyze_run(TimeSeries(values[start:start + w]), config, window_start=start + 1)
            for start in range(0, values.size - w + 1, s)]


def _assert_same(got, want):
    assert [r.window_start for r in got] == [r.window_start for r in want]
    for format in ("json", "plotdata"):
        assert emit(got, format) == emit(want, format)


def _tied_walk(size, seed):
    steps = np.random.default_rng(seed).integers(-2, 3, size - 1)
    return np.concatenate(([0.0], np.cumsum(steps))).astype(float)


_POLICIES = [None, TiePolicy("strict"), TiePolicy("jitter", jitter_scale=0.3)]


@pytest.mark.parametrize("policy", _POLICIES, ids=["stable", "strict", "jitter"])
def test_pool_matches_one_window_at_a_time(policy):
    # strict ties need a series without repeats; the others get ties
    if policy is not None and policy.mode == "strict":
        series = generate(GeneratorSpec("walk", 900, seed=3, step=StepModel.uniform(0.6))).values
    else:
        series = _tied_walk(900, 3)
    config = AnalysisConfig(orders=(3, 5), policy=policy, replicates=20,
                            null=NullSpec(walk_length=20_000), seed=5)
    wspec = WindowSpec(200, 70)  # 11 windows, more than this host's cores
    _assert_same(windowed_run(series, wspec, config), _one_at_a_time(series, wspec, config))


def test_pool_matches_one_window_at_a_time_under_a_parametric_null():
    series = _tied_walk(700, 4)
    config = AnalysisConfig(orders=(3, 4), replicates=10, seed=2,
                            null=NullSpec(StepModel.uniform(0.55), samples=5_000))
    wspec = WindowSpec(150, 100)
    _assert_same(windowed_run(series, wspec, config), _one_at_a_time(series, wspec, config))


def test_pool_raises_the_first_failing_windows_error():
    # strict ties: the tied windows raise as the loop's first failure does
    walk = generate(GeneratorSpec("walk", 600, seed=3, step=StepModel.uniform(0.6)))
    series = walk.values.copy()
    series[300] = series[302]
    config = AnalysisConfig(orders=(3,), policy=TiePolicy("strict"), replicates=0,
                            null=NullSpec(walk_length=5_000))
    wspec = WindowSpec(100, 50)
    with pytest.raises(TieError) as want:
        _one_at_a_time(series, wspec, config)
    with pytest.raises(TieError) as got:
        windowed_run(series, wspec, config)
    assert str(got.value) == str(want.value)


def test_pool_raises_in_start_order_not_finishing_order(monkeypatch):
    # windows 2 and 4 fail; window 2 fails last, and its error is the one raised
    run = analysis.analyze_run

    def failing(series, config, window_start=1):
        if window_start in (11, 31):
            time.sleep(0.3 if window_start == 11 else 0.0)
            raise ValueError(f"window {window_start}")
        return run(series, config, window_start)

    monkeypatch.setattr(analysis, "analyze_run", failing)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4)), raising=False)
    config = AnalysisConfig(orders=(3,), replicates=0, null=NullSpec(walk_length=2_000))
    with pytest.raises(ValueError, match=r"^window 11$"):
        windowed_run(np.arange(60.0) % 7, WindowSpec(20, 10), config)


def test_pool_with_more_threads_than_cores_and_cold_caches(monkeypatch):
    # eight threads on fresh class and symmetry caches, switching often:
    # every window must still equal its one-at-a-time result
    series = _tied_walk(1_000, 6)
    config = AnalysisConfig(orders=(3, 4, 5, 6), replicates=10, seed=1,
                            null=NullSpec(walk_length=5_000))
    wspec = WindowSpec(120, 60)
    want = _one_at_a_time(series, wspec, config)
    for cached in (classes.equivalence_classes, classes.rc_closure, patterns._symmetry_ranks,
                   patterns._patterns):
        cached.cache_clear()
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        started = time.perf_counter()
        got = windowed_run(series, wspec, config)
    finally:
        sys.setswitchinterval(interval)
    assert time.perf_counter() - started < 60
    _assert_same(got, want)
