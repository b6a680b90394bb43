"""One integer rule.

Every integer argument but an order (patterns._check_order) is checked by
patterns._check_int: an integer of any integer type passes as an int, and a
bool, a float (never truncated), a string or a value below the argument's
bound raises the argument's typed error. tests/test_refusals.py holds the
refusals; these tests hold that numpy integers give what ints give.
"""

import json
import re
from fractions import Fraction

import numpy as np
import pytest

from ordinalwalk import (
    AnalysisConfig,
    EquivalenceClassTable,
    GeneratorSpec,
    NullSpec,
    OrdinalPattern,
    PatternDistribution,
    RangeError,
    SpecError,
    StepModel,
    TiePolicy,
    WindowSpec,
    analyze_run,
    build_null,
    build_nulls,
    emit,
    empirical_distribution,
    generate,
    ingest_csv,
    lex_unrank,
    monte_carlo_distribution,
    pattern_counts,
    rc_closure,
    volume_oracle,
    windowed_run,
)
from ordinalwalk.patterns import _check_int

X = np.cumsum(np.random.default_rng(0).uniform(-0.4, 0.6, 60))
UNIFORM = StepModel.uniform(0.6)
QUICK = AnalysisConfig(orders=(3,), null=NullSpec(walk_length=600), replicates=0)

#: what each integer argument gives, called with integers of a given type
SITES = {
    "delay": lambda i: empirical_distribution(X, 3, i(2)).weights.tobytes(),
    "analysis delay, replicates and seed": lambda i: emit(analyze_run(X, AnalysisConfig(
        orders=(3,), delay=i(2), null=NullSpec(walk_length=i(600)), replicates=i(3),
        seed=i(1)))),
    "window length and stride": lambda i: emit(windowed_run(X, WindowSpec(i(30), i(15)), QUICK)),
    "jitter seed": lambda i: pattern_counts(X, (3,), policy=TiePolicy("jitter", 0.1, i(4)))[3],
    "samples and seed": lambda i: monte_carlo_distribution(UNIFORM, 3, i(50), i(2)).weights,
    "recorded seed": lambda i: json.dumps(
        build_null(X, 3, NullSpec(UNIFORM, samples=50), i(2)).to_json_dict(), sort_keys=True),
    "generator length and seed": lambda i: generate(GeneratorSpec("walk", i(20), i(3),
                                                                  UNIFORM)).values,
    "pattern values": lambda i: repr(OrdinalPattern((i(2), i(3), i(1)))),
    "order and sample count": lambda i: repr(PatternDistribution(i(2), [0.5, 0.5], "model",
                                                                 i(7))),
    "class ranks": lambda i: EquivalenceClassTable(
        3, [[i(r) for r in g] for g in rc_closure(3).classes], "rc_closure").classes,
    "rank": lambda i: repr(lex_unrank(3, i(4))),
    "resolution": lambda i: volume_oracle(OrdinalPattern((1, 3, 2)), UNIFORM, i(40)),
}


@pytest.mark.parametrize("kind", [np.int64, np.int32, np.uint16])
@pytest.mark.parametrize("site", SITES)
def test_numpy_integers_give_what_ints_give(site, kind):
    got, expected = SITES[site](kind), SITES[site](int)
    assert repr(got) == repr(expected)  # the same values, held as the same types


@pytest.mark.parametrize("kind", [int, np.int64])
@pytest.mark.parametrize("text", ["7.0\n8.5\n9.0\n", '"7.0"\n8.5\n9.0\n'])
def test_a_numpy_column_index_reads_as_its_int(tmp_path, kind, text):
    # the fast path, and (quoted) the row parser
    path = tmp_path / "two.csv"
    path.write_text("".join(f"1.0,{line}\n" for line in text.splitlines()))
    assert ingest_csv(path, kind(1)).values.tolist() == [7.0, 8.5, 9.0]


@pytest.mark.parametrize("value, low, expected", [
    (3, None, 3), (np.int64(3), 3, 3), (np.uint8(200), 0, 200), (-5, None, -5),
])
def test_integers_pass_as_ints(value, low, expected):
    got = _check_int(value, "count", low)
    assert got == expected and type(got) is int


@pytest.mark.parametrize("value, shown", [
    (True, "True"), (np.True_, "np.True_"), (4.0, "4.0"), (np.float64(2.0), "np.float64(2.0)"),
    ("3", "'3'"), (Fraction(3), "Fraction(3, 1)"), (None, "None"),
])
def test_non_integers_are_refused(value, shown):
    with pytest.raises(SpecError, match=f"^count must be an integer, got {re.escape(shown)}$"):
        _check_int(value, "count", 0, SpecError)


def test_a_value_below_its_bound_is_refused():
    with pytest.raises(RangeError, match="^count must be >= 2, got 1$"):
        _check_int(np.int64(1), "count", 2)


def test_a_small_unsigned_delay_counts_a_long_series_as_its_int():
    # 70 000 values overflow uint16 arithmetic, so the rank pass and the
    # walk sampler must compute with the int the delay check returns
    values = np.arange(70_000.0)
    got, expected = pattern_counts(values, (3,), np.uint16(2)), pattern_counts(values, (3,), 2)
    assert got[3].tolist() == expected[3].tolist()
    spec = NullSpec(walk_length=70_000)
    nulls = [build_nulls(values, (3,), spec, 1, d)[0].distribution.weights
             for d in (np.uint16(2), 2)]
    assert nulls[0].tobytes() == nulls[1].tobytes()


@pytest.mark.parametrize("seed", [np.random.SeedSequence(1), np.random.default_rng(1)],
                         ids=["SeedSequence", "Generator"])
def test_an_analysis_seed_is_an_int(seed):
    # every report records the seed, so a seed that is not an int is
    # refused where it is given, not when the run derives its streams
    with pytest.raises(RangeError, match="^seed must be an integer, got "):
        AnalysisConfig(seed=seed)
