"""Every per-order table comes from one word array per order, _words(n),
ranked by _lag_ranks: no table builds an OrdinalPattern or calls the
one-pattern lex_rank, which stay as the public API and as the references
that these and other tests compare against."""

import itertools

import numpy as np
import pytest

from ordinalwalk import (
    AnalysisConfig,
    GeneratorSpec,
    NullSpec,
    OrdinalPattern,
    StepModel,
    analyze_run,
    emit,
    generate,
)
from ordinalwalk import classes, nullmodels, patterns
from ordinalwalk.patterns import _FACT, _pattern_strings, _patterns, _words

TABLE_CACHES = (patterns._words, patterns._patterns, patterns._pattern_strings,
                patterns._symmetry_ranks,
                classes.equivalence_classes, classes.rc_closure,
                nullmodels.closed_form_normal_zero_mean, nullmodels._oracle_sweep)


def test_tables_build_no_pattern_object(monkeypatch):
    for cached in TABLE_CACHES:
        cached.cache_clear()

    def refuse(*args):
        raise AssertionError("a table built a pattern object")

    monkeypatch.setattr(OrdinalPattern, "__post_init__", refuse)
    monkeypatch.setattr(patterns, "lex_rank", refuse)
    series = generate(GeneratorSpec("walk", 400, seed=3, step=StepModel.uniform(0.6)))
    config = AnalysisConfig(orders=(3, 4, 5, 6, 7), null=NullSpec(walk_length=4_000),
                            replicates=4, seed=1)
    lines = emit(analyze_run(series, config), "plotdata").decode().splitlines()
    assert len(lines) == 1 + sum(_FACT[n] for n in config.orders)
    # 48 words are their own reverse-complement: 3! ways to place the
    # pairs {1, 7}, {2, 6}, {3, 5} around the middle 4, times 2^3 sides
    assert len(classes.rc_closure(7)) == (5_040 + 48) // 2
    assert nullmodels.closed_form_normal_zero_mean(4).weights.size == 24
    assert nullmodels._oracle_sweep(5, 0.6, 40).size == 120


@pytest.mark.parametrize("n", range(2, 8))
def test_pattern_strings_are_the_patterns_as_strings(n):
    assert _pattern_strings(n) == tuple(map(str, _patterns(n)))


@pytest.mark.parametrize("n", range(2, 8))
def test_words_are_a_read_only_int8_table(n):
    words = _words(n)
    assert words.shape == (_FACT[n], n) and words.dtype == np.int8
    assert not words.flags.writeable
    with pytest.raises(ValueError):
        words[0, 0] = 1


@pytest.mark.parametrize("n", range(2, 8))
def test_words_equal_the_permutations_in_lex_order(n):
    want = np.array(list(itertools.permutations(range(1, n + 1))), dtype=np.int8)
    assert _words(n).tobytes() == want.tobytes() and _words(n).shape == want.shape
