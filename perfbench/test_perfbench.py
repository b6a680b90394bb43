"""Tests of the benchmark's own reference counter and tracer.

Run with: python3 -m pytest perfbench
"""

import itertools
import math
import sys
import types

import numpy as np

import reference
import tracer


def _brute_words(values, n):
    out = []
    for t in range(len(values) - n + 1):
        window = values[t:t + n]
        order = sorted(range(n), key=lambda i: (window[i], i))
        word = [0] * n
        for rank, i in enumerate(order, start=1):
            word[i] = rank
        out.append("".join(map(str, word)))
    return out


def test_hand_worked_patterns():
    assert reference.pattern_of((1.2, 3.4, 0.5)) == "231"
    assert reference.pattern_of((1, 1, 0)) == "231"  # earlier tie ranks lower
    assert reference.pattern_of((5, 5, 5, 5)) == "1234"
    assert reference.pattern_of((4, 3, 2, 1)) == "4321"


def test_words_are_lexicographic():
    for n in range(2, 6):
        words = reference.pattern_words(n)
        assert list(words) == sorted(words)
        assert len(set(words)) == math.factorial(n)


def test_counts_match_brute_force_with_ties():
    values = np.random.default_rng(3).integers(0, 4, 300).astype(float)
    for n in range(2, 7):
        words = reference.pattern_words(n)
        expected = np.zeros(math.factorial(n), dtype=np.int64)
        for w in _brute_words(list(values), n):
            expected[words.index(w)] += 1
        assert np.array_equal(reference.pattern_counts(values, n), expected)


def test_epsilons_of_monotone_series():
    up = np.arange(10.0)
    c4 = reference.pattern_counts(up, 4)
    c2 = reference.pattern_counts(up, 2)
    assert reference.epsilons(c4, c2, 4) == (0.0, 0.0)


def test_tracer_reports_missing_names_as_absent():
    mod = types.ModuleType("fake_layer_mod")
    mod.present = lambda x: x + 1
    sys.modules["fake_layer_mod"] = mod
    try:
        spec = (("fake_layer_mod", "present", "layer.present", None),
                ("fake_layer_mod", "gone", "layer.gone", None))
        t = tracer.Tracer(spec)
        with t.installed(op=0):
            assert mod.present(1) == 2
        assert mod.present.__name__ == "<lambda>"  # original restored
        assert t.absent == ["layer.gone"]
        assert t.layers["layer.present"]["calls"] == 1
    finally:
        del sys.modules["fake_layer_mod"]
