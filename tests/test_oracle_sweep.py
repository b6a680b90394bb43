"""The quadrature sweep against an exact per-pattern sweep.

`reference_sweep` keeps the cut geometry of the earlier per-pattern
`nullmodels._oracle_sweep`: for every pattern in every column chunk it
rebuilds the pattern's lower and upper bounds from the n-1 cut points and
counts cells twice. It sums each column's doubled cells per share
denominator as integers and rounds each volume once from the exact
fraction. The current sweep goes by rows: it sums a row's strictly
ordered intervals from cumulative table sums and reads only tied columns
ordering by ordering. It must return the same volumes, bit for bit,
including at b where prefix sums tie exactly at cell centers and the tie
shares (1/2, 1/3, ...) come into play, and at any chunk size.
"""

import math
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ordinalwalk import nullmodels
from ordinalwalk.nullmodels import (
    _SNAP_SUM,
    _count_below,
    _oracle_sweep,
    _prefix_chunks,
)
from ordinalwalk.patterns import _FACT, _symmetry_ranks, lex_unrank


def reference_sweep(n: int, b: float, resolution: int) -> np.ndarray:
    """Quadrature volumes of all n! pattern regions in [b-1, b]^(n-1).

    Midpoint rule with resolution cells per axis; the last axis is counted
    analytically per column, so cost grows as resolution^(n-2) columns.
    A column whose prefix sums tie at the cell center spreads its mass
    equally over every ordering the non-tied pairs admit (normalized per
    column, so the volumes always total exactly 1). Error is
    O(1/resolution) from cells straddling the boundary hyperplanes;
    everything else is exact: doubled cells are summed as integers per
    share denominator, and each volume is rounded once from the fraction.
    """
    mids = (b - 1.0) + (np.arange(resolution) + 0.5) / resolution
    words = [lex_unrank(n, r).word for r in range(_FACT[n])]
    prefixes = [lex_unrank(n - 1, r).word for r in range(_FACT[n - 1])]
    prefix_index = {pword: u for u, pword in enumerate(prefixes)}
    prefix_of = [
        prefix_index[tuple(r - (r > word[n - 1]) for r in word[: n - 1])]
        for word in words
    ]
    exact = [Fraction(0)] * _FACT[n]
    for z in _prefix_chunks(resolution, n, mids, 1 << 17):
        k = z.shape[0]
        pair_tie = {}
        pair_pos = {}
        for a in range(n - 1):
            for c in range(a + 1, n - 1):
                d = z[:, c] - z[:, a]
                pair_tie[a, c] = np.abs(d) <= _SNAP_SUM
                pair_pos[a, c] = d > 0
        share = np.empty((len(prefixes), k), dtype=np.int64)
        for u, pword in enumerate(prefixes):
            ind = np.ones(k, dtype=np.int64)
            for a in range(n - 1):
                for c in range(a + 1, n - 1):
                    match = pair_pos[a, c] == (pword[c] > pword[a])
                    ind = ind * np.where(pair_tie[a, c], 1, match)
            share[u] = ind
        # each column gives a share 1/denominator to every ordering it admits
        denominator = share.sum(axis=0)
        z_last = z[:, n - 2]
        for rank, word in enumerate(words):
            weight = share[prefix_of[rank]]
            if not weight.any():
                continue
            lo = np.full(k, -np.inf)
            hi = np.full(k, np.inf)
            for a in range(n - 1):
                cut = z[:, a] - z_last
                if word[a] < word[n - 1]:
                    lo = np.maximum(lo, cut)
                else:
                    hi = np.minimum(hi, cut)
            lo_grid = (lo - (b - 1.0)) * resolution - 0.5
            hi_grid = (hi - (b - 1.0)) * resolution - 0.5
            cells = _count_below(hi_grid, resolution) - _count_below(lo_grid, resolution)
            doubled = weight * (2 * np.maximum(cells, 0.0)).astype(np.int64)
            for den in np.unique(denominator[weight > 0]):
                exact[rank] += Fraction(int(doubled[denominator == den].sum()), int(den))
    acc = np.array([float(v / (2 * resolution ** (n - 1))) for v in exact])
    acc.setflags(write=False)
    return acc


def _assert_same_bits(n, b, resolution):
    expected = reference_sweep(n, b, resolution)
    got = _oracle_sweep.__wrapped__(n, b, resolution)
    assert got.tobytes() == expected.tobytes(), (n, b, resolution)


@st.composite
def sweeps(draw):
    n = draw(st.sampled_from((3, 4, 5)))
    resolution = draw(st.integers(2, 40))
    # with 2(1-b)*resolution integral, two steps' cell centers cancel, so
    # prefix sums tie; odd values also put a cell center at 0 (three-way ties)
    tie = st.integers(1, 2 * resolution - 1).map(lambda m: 1.0 - m / (2 * resolution))
    free = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
    return n, draw(st.one_of(tie, free)), resolution


@settings(max_examples=100, deadline=None)
@given(sweeps())
def test_sweep_matches_reference_bit_for_bit(case):
    _assert_same_bits(*case)


@st.composite
def chunked_sweeps(draw):
    n = draw(st.sampled_from((3, 4, 5)))
    resolution = draw(st.integers(2, (60, 30, 12)[n - 3]))
    # odd m puts a cell center at 0, so at n >= 4 three prefix values tie
    # and a column's share can be 1/3 or 1/6
    odd = st.integers(0, resolution - 1).map(lambda i: 1.0 - (2 * i + 1) / (2 * resolution))
    free = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
    chunk = draw(st.integers(1, resolution ** (n - 2)))
    return n, draw(st.one_of(odd, free)), resolution, chunk


@settings(max_examples=100, deadline=None)
@given(chunked_sweeps())
def test_sweep_bytes_do_not_depend_on_the_chunk(case):
    n, b, resolution, chunk = case
    whole = _oracle_sweep.__wrapped__(n, b, resolution)
    with mock.patch.object(nullmodels, "_SWEEP_CHUNK", chunk):
        chunked = _oracle_sweep.__wrapped__(n, b, resolution)
    assert chunked.tobytes() == whole.tobytes(), case


def test_sweep_matches_reference_across_chunks():
    # 400^2 columns span two chunks; a cell center sits at 0 for this b
    _assert_same_bits(4, 0.74875, 400)


def test_sweep_matches_reference_at_a_near_tie():
    # one cell center lies 7.5e-10 above 0, so that prefix sum ties with the
    # origin, yet its cut lands across the snap edge from the origin's and
    # counts differently; each tied ordering must read the counts in its
    # own order (sorting the counts would give both orderings the same cells)
    _assert_same_bits(3, 0.5005 + 7.5e-10, 1000)


def test_sweep_matches_reference_over_several_chunks_at_a_free_b():
    # 600^2 columns span three chunks; a golden-ratio b, as the benchmark
    # draws, ties no prefix sums, so every column reads its prefix order
    _assert_same_bits(4, 0.3819660112501051, 600)


def test_sweep_matches_reference_where_three_values_tie():
    # b = 1 - 33/104 puts a cell center at 0, so a zero step ties three
    # prefix values and shares a third, which no float sum holds exactly
    _assert_same_bits(5, 1.0 - 33 / 104, 52)


def test_sweep_matches_reference_where_every_tie_is_a_pair():
    # b = 1 - 34/104 ties only two-step sums: prefix values 0 and 2, and 1
    # and 3, each in pairs, so every share is 1/2 or 1/4
    _assert_same_bits(5, 1.0 - 34 / 104, 52)


def test_sweep_matches_reference_when_blocks_split_tied_rows():
    # a chunk of 7 splits the row list and every tied row's 52 or 400
    # columns across blocks: zero steps tie three prefix values at n = 5,
    # and at n = 4 a cell center sits at 0
    with mock.patch.object(nullmodels, "_SWEEP_CHUNK", 7):
        _assert_same_bits(5, 1.0 - 33 / 104, 52)
        _assert_same_bits(4, 0.74875, 400)


def test_sweep_memory_stays_bounded_on_tied_rows():
    # b = 1 - 99/400 ties a step at digit 49, so about 3 in 200 rows are tied
    # at every column; their columns are read in blocks, so the traced peak
    # (about 7 MiB) stays under the 19.9 MiB of the column-by-column sweep
    tracemalloc.start()
    try:
        _oracle_sweep.__wrapped__(5, 1.0 - 99 / 400, 200)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 19.8 * 2**20, peak


@pytest.mark.parametrize("b", (0.3819660112501051, 0.6180339887))
def test_sweep_at_benchmark_scale_is_whole_and_symmetric(b):
    # the benchmark's order and resolution: the volumes total 1, and
    # reversing the steps maps each pattern's cells onto its
    # reverse-complement's, so the two volumes agree bit for bit
    volumes = _oracle_sweep.__wrapped__(4, b, 2000)
    assert abs(math.fsum(volumes) - 1.0) <= 1e-15
    partner = _symmetry_ranks(4, "reverse_complement")
    assert volumes[partner].tobytes() == volumes.tobytes()
