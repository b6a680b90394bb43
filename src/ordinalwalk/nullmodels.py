"""Random-walk null models for pattern distributions.

A null model fixes an i.i.d. step law Y and asks how the walk
Z = (0, Y1, Y1+Y2, ...) distributes its ordinal patterns. Three routes to
that distribution are provided, plus the data-driven bootstrap built on
resampled steps:

closed_form_uniform            exact table, uniform steps on [b-1, b], n = 3, 4
closed_form_normal_zero_mean   orthant formulas, centered normal steps, n = 3, 4
monte_carlo_distribution       frequency over m independent simulated walks
volume_oracle                  deterministic quadrature estimate (uniform steps)
build_nulls                    the null builder: a closed form per order,
                               or one draw per run ranked at every order
kl_to_null                     divergence of a series from a chosen null

One sampler draws every walk, and every draw is counted as pattern_counts
counts a stack (patterns._counted). NullSpec states what each null draws,
how it is counted and averaged, and what its band is.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from itertools import combinations
from typing import Literal

import numpy as np

from . import patterns
from .classes import EquivalenceClassTable, _class_means, equivalence_classes, walk_classes
from .errors import LengthError, OrderError, RangeError
from .metrics import _kl_rows, kl_divergence
from .patterns import (
    _FACT,
    OrdinalPattern,
    PatternDistribution,
    TiePolicy,
    _as_values,
    _blocks,
    _check_int,
    _check_orders,
    _check_seed,
    _check_span,
    _counted,
    _fold,
    _frozen,
    _symmetry_ranks,
    _words,
    empirical_distribution,
)

# --------------------------------------------------------------------------
# step models
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class StepModel:
    """The step law Y of a random walk.

    Exactly one family is populated: uniform_b (steps uniform on [b-1, b],
    so P(Y > 0) = b), normal(mu, sigma), or an empirical multiset of
    observed steps resampled with replacement.
    """

    family: Literal["uniform_b", "normal", "empirical"]
    b: float | None = None
    mu: float | None = None
    sigma: float | None = None
    steps: np.ndarray | None = None

    def __post_init__(self):
        if self.family == "uniform_b":
            if self.b is None or not 0.0 < self.b < 1.0:
                raise RangeError(f"uniform_b needs b in (0, 1), got {self.b}")
            if self.mu is not None or self.sigma is not None or self.steps is not None:
                raise RangeError("uniform_b takes only b")
        elif self.family == "normal":
            got = f"got mu={self.mu} sigma={self.sigma}"
            if self.mu is None or self.sigma is None or not self.sigma > 0:
                raise RangeError(f"normal needs mu and sigma > 0, {got}")
            if not (math.isfinite(self.mu) and math.isfinite(self.sigma)):
                raise RangeError(f"normal needs finite mu and sigma, {got}")
            if self.b is not None or self.steps is not None:
                raise RangeError("normal takes only mu and sigma")
        elif self.family == "empirical":
            if self.steps is None:
                raise RangeError("empirical needs a step multiset")
            arr = _frozen(self.steps)
            if arr.ndim != 1 or arr.size == 0:
                raise RangeError("empirical steps must be a nonempty 1d multiset")
            if not np.isfinite(arr).all():
                raise RangeError("empirical steps must be finite")
            object.__setattr__(self, "steps", arr)
            if self.b is not None or self.mu is not None or self.sigma is not None:
                raise RangeError("empirical takes only steps")
        else:
            raise RangeError(f"unknown step family {self.family!r}")

    @classmethod
    def uniform(cls, b: float) -> "StepModel":
        return cls("uniform_b", b=float(b))

    @classmethod
    def normal(cls, mu: float, sigma: float) -> "StepModel":
        return cls("normal", mu=float(mu), sigma=float(sigma))

    @classmethod
    def empirical(cls, steps) -> "StepModel":
        return cls("empirical", steps=np.asarray(steps, dtype=np.float64))

    def _parameters(self) -> dict:
        if self.family == "uniform_b":
            return {"b": self.b}
        if self.family == "normal":
            return {"mu": self.mu, "sigma": self.sigma}
        return {"step_count": int(self.steps.size)}

    def describe(self, *extra: str) -> str:
        """"family(name=value, ...)", with any extra items appended inside."""
        items = [f"{name}={value}" for name, value in self._parameters().items()]
        return f"{self.family}({', '.join(items + list(extra))})"


def _walks(steps: np.ndarray) -> np.ndarray:
    """Walks from 0 along the last axis, one step per entry of steps, column-major.

    cumsum runs walk by walk, so when there are fewer steps per walk than
    walks the walks are summed a column at a time instead: the same
    additions in the same order, so the same values bit for bit. A sum
    that overflows is left infinite, for the caller to refuse.
    """
    z = np.zeros(steps.shape[:-1] + (steps.shape[-1] + 1,), order="F")
    width = steps.shape[-1]
    with np.errstate(over="ignore"):
        if width * width < steps.size:  # width < steps.size / width walks
            z[..., 1] = steps[..., 0]
            for k in range(1, width):
                np.add(z[..., k], steps[..., k], out=z[..., k + 1])
        else:
            np.cumsum(steps, axis=-1, out=z[..., 1:])
    return z


def _sample_steps(model: StepModel, shape, rng: np.random.Generator) -> np.ndarray:
    if model.family == "uniform_b":
        return rng.uniform(model.b - 1.0, model.b, shape)
    if model.family == "normal":
        return rng.normal(model.mu, model.sigma, shape)
    # the draws and generator state of rng.choice(model.steps, shape), without its overhead
    return model.steps.take(rng.integers(0, model.steps.size, shape))


def step_sign_distribution(model: StepModel) -> PatternDistribution:
    """The order-2 pattern distribution (P(Y > 0), P(Y <= 0)) of a step law.

    For uniform_b the up-weight reproduces the closed-form tables' monotone
    entries bit for bit, so momentum on exact models cancels identically.
    Zero steps count as non-decreasing, matching the stable tie rule.
    """
    if model.family == "uniform_b":
        b = model.b
        up = b if b >= 0.5 else 1.0 - (1.0 - b)
    elif model.family == "normal":
        up = 0.5 * (1.0 + math.erf(model.mu / (model.sigma * math.sqrt(2.0))))
    else:
        up = float(np.mean(model.steps >= 0))
    return PatternDistribution(2, np.array([up, 1.0 - up]), "model", 0)


# --------------------------------------------------------------------------
# closed forms
# --------------------------------------------------------------------------

# per-class formulas for uniform steps, valid on b in [1/2, 1): one
# (formula below 2/3, formula above) pair per class of
# equivalence_classes(n), whose classes are ordered by their lowest
# member, which ends each line; None means one branch. 1432's branch below
# 2/3 is not the commonly printed one; test_branch_formulas_join_continuously
# checks it

_UNIF3 = [
    (lambda b: b ** 2, None),  # 123
    (lambda b: 0.5 * (1.0 - b) * (3.0 * b - 1.0), None),  # 132
    (lambda b: 0.5 * (1.0 - b) ** 2, None),  # 231
    (lambda b: (1.0 - b) ** 2, None),  # 321
]

_UNIF4 = [
    (lambda b: b ** 3, None),  # 1234
    (lambda b: 0.5 * b * (1.0 - b) * (3.0 * b - 1.0), None),  # 1243
    (lambda b: (1.0 - b) * (7.0 * b * b - 5.0 * b + 1.0) / 3.0, None),  # 1324
    (lambda b: (1.0 - b) ** 2 * (4.0 * b - 1.0) / 6.0, None),  # 1342
    (lambda b: (1.0 - b) ** 2 * (5.0 * b - 2.0) / 6.0, None),  # 1423
    (lambda b: (2.0 - 12.0 * b + 24.0 * b * b - 15.0 * b ** 3) / 6.0,
     lambda b: (1.0 - b) ** 2 * (2.0 * b - 1.0)),  # 1432
    (lambda b: (1.0 - b) ** 3 / 6.0, None),  # 2341
    (lambda b: (1.0 - b) ** 3 / 6.0, None),  # 2413
    (lambda b: (24.0 * b ** 3 - 45.0 * b * b + 27.0 * b - 5.0) / 6.0,
     lambda b: 0.5 * (1.0 - b) ** 3),  # 2431
    (lambda b: (25.0 * b ** 3 - 48.0 * b * b + 30.0 * b - 6.0) / 6.0,
     lambda b: (1.0 - b) ** 3 / 3.0),  # 3142
    (lambda b: (1.0 - b) ** 3 / 6.0, None),  # 3241
    (lambda b: 0.5 * (1.0 - b) ** 3, None),  # 3421
    (lambda b: (1.0 - b) ** 3 / 3.0, None),  # 4231
    (lambda b: (1.0 - b) ** 3, None),  # 4321
]

_UNIF_TABLES = {3: _UNIF3, 4: _UNIF4}


def _uniform_weights(n: int, b: float) -> np.ndarray:
    low_branch = b <= 2.0 / 3.0
    values = np.array([low(b) if high is None or low_branch else high(b)
                       for low, high in _UNIF_TABLES[n]])
    return values[equivalence_classes(n).ids]


def closed_form_uniform(n: int, b: float) -> PatternDistribution:
    """Exact pattern distribution of a uniform-step walk, n in {3, 4}.

    Steps are uniform on [b-1, b] with b in (0, 1). Values below 1/2 use
    the reflection P_b(pi) = P_{1-b}(complement(pi)). The monotone
    patterns get exactly b^(n-1) and (1-b)^(n-1).
    """
    if n not in _UNIF_TABLES:
        raise OrderError(f"closed forms exist for n in {tuple(_UNIF_TABLES)}, got {n}")
    if not 0.0 < b < 1.0:
        raise RangeError(f"b must be in (0, 1), got {b}")
    if b >= 0.5:
        weights = _uniform_weights(n, b)
    else:
        weights = _uniform_weights(n, 1.0 - b)[_symmetry_ranks(n, "complement")]
    return PatternDistribution(n, weights, "model", 0)


def _normal_orthant(word: np.ndarray) -> float:
    # the pattern holds iff every difference between value-adjacent entries
    # is positive; row k holds the signed steps that sum to difference k
    n = len(word)
    at = np.argsort(word)  # positions, smallest value first
    rows = np.zeros((n - 1, n - 1))
    for k, (a, c) in enumerate(zip(at, at[1:])):
        rows[k, min(a, c):max(a, c)] = 1.0 if c > a else -1.0
    cov = rows @ rows.T
    rho = [cov[k, m] / math.sqrt(cov[k, k] * cov[m, m])
           for k, m in combinations(range(n - 1), 2)]
    # fsum keeps the total independent of the order of the pairs, so a
    # pattern and its complement (the same pairs reversed) tie exactly
    return 0.5 ** (n - 1) + math.fsum(map(math.asin, rho)) / (2 ** (n - 2) * math.pi)


@lru_cache(maxsize=None)
def closed_form_normal_zero_mean(n: int) -> PatternDistribution:
    """Exact pattern distribution of a centered normal-step walk, n in {3, 4}.

    Independent of sigma. Each weight is a Gaussian orthant probability:
    1/4 + asin(rho)/(2 pi) for n = 3 and 1/8 + sum asin(rho_ij)/(4 pi)
    for n = 4 (Sheppard 1899; Plackett 1954), where the correlations come
    from the overlaps of the step intervals between value-adjacent entries.
    """
    if n not in (3, 4):
        raise OrderError(f"closed forms exist for n in (3, 4), got {n}")
    weights = [_normal_orthant(word) for word in _words(n)]
    return PatternDistribution(n, weights, "model", 0)


# --------------------------------------------------------------------------
# the walk sampler, and Monte Carlo
# --------------------------------------------------------------------------

def _sampled_walks(model: StepModel, rows: int, length: int, orders, d: int, rng):
    """The blocks of patterns._blocks over `rows` walks of `length` values
    stepping by model, drawn from rng as (walk slice, lo, values):
    whole walks, or a long walk's tiles, each summed on from the raw last
    value of the tile before. The draws do not depend on the blocks. Each
    block is a new column-major array, so the kernel's loops run down the
    walks, and its reader may write it (patterns._noised does)."""
    d = _check_span(length, orders, d)
    for walks, lo, hi in _blocks(rows, length, orders, d):
        if lo == 0:  # whole walks, or a long walk's first tile
            z = _walks(_sample_steps(model, (walks.stop - walks.start, hi - 1), rng))
        else:  # the rest of a long walk, summed on from its last value
            z = _sample_steps(model, (1, hi - lo), rng)
            with np.errstate(over="ignore"):  # an overflow is refused below
                z[:, 0] += last
                np.cumsum(z, axis=-1, out=z)
        last = z[:, -1].copy()
        if not np.isfinite(last).all():  # a sum that leaves the finite never returns
            raise RangeError("series values must be finite")  # as TimeSeries says
        yield walks, lo, z


def _drawn_counts(model: StepModel, rows: int, length: int, orders, d: int, seed,
                  policy: TiePolicy | None = None, keep: int = 0):
    """patterns._counted of the walks _sampled_walks draws, with stable ties
    unless jittered, from the first child of seed's own SeedSequence, each
    kept walk's counts in the smallest unsigned type that holds them."""
    rng = np.random.default_rng(seed)
    if policy is not None and policy.mode == "jitter":
        base = rng.bit_generator.seed_seq
        # the first child of base, derived without spawning, which would change base
        policy = replace(policy, seed=np.random.SeedSequence(
            base.entropy, spawn_key=base.spawn_key + (0,), pool_size=base.pool_size))
    return _counted(_sampled_walks(model, rows, length, orders, d, rng), orders, d, policy,
                    keep, np.min_scalar_type(length - (min(orders) - 1) * d))


def monte_carlo_distribution(
    model: StepModel, n: int, samples: int, seed=0
) -> PatternDistribution:
    """Pattern frequencies over independent simulated length-n walks.

    m >= 100 n! keeps the per-pattern standard error below roughly
    sqrt(p/m). The one-order case of a parametric null's draw (NullSpec),
    so deterministic given the seed.
    """
    return build_null((), n, NullSpec(model, samples=samples), seed).distribution


# --------------------------------------------------------------------------
# quadrature oracle
# --------------------------------------------------------------------------

#: grid-unit tolerance for calling a cut point an exact midpoint hit
_SNAP_GRID = 1e-6
#: absolute tolerance for calling two partial sums tied at a cell center
_SNAP_SUM = 1e-9
#: rows per chunk of the oracle sweep, and tied columns (or digit totals of
#: its tables) per block
_SWEEP_CHUNK = 1 << 13


def _count_below(cut_grid: np.ndarray, res: int) -> np.ndarray:
    # midpoints sit at grid coordinates 0.5, 1.5, ...; cut_grid is the cut
    # in units of cells minus 0.5, so midpoint k falls below iff k < cut.
    # Exact hits count half, which splits tied cells between the two
    # adjacent patterns and keeps total mass exactly 1.
    with np.errstate(invalid="ignore"):
        nearest = np.rint(cut_grid)
        hit = np.abs(cut_grid - nearest) <= _SNAP_GRID
    below = np.where(hit, nearest, np.ceil(cut_grid))
    below = np.clip(below, 0.0, res)
    return below + np.where(hit & (nearest >= 0) & (nearest < res), 0.5, 0.0)


def _prefix_chunks(res: int, n: int, mids: np.ndarray, chunk: int):
    """Yield (k, n-1) matrices of walk prefixes (0, y1, y1+y2, ...) over the
    first n-2 step axes, y = mids[cell]; mids = 0, 1, ... gives digit sums.
    The oracle sweep of order n passes n - 1: each prefix then fixes the
    first n-3 steps of one of its resolution^(n-3) rows."""
    total = res ** (n - 2)
    for start in range(0, total, chunk):
        idx = np.arange(start, min(start + chunk, total))
        z = np.zeros((n - 1, idx.size))  # filled by rows, each prefix contiguous
        for axis in range(n - 2):
            digit = (idx // res ** (n - 3 - axis)) % res
            z[axis + 1] = z[axis] + mids[digit]
        yield z.T


def _tied_columns(rows: np.ndarray, tied: np.ndarray, start: np.ndarray,
                  size: np.ndarray, chunk: int):
    """Yield (m, k <= chunk) digit sums (0, d1, d1+d2, ...) of the columns on
    a row chunk's tied intervals. rows holds each row's first m-1 of them;
    start and size give each interval's first value of the last swept digit
    and its column count."""
    interval, row = np.nonzero(tied & (size > 0))
    size = size[interval, row]
    ends, total = np.cumsum(size), int(size.sum())
    for first in range(0, total, chunk):
        flat = np.arange(first, min(first + chunk, total))
        run = np.searchsorted(ends, flat, side="right")
        at = row[run]
        digit = start[interval[run], at] + flat - (ends[run] - size[run])
        yield np.vstack([rows[:, at], rows[-1, at] + digit])


@lru_cache(maxsize=8)
def _oracle_sweep(n: int, b: float, resolution: int) -> np.ndarray:
    """Quadrature volumes of all n! pattern regions in [b-1, b]^(n-1).

    Midpoint rule with resolution cells per axis; the last axis is counted
    analytically per column, and the columns are swept by rows: a row fixes
    the first n-3 steps, so cost grows as resolution^(n-3) rows. A sum of r
    step centres with cell indices totalling D is r(b-1) + (D + r/2)/resolution,
    so one table over (r, D) per call decides each comparison of two prefix
    values (two thresholds in D) and, with _count_below, each cut's count of
    cells below it. Along a row only the pairs that end at the last prefix
    value move, each down, tied and up on three intervals of the last swept
    digit, so the row splits at its 2(n-2) breakpoints into at most 2(n-2)+1
    intervals. A strictly ordered interval has one prefix order u, and its
    slot above the j lowest prefix values spans from the j-th to the
    (j+1)-th lowest count: the interval's counts are differences of
    cumulative table sums, summed per u by bincounts. A tied column, whose
    prefix sums tie at the cell center, gives a share 1/k to each of the k
    orderings the non-tied pairs admit (so the volumes always total exactly
    1); only tied columns are read ordering by ordering. Error is
    O(1/resolution) from cells straddling the boundary hyperplanes;
    everything else is exact.

    Counts are multiples of 1/2, so doubled counts are summed as integers
    per share denominator k, and _rounded_volumes rounds each volume once
    from the exact sum over k of count / (2k resolution^(n-1)). The volumes
    do not depend on chunking or summation order; 2 resolution^(n-1) <= 2^53
    keeps every float partial sum an exact integer.
    """
    m = n - 1
    words = _words(m)
    spare = len(words)  # prefix orders: the most a tied column's share is split
    earlier, later = np.array(list(combinations(range(m), 2))).T
    lane = later - earlier - 1  # each pair's row of the tables below
    # above[u, p]: prefix u puts the later entry of pair p above the earlier
    above = words[:, later] > words[:, earlier]
    # order[u]: prefix u's positions from its lowest value up; ranks[u, j]:
    # the pattern ordered as u whose last entry is the (j+1)-th lowest. Its
    # reverse complement starts with n - j, and its last m entries have the
    # pattern of u's reverse complement, so its lex rank is (m - j) m! + rc_m[u]
    order = np.argsort(words, axis=1)
    rc = {k: _symmetry_ranks(k, "reverse_complement") for k in (m, n)}
    ranks = rc[n][(m - np.arange(n)) * _FACT[m] + rc[m][:, None]]
    # lex rank weights, in the smallest type that holds a rank below m!
    descent = np.array([_FACT[m - 1 - a] for a in earlier], dtype=np.min_scalar_type(spare - 1))
    # a row fixes the pairs within its first m-1 prefix values; the last
    # value passes prefix value a at cut pair (a, m-1), itself at no step
    fixed, cuts = np.flatnonzero(later < m - 1), np.flatnonzero(later == m - 1)
    last = int(2 * _count_below(np.array((0.0 - (b - 1.0)) * resolution - 0.5), resolution))
    # a pair of r steps whose digits total D is up iff D >= t_up[r-1] and
    # down iff D < t_down[r-1], so tied, within _SNAP_SUM, in between;
    # cum[r-1, D]: doubled cells below the cuts of the totals under D
    steps = np.arange(1, m)[:, None]
    width = (m - 1) * (resolution - 1) + 1
    t_up, t_down = np.zeros((2, m - 1), dtype=np.int64)
    cum = np.zeros((m - 1, width + 1), dtype=np.int64)
    for low in range(0, width, _SWEEP_CHUNK):
        totals = np.arange(low, min(low + _SWEEP_CHUNK, width))
        sums = steps * (b - 1.0) + (totals + steps / 2) / resolution
        t_up += (sums < -_SNAP_SUM).sum(axis=1)
        t_down += (sums <= _SNAP_SUM).sum(axis=1)
        table = _count_below((-sums - (b - 1.0)) * resolution - 0.5, resolution)
        cum[:, low + 1:low + 1 + totals.size] = (
            cum[:, low, None] + (2 * table).astype(np.int64).cumsum(axis=1))
    # acc[k, rank]: doubled cells given a share 1/k (row 0 holds the columns
    # that do not admit the ordering, and is never read)
    acc = np.zeros((spare + 1, _FACT[n]), dtype=np.int64)
    for z in _prefix_chunks(resolution, m, np.arange(resolution, dtype=float), _SWEEP_CHUNK):
        rows = z.T.astype(np.int64)  # (0, d1, d1+d2, ...) up to the row's last fixed step
        gaps = rows[later[fixed]] - rows[earlier[fixed]]
        down = gaps < t_down[lane[fixed], None]
        row_tied = (down & (gaps >= t_up[lane[fixed], None])).any(axis=0)
        # with last digit d, cut pair (a, m-1) totals offset[a] + d: down
        # below lo[a], tied from lo[a] up to hi[a], up from there
        offset = rows[-1] - rows
        lo = np.clip(t_up[lane[cuts], None] - offset, 0, resolution)
        hi = np.clip(t_down[lane[cuts], None] - offset, 0, resolution)
        # lo and hi lie in [0, resolution], so only they need sorting
        edges = np.empty((2 * len(cuts) + 2, rows.shape[1]), dtype=np.int64)
        edges[0], edges[1:-1], edges[-1] = 0, np.vstack((lo, hi)), resolution
        edges[1:-1].sort(axis=0)
        start, size = edges[:-1], np.diff(edges, axis=0)
        falls = start < lo[:, None]
        tied = row_tied | (~falls & (start < hi[:, None])).any(axis=0)
        strict = ~tied & (size > 0)
        prefix = (sum(weight * fall for weight, fall in zip(descent[fixed], down))
                  + sum(weight * fall for weight, fall in zip(descent[cuts], falls)))[strict]
        cols = np.bincount(prefix, size[strict], minlength=spare)
        # each position's doubled counts on each interval, summed per prefix order
        sums_u = np.column_stack([
            np.bincount(prefix, np.diff(cum[r][shift + edges], axis=0)[strict], minlength=spare)
            for r, shift in zip(lane[cuts], offset)] + [cols * last])
        acc[1, ranks] += np.diff(np.take_along_axis(sums_u, order, axis=1), prepend=0.0,
                                 append=2 * resolution * cols[:, None], axis=1).astype(np.int64)
        for digits in _tied_columns(rows, tied, start, size, _SWEEP_CHUNK):
            gaps = digits[later] - digits[earlier]
            up, down = gaps >= t_up[lane, None], gaps < t_down[lane, None]
            admits = np.where(above[:, :, None], up, down).all(axis=1)
            lanes, at = lane[cuts, None], gaps[cuts]  # doubled cut counts, from cum
            counts = np.vstack([cum[lanes, at + 1] - cum[lanes, at],
                                np.full((1, digits.shape[1]), last)])
            admitted = admits.sum(axis=0)
            for u in np.flatnonzero(admits.any(axis=1)):
                for j, rank in enumerate(ranks[u]):
                    # count(max S) = max count(S), as _count_below is monotone
                    cells = (counts[order[u, j:]].min(axis=0, initial=2 * resolution)
                             - counts[order[u, :j]].max(axis=0, initial=0))
                    acc[:, rank] += np.bincount(admitted * admits[u], np.maximum(cells, 0),
                                                minlength=spare + 1).astype(np.int64)
    volumes = _rounded_volumes(acc, 2 * resolution ** m)
    volumes.setflags(write=False)
    return volumes


def _rounded_volumes(acc: np.ndarray, cells: int) -> np.ndarray:
    """Each column's sum over k = 1..K of acc[k] / (k cells), K = len(acc) - 1,
    rounded once: one exact Python int over the common denominator
    lcm(1..K) cells, whose int true division is correctly rounded, as
    float(Fraction) is."""
    common = math.lcm(*range(1, len(acc)))
    shares = np.array([common // k for k in range(1, len(acc))], dtype=object)
    return (acc[1:].T.astype(object) @ shares / (common * cells)).astype(float)


def _check_oracle_order(n: int) -> None:
    if not 3 <= n <= 5:
        raise OrderError(f"volume oracle supports n in [3, 5], got {n}")


def volume_oracle(
    pattern: OrdinalPattern, model: StepModel, resolution: int
) -> float:
    """Deterministic quadrature estimate of P(pattern) for a uniform-step walk.

    Counts midpoint-grid cells of the step cube whose partial sums realize
    the pattern (tied cells count half), exactly, and rounds the volume
    once. Independent of the closed forms and of any random number stream,
    with error O(1/resolution); the closed-form tables were validated
    against it, but it is an estimate, not an arbiter. Its error is first
    order in 1/resolution when (1 - b) resolution is off an integer, where
    cells straddle the cube's faces: at n = 4 and b = 5/7 its largest
    pattern error is 1.09e-3, 8.19e-4 and 3.28e-4 at resolutions 400, 800
    and 2 000. resolution is an integer with 2 <= resolution,
    2 resolution^(n-1) <= 2^53 and, for the sweep's table of sums,
    (n-2)((n-2)(resolution-1) + 2) <= 2^22, which binds only at n = 3.
    """
    if model.family != "uniform_b":
        raise RangeError("the volume oracle is defined for uniform_b models")
    n = pattern.order
    _check_oracle_order(n)
    resolution = _check_int(resolution, "resolution", 2)
    if 2 * resolution ** (n - 1) > 2 ** 53:  # beyond it the cell sums are not exact
        raise RangeError(f"2 resolution^(n-1) must be at most 2^53, got {resolution} at n = {n}")
    entries = (n - 2) * ((n - 2) * (resolution - 1) + 2)  # the sweep's cum table
    if entries > 1 << 22:
        raise RangeError(f"resolution {resolution} at n = {n} needs a sweep table of "
                         f"{entries} entries, more than 2^22")
    sweep = _oracle_sweep(n, float(model.b), resolution)
    return float(sweep[pattern.rank])


# --------------------------------------------------------------------------
# data-driven nulls
# --------------------------------------------------------------------------

def default_walk_length(n_obs: int) -> int:
    """NullSpec's default walk_length for a series of n_obs values."""
    return max(500_000, 50 * n_obs)


def _own_steps(values: np.ndarray) -> StepModel:
    """The step law of a series: its first differences, resampled."""
    if values.size < 2:
        raise LengthError("need at least two observations to extract steps")
    steps = np.diff(values)
    steps.setflags(write=False)  # the model keeps these steps rather than a copy
    return StepModel.empirical(steps)


@dataclass(frozen=True)
class NullSpec:
    """Which null model to hold a series against, and the one statement of
    what each null draws, how it is counted and averaged, and its band.

    step None is the associated null: ceil(walk_length / N) walks of the
    series' own steps (its first differences, resampled), each as long as
    the series, N values, or the top order's span if longer. walk_length
    is max(5 10^5, 50 N) by default (default_walk_length), which averaged
    within classes matches the raw frequencies of twice as many. With R
    band replicates an analysis run draws max(R, ceil(walk_length / N))
    walks, so the null's sample_count grows when R is the larger. Walks
    are ranked as the series is, at its delay and tie policy, save that a
    strict rule binds only the series (walks rank ties stably) and jitter
    noise comes from the draw's seed. Every window is counted, and the
    pooled counts are averaged within classes.walk_classes, which keeps the
    null unbiased and about halves its variance. The band is the first R
    walks, each scored against the pool less its own walk, averaged the
    same way; the walk's own counts stand in for the series, unaveraged.

    A StepModel is a parametric step law: the raw frequencies of `samples`
    walks of the top order's length, at delay 1 without jitter, each order
    n counting their last n values, or exact at each order with closed_form.
    Its band is R walks of the series' own steps, ranked like the series
    and drawn from a seed of their own, each scored against the null.
    Every band walk is smoothed as kl_divergence would smooth it.

    This is the one place that decides which nulls have a closed form:
    uniform steps, and normal steps with mu = 0. The associated null and an
    empirical step law have none. Each closed form owns its order range.
    """

    step: StepModel | None = None
    walk_length: int | None = None
    closed_form: bool = False
    samples: int = 1_000_000

    def __post_init__(self):
        if self.step is not None and not isinstance(self.step, StepModel):
            raise RangeError(f"a null's step law must be a StepModel, got {self.step!r}")
        if self.closed_form:
            if self.step is None or self.step.family == "empirical":
                law = "the associated null" if self.step is None else "an empirical step law"
                raise RangeError(f"{law} has no closed form")
            if self.step.family == "normal" and self.step.mu != 0:
                raise RangeError("closed-form normal nulls require mu = 0")
        object.__setattr__(self, "samples", _check_int(self.samples, "samples", 1))
        if self.walk_length is not None:
            object.__setattr__(self, "walk_length", _check_int(self.walk_length, "walk_length"))
            if self.walk_length < 2:
                raise RangeError("walk_length must be >= 2")

    def describe(self) -> str:
        if self.step is None:
            return f"associated(walk_length={self.walk_length or 'auto'})"
        return self.step.describe(
            "closed_form" if self.closed_form else f"samples={self.samples}")


@dataclass(frozen=True)
class NullModel:
    """A realized null: step model, order, and its pattern distribution."""

    step_model: StepModel
    order: int
    distribution: PatternDistribution
    method: Literal["closed_form", "monte_carlo"]
    sample_count: int
    seed: int | None

    def __post_init__(self):
        if self.distribution.order != self.order:
            raise RangeError("distribution order does not match the model order")

    def to_json_dict(self) -> dict:
        return {
            "family": self.step_model.family,
            "parameters": self.step_model._parameters(),
            "n": self.order,
            "method": self.method,
            "seed": self.seed,
            "sample_count": self.sample_count,
            "weights": self.distribution.as_dict(),
        }


def _nulls_and_bands(series, orders, spec: NullSpec, seed=0, d: int = 1,
                     policy: TiePolicy | None = None, replicates: int = 0,
                     smoothing: float = 1.0, band_seed=None):
    """One (NullModel, band) per order, as given: the null and its band of
    `replicates` divergences as NullSpec states them (None with no
    replicates). A given null's band walks are drawn from band_seed."""
    _check_orders(orders)
    seed, d = _check_seed(seed), _check_int(d, "delay", 1)  # lengths and blocks need an int
    step, method, own = spec.step, "monte_carlo", spec.step is None
    # only an int seed is recorded; every analysis run passes a SeedSequence
    recorded = seed if isinstance(seed, int) else None
    if own or replicates:  # walks of the series' own steps, ranked like the series
        values = _as_values(series)
        steps = _own_steps(values)
        length = max(values.size, (max(orders) - 1) * d + 1)
    if replicates and not own:  # a given null's band draws walks of its own, first, so
        # that a band over the count bound is refused before the null's draw
        _, kept = _drawn_counts(steps, replicates, length, orders, d, band_seed, policy,
                                keep=replicates)
    if spec.closed_form:
        dists = {n: closed_form_uniform(n, step.b) if step.family == "uniform_b"
                 else closed_form_normal_zero_mean(n) for n in orders}
        method, recorded = "closed_form", None
    else:
        if own:  # walks of the series' own steps, averaged within classes
            step = steps
            budget = -(-(spec.walk_length or default_walk_length(values.size)) // length)
            counts, kept = _drawn_counts(step, max(replicates, budget), length, orders, d,
                                         seed, policy, keep=replicates)
            classes = {n: walk_classes(n, policy is not None and policy.mode == "jitter")
                       for n in orders}
            means = {n: _class_means(c, classes[n]) for n, c in counts.items()}
        else:  # the step law itself: walks of one top-order window, at delay 1
            # unjittered, each lower order counting that window's suffix
            top = max(orders)
            drawn, _ = _drawn_counts(step, spec.samples, top, (top,), 1, seed)
            counts = means = {n: _fold(drawn[top], top, n, np.int64) for n in orders}
        dists = {n: PatternDistribution(n, means[n] / c.sum(), "model", c.sum())
                 for n, c in counts.items()}
    return tuple((NullModel(step, n, dists[n], method, dists[n].sample_count, recorded),
                  _band(n, kept[n], length - (n - 1) * d, dists[n],
                        counts[n] if own else None, smoothing, classes[n] if own else None)
                  if replicates else None)
                 for n in orders)


def _band(n: int, kept, windows: int, null: PatternDistribution, pool,
          smoothing: float, classes: EquivalenceClassTable | None) -> np.ndarray:
    """Divergences from the null of walks with the kept counts of `windows`
    order-n windows each, scored at most patterns._CHUNK counts at a time:
    against the null, or, given the pool, against the pool less each
    walk, averaged within classes."""
    m = null.sample_count - (0 if pool is None else windows)
    rows = max(1, patterns._CHUNK // _FACT[n])
    return np.concatenate([
        _kl_rows(c / windows,
                 null.weights if pool is None else _class_means(pool - c, classes) / m,
                 m, smoothing)
        for c in (kept[lo:lo + rows] for lo in range(0, len(kept), rows))])


def build_nulls(series, orders, spec: NullSpec, seed=0, d: int = 1,
                policy: TiePolicy | None = None) -> tuple[NullModel, ...]:
    """Realize a NullSpec at several orders: one NullModel per order, as given.

    A closed form is evaluated at each order. Any other null is one draw
    from `seed` (an int >= 0, a SeedSequence or a Generator), ranked at
    every order in one pass, as NullSpec states. A Generator seed is drawn
    from, and so advanced, as numpy's own samplers do: unlike a TiePolicy,
    which keeps a Generator's SeedSequence, a second call with the same
    Generator draws a different null.
    """
    return tuple(null for null, _ in _nulls_and_bands(series, orders, spec, seed, d, policy))


def build_null(series, n: int, spec: NullSpec, seed=0, d: int = 1,
               policy: TiePolicy | None = None) -> NullModel:
    """Realize a NullSpec for a given series at the one order n."""
    return build_nulls(series, (n,), spec, seed, d, policy)[0]


def kl_to_null(
    series,
    n: int,
    model_spec: NullSpec | None = None,
    seed=0,
    d: int = 1,
    policy: TiePolicy | None = None,
    smoothing: float = 1.0,
) -> float:
    """Normalized KL divergence of a series' patterns from a null model.

    model_spec is a NullSpec (NullSpec(step) simulates a step law with the
    default sample budget), or None for the associated null. Pseudocount
    smoothing kicks in only if the sampled null misses a pattern the series
    realizes.
    """
    null_dist = build_null(series, n, model_spec or NullSpec(), seed, d, policy).distribution
    p = empirical_distribution(series, n, d, policy)
    return kl_divergence(p, null_dist, smoothing)
