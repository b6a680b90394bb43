"""Random-walk null models for pattern distributions.

A null model fixes an i.i.d. step law Y and asks how the walk
Z = (0, Y1, Y1+Y2, ...) distributes its ordinal patterns. Three routes to
that distribution are provided, plus the data-driven bootstrap built on
resampled steps:

closed_form_uniform            exact table, uniform steps on [b-1, b], n = 3, 4
closed_form_normal_zero_mean   orthant formulas, centered normal steps, n = 3, 4
monte_carlo_distribution       frequency over m independent simulated walks
volume_oracle                  deterministic quadrature estimate (uniform steps)
associated_walk                one walk resampled from a series' own steps
build_nulls                    the null builder: a closed form per order,
                               or one draw per run ranked at every order
kl_to_null                     divergence of a series from a chosen null
bootstrap_band                 replicate divergences against the same null

One sampler draws every walk. The associated null and the bootstrap band
are two reductions of one draw, walks of the series' length ranked as the
series is, and an analysis run scores both the series (kl_to_model) and
every replicate against that null, so the band measures replicate noise
around the very null the series is held to.

The uniform closed forms hold for b in [1/2, 1); b below 1/2 reflects
through the step sign flip, which maps b to 1-b and every pattern to its
complement. Formula provenance for an entry that differs from its
commonly printed version: the {1432, 2143, 3214} branch below 2/3 must
read (1/6)(2 - 12b + 24b^2 - 15b^3) for the class-weighted total to be 1
and the branches to meet at b = 2/3; it was validated by quadrature and
Monte Carlo before being frozen here. The centered-normal weights are
computed, not tabulated: a pattern is the event that the n-1 differences
between value-adjacent entries are all positive, each difference is a
signed interval sum of the steps, and the orthant probability of that
Gaussian vector has a closed form for two and three variates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Literal, Sequence

import numpy as np

from .classes import equivalence_classes
from .errors import LengthError, OrderError, RangeError
from .metrics import _kl_rows, kl_divergence
from .patterns import (
    _FACT,
    OrdinalPattern,
    PatternDistribution,
    TiePolicy,
    TimeSeries,
    _as_values,
    _check_orders,
    _check_span,
    _lag_ranks,
    _patterns,
    _row_counts,
    _symmetry_ranks,
    empirical_distribution,
    lex_rank,
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
            if self.mu is None or self.sigma is None or not self.sigma > 0:
                raise RangeError(
                    f"normal needs mu and sigma > 0, got mu={self.mu} sigma={self.sigma}"
                )
            if self.b is not None or self.steps is not None:
                raise RangeError("normal takes only mu and sigma")
        elif self.family == "empirical":
            if self.steps is None:
                raise RangeError("empirical needs a step multiset")
            arr = np.array(self.steps, dtype=np.float64)
            if arr.ndim != 1 or arr.size == 0:
                raise RangeError("empirical steps must be a nonempty 1d multiset")
            if not np.isfinite(arr).all():
                raise RangeError("empirical steps must be finite")
            arr.setflags(write=False)
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


def _walks(steps: np.ndarray, order="C") -> np.ndarray:
    """Walks from 0 along the last axis, one step per entry of steps."""
    z = np.zeros(steps.shape[:-1] + (steps.shape[-1] + 1,), order=order)
    np.cumsum(steps, axis=-1, out=z[..., 1:])
    return z


def _sample_steps(model: StepModel, shape, rng: np.random.Generator) -> np.ndarray:
    if model.family == "uniform_b":
        return rng.uniform(model.b - 1.0, model.b, shape)
    if model.family == "normal":
        return rng.normal(model.mu, model.sigma, shape)
    return rng.choice(model.steps, size=shape, replace=True)


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
# equivalence_classes(n), in its order, with None meaning one branch;
# each line ends with the class's lowest member

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


def _normal_orthant(word: tuple[int, ...]) -> float:
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
    weights = [_normal_orthant(p.word) for p in _patterns(n)]
    return PatternDistribution(n, weights, "model", 0)


# --------------------------------------------------------------------------
# the walk sampler, and Monte Carlo
# --------------------------------------------------------------------------

#: walk values drawn and ranked at a time (one whole walk if it is longer),
#: which bounds the memory of every sampled null and band; the draws do
#: not depend on it
_CHUNK = 1 << 16


def _sampled_ranks(model: StepModel, rows: int, length: int, orders, d: int, seed,
                   policy: TiePolicy | None = None):
    """Rank `rows` independent walks of `length` values stepping by model.

    The walks come from `seed` in blocks of whole walks of at most _CHUNK
    values (or one walk); a jitter policy's noise comes from the first
    child of `seed`. Yields each block's _lag_ranks at delay d with stable
    ties, as a strict rule binds only the series; reduce each before resuming.
    """
    _check_span(length, orders, d)
    rng = np.random.default_rng(seed)
    jitter = policy is not None and policy.mode == "jitter"
    if jitter:
        base = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
        # the first child of base, derived without spawning, which would change base
        noise = np.random.default_rng(np.random.SeedSequence(
            base.entropy, spawn_key=base.spawn_key + (0,), pool_size=base.pool_size))
    block = max(1, _CHUNK // length)
    for start in range(0, rows, block):
        # column-major, so the kernel's loops run down the walks, not along them
        z = _walks(_sample_steps(model, (min(block, rows - start), length - 1), rng), order="F")
        if not np.isfinite(z[:, -1]).all():  # a sum that leaves the finite never returns
            raise RangeError("series values must be finite")  # as TimeSeries says
        if jitter:
            z += noise.normal(0.0, policy.jitter_scale, z.shape)
        yield _lag_ranks(z, orders, d)


def monte_carlo_distribution(
    model: StepModel, n: int, samples: int, seed=0
) -> PatternDistribution:
    """Pattern frequencies over independent simulated length-n walks.

    Each walk starts at 0 and takes n-1 fresh steps; m >= 100 n! keeps
    the per-pattern standard error below roughly sqrt(p/m). Deterministic
    given the seed. Exact ties (possible under empirical step multisets)
    rank earlier-index-smaller. This is the one-order case of the draw a
    parametric null makes in build_nulls.
    """
    return build_null((), n, NullSpec(model, samples=samples), seed).distribution


# --------------------------------------------------------------------------
# quadrature oracle
# --------------------------------------------------------------------------

#: grid-unit tolerance for calling a cut point an exact midpoint hit
_SNAP_GRID = 1e-6
#: absolute tolerance for calling two partial sums tied at a cell center
_SNAP_SUM = 1e-9


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
    first n-2 step axes, y = mids[cell]; mids = 0, 1, ... gives digit sums."""
    total = res ** (n - 2)
    for start in range(0, total, chunk):
        idx = np.arange(start, min(start + chunk, total))
        z = np.zeros((n - 1, idx.size))  # filled by rows, each prefix contiguous
        for axis in range(n - 2):
            digit = (idx // res ** (n - 3 - axis)) % res
            z[axis + 1] = z[axis] + mids[digit]
        yield z.T


@lru_cache(maxsize=8)
def _oracle_sweep(n: int, b: float, resolution: int) -> np.ndarray:
    """Quadrature volumes of all n! pattern regions in [b-1, b]^(n-1).

    Midpoint rule with resolution cells per axis; the last axis is counted
    analytically per column, so cost grows as resolution^(n-2) columns.
    A sum of r step centres with cell indices totalling D is
    r(b-1) + (D + r/2)/resolution, so a table over (r, D) per chunk decides
    each comparison of two prefix values and, in one _count_below call,
    each cut's count of cells below it. A column with strictly ordered
    prefix values has one prefix order u, and its slot above the j lowest
    spans from the j-th to the (j+1)-th lowest count: such columns are
    summed per u by bincounts. A column whose prefix sums tie at the cell
    center spreads its mass equally over every ordering the non-tied pairs
    admit (normalized per column, so the volumes always total exactly 1).
    Error is O(1/resolution) from cells straddling the boundary
    hyperplanes; everything else is exact.

    Bit-identical to summing each column's slots one by one: counts are
    multiples of 1/2 and shares 1/2^k, so each chunk's totals are exact in
    any order. A chunk with another share (three tied values) is summed
    per ordering over all its columns; each chunk adds to the volumes once.
    """
    m = n - 1
    words = [p.word for p in _patterns(m)]
    spare = len(words)  # the bin of the columns summed per ordering
    pairs = list(combinations(range(m), 2))
    earlier, later = np.array(pairs).T
    span = later - earlier
    # above[u, p]: prefix u puts the later entry of pair p above the earlier
    above = np.array([[w[c] > w[a] for a, c in pairs] for w in words])
    # order[u]: prefix u's positions from its lowest value up; ranks[u, j]:
    # the pattern ordered as u whose last entry is the (j+1)-th lowest
    order = np.argsort(words, axis=1)
    ranks = np.array([[lex_rank(OrdinalPattern(tuple(r + (r > j) for r in w) + (j + 1,)))
                       for j in range(n)] for w in words])
    descent = np.array([_FACT[m - 1 - a] for a in earlier])  # lex rank weights
    # the last value passes prefix value a at pair (a, m-1), itself at no step
    cuts = np.flatnonzero(later == m - 1)
    last = _count_below(np.array((0.0 - (b - 1.0)) * resolution - 0.5), resolution)
    steps = np.arange(m)[:, None]
    acc = np.zeros(_FACT[n])
    for z in _prefix_chunks(resolution, n, np.arange(resolution, dtype=float), 1 << 17):
        digits = z.T.astype(np.min_scalar_type(-m * resolution))  # (0, d1, d1+d2, ...)
        gaps = digits[later] - digits[earlier]  # the digit sum of each pair's steps
        low, width = int(gaps.min()), int(np.ptp(gaps)) + 1
        # sums[r, D - low]: a sum of r step centres whose digits total D
        sums = steps * (b - 1.0) + (np.arange(low, low + width) + steps / 2) / resolution
        table = _count_below((-sums - (b - 1.0)) * resolution - 0.5, resolution)
        # a pair within _SNAP_SUM of a tie admits both of its orders
        up = gaps >= low + (sums < -_SNAP_SUM).sum(axis=1, dtype=np.int32)[span, None]
        down = gaps < low + (sums <= _SNAP_SUM).sum(axis=1, dtype=np.int32)[span, None]
        tied = np.flatnonzero((up & down).any(axis=0))
        admits = np.where(above[:, :, None], up[:, tied], down[:, tied]).all(axis=1)
        prefix = sum(weight * fall for weight, fall in zip(descent, down))
        prefix[tied] = spare  # tied columns are summed per ordering
        if (admits.sum(axis=0) & (admits.sum(axis=0) - 1)).any():  # a share not 1/2^k
            every = prefix == np.arange(spare)[:, None]  # a strict column's own order
            every[:, tied] = admits
            admits, tied, prefix[:] = every, np.arange(digits.shape[1]), spare
        cols = np.bincount(prefix, minlength=spare + 1)[:-1]
        # each position's counts summed per prefix order, from columns per digit sum
        sums_u = np.column_stack([np.bincount(prefix * width + gaps[p] - low, minlength=(
            spare + 1) * width).reshape(-1, width)[:-1] @ table[span[p]] for p in cuts]
            + [cols * last])
        totals = np.zeros(_FACT[n])
        totals[ranks] = np.diff(np.take_along_axis(sums_u, order, axis=1), prepend=0.0,
                                append=resolution * cols[:, None], axis=1)
        counts = np.vstack([table[span[cuts, None], gaps[cuts][:, tied] - low],
                            np.full((1, tied.size), last)])
        admitted = admits.sum(axis=0)
        for u in np.flatnonzero(admits.any(axis=1)):
            share = admits[u] / admitted
            for j, rank in enumerate(ranks[u]):
                # count(max S) = max count(S), as _count_below is monotone
                cells = (counts[order[u, j:]].min(axis=0, initial=resolution)
                         - counts[order[u, :j]].max(axis=0, initial=0.0))
                totals[rank] += float((share * np.maximum(cells, 0.0)).sum())
        acc += totals
    acc /= float(resolution) ** (n - 1)
    acc.setflags(write=False)
    return acc


def _check_oracle_order(n: int) -> None:
    if not 3 <= n <= 5:
        raise OrderError(f"volume oracle supports n in [3, 5], got {n}")


def volume_oracle(
    pattern: OrdinalPattern, model: StepModel, resolution: int
) -> float:
    """Deterministic quadrature estimate of P(pattern) for a uniform-step walk.

    Counts midpoint-grid cells of the step cube whose partial sums realize
    the pattern (tied cells count half). Independent of the closed forms
    and of any random number stream, with error O(1/resolution); this is
    the arbiter the closed-form tables were validated against.
    """
    if model.family != "uniform_b":
        raise RangeError("the volume oracle is defined for uniform_b models")
    n = pattern.order
    _check_oracle_order(n)
    if resolution < 2:
        raise RangeError(f"resolution must be >= 2, got {resolution}")
    sweep = _oracle_sweep(n, float(model.b), int(resolution))
    return float(sweep[pattern.rank])


# --------------------------------------------------------------------------
# data-driven nulls
# --------------------------------------------------------------------------

def default_walk_length(n_obs: int) -> int:
    """Values an associated null draws, in series-length walks: max(10^6, 100 N)."""
    return max(1_000_000, 100 * n_obs)


def _own_steps(values: np.ndarray) -> StepModel:
    """The step law of a series: its first differences, resampled."""
    if values.size < 2:
        raise LengthError("need at least two observations to extract steps")
    return StepModel.empirical(np.diff(values))


def associated_walk(series, length: int, seed=0) -> TimeSeries:
    """A walk of the given length whose steps are resampled (with
    replacement) from the observed first differences of the series.

    Starts at 0; the output has exactly `length` values.
    """
    step = _own_steps(_as_values(series))
    if length < 2:
        raise LengthError(f"walk length must be >= 2, got {length}")
    return TimeSeries(_walks(_sample_steps(step, (length - 1,), np.random.default_rng(seed))))


@dataclass(frozen=True)
class NullSpec:
    """Which null model to hold a series against.

    step None is the associated null: the series' own steps resampled into
    ceil(walk_length / N) walks of its length N, walk_length max(10^6, 100 N)
    by default. A StepModel is a parametric step law, evaluated by Monte
    Carlo over `samples` walks of the top order, or exactly when closed_form.

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
        if self.samples < 1:
            raise RangeError(f"samples must be >= 1, got {self.samples}")
        if self.walk_length is not None and self.walk_length < 2:
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


def build_nulls(series, orders, spec: NullSpec, seed=0, d: int = 1,
                policy: TiePolicy | None = None) -> tuple[NullModel, ...]:
    """Realize a NullSpec at several orders: one NullModel per order, as given.

    A closed form is evaluated at each order. Any other null is one draw
    from `seed`, ranked at every order in one pass: the associated null is
    the band's draw (walks as long as the series or the top order's span),
    every window ranked as the series is, at delay d and tie policy; a
    parametric null is `samples` walks of max(orders) values, each order
    counting their leading values, at delay 1 with no jitter.
    """
    _check_orders(orders)
    step, method = spec.step, "monte_carlo"
    # an int seed is recorded here; a derived SeedSequence is recorded upstream
    recorded = int(seed) if isinstance(seed, (int, np.integer)) else None
    if spec.closed_form:
        dists = {n: closed_form_uniform(n, step.b) if step.family == "uniform_b"
                 else closed_form_normal_zero_mean(n) for n in orders}
        method, recorded = "closed_form", None
    else:
        if step is None:  # every window of the band's draw, ranked like the series
            values = _as_values(series)
            step = _own_steps(values)
            length = max(values.size, (max(orders) - 1) * d + 1)
            rows = -(-(spec.walk_length or default_walk_length(values.size)) // length)
            windows = slice(None)
        else:  # the step law itself: each walk's leading window, at delay 1 unjittered
            rows, length, d, policy, windows = spec.samples, max(orders), 1, None, 0
        counts = {n: np.zeros(_FACT[n], dtype=np.int64) for n in orders}
        for block in _sampled_ranks(step, rows, length, orders, d, seed, policy):
            for n, ranks in block:
                counts[n] += np.bincount(ranks[:, windows].ravel("K"), minlength=_FACT[n])
        dists = {n: PatternDistribution(n, c / c.sum(), "model", int(c.sum()))
                 for n, c in counts.items()}
    return tuple(NullModel(step, n, dists[n], method, dists[n].sample_count, recorded)
                 for n in orders)


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
    default sample budget), or None for the associated null, ranked like
    the series. Pseudocount smoothing kicks in only if the sampled null misses a
    pattern the series realizes.
    """
    null_dist = build_null(series, n, model_spec or NullSpec(), seed, d, policy).distribution
    p = empirical_distribution(series, n, d, policy)
    return kl_divergence(p, null_dist, smoothing)


@dataclass(frozen=True)
class BandResult:
    """Bootstrap replicate divergences: mean, sample std, raw values."""

    mean: float
    std: float
    samples: tuple[float, ...]


def bootstrap_band(
    series,
    nulls: Sequence[PatternDistribution],
    replicates: int = 400,
    seed=0,
    d: int = 1,
    policy: TiePolicy | None = None,
    smoothing: float = 1.0,
) -> tuple[BandResult, ...]:
    """Spread of the KL-to-null statistic under the series' own step law.

    Draws `replicates` walks of the series' length from `seed`, as the
    associated null does, ranks them at every null's order as the null is
    ranked, and scores each row against that null (the one the series
    itself is scored against) in one row-wise divergence, smoothed per row
    as kl_divergence would be. Takes one null per order and returns one
    BandResult per null; bit-identical across runs.
    """
    if replicates < 2:
        raise RangeError(f"need at least 2 replicates, got {replicates}")
    values = _as_values(series)
    length = values.size
    null_of = {q.order: q for q in nulls}
    draws: dict[int, list[np.ndarray]] = {n: [] for n in null_of}
    for block in _sampled_ranks(_own_steps(values), replicates, length, sorted(null_of), d,
                                seed, policy):
        for n, ranks in block:
            rows = _row_counts(ranks, n) / (length - (n - 1) * d)
            draws[n].append(_kl_rows(rows, null_of[n], smoothing))
    return tuple(
        BandResult(float(np.mean(kl)), float(np.std(kl, ddof=1)), tuple(kl.tolist()))
        for kl in (np.concatenate(draws[q.order]) for q in nulls)
    )
