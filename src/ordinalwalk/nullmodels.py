"""Random-walk null models for pattern distributions.

A null model fixes an i.i.d. step law Y and asks how the walk
Z = (0, Y1, Y1+Y2, ...) distributes its ordinal patterns. Three routes to
that distribution are provided, plus the data-driven bootstrap built on
resampled steps:

closed_form_uniform            exact table, uniform steps on [b-1, b], n <= 4
closed_form_normal_zero_mean   orthant formulas, centered normal steps, n <= 4
monte_carlo_distribution       frequency over m independent simulated walks
volume_oracle                  deterministic quadrature estimate (uniform steps)
associated_walk                long walk resampled from a series' own steps
build_nulls                    one realized null per order; an associated
                               null ranks a single walk at every order
kl_to_null                     divergence of a series from a chosen null
bootstrap_band                 replicate divergences against the same null

An analysis run draws one associated null per series and seed, ranks it
at every order at once, and scores both the series (kl_to_model) and
every bootstrap replicate against it, so the band measures replicate
noise around the very null the series is held to.

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
    _check_order,
    _lag_ranks,
    _symmetry_ranks,
    empirical_distribution,
    empirical_distributions,
    lex_unrank,
    pattern_counts,
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
    if n not in (3, 4):
        raise OrderError(f"closed forms exist for n in (3, 4), got {n}")
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
    weights = [_normal_orthant(lex_unrank(n, r).word) for r in range(_FACT[n])]
    return PatternDistribution(n, weights, "model", 0)


# --------------------------------------------------------------------------
# Monte Carlo
# --------------------------------------------------------------------------

#: walk values drawn and ranked at a time, which bounds the memory of
#: Monte Carlo and bootstrap draws; the draws do not depend on it
_CHUNK = 1 << 20


def monte_carlo_distribution(
    model: StepModel, n: int, samples: int, seed=0
) -> PatternDistribution:
    """Pattern frequencies over independent simulated length-n walks.

    Each walk starts at 0 and takes n-1 fresh steps; m >= 100 n! keeps
    the per-pattern standard error below roughly sqrt(p/m). Deterministic
    given the seed. Exact ties (possible under empirical step multisets)
    rank earlier-index-smaller.
    """
    _check_order(n)
    if samples < 1:
        raise RangeError(f"samples must be >= 1, got {samples}")
    rng = np.random.default_rng(seed)
    counts = np.zeros(_FACT[n], dtype=np.int64)
    remaining = samples
    while remaining > 0:
        k = min(_CHUNK // n, remaining)
        # column-major, so the kernel's loops run down k walks, not along n
        z = _walks(_sample_steps(model, (k, n - 1), rng), order="F")
        _, ranks = next(_lag_ranks(z, (n,), 1, False))
        counts += np.bincount(ranks.ravel(), minlength=_FACT[n])
        remaining -= k
    return PatternDistribution(n, counts / samples, "model", samples)


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
    """Yield (k, n-1) matrices of walk prefixes (0, y1, y1+y2, ...) over
    the midpoint grid of the first n-2 step axes."""
    total = res ** (n - 2)
    for start in range(0, total, chunk):
        idx = np.arange(start, min(start + chunk, total))
        z = np.zeros((idx.size, n - 1))
        for axis in range(n - 2):
            digit = (idx // res ** (n - 3 - axis)) % res
            z[:, axis + 1] = z[:, axis] + mids[digit]
        yield z


@lru_cache(maxsize=8)
def _oracle_sweep(n: int, b: float, resolution: int) -> np.ndarray:
    """Quadrature volumes of all n! pattern regions in [b-1, b]^(n-1).

    Midpoint rule with resolution cells per axis; the last axis is counted
    analytically per column, so cost grows as resolution^(n-2) columns.
    A column whose prefix sums tie at the cell center spreads its mass
    equally over every ordering the non-tied pairs admit (normalized per
    column, so the volumes always total exactly 1). Error is
    O(1/resolution) from cells straddling the boundary hyperplanes;
    everything else is exact.
    """
    mids = (b - 1.0) + (np.arange(resolution) + 0.5) / resolution
    words = [lex_unrank(n, r).word for r in range(_FACT[n])]
    prefixes = [lex_unrank(n - 1, r).word for r in range(_FACT[n - 1])]
    prefix_index = {pword: u for u, pword in enumerate(prefixes)}
    prefix_of = [
        prefix_index[tuple(r - (r > word[n - 1]) for r in word[: n - 1])]
        for word in words
    ]
    acc = np.zeros(_FACT[n])
    for z in _prefix_chunks(resolution, n, mids, 1 << 17):
        k = z.shape[0]
        pair_tie = {}
        pair_pos = {}
        for a in range(n - 1):
            for c in range(a + 1, n - 1):
                d = z[:, c] - z[:, a]
                pair_tie[a, c] = np.abs(d) <= _SNAP_SUM
                pair_pos[a, c] = d > 0
        share = np.empty((len(prefixes), k))
        for u, pword in enumerate(prefixes):
            ind = np.ones(k)
            for a in range(n - 1):
                for c in range(a + 1, n - 1):
                    match = pair_pos[a, c] == (pword[c] > pword[a])
                    ind = ind * np.where(pair_tie[a, c], 1.0, match)
            share[u] = ind
        share /= share.sum(axis=0)
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
            acc[rank] += float((weight * np.maximum(cells, 0.0)).sum())
    acc /= float(resolution) ** (n - 1)
    acc.setflags(write=False)
    return acc


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
    if n > 5:
        raise OrderError(f"volume oracle supports n <= 5, got {n}")
    if resolution < 2:
        raise RangeError(f"resolution must be >= 2, got {resolution}")
    sweep = _oracle_sweep(n, float(model.b), int(resolution))
    return float(sweep[pattern.rank])


# --------------------------------------------------------------------------
# data-driven nulls
# --------------------------------------------------------------------------

def default_walk_length(n_obs: int) -> int:
    """Walk length used for associated nulls: max(10^6, 100 N)."""
    return max(1_000_000, 100 * n_obs)


def _resampled_walks(values: np.ndarray, shape, rng) -> np.ndarray:
    """Walks from 0 whose steps are resampled (with replacement) from the
    first differences of values; shape[-1] is the walk length."""
    if values.size < 2:
        raise LengthError("need at least two observations to extract steps")
    if shape[-1] < 2:
        raise LengthError(f"walk length must be >= 2, got {shape[-1]}")
    return _walks(rng.choice(np.diff(values), size=shape[:-1] + (shape[-1] - 1,)))


def associated_walk(series, length: int, seed=0) -> TimeSeries:
    """A walk of the given length whose steps are resampled (with
    replacement) from the observed first differences of the series.

    Starts at 0; the output has exactly `length` values.
    """
    rng = np.random.default_rng(seed)
    return TimeSeries(_resampled_walks(_as_values(series), (length,), rng))


@dataclass(frozen=True)
class NullSpec:
    """Which null model to hold a series against.

    step None is the associated null: the series' own steps resampled into
    a walk of walk_length (default max(10^6, 100 N)). A StepModel is a
    parametric step law, evaluated exactly when closed_form is set (uniform
    or centered normal steps, n <= 4) and by Monte Carlo with `samples`
    draws otherwise.
    """

    step: StepModel | None = None
    walk_length: int | None = None
    closed_form: bool = False
    samples: int = 1_000_000

    def __post_init__(self):
        if self.step is not None and not isinstance(self.step, StepModel):
            raise RangeError(f"a null's step law must be a StepModel, got {self.step!r}")
        if self.samples < 1:
            raise RangeError("samples must be >= 1")
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
        if self.method == "closed_form":
            legit = self.order <= 4 and (
                self.step_model.family == "uniform_b"
                or (self.step_model.family == "normal" and self.step_model.mu == 0)
            )
            if not legit:
                raise RangeError(
                    "closed_form is only available for uniform_b or centered "
                    "normal steps at n <= 4"
                )

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


def build_nulls(series, orders, spec: NullSpec, seed=0) -> tuple[NullModel, ...]:
    """Realize a NullSpec at several orders, one NullModel per order.

    An associated null draws one walk from `seed` and ranks it at every
    order in one pass; a parametric null gives each order its own child
    of `seed`.
    """
    if spec.step is not None:
        base = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
        return tuple(build_null(series, n, spec, child)
                     for n, child in zip(orders, base.spawn(len(orders))))
    values = _as_values(series)
    walk = associated_walk(values, spec.walk_length or default_walk_length(values.size), seed)
    model = StepModel.empirical(np.diff(values))
    dists = empirical_distributions(walk, orders)
    return tuple(
        NullModel(model, n, PatternDistribution(n, dists[n].weights, "model",
                                                dists[n].sample_count),
                  "monte_carlo", dists[n].sample_count, _seed_int(seed))
        for n in orders
    )


def build_null(series, n: int, spec: NullSpec, seed=0) -> NullModel:
    """Realize a NullSpec for a given series and order."""
    step = spec.step
    if step is None:
        return build_nulls(series, (n,), spec, seed)[0]
    if not spec.closed_form:
        dist = monte_carlo_distribution(step, n, spec.samples, seed)
        return NullModel(step, n, dist, "monte_carlo", spec.samples, _seed_int(seed))
    if step.family == "normal" and step.mu != 0:
        raise RangeError("closed-form normal nulls require mu = 0")
    # NullModel rejects a closed form for any other step law
    dist = (closed_form_uniform(n, step.b) if step.family == "uniform_b"
            else closed_form_normal_zero_mean(n))
    return NullModel(step, n, dist, "closed_form", 0, None)


def _seed_int(seed) -> int | None:
    if isinstance(seed, (int, np.integer)):
        return int(seed)
    return None  # derived SeedSequence; recorded upstream


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
    default sample budget), or None for the associated-walk null.
    Pseudocount smoothing kicks in only if the sampled null misses a
    pattern the series realizes.
    """
    null_dist = build_null(series, n, model_spec or NullSpec(), seed).distribution
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
    walk_length: int | None = None,
    seed=0,
    d: int = 1,
    policy: TiePolicy | None = None,
    smoothing: float = 1.0,
) -> tuple[BandResult, ...]:
    """Spread of the KL-to-null statistic under the series' own step law.

    Draws `replicates` associated walks of walk_length (default: the
    series length) from `seed` as one (replicates, walk_length) stack,
    ranks the stack at every null's order in one pass, and scores its rows
    against that null (the one the series itself is scored against) in
    one row-wise divergence, smoothed per row as kl_divergence would be.
    Under a jitter policy the stack is jittered once from the
    same stream. Takes one null per order and returns one BandResult per
    null; bit-identical across runs.
    """
    if replicates < 2:
        raise RangeError(f"need at least 2 replicates, got {replicates}")
    values = _as_values(series)
    length = walk_length or values.size
    rng = np.random.default_rng(seed)
    jitter = policy is not None and policy.mode == "jitter"
    null_of = {q.order: q for q in nulls}
    draws: dict[int, list[np.ndarray]] = {n: [] for n in null_of}
    block = max(1, _CHUNK // length)
    for start in range(0, replicates, block):
        stack = _resampled_walks(values, (min(block, replicates - start), length), rng)
        if jitter:
            stack += rng.normal(0.0, policy.jitter_scale, stack.shape)
        counts = pattern_counts(stack, null_of, d, None if jitter else policy)
        for n, rows in counts.items():
            draws[n].append(_kl_rows(rows / (length - (n - 1) * d), null_of[n], smoothing))
    return tuple(
        BandResult(float(np.mean(kl)), float(np.std(kl, ddof=1)), tuple(kl.tolist()))
        for kl in (np.concatenate(draws[q.order]) for q in nulls)
    )
