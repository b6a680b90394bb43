"""Analysis orchestration: ingestion, whole-series and windowed runs, and
report emission.

ingest_csv        read one numeric column into a TimeSeries, no imputation
analyze           MetricReport per order for a whole series
analyze_run       same, but returns the full AnalysisResult with distributions
windowed_analyze  slide a window and analyze each position independently
emit              serialize results as json, csv, or plotdata bytes

Every random stream derives from the configured seed and, for windows, the
window's start index, so a run is reproducible byte for byte and window
results do not depend on evaluation order.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field
from typing import Literal, Sequence

import numpy as np

from .classes import equivalence_classes, rc_closure
from .errors import EmptyError, LengthError, ParseError, RangeError
from .metrics import (
    MetricReport,
    g_statistic,
    kl_divergence,
    missing_pattern_count,
    momentum_epsilon,
    permutation_entropy,
)
from .nullmodels import (
    NullModel,
    NullSpec,
    bootstrap_band,
    build_nulls,
)
from .patterns import (
    PatternDistribution,
    TiePolicy,
    TimeSeries,
    _apply_jitter,
    _check_order,
    empirical_distributions,
    lex_unrank,
)

_MIN_ORDER = 3


@dataclass(frozen=True)
class AnalysisConfig:
    """Knobs for one analysis run.

    orders are the pattern lengths to report on (each in [3, 7]); delay,
    tie policy, and smoothing feed pattern extraction and divergence;
    null picks the reference model; replicates sets the bootstrap size
    (0 disables the band). A jitter policy's noise is drawn from the run's
    seed, so the policy's own seed must stay 0.
    """

    orders: tuple[int, ...] = (4, 5)
    delay: int = 1
    policy: TiePolicy | None = None
    null: NullSpec = field(default_factory=NullSpec)
    replicates: int = 400
    seed: int = 0
    smoothing: float = 1.0

    def __post_init__(self):
        orders = tuple(sorted(set(int(n) for n in self.orders)))
        if not orders:
            raise RangeError("need at least one order")
        if orders[0] < _MIN_ORDER:
            raise RangeError(f"analysis needs order >= {_MIN_ORDER}, got {orders[0]}")
        _check_order(orders[-1])
        object.__setattr__(self, "orders", orders)
        if self.policy is not None and self.policy.mode == "jitter" and self.policy.seed:
            raise RangeError("analysis jitters from the run seed; leave the policy's seed at 0")
        if self.delay < 1:
            raise RangeError(f"delay must be >= 1, got {self.delay}")
        if self.replicates < 0:
            raise RangeError(f"replicates must be >= 0, got {self.replicates}")
        if self.smoothing < 0:
            raise RangeError(f"smoothing must be >= 0, got {self.smoothing}")


@dataclass(frozen=True)
class WindowSpec:
    """Sliding-window geometry: length W, stride S (both in samples)."""

    window_length: int
    stride: int

    def __post_init__(self):
        if self.window_length < 2:
            raise RangeError(f"window length must be >= 2, got {self.window_length}")
        if self.stride < 1:
            raise RangeError(f"stride must be >= 1, got {self.stride}")


# --------------------------------------------------------------------------
# ingestion
# --------------------------------------------------------------------------

def ingest_csv(path, column: int | str = 0, header: bool = False) -> TimeSeries:
    """Read one column of a CSV file as a time series.

    column selects by zero-based index, or by name when header is set.
    Cells must parse as finite numbers; a blank line mid-series, a short
    row, or a non-numeric cell raises ParseError naming the line. Blank
    lines after the last value are tolerated.
    """
    if isinstance(column, str) and not header:
        raise ParseError(f"{path}: selecting column {column!r} by name needs header=True")
    if isinstance(column, int) and column < 0:
        raise ParseError(f"{path}: column index must be >= 0, got {column}")
    values: list[float] = []
    pending_blank: int | None = None
    index: int | None = column if isinstance(column, int) else None
    with open(path, newline="", encoding="utf-8-sig") as handle:
        for lineno, row in enumerate(csv.reader(handle), start=1):
            if not row or all(cell.strip() == "" for cell in row):
                if pending_blank is None:
                    pending_blank = lineno
                continue
            if pending_blank is not None:
                raise ParseError(f"{path}: line {pending_blank}: blank line mid-series")
            if header and lineno == 1:
                if isinstance(column, str):
                    names = [cell.strip() for cell in row]
                    if column not in names:
                        raise ParseError(
                            f"{path}: line 1: no column named {column!r} "
                            f"(have {names})"
                        )
                    index = names.index(column)
                continue
            if index >= len(row):
                raise ParseError(
                    f"{path}: line {lineno}: row has {len(row)} cells, "
                    f"need column {index}"
                )
            cell = row[index].strip()
            try:
                value = float(cell)
            except ValueError:
                raise ParseError(
                    f"{path}: line {lineno}: {cell!r} is not numeric"
                ) from None
            if not math.isfinite(value):
                raise ParseError(f"{path}: line {lineno}: {cell!r} is not finite")
            values.append(value)
    if not values:
        raise EmptyError(f"{path}: no data rows")
    return TimeSeries(np.asarray(values))


# --------------------------------------------------------------------------
# analysis
# --------------------------------------------------------------------------

def _as_series(series) -> TimeSeries:
    # unlike patterns._as_values, this rejects a 2-D stack of series
    return series if isinstance(series, TimeSeries) else TimeSeries(series)


@dataclass(frozen=True)
class OrderAnalysis:
    """One order's report plus the distributions behind it."""

    report: MetricReport
    empirical: PatternDistribution
    null: NullModel


@dataclass(frozen=True)
class AnalysisResult:
    """All orders' results for one series (or one window of it)."""

    seed: int
    window_start: int
    per_order: tuple[OrderAnalysis, ...]

    @property
    def reports(self) -> list[MetricReport]:
        return [oa.report for oa in self.per_order]


def analyze_run(series, config: AnalysisConfig, window_start: int = 1) -> AnalysisResult:
    """Analyze one series under a config, keeping distributions around.

    window_start keys the derived random streams (the whole series is
    window 1), so a length-N window at start 1 reproduces the whole-series
    analysis exactly. One null per run, from the run's null key, serves
    both kl_to_model and the band, whose replicates come from the band key;
    a jitter policy perturbs the series from the jitter key.
    """
    ts = _as_series(series)
    needed = (max(config.orders) - 1) * config.delay + 1
    if len(ts) < needed:
        raise LengthError(
            f"series of length {len(ts)} is too short for order "
            f"{max(config.orders)} at delay {config.delay} (needs {needed})"
        )
    base = np.random.SeedSequence(config.seed, spawn_key=(window_start,))
    null_key, band_key, jitter_key = base.spawn(3)
    values, policy = ts, config.policy
    if policy is not None and policy.mode == "jitter":
        # rank a copy jittered from the run's key, with stable ties
        values, policy = _apply_jitter(ts.values, policy.jitter_scale, jitter_key), None
    empiricals = empirical_distributions(values, (2,) + config.orders, config.delay, policy)
    dist2 = empiricals[2]
    nulls = build_nulls(ts, config.orders, config.null, null_key)
    bands = [None] * len(nulls)
    if config.replicates > 0:
        bands = bootstrap_band(
            ts, [null.distribution for null in nulls], config.replicates, None,
            band_key, config.delay, config.policy, config.smoothing,
        )
    runs = []
    for null, band in zip(nulls, bands):
        n = null.order
        empirical = empiricals[n]
        kl = kl_divergence(empirical, null.distribution, config.smoothing)
        classes = equivalence_classes(n) if n <= 5 else rc_closure(n)
        report = MetricReport(
            n=n,
            permutation_entropy=permutation_entropy(empirical),
            missing_count=missing_pattern_count(empirical),
            kl_to_model=kl,
            g_statistic=g_statistic(empirical, classes),
            epsilon_up=momentum_epsilon(empirical, dist2, "up"),
            epsilon_down=momentum_epsilon(empirical, dist2, "down"),
            kl_band_mean=None if band is None else band.mean,
            kl_band_std=None if band is None else band.std,
            classes_source=classes.source,
            model=config.null.describe(),
            seed=config.seed,
        )
        runs.append(OrderAnalysis(report, empirical, null))
    return AnalysisResult(config.seed, window_start, tuple(runs))


def analyze(series, config: AnalysisConfig | None = None) -> list[MetricReport]:
    """MetricReport per order for a whole series."""
    return analyze_run(series, config or AnalysisConfig()).reports


def windowed_run(
    series, wspec: WindowSpec, config: AnalysisConfig | None = None
) -> list[AnalysisResult]:
    """Analyze every window position; window starts are 1-based."""
    config = config or AnalysisConfig()
    ts = _as_series(series)
    w, s = wspec.window_length, wspec.stride
    if w > len(ts):
        raise LengthError(
            f"window length {w} exceeds series length {len(ts)}"
        )
    results = []
    for start in range(0, len(ts) - w + 1, s):
        window = TimeSeries(ts.values[start:start + w])
        results.append(analyze_run(window, config, window_start=start + 1))
    return results


def windowed_analyze(
    series, wspec: WindowSpec, config: AnalysisConfig | None = None
) -> list[tuple[int, list[MetricReport]]]:
    """(window start, reports) for each window position."""
    return [(r.window_start, r.reports) for r in windowed_run(series, wspec, config)]


# --------------------------------------------------------------------------
# emission
# --------------------------------------------------------------------------

_CSV_COLUMNS = ("window_start", "n", "pe", "missing", "kl", "kl_mean",
                "kl_std", "g", "eps_up", "eps_down", "seed")


def _as_results(result) -> tuple[list[AnalysisResult], bool]:
    if isinstance(result, AnalysisResult):
        return [result], False
    results = list(result)
    if not results:
        raise RangeError("nothing to emit")
    if not all(isinstance(r, AnalysisResult) for r in results):
        raise RangeError("emit expects AnalysisResult values")
    return results, True


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def emit(result, format: Literal["json", "csv", "plotdata"] = "json") -> bytes:
    """Serialize one AnalysisResult (or a windowed sequence of them).

    json nests reports under their windows; csv emits one row per
    (window, order) with the fixed column set; plotdata emits one row per
    (window, order, pattern) carrying empirical and null weights, ready
    for paired-histogram plotting. All three are deterministic functions
    of the result.
    """
    results, windowed = _as_results(result)
    if format == "json":
        blocks = [
            {"window_start": r.window_start,
             "reports": [oa.report.to_json_dict() for oa in r.per_order]}
            for r in results
        ]
        if windowed:
            doc = {"seed": results[0].seed, "windows": blocks}
        else:
            doc = {"seed": results[0].seed, "reports": blocks[0]["reports"]}
        return (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode()
    if format == "csv":
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(_CSV_COLUMNS)
        for r in results:
            for oa in r.per_order:
                rep = oa.report
                writer.writerow([
                    _cell(r.window_start), _cell(rep.n),
                    _cell(rep.permutation_entropy), _cell(rep.missing_count),
                    _cell(rep.kl_to_model), _cell(rep.kl_band_mean),
                    _cell(rep.kl_band_std), _cell(rep.g_statistic),
                    _cell(rep.epsilon_up), _cell(rep.epsilon_down),
                    _cell(rep.seed),
                ])
        return buffer.getvalue().encode()
    if format == "plotdata":
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(("window_start", "n", "pattern", "empirical", "null"))
        for r in results:
            for oa in r.per_order:
                n = oa.report.n
                for rank in range(oa.empirical.weights.size):
                    writer.writerow((
                        r.window_start, n, str(lex_unrank(n, rank)),
                        repr(float(oa.empirical.weights[rank])),
                        repr(float(oa.null.distribution.weights[rank])),
                    ))
        return buffer.getvalue().encode()
    raise RangeError(f"unknown emit format {format!r}")
