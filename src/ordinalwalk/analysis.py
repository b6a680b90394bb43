"""Analysis orchestration: ingestion, whole-series and windowed runs, and
report emission.

ingest_csv        read one numeric column into a TimeSeries, no imputation
analyze           MetricReport per order for a whole series
analyze_run       same, but returns the full AnalysisResult with distributions
windowed_analyze  slide a window and analyze each position independently,
                  windows in parallel on a thread pool
emit              serialize results as json, csv, or plotdata bytes

Every random stream derives from the configured seed and, for windows, the
window's start index, so a run is reproducible byte for byte and window
results do not depend on evaluation order.
"""

from __future__ import annotations

import codecs
import csv
import io
import json
import math
import os
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Literal

import numpy as np

from .classes import walk_classes
from .errors import EmptyError, LengthError, OrderError, ParseError, RangeError
from .metrics import (
    MetricReport,
    _check_smoothing,
    g_statistic,
    kl_divergence,
    missing_pattern_count,
    momentum_epsilon,
    permutation_entropy,
)
from .nullmodels import NullModel, NullSpec, _nulls_and_bands
from .patterns import (
    PatternDistribution,
    TiePolicy,
    TimeSeries,
    _as_series,
    _check_orders,
    _check_seed,
    _pattern_strings,
    empirical_distributions,
)


@dataclass(frozen=True)
class AnalysisConfig:
    """Knobs for one analysis run.

    orders are the pattern lengths to report on (3..MAX_ORDER); delay,
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
        orders = tuple(_check_orders(self.orders))
        if orders[0] < 3:  # order 2 has no class table; it serves the momentum metrics
            raise OrderError(f"analysis needs order >= 3, got {orders[0]}")
        object.__setattr__(self, "orders", orders)
        if self.policy is not None and self.policy.mode == "jitter" and self.policy.seed:
            raise RangeError("analysis jitters from the run seed; leave the policy's seed at 0")
        if self.delay < 1:
            raise RangeError(f"delay must be >= 1, got {self.delay}")
        if self.replicates < 0 or self.replicates == 1:  # a band's spread needs two
            raise RangeError(f"replicates must be 0 or >= 2, got {self.replicates}")
        _check_seed(self.seed)
        _check_smoothing(self.smoothing)


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
    row, a non-numeric cell or a byte that is not UTF-8 raises ParseError
    naming the line. Blank lines after the last value are tolerated.

    A well-formed file is read by a numpy.loadtxt fast path; every other
    file goes through the row parser, which is the only source of
    ParseError and EmptyError, so each error keeps its message and line.
    """
    if isinstance(column, str) and not header:
        raise ParseError(f"{path}: selecting column {column!r} by name needs header=True")
    if isinstance(column, int) and column < 0:
        raise ParseError(f"{path}: column index must be >= 0, got {column}")
    values = _loadtxt_column(path, column, header)
    return TimeSeries(_parse_rows(path, column, header) if values is None else values)


def _loadtxt_column(path, column: int | str, header: bool) -> np.ndarray | None:
    """The column as numpy.loadtxt reads it, or None when the row parser
    must read the file.

    Without quotes or lone carriage returns, loadtxt splits lines and cells
    as csv.reader does and accepts a subset of what float() accepts, with
    the same values. It differs in skipping empty lines and in reading
    non-finite cells, so its result stands only when every line up to the
    last non-whitespace byte gave one finite value. It stops there, so
    whitespace-only lines after the last value are never read.
    """
    with open(path, "rb") as handle:
        data = handle.read().removeprefix(codecs.BOM_UTF8)  # as loadtxt reads it
    end = _stripped_end(data)
    rows = _newlines(data, end) + 1 - header if end else 0
    if rows < 1 or b'"' in data or (b"\r" in data and data.count(b"\r") != data.count(b"\r\n")):
        return None
    index = column
    if header:  # rows >= 1, so the header line ends in a newline
        try:
            first = data[: data.find(b"\n")].decode("utf-8")
        except UnicodeDecodeError:
            return None
        names = [cell.strip() for cell in first.split(",")]
        if not any(names) or (isinstance(column, str) and column not in names):
            return None  # a blank or unmatched header line: the row parser names it
        if isinstance(column, str):
            index = names.index(column)
    del data  # loadtxt reads the path itself; holding the bytes raises the peak
    try:
        with warnings.catch_warnings():
            # an empty line before the last value: counted short below
            warnings.simplefilter("ignore", UserWarning)
            values = np.loadtxt(path, delimiter=",", usecols=index, comments=None,
                                skiprows=int(header), max_rows=rows, ndmin=1,
                                encoding="utf-8-sig")
    except (ValueError, OverflowError):  # a cell, row, column index or byte it rejects
        return None
    if values.size != rows or not np.isfinite(values).all():
        return None
    values.base.setflags(write=False)  # the (rows, 1) array that loadtxt's column views
    values.setflags(write=False)  # both frozen, so TimeSeries keeps it without a copy
    return values


#: bytes per slice of _newlines: small next to the file, large next to a call
_NEWLINE_SLICE = 1 << 18


def _newlines(data: bytes, end: int) -> int:
    """data.count(b"\n", 0, end), counted as bytes equal to 10 in a uint8
    view, a slice at a time so that no temporary is as long as the file;
    about ten times faster than bytes.count."""
    view = np.frombuffer(data, np.uint8, count=end)
    return sum(int(np.count_nonzero(view[lo:lo + _NEWLINE_SLICE] == 10))
               for lo in range(0, end, _NEWLINE_SLICE))


def _stripped_end(data: bytes) -> int:
    """len(data.rstrip()), stepping back over the trailing whitespace in
    doubling pieces rather than copying all of data."""
    end, piece = len(data), 64
    while end:
        lo = max(0, end - piece)
        kept = len(data[lo:end].rstrip())
        if kept:
            return lo + kept
        end, piece = lo, 2 * piece
    return 0


def _parse_rows(path, column: int | str, header: bool) -> list[float]:
    """Read the column line by line with csv.reader and float(), raising
    ParseError at the first line that does not hold a finite value."""
    values: list[float] = []
    pending_blank: int | None = None
    index: int | None = column if isinstance(column, int) else None
    limit = csv.field_size_limit()  # a bad cell longer than this is not quoted
    for lineno, row in enumerate(_csv_rows(path), start=1):
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
            value = None
        if value is None or not math.isfinite(value):
            if len(cell) > limit:  # too long to quote: csv's own message
                raise ParseError(f"{path}: line {lineno}: field larger than field limit ({limit})")
            problem = "numeric" if value is None else "finite"
            raise ParseError(f"{path}: line {lineno}: {cell!r} is not {problem}")
        values.append(value)
    if not values:
        raise EmptyError(f"{path}: no data rows")
    return values


def _csv_rows(path):
    """csv.reader over the file's lines, its bytes read once and decoded up
    front (a leading byte-order mark dropped), with cells as long as the file.
    A byte that is not UTF-8, or a record csv rejects, raises ParseError
    naming its line."""
    with open(path, "rb") as handle:
        data = handle.read()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = len(data[: exc.start + 1].splitlines())
        raise ParseError(
            f"{path}: line {lineno}: byte {data[exc.start]:#04x} is not UTF-8"
        ) from None
    # decoded again a chunk at a time: a StringIO of the whole text would
    # hold four bytes per character
    with io.TextIOWrapper(io.BytesIO(data), encoding="utf-8-sig", newline="") as lines:
        rows = csv.reader(lines)
        limit = csv.field_size_limit(len(data))  # no cell is longer than the file
        try:
            yield from rows
        except csv.Error as exc:
            raise ParseError(f"{path}: line {rows.line_num}: {exc}") from None
        finally:
            csv.field_size_limit(limit)


# --------------------------------------------------------------------------
# analysis
# --------------------------------------------------------------------------

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
    analysis exactly. One null per run serves both kl_to_model and the
    band, drawn from the run's null and band keys (NullSpec says which
    draws what); a jitter policy perturbs the series from the jitter key.
    """
    ts = _as_series(series)
    base = np.random.SeedSequence(config.seed, spawn_key=(window_start,))
    null_key, band_key, jitter_key = base.spawn(3)
    policy = config.policy
    if policy is not None and policy.mode == "jitter":
        policy = replace(policy, seed=jitter_key)
    empiricals = empirical_distributions(ts, (2,) + config.orders, config.delay, policy)
    dist2 = empiricals[2]
    runs = []
    for null, band in _nulls_and_bands(ts, config.orders, config.null, null_key, config.delay,
                                       config.policy, config.replicates, config.smoothing,
                                       band_key):
        n = null.order
        empirical = empiricals[n]
        kl = kl_divergence(empirical, null.distribution, config.smoothing)
        classes = walk_classes(n)
        report = MetricReport(
            n=n,
            permutation_entropy=permutation_entropy(empirical),
            missing_count=missing_pattern_count(empirical),
            kl_to_model=kl,
            g_statistic=g_statistic(empirical, classes),
            epsilon_up=momentum_epsilon(empirical, dist2, "up"),
            epsilon_down=momentum_epsilon(empirical, dist2, "down"),
            kl_band_mean=None if band is None else float(np.mean(band)),
            kl_band_std=None if band is None else float(np.std(band, ddof=1)),
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
    """Analyze every window position; window starts are 1-based.

    Windows run on a thread pool with one thread per available core and
    come back in start order. Each window's streams are keyed by its start,
    so results do not depend on scheduling; the first failing window, in
    start order, raises its error.
    """
    config = config or AnalysisConfig()
    ts = _as_series(series)
    w, s = wspec.window_length, wspec.stride
    if w > len(ts):
        raise LengthError(
            f"window length {w} exceeds series length {len(ts)}"
        )
    starts = range(0, len(ts) - w + 1, s)

    def run(start: int) -> AnalysisResult:
        return analyze_run(TimeSeries(ts.values[start:start + w]), config, start + 1)

    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        cores = os.cpu_count() or 1
    # threads, not processes: numpy releases the GIL in the draws, sums and
    # comparisons, the class tables are shared, and nothing is pickled
    with ThreadPoolExecutor(min(cores, len(starts))) as pool:
        return list(pool.map(run, starts))


def windowed_analyze(
    series, wspec: WindowSpec, config: AnalysisConfig | None = None
) -> list[tuple[int, list[MetricReport]]]:
    """(window start, reports) for each window position."""
    return [(r.window_start, r.reports) for r in windowed_run(series, wspec, config)]


# --------------------------------------------------------------------------
# emission
# --------------------------------------------------------------------------

#: csv column -> MetricReport field, after the leading window_start column
_CSV_COLUMNS = {"n": "n", "pe": "permutation_entropy", "missing": "missing_count",
                "kl": "kl_to_model", "kl_mean": "kl_band_mean", "kl_std": "kl_band_std",
                "g": "g_statistic", "eps_up": "epsilon_up", "eps_down": "epsilon_down",
                "seed": "seed"}


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


def _csv_bytes(rows) -> bytes:
    """Rows of cells as CSV, each cell as _cell writes it and each line
    ended by a newline; no cell holds a comma, quote or newline, so none
    needs quoting."""
    return "".join(",".join(map(_cell, row)) + "\n" for row in rows).encode()


def _json_bytes(doc) -> bytes:
    """doc as indented JSON with sorted keys, ended by a newline."""
    return (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode()


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
        return _json_bytes(doc)
    if format == "csv":
        return _csv_bytes([["window_start", *_CSV_COLUMNS]] + [
            [r.window_start] + [getattr(oa.report, field) for field in _CSV_COLUMNS.values()]
            for r in results for oa in r.per_order])
    if format == "plotdata":
        # the bytes _csv_bytes would write, formatted directly: a _cell call
        # per cell doubles the time over orders 3..7's 5 910 rows
        lines = ["window_start,n,pattern,empirical,null\n"]
        for r in results:
            for oa in r.per_order:
                n = oa.report.n
                head = f"{r.window_start},{n},"
                lines += [f"{head}{word},{p!r},{q!r}\n" for word, p, q in zip(
                    _pattern_strings(n), oa.empirical.weights.tolist(),
                    oa.null.distribution.weights.tolist())]
        return "".join(lines).encode()
    raise RangeError(f"unknown emit format {format!r}")
