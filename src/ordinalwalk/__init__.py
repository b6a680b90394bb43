"""Ordinal-pattern statistics of time series against random-walk nulls.

The package turns a scalar series into its distribution of ordinal
patterns (the permutations realized by length-n windows), then measures
that distribution: permutation entropy, divergence from exact or
simulated random-walk models, equivalence-class spread, and the
monotone-pattern momentum excess. A bootstrap over the series' own
increments yields error bands, and a CLI exposes the whole pipeline.
"""

from .analysis import (
    AnalysisConfig,
    AnalysisResult,
    OrderAnalysis,
    WindowSpec,
    analyze,
    analyze_run,
    emit,
    ingest_csv,
    windowed_analyze,
    windowed_run,
)
from .classes import (
    ClassSpreadReport,
    EquivalenceClassTable,
    equivalence_classes,
    rc_closure,
    validate_classes,
)
from .errors import (
    EmptyError,
    LengthError,
    OrderError,
    OrderMismatchError,
    OrdinalWalkError,
    ParseError,
    RangeError,
    SpecError,
    SupportError,
    TieError,
)
from .generators import GeneratorSpec, generate
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
    StepModel,
    build_null,
    build_nulls,
    closed_form_normal_zero_mean,
    closed_form_uniform,
    default_walk_length,
    kl_to_null,
    monte_carlo_distribution,
    step_sign_distribution,
    volume_oracle,
)
from .patterns import (
    MAX_ORDER,
    OrdinalPattern,
    PatternDistribution,
    TiePolicy,
    TimeSeries,
    all_patterns,
    empirical_distribution,
    empirical_distributions,
    extract_patterns,
    lex_rank,
    lex_unrank,
    pattern_counts,
    standardize,
    symmetry_transform,
)

__version__ = "0.1.0"

__all__ = [
    "AnalysisConfig", "AnalysisResult", "ClassSpreadReport",
    "EmptyError", "EquivalenceClassTable", "GeneratorSpec", "LengthError",
    "MAX_ORDER", "MetricReport", "NullModel", "NullSpec", "OrderAnalysis",
    "OrderError", "OrderMismatchError", "OrdinalPattern", "OrdinalWalkError",
    "ParseError", "PatternDistribution", "RangeError", "SpecError",
    "StepModel", "SupportError", "TiePolicy", "TieError", "TimeSeries",
    "WindowSpec", "all_patterns", "analyze", "analyze_run",
    "build_null", "build_nulls",
    "closed_form_normal_zero_mean", "closed_form_uniform",
    "default_walk_length", "emit", "empirical_distribution",
    "empirical_distributions", "equivalence_classes", "extract_patterns",
    "g_statistic", "generate", "ingest_csv", "kl_divergence", "kl_to_null",
    "lex_rank", "lex_unrank", "missing_pattern_count", "momentum_epsilon",
    "monte_carlo_distribution", "pattern_counts", "permutation_entropy",
    "rc_closure", "standardize", "step_sign_distribution",
    "symmetry_transform", "validate_classes", "volume_oracle",
    "windowed_analyze", "windowed_run",
]
