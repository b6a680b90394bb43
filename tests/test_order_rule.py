"""One order rule.

Patterns exist for orders 2..MAX_ORDER, and patterns._check_order is the
only check of that range. Every narrower range belongs to one owner: the
analysis (3..7), the reference class tables (3..5), the closed forms (3, 4)
and the quadrature oracle (3..5). Every refusal, wherever it comes from, is
an OrderError, which is a RangeError, and the command line exits 3 on it.
"""

import numpy as np
import pytest

from ordinalwalk import (
    AnalysisConfig,
    EquivalenceClassTable,
    MetricReport,
    NullSpec,
    OrderError,
    OrdinalPattern,
    PatternDistribution,
    RangeError,
    StepModel,
    all_patterns,
    build_nulls,
    closed_form_normal_zero_mean,
    closed_form_uniform,
    empirical_distribution,
    equivalence_classes,
    lex_unrank,
    monte_carlo_distribution,
    pattern_counts,
    rc_closure,
    volume_oracle,
)
from ordinalwalk.cli import main

X = np.cumsum(np.random.default_rng(0).normal(size=60))
UNIFORM = StepModel.uniform(0.6)
BASE = r"^patterns support orders 2\.\.7, got "

# entry point -> (call, the message its owner gives)
REFUSALS = {
    "lex_unrank": (lambda: lex_unrank(8, 0), BASE + "8$"),
    "all_patterns": (lambda: all_patterns(1), BASE + "1$"),
    "PatternDistribution.uniform": (lambda: PatternDistribution.uniform(8), BASE + "8$"),
    "empirical_distribution": (lambda: empirical_distribution(X, 8), BASE + "8$"),
    "pattern_counts": (lambda: pattern_counts(X, (1,)), BASE + "1$"),
    "build_nulls": (lambda: build_nulls(X, (8,), NullSpec()), BASE + "8$"),
    "monte_carlo_distribution": (lambda: monte_carlo_distribution(UNIFORM, 8, 10), BASE + "8$"),
    "AnalysisConfig": (lambda: AnalysisConfig(orders=(8,)), BASE + "8$"),
    "MetricReport, order 8": (lambda: MetricReport(8, 0.5, 0), BASE + "8$"),
    "MetricReport, order 0": (lambda: MetricReport(0, 0.5, 0), BASE + "0$"),
    "MetricReport, order -1": (lambda: MetricReport(-1, 0.5, 0), BASE + "-1$"),
    "AnalysisConfig, order 2": (lambda: AnalysisConfig(orders=(2, 4)),
                                r"^analysis needs order >= 3, got 2$"),
    "EquivalenceClassTable": (lambda: EquivalenceClassTable(8, ((0,),), "reference"),
                              BASE + "8$"),
    "rc_closure": (lambda: rc_closure(8), BASE + "8$"),
    "equivalence_classes": (lambda: equivalence_classes(6),
                            r"^class tables exist for n in \(3, 4, 5\), got 6$"),
    "closed_form_uniform": (lambda: closed_form_uniform(5, 0.6),
                            r"^closed forms exist for n in \(3, 4\), got 5$"),
    "closed_form_normal_zero_mean": (lambda: closed_form_normal_zero_mean(5),
                                     r"^closed forms exist for n in \(3, 4\), got 5$"),
    "volume_oracle": (lambda: volume_oracle(OrdinalPattern((1, 2, 3, 4, 5, 6)), UNIFORM, 4),
                      r"^volume oracle supports n in \[3, 5\], got 6$"),
}


def test_order_error_is_a_range_error():
    assert issubclass(OrderError, RangeError)


@pytest.mark.parametrize("name", sorted(REFUSALS))
def test_every_order_refusal_is_an_order_error(name):
    call, message = REFUSALS[name]
    with pytest.raises(OrderError, match=message) as err:
        call()
    assert isinstance(err.value, RangeError)


# entry point -> a call with an order that is not an integer
NON_INTEGERS = {
    "pattern_counts": lambda: pattern_counts(X, (3.7,)),
    "AnalysisConfig": lambda: AnalysisConfig(orders=(3.9,)),
    "lex_unrank": lambda: lex_unrank(3.5, 0),
    "empirical_distribution": lambda: empirical_distribution(X, 3.5),
}


@pytest.mark.parametrize("name", sorted(NON_INTEGERS))
def test_a_non_integer_order_is_an_order_error_naming_it(name):
    with pytest.raises(OrderError, match=r"^orders must be integers, got 3\.[579]$"):
        NON_INTEGERS[name]()


def test_integer_types_pass_and_integral_floats_do_not():
    assert AnalysisConfig(orders=(np.int64(5), np.int32(3))).orders == (3, 5)
    assert lex_unrank(np.int64(3), 5).word == (3, 2, 1)
    with pytest.raises(OrderError, match=r"^orders must be integers, got 4\.0$"):
        AnalysisConfig(orders=(4.0,))


@pytest.mark.parametrize("call", [
    lambda: pattern_counts(X, ()),
    lambda: build_nulls(X, (), NullSpec()),
    lambda: AnalysisConfig(orders=()),
], ids=["pattern_counts", "build_nulls", "AnalysisConfig"])
def test_an_empty_order_list_is_refused_alike(call):
    with pytest.raises(RangeError, match="^need at least one order$") as err:
        call()
    assert not isinstance(err.value, OrderError)


def test_order_lists_are_sorted_and_deduplicated_but_nulls_keep_the_callers_order():
    assert AnalysisConfig(orders=(5, 3, 5)).orders == (3, 5)
    assert sorted(pattern_counts(X, (5, 3, 5))) == [3, 5]
    spec = NullSpec(UNIFORM, samples=200)
    assert [null.order for null in build_nulls(X, (5, 3), spec, 1)] == [5, 3]


def test_monte_carlo_reports_bad_samples_through_the_null_spec():
    with pytest.raises(RangeError, match="^samples must be >= 1, got 0$"):
        monte_carlo_distribution(UNIFORM, 4, 0)
    with pytest.raises(RangeError, match="^samples must be >= 1, got 0$"):
        monte_carlo_distribution(UNIFORM, 8, 0)


# ---------------------------------------------------------------- command line

@pytest.fixture
def walk_csv(tmp_path):
    path = tmp_path / "walk.csv"
    path.write_text("\n".join(repr(float(v)) for v in X) + "\n")
    return str(path)


@pytest.mark.parametrize("argv", [
    ["analyze", "{csv}", "--orders", "8", "--replicates", "0"],
    ["classes", "--n", "8"],
    ["classes", "--n", "8", "--closure"],
    ["nullmodel", "--n", "8"],
    ["nullmodel", "--n", "8", "--closed-form"],
    ["oracle", "--n", "6", "--resolution", "4"],
])
def test_cli_exits_3_on_an_unsupported_order(argv, walk_csv, capsys):
    assert main([arg.format(csv=walk_csv) for arg in argv]) == 3
    assert capsys.readouterr().err.startswith("numerical error: ")


def test_cli_base_message_for_an_order_no_pattern_has(capsys):
    assert main(["nullmodel", "--closed-form", "--n", "8"]) == 3
    assert capsys.readouterr().err == "numerical error: patterns support orders 2..7, got 8\n"


def test_oracle_without_a_closed_form_leaves_its_cells_empty(capsys):
    assert main(["oracle", "--n", "5", "--b", "0.6", "--resolution", "4"]) == 0
    header, *rows = capsys.readouterr().out.splitlines()
    assert header == "b,pattern,volume,closed_form,abs_err"
    assert len(rows) == 120
    assert all(row.startswith("0.6,") and row.endswith(",,") for row in rows)


def test_oracle_with_a_closed_form_fills_its_cells(capsys):
    assert main(["oracle", "--n", "3", "--b", "0.6", "--resolution", "4"]) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert len(rows) == 6
    assert all(row.split(",")[3] and row.split(",")[4] for row in rows)
